"""Acceptance suite: one test per exit criterion, each printing a
single pass/fail line with the measured numbers (run pytest -s to watch).
Tolerances are pinned here and nowhere else."""

import itertools
import random
import time
from collections import Counter

import pytest

from kpath_kernel.graphs import Graph, is_guarded, open_neighborhood, traverses
from kpath_kernel.linkage import (
    LinkageInstance,
    brute_force_linkage,
    decision_to_witness,
    solve_linkage,
    validate_solution,
)
from kpath_kernel.modulator import rho
from kpath_kernel.reduction import _request_universe, enumerate_candidates, make_guarded_region, p_bound
from kpath_kernel.separation import separation_from_decomposition
from kpath_kernel.suite import SuiteConfig, run_suite
from kpath_kernel.treedecomp import (
    TreeDecomposition,
    binarize,
    compute_decomposition,
    make_connected,
    stats,
    validate,
)


def emit(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def random_graph(rng, n, p):
    g = Graph.from_edges(range(1, n + 1))
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < p:
            g.add_edge(a, b)
    return g


def random_linkage_instance(rng):
    n = rng.randint(1, 10)
    g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7]))
    verts = sorted(g.vertices)
    terms = frozenset(rng.sample(verts, min(n, rng.randint(0, 5))))
    tlist = sorted(terms)
    reqs = []
    for _ in range(rng.randint(0, 3)):
        size = rng.choice([0, 1, 1, 2, 2])
        size = min(size, len(tlist))
        reqs.append(frozenset(rng.sample(tlist, size)))
    return LinkageInstance(g, rng.randint(0, 8), terms, tuple(reqs))


@pytest.fixture(scope="module")
def default_suite_reports():
    started = time.monotonic()
    reports = run_suite(SuiteConfig())
    return reports, time.monotonic() - started


@pytest.fixture(scope="module")
def step_suite_reports():
    cfg = SuiteConfig(
        count=100,
        seed=31415926,
        max_n=24,
        max_k=3,
        max_eta=1,
        max_ell=2,
        mode="both",
        check_steps=True,
        m_override=4,
    )
    return run_suite(cfg)


def test_criterion_1_oracle_equivalence():
    rng = random.Random(20260810)
    started = time.monotonic()
    disagreements = 0
    for _ in range(500):
        inst = random_linkage_instance(rng)
        fast = solve_linkage(inst)
        slow = brute_force_linkage(inst)
        if (fast is None) != (slow is None):
            disagreements += 1
        elif fast is not None and not (
            validate_solution(inst, fast) and validate_solution(inst, slow)
        ):
            disagreements += 1
    elapsed = time.monotonic() - started
    ok = disagreements == 0 and elapsed < 60
    emit(1, ok, f"500 linkage instances, {disagreements} disagreements, {elapsed:.1f}s")
    assert disagreements == 0
    assert elapsed < 60


def test_criterion_2_end_to_end_kernel_correctness(default_suite_reports):
    reports, elapsed = default_suite_reports
    wrong = [r.index for r in reports if not r.agreement]
    ok = len(reports) >= 500 and not wrong and elapsed < 600
    emit(2, ok, f"{len(reports)} instances, {len(wrong)} disagreements, {elapsed:.1f}s")
    assert len(reports) >= 500
    assert not wrong
    assert elapsed < 600


def test_criterion_3_step_level_safeness(step_suite_reports):
    reports = step_suite_reports
    steps = [c for r in reports for c in r.bound_checks if c["name"] == "step_safeness"]
    violations = [c for c in steps if not c["pass"]]
    ok = len(reports) >= 100 and steps and not violations
    emit(
        3,
        ok,
        f"{len(reports)} instances, {len(steps)} reduction steps checked, "
        f"{len(violations)} answer changes",
    )
    assert len(reports) >= 100
    assert steps, "no reduction ever fired; the sub-suite is vacuous"
    assert not violations


def test_criterion_4_explicit_bound_audit(default_suite_reports, step_suite_reports):
    reports = list(default_suite_reports[0]) + list(step_suite_reports)
    audited = [
        "a1_size",
        "b2_size",
        "a2_size",
        "s_d_size",
        "v_d_size",
        "component_oracle_instance_size",
        "component_oracle_calls",
        "component_count",
        "final_graph_size",
    ]
    failures = []
    seen = {name: 0 for name in audited}
    for r in reports:
        for c in r.bound_checks:
            if c["name"] in seen:
                seen[c["name"]] += 1
                if not c["pass"]:
                    failures.append((r.index, c))
    missing = [n for n, cnt in seen.items() if cnt == 0]
    ok = not failures and not missing
    emit(4, ok, f"{sum(seen.values())} bound checks, {len(failures)} violations, missing={missing}")
    assert not missing, "some audited bound never materialized"
    assert not failures, failures[:5]


def test_criterion_5_separation_contract():
    rng = random.Random(271828)
    started = time.monotonic()
    violations = 0
    produced = 0
    while produced < 1000:
        g = random_graph(rng, rng.randint(4, 16), rng.choice([0.15, 0.3, 0.5]))
        td = make_connected(compute_decomposition(g))
        if len(td.bags) == 1:
            continue  # the lemma presumes a nontrivial tree
        s = stats(td)
        p = rng.randint(1, g.n - 1)
        sep = separation_from_decomposition(g, td, p)
        w = s.width + 1
        a = max(s.adhesion_degree, 2)
        if not (sep.order <= s.adhesion and p < len(sep.region) + sep.order <= w + p * a):
            violations += 1
        produced += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 60
    emit(5, ok, f"{produced} separations, {violations} contract violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60


def test_criterion_6_traverse_and_guard_laws():
    rng = random.Random(1618)
    violations = 0
    guarded_seen = 0
    for _ in range(1000):
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.3, 0.5, 0.7]))
        verts = sorted(g.vertices)
        # a random simple path via a self-avoiding walk
        p = [rng.choice(verts)]
        while True:
            nxt = [w for w in g.neighbors(p[-1]) if w not in p]
            if not nxt or rng.random() < 0.25:
                break
            p.append(rng.choice(nxt))
        p = tuple(p)
        a = {v for v in verts if rng.random() < 0.4}
        nbhd = sorted(open_neighborhood(g, a))
        z = {v for v in nbhd if rng.random() < 0.5}
        ts = traverses(p, a)
        # reconstruction: traverses cover each a-occurrence exactly once and
        # joining them with the outside stretches rebuilds the path
        for i, v in enumerate(p):
            if v in a and sum(1 for t in ts if v in t) != 1:
                violations += 1
        covered = set().union(*map(set, ts)) if ts else set()
        if covered | {v for v in p if v not in a} != set(p):
            violations += 1
        if is_guarded(g, p, a, z):
            guarded_seen += 1
            if len(ts) > max(1, 2 * len(z)):
                violations += 1
    ok = violations == 0 and guarded_seen > 100
    emit(6, ok, f"1000 triples, {guarded_seen} guarded, {violations} law violations")
    assert violations == 0
    assert guarded_seen > 100


def test_criterion_7_formula_oracles():
    def independent_p_bound(k, ell, h):
        total = 1
        for r in range(0, 2 * h + 1):
            term = 1
            for _ in range(r):
                term *= h * (ell + 1)
            total += term
        return (k + 1) * total

    def independent_rho(eta, ell):
        total = 1
        for j in range(0, 4 * eta + 5):
            term = 1
            for _ in range(j):
                term *= (2 * eta + 2) * (ell + 2 * eta + 2)
            total += term
        return total

    mismatches = 0
    overcounts = 0
    for k in range(1, 6):
        for ell in range(0, 5):
            for h in range(0, min(ell, 3) + 1):
                if p_bound(k, ell, h) != independent_p_bound(k, ell, h):
                    mismatches += 1
                verts = list(range(1, 12 + ell))
                g = Graph.from_edges(verts)
                region = set(range(1, 12))
                boundary = list(range(12, 12 + ell))
                for b in boundary:
                    g.add_edge(b, 1)
                gr = make_guarded_region(g, region, k=k, guard=boundary[:h])
                cands = enumerate_candidates(k, _request_universe(gr.guard, gr.boundary), max(1, 2 * h))
                if len(cands) > p_bound(k, ell, h):
                    overcounts += 1
    for eta in range(0, 3):
        for ell in range(0, 7):
            if rho(eta, ell) != independent_rho(eta, ell):
                mismatches += 1
    pinned = rho(0, 0) == 342 and rho(0, 1) == 1556 and p_bound(1, 1, 1) == 16
    ok = mismatches == 0 and overcounts == 0 and pinned
    emit(7, ok, f"{mismatches} formula mismatches, {overcounts} candidate overcounts")
    assert mismatches == 0 and overcounts == 0 and pinned


def worsened_decomposition(rng, g):
    td = compute_decomposition(g)
    bags = {t: set(b) for t, b in td.bags.items()}
    parent = dict(td.parent)
    nid = max(bags) + 1
    edges = td.tree_edges()
    for _ in range(rng.randint(0, 8)):
        if edges and rng.random() < 0.7:
            p, c = rng.choice(edges)
            donor, taker = (p, c) if rng.random() < 0.5 else (c, p)
            extra = bags[donor] - bags[taker]
            if extra:
                bags[taker].add(rng.choice(sorted(extra)))
        else:
            t = rng.choice(sorted(bags))
            bags[nid] = set(bags[t])
            parent[nid] = t
            nid += 1
    return TreeDecomposition(g, td.root, parent, bags)


def naive_axiom_check(td):
    g = td.host
    union = set()
    for b in td.bags.values():
        union |= b
    if union != set(g.vertices):
        return False
    for u, v in g.edges():
        if not any(u in b and v in b for b in td.bags.values()):
            return False
    for v in union:
        nodes = {t for t, b in td.bags.items() if v in b}
        inside = sum(1 for p, c in td.tree_edges() if p in nodes and c in nodes)
        if inside != len(nodes) - 1:
            return False
    return True


def adhesion_sets(td):
    """The multiset of per-edge adhesion sets B_c ∩ B_parent(c)."""
    return Counter(td.bags[t] & td.bags[p] for p, t in td.tree_edges())


def test_criterion_8_decomposition_transforms():
    rng = random.Random(20260810)
    transform_violations = 0
    binarize_adhesion_increases = 0
    binarize_rule_violations = 0
    split_nodes = 0
    missed_mutants = 0
    false_rejections = 0
    broken_mutants = 0
    for i in range(500):
        g = random_graph(rng, rng.randint(3, 14), rng.choice([0.15, 0.3, 0.5]))
        td = worsened_decomposition(rng, g)
        before = stats(td)
        mc = make_connected(td)
        smc = stats(mc)
        if not (validate(mc).ok and smc.width <= before.width and smc.adhesion <= before.adhesion):
            transform_violations += 1
        bz = binarize(td)
        sbz = stats(bz)
        if not validate(bz).ok or sbz.width != before.width:
            transform_violations += 1
        if sbz.adhesion > before.adhesion:
            binarize_adhesion_increases += 1
        # binarize chains the surplus children of a node t under duplicates
        # of B_t, so it keeps every adhesion set of td and adds exactly
        # len(children(t)) - 2 copies of B_t for each such t; adhesion can
        # grow only to the largest split bag. It cannot stay put in general:
        # no binary width-preserving decomposition of the four-pendant
        # clique keeps its adhesion of 1 (argument in README.md).
        expected = adhesion_sets(td)
        split_bags = []
        for t in td.nodes:
            surplus = len(td.children[t]) - 2
            if surplus > 0:
                expected[td.bags[t]] += surplus
                split_bags.append(len(td.bags[t]))
        split_nodes += len(split_bags)
        if adhesion_sets(bz) != expected or sbz.adhesion != max([before.adhesion, *split_bags]):
            binarize_rule_violations += 1
        # mutate: remove one random vertex occurrence from one bag
        bags = {t: set(b) for t, b in td.bags.items()}
        t = rng.choice([t for t in bags if bags[t]])
        bags[t].discard(rng.choice(sorted(bags[t])))
        mutant = TreeDecomposition(g, td.root, td.parent, bags)
        really_valid = naive_axiom_check(mutant)
        verdict = validate(mutant).ok
        if really_valid and not verdict:
            false_rejections += 1
        if not really_valid:
            broken_mutants += 1
            if verdict:
                missed_mutants += 1
    ok = (
        transform_violations == 0
        and binarize_rule_violations == 0
        and missed_mutants == 0
        and false_rejections == 0
        and broken_mutants > 200
    )
    emit(
        8,
        ok,
        f"500 decompositions: {transform_violations} validity/width violations, "
        f"{binarize_rule_violations} breaches of the binarize adhesion rule "
        f"({split_nodes} split nodes, {binarize_adhesion_increases} adhesion increases), "
        f"{missed_mutants}/{broken_mutants} broken mutants missed",
    )
    assert transform_violations == 0
    assert missed_mutants == 0 and false_rejections == 0 and broken_mutants > 200
    assert binarize_rule_violations == 0


def test_criterion_9_self_reducibility():
    rng = random.Random(999)
    reconstructed = 0
    violations = 0
    attempts = 0
    while reconstructed < 200 and attempts < 5000:
        attempts += 1
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.choice([0.35, 0.5, 0.7]))
        verts = sorted(g.vertices)
        terms = frozenset(rng.sample(verts, min(n, rng.randint(0, 4))))
        tlist = sorted(terms)
        reqs = []
        for _ in range(rng.randint(1, 2)):
            size = min(rng.choice([0, 1, 2]), len(tlist))
            reqs.append(frozenset(rng.sample(tlist, size)))
        inst = LinkageInstance(g, rng.randint(1, 7), terms, tuple(reqs))
        if brute_force_linkage(inst) is None:
            continue
        calls = [0]

        def decider(sub):
            calls[0] += 1
            return brute_force_linkage(sub) is not None

        sol = decision_to_witness(decider, inst)
        if sol is None or not validate_solution(inst, sol):
            violations += 1
        elif calls[0] > inst.graph.m + inst.graph.n + 1:
            violations += 1
        reconstructed += 1
    ok = reconstructed >= 200 and violations == 0
    emit(9, ok, f"{reconstructed} yes-instances reconstructed, {violations} violations")
    assert reconstructed >= 200
    assert violations == 0
