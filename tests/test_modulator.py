import itertools
import random
from dataclasses import replace

import pytest

from kpath_kernel.errors import InputError, NotApplicableError
from kpath_kernel.generate import GeneratorSpec, _partial_k_tree, generate
from kpath_kernel.graphs import (
    Graph,
    brute_force_k_path,
    induced_subgraph,
    is_simple_path,
    iter_k_paths,
    traverses,
)
from kpath_kernel.reduction import _request_universe
from kpath_kernel.linkage import (
    LinkageInstance,
    OracleStats,
    brute_force_linkage,
    counting_oracle,
    solve_linkage,
)
from kpath_kernel import modulator
from kpath_kernel.modulator import (
    _component_candidates,
    build_component_context,
    build_path_families,
    default_m_threshold,
    find_uvk_path,
    make_modulator_instance,
    mark_decomposition,
    modulator_kernelize,
    reduce_component,
    rho,
)
from kpath_kernel.treedecomp import (
    binarize,
    compute_decomposition,
    edge_components,
    stats,
)


def independent_rho(eta, ell):
    total = 1
    for j in range(0, 4 * eta + 5):
        term = 1
        for _ in range(j):
            term *= (2 * eta + 2) * (ell + 2 * eta + 2)
        total += term
    return total


def theta_instance(branches, k):
    """Poles 1 and 2 joined by ``branches`` one-interior-vertex paths."""
    g = Graph.from_edges(range(1, branches + 3))
    for x in range(3, branches + 3):
        g.add_edge(1, x)
        g.add_edge(2, x)
    return make_modulator_instance(g, k, {1, 2}, 1)


def small_modulator_instance(rng, max_n=20, max_k=4, max_eta=1, max_ell=2):
    spec = GeneratorSpec(
        n=rng.randint(5, max_n),
        kind="partial-k-tree",
        k=rng.randint(2, max_k),
        eta=rng.randint(0, max_eta),
        modulator_size=rng.randint(0, max_ell),
        modulator_edge_prob=rng.choice([0.25, 0.4, 0.6]),
        edge_keep_prob=rng.choice([0.5, 0.7, 0.9]),
        seed=rng.randrange(2**40),
    )
    return generate(spec)


def pipeline_decomposition(inst):
    core = set(inst.graph.vertices) - inst.modulator
    td = compute_decomposition(induced_subgraph(inst.graph, core))
    return binarize(td)


class TestRho:
    def test_pinned_values(self):
        assert rho(0, 0) == 342
        assert rho(0, 1) == 1556

    def test_matches_independent_summation(self):
        for eta in range(0, 3):
            for ell in range(0, 7):
                assert rho(eta, ell) == independent_rho(eta, ell)

    def test_monotone(self):
        for eta in range(0, 3):
            for ell in range(0, 6):
                assert rho(eta, ell) <= rho(eta, ell + 1)
                assert rho(eta, ell) <= rho(eta + 1, ell)


class TestFindUvkPath:
    def test_direct_edge_is_the_zero_interior_path(self):
        g = Graph.from_edges([1, 2], [(1, 2)])
        assert find_uvk_path(g, {1, 2}, 1, 2, 0) == (1, 2)

    def test_single_extension(self):
        g = Graph.from_edges([1, 2, 3], [(1, 3)])
        assert find_uvk_path(g, {1, 2}, 1, None, 1) == (1, 3)

    def test_forbidden_blocks_the_only_route(self):
        g = Graph.from_edges([1, 2, 3], [(1, 3), (3, 2)])
        assert find_uvk_path(g, {1, 2}, 1, 2, 1) == (1, 3, 2)
        assert find_uvk_path(g, {1, 2}, 1, 2, 1, forbidden={3}) is None

    def test_interior_count_is_exact(self):
        g = Graph.from_edges(range(1, 6), [(1, 3), (3, 4), (4, 5), (5, 2), (1, 2)])
        p = find_uvk_path(g, {1, 2}, 1, 2, 3)
        assert p == (1, 3, 4, 5, 2)
        assert find_uvk_path(g, {1, 2}, 1, 2, 2) is None

    def test_modulator_vertices_never_appear_inside(self):
        g = Graph.from_edges(range(1, 5), [(1, 3), (3, 4), (4, 2), (3, 2)])
        p = find_uvk_path(g, {1, 2, 4}, 1, 2, 1)
        assert p == (1, 3, 2)

    def test_preconditions(self):
        g = Graph.from_edges([1, 2, 3])
        with pytest.raises(InputError):
            find_uvk_path(g, {1}, 2, None, 1)
        with pytest.raises(InputError):
            find_uvk_path(g, {1, 2}, 1, 2, 1, forbidden={2})

    def test_matches_the_restricted_subgraph_formulation(self):
        def reference(g, mset, u, v, kp, forb):
            ends = {u} if v is None else {u, v}
            sub = induced_subgraph(g, (ends | (set(g.vertices) - set(mset))) - set(forb))
            terms = frozenset(ends)
            sol = solve_linkage(LinkageInstance(sub, kp + len(terms), terms, (terms,)))
            if sol is None:
                return None
            return sol[0] if sol[0][0] == u else tuple(reversed(sol[0]))

        rng = random.Random(41)
        found = 0
        for _ in range(150):
            inst = small_modulator_instance(rng, max_n=14, max_ell=3)
            g, mods = inst.graph, sorted(inst.modulator)
            if not mods:
                continue
            core = sorted(set(g.vertices) - inst.modulator)
            u = rng.choice(mods)
            others = [w for w in mods if w != u]
            v = rng.choice(others) if others and rng.random() < 0.6 else None
            forb = set(rng.sample(core, rng.randint(0, min(3, len(core)))))
            kp = rng.randint(0, 5)
            got = find_uvk_path(g, inst.modulator, u, v, kp, forb)
            assert got == reference(g, inst.modulator, u, v, kp, forb)
            found += got is not None
        assert found >= 20


class TestBuildPathFamilies:
    def test_theta_families_are_truncated_at_k_plus_one(self):
        k = 3
        inst = theta_instance(k + 2, k)
        fam = build_path_families(inst)
        key = (1, 2, 1)
        assert len(fam.families[key]) == k + 1
        assert fam.truncated[key]

    def test_isolated_modulator_vertex(self):
        g = Graph.from_edges([5])
        inst = make_modulator_instance(g, 3, {5}, 0)
        fam = build_path_families(inst)
        assert fam.a1 == frozenset()
        assert fam.families[(5, None, 0)] == ((5,),)
        assert all(not t for t in fam.truncated.values())

    def test_families_are_internally_disjoint_and_well_formed(self):
        rng = random.Random(20260810)
        for _ in range(25):
            inst = small_modulator_instance(rng)
            fam = build_path_families(inst)
            for (u, v, kp), paths in fam.families.items():
                seen_internal = set()
                for p in paths:
                    assert is_simple_path(inst.graph, p)
                    assert p[0] == u
                    if v is not None:
                        assert p[-1] == v and len(p) == kp + 2
                    else:
                        assert len(p) == kp + 1
                    interior = set(p[1:-1])
                    assert not interior & set(inst.modulator)
                    assert not interior & seen_internal
                    seen_internal |= interior

    def test_short_families_are_maximal(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(20):
            inst = small_modulator_instance(rng, max_n=14)
            fam = build_path_families(inst)
            for (u, v, kp), paths in fam.families.items():
                if fam.truncated[(u, v, kp)] or kp < 2:
                    continue
                internals = {x for p in paths for x in p[1:-1]}
                assert find_uvk_path(inst.graph, inst.modulator, u, v, kp, internals) is None
                checked += 1
        assert checked >= 10


def brute_force_families(inst):
    """Every packed family of ``build_path_families`` (two endpoints and
    k' >= 1, one endpoint and k' >= 2), each by repeated brute-force
    calls: the first path, then the first that avoids its interior, and so
    on up to the cap of k + 1. Among paths of one length, brute force's
    first is the solver's: both walk neighbours in ascending order."""
    g, k, mset = inst.graph, inst.k, frozenset(inst.modulator)
    keys = [(u, v, kp) for u, v in itertools.combinations(sorted(mset), 2) for kp in range(1, k - 1)]
    keys += [(u, None, kp) for u in sorted(mset) for kp in range(2, k)]
    out = {}
    for u, v, kp in keys:
        ends = frozenset({u} if v is None else {u, v})
        found, forb = [], set()
        while len(found) < k + 1:
            sol = brute_force_linkage(LinkageInstance(g, kp + len(ends), mset | forb, (ends,)))
            if sol is None:
                break
            found.append(sol[0])
            forb.update(sol[0][1:-1])
        out[(u, v, kp)] = (tuple(found), len(found) == k + 1)
    return out


class TestFamiliesMatchBruteForce:
    def test_fresh_and_repacked_families_match_the_reference(self):
        rng = random.Random(20261018)
        multi = truncated = repacked_checks = 0
        for _ in range(80):
            inst = small_modulator_instance(rng, max_n=14, max_k=5, max_eta=2, max_ell=4)
            fam = build_path_families(inst)
            want = brute_force_families(inst)
            assert {key: (fam.families[key], fam.truncated[key]) for key in want} == want
            multi += sum(len(paths) > 1 for paths, _ in want.values())
            truncated += sum(flag for _, flag in want.values())
            g = inst.graph.copy()
            if fam.a1:
                for x in rng.sample(sorted(fam.a1), min(len(fam.a1), rng.randint(1, 3))):
                    g.delete_vertex(x)
                cur = replace(inst, graph=g)
                again = build_path_families(cur, fam)
                want = brute_force_families(cur)
                assert {key: (again.families[key], again.truncated[key]) for key in want} == want
                repacked_checks += 1
        assert multi >= 80 and truncated >= 8 and repacked_checks >= 50


class TestRepackPathFamilies:
    def test_repacking_after_every_round_equals_a_fresh_build(self):
        rng = random.Random(20261018)
        rounds = 0
        for _ in range(30):
            inst = small_modulator_instance(rng, max_n=18, max_k=4, max_eta=1, max_ell=3)
            for m in (3, 4, 5):
                prev = [build_path_families(inst)]

                def on_step(work, deleted):
                    nonlocal rounds
                    cur = replace(inst, graph=work)
                    fresh = build_path_families(cur)
                    repacked = build_path_families(cur, prev[0])
                    assert repacked.families == fresh.families
                    assert repacked.truncated == fresh.truncated
                    assert repacked.a1 == fresh.a1
                    prev[0] = fresh
                    rounds += 1

                modulator_kernelize(inst, solve_linkage, m_override=m, on_step=on_step)
        assert rounds >= 30

    def test_repacking_after_deleting_path_vertices_equals_a_fresh_build(self):
        # a kernel round deletes no family vertex (they sit in the marked
        # boundary), so break families by hand: any induced subgraph will do
        rng = random.Random(7)
        partial = broken = 0
        for _ in range(40):
            inst = small_modulator_instance(rng, max_n=18, max_k=4, max_eta=1, max_ell=3)
            prev = build_path_families(inst)
            g = inst.graph.copy()
            while prev.a1:
                for x in rng.sample(sorted(prev.a1), min(len(prev.a1), rng.randint(1, 2))):
                    g.delete_vertex(x)
                cur = replace(inst, graph=g.copy())
                fresh = build_path_families(cur)
                repacked = build_path_families(cur, prev)
                assert repacked.families == fresh.families
                assert repacked.truncated == fresh.truncated
                assert repacked.a1 == fresh.a1
                for old in prev.families.values():
                    alive = [all(g.has_vertex(x) for x in p) for p in old]
                    partial += alive[:1] == [True] and not all(alive)
                    broken += alive[:1] == [False]
                prev = fresh
        assert partial >= 20 and broken >= 20

    def test_one_endpoint_flag_counts_neighbours_beyond_the_cap(self):
        # k' = 1 from the hub: k + 2 neighbours, one more than the cap of
        # k + 1; deleting the last one keeps every packed path but clears
        # the flag
        k = 3
        g = Graph.from_edges(range(1, k + 4), [(1, x) for x in range(2, k + 4)])
        prev = build_path_families(make_modulator_instance(g, k, {1}, 0))
        assert prev.truncated[(1, None, 1)]
        g.delete_vertex(k + 3)
        inst = make_modulator_instance(g, k, {1}, 0)
        repacked = build_path_families(inst, prev)
        assert repacked.families[(1, None, 1)] == prev.families[(1, None, 1)]
        assert repacked.truncated[(1, None, 1)] is False
        assert repacked.truncated == build_path_families(inst).truncated


class TestDecompositionReuse:
    def test_the_checked_decomposition_starts_round_one(self, monkeypatch):
        calls = []
        original = modulator.compute_decomposition

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(modulator, "compute_decomposition", counted)
        rng = random.Random(41)
        seen_rounds = 0
        for _ in range(20):
            spec_inst = small_modulator_instance(rng, max_n=16, max_k=3, max_eta=1, max_ell=2)
            if spec_inst.graph.n == len(spec_inst.modulator):
                continue
            for m in (None, 4):
                calls.clear()
                rounds = []
                inst = make_modulator_instance(
                    spec_inst.graph, spec_inst.k, spec_inst.modulator, spec_inst.eta
                )
                run = modulator_kernelize(
                    inst, solve_linkage, m_override=m, on_step=lambda w, d: rounds.append(d)
                )
                assert run.reduction_steps == len(rounds)
                assert len(calls) == 1
                seen_rounds += len(rounds)
        assert seen_rounds >= 10

    def test_later_rounds_restrict_round_one_tree(self, monkeypatch):
        trees, cores = [], []
        original = modulator.mark_decomposition

        def recorded(td, a1):
            trees.append(td)
            return original(td, a1)

        monkeypatch.setattr(modulator, "mark_decomposition", recorded)
        rng = random.Random(41)
        later = 0
        for _ in range(20):
            spec_inst = small_modulator_instance(rng, max_n=16, max_k=3, max_eta=1, max_ell=2)
            inst = make_modulator_instance(
                spec_inst.graph, spec_inst.k, spec_inst.modulator, spec_inst.eta
            )
            trees.clear()
            cores.clear()
            run = modulator_kernelize(
                inst,
                solve_linkage,
                m_override=4,
                on_step=lambda w, d: cores.append(set(w.vertices) - inst.modulator),
            )
            if not trees:
                continue
            assert len(trees) == run.reduction_steps + 1
            first = trees[0]
            for core, td in zip(cores, trees[1:]):
                assert td.root == first.root and td.parent == first.parent
                for t, bag in td.bags.items():
                    assert bag <= first.bags[t] and bag <= core
                assert set(td.host.vertices) == core
                later += 1
        assert later >= 10

    def test_min_fill_can_widen_after_a_deletion(self):
        # why rounds restrict instead of recomputing: min-fill is not
        # monotone under vertex deletion, so a fresh run on a round's core
        # could exceed the eta the instance was accepted with
        g = Graph()
        _partial_k_tree(g, random.Random(514), 45, 4, 0.6)
        td = compute_decomposition(g)
        assert stats(td).width == 4
        h = g.copy()
        h.delete_vertex(8)
        assert stats(compute_decomposition(h)).width == 5
        assert stats(td.restrict(h)).width == 4

    def test_a_directly_built_instance_decomposes_in_round_one(self):
        rng = random.Random(3)
        inst = small_modulator_instance(rng, max_n=14)
        direct = modulator.ModulatorInstance(inst.graph, inst.k, inst.modulator, inst.eta)
        assert direct.core_decomposition is None
        assert direct == inst
        ours = modulator_kernelize(direct, solve_linkage, m_override=4).to_json()
        assert ours == modulator_kernelize(inst, solve_linkage, m_override=4).to_json()

    def test_a_directly_built_instance_gets_the_one_width_check(self):
        # a triangle outside a one-vertex modulator has width 2
        g = Graph.from_edges([1, 2, 3, 4], [(1, 2), (2, 3), (1, 3), (3, 4)])
        direct = modulator.ModulatorInstance(g, 2, frozenset({4}), 1)
        with pytest.raises(InputError, match="G - M has width 2 > eta = 1"):
            modulator_kernelize(direct, solve_linkage)


def uncapped_candidates(k, eta, s_d, terminals, interior):
    """The candidates of the interior cap alone, a superset of what
    _component_candidates asks: every pattern of up to min(4*eta+4, k)
    requests over the whole request universe, with k' <= |U| + interior
    (the free path from k' = 1), also the patterns with no k' left to ask."""
    ordered = _request_universe(s_d, terminals)
    rmax = min(4 * eta + 4, k)
    patterns = []

    def grow(start, cur, union):
        if cur:
            patterns.append((tuple(cur), len(union)))
        if len(cur) == rmax:
            return
        for idx in range(start, len(ordered)):
            nu = union | ordered[idx]
            if len(cur) + 1 + len(nu) > k:
                continue
            cur.append(ordered[idx])
            grow(idx, cur, nu)
            cur.pop()

    grow(0, [], frozenset())
    out = [(kp, (frozenset(),)) for kp in range(1, min(k, interior) + 1)]
    for pat, usize in patterns:
        for kp in range(len(pat) + usize, min(k, usize + interior) + 1):
            out.append((kp, pat))
    return out


def random_component_graph(rng, eta):
    """A small g_d: boundary s_d, modulator vertices and a few non-terminals
    joined at random, so some terminals touch no component of g_d - T and
    some pairs share none."""
    n = rng.randint(3, 9)
    g = Graph.from_edges(range(1, n + 1))
    p = rng.choice([0.2, 0.35, 0.5])
    for u, v in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < p:
            g.add_edge(u, v)
    s_d = frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(2 * eta + 2, n - 1))))
    rest = sorted(set(range(1, n + 1)) - s_d)
    mods = frozenset(rng.sample(rest, rng.randint(0, min(2, len(rest) - 1))))
    return g, s_d, s_d | mods


def dropped_candidates(got, ref):
    """The candidates of ``ref`` missing from ``got``; fails unless ``got``
    is an in-order subsequence of ``ref``."""
    rest, dropped = iter(ref), []
    for c in got:
        for r in rest:
            if r == c:
                break
            dropped.append(r)
        else:
            pytest.fail(f"{c} is not in order in the uncapped list")
    dropped.extend(rest)
    return dropped


class TestComponentCandidates:
    def test_a_subsequence_missing_only_noes(self):
        # the dropped candidates are checked with the independent reference
        rng = random.Random(20261019)
        dropped = kept = 0
        for _ in range(200):
            k = rng.randint(1, 7)
            eta = rng.randint(0, 2)
            g, s_d, terms = random_component_graph(rng, eta)
            got = _component_candidates(k, eta, g, s_d, terms)
            ref = uncapped_candidates(k, eta, s_d, terms, len(g.vertices - terms))
            for kp, pat in dropped_candidates(got, ref):
                assert brute_force_linkage(LinkageInstance(g, kp, terms, pat)) is None, (kp, pat)
                dropped += 1
            kept += sum(len(pat) > 1 for _, pat in got)
        assert dropped >= 2000 and kept >= 1000

    def test_a_single_request_at_a_terminal_with_no_component(self):
        # s_d = {1, 2}; the only non-terminals, 3-4, hang off 1, and 2 is
        # isolated: {2} is still routed, as the path (2,)
        g = Graph.from_edges([1, 2, 3, 4], [(1, 3), (3, 4)])
        got = _component_candidates(4, 1, g, frozenset({1, 2}), frozenset({1, 2}))
        pat = (frozenset({1}), frozenset({2}))
        assert (4, pat) in got
        assert not any(frozenset({2}) in p and len(p) == 1 for _, p in got)
        sol = brute_force_linkage(LinkageInstance(g, 4, frozenset({1, 2}), pat))
        assert sol == [(1, 3, 4), (2,)]

    def test_a_pair_joined_only_by_an_edge(self):
        # the pair {1, 2} shares no component, but the edge 1-2 routes it
        # with no free vertex, so it is asked only beside a request that
        # reaches 3-4
        g = Graph.from_edges([1, 2, 3, 4], [(1, 2), (1, 3), (3, 4)])
        terms = frozenset({1, 2})
        got = _component_candidates(4, 1, g, terms, terms)
        pair = frozenset({1, 2})
        assert [c for c in got if pair in c[1]] == [(4, (frozenset({1}), pair))]
        sol = brute_force_linkage(LinkageInstance(g, 4, terms, (frozenset({1}), pair)))
        assert sol == [(1, 3, 4), (1, 2)]

    def test_a_pair_with_no_link_is_never_asked(self):
        # 1 reaches only 3 and 2 only 4, with no edge 1-2: every pattern
        # holding {1, 2} is a no, and none is grown
        g = Graph.from_edges([1, 2, 3, 4], [(1, 3), (2, 4)])
        terms = frozenset({1, 2})
        pair = frozenset({1, 2})
        got = _component_candidates(5, 1, g, terms, terms)
        assert got and not any(pair in pat for _, pat in got)
        ref = uncapped_candidates(5, 1, terms, terms, 2)
        with_pair = [c for c in dropped_candidates(got, ref) if pair in c[1]]
        assert with_pair
        for kp, pat in with_pair:
            assert brute_force_linkage(LinkageInstance(g, kp, terms, pat)) is None

    def test_kernel_rounds_match_the_uncapped_candidates(self, monkeypatch):
        def uncapped(k, eta, g_d, s_d, terminals):
            return uncapped_candidates(k, eta, s_d, terminals, len(g_d.vertices - terminals))

        def run(inst, candidates):
            monkeypatch.setattr(modulator, "_component_candidates", candidates)
            rounds = []
            out = modulator_kernelize(inst, solve_linkage, m_override=4, on_step=lambda w, d: rounds.append(d))
            return out, rounds

        rng = random.Random(20261019)
        fewer = fired = 0
        for _ in range(30):
            inst = small_modulator_instance(rng, max_n=30, max_k=4, max_eta=2, max_ell=3)
            ours, our_rounds = run(inst, _component_candidates)
            ref, ref_rounds = run(inst, uncapped)
            assert our_rounds == ref_rounds
            assert ours.answer == ref.answer
            assert ours.stats.calls <= ref.stats.calls
            assert all(c.passed for c in ours.bound_checks)
            fewer += ours.stats.calls < ref.stats.calls
            fired += bool(our_rounds)
        assert fewer >= 20 and fired >= 10


class TestMarkDecomposition:
    def test_empty_marking_keeps_only_the_root(self):
        rng = random.Random(2)
        inst = small_modulator_instance(rng, max_ell=0)
        td = pipeline_decomposition(inst)
        b2, a2 = mark_decomposition(td, frozenset())
        assert b2 == frozenset({td.root})
        assert a2 == td.bags[td.root]

    def test_marked_vertices_are_covered_and_bounded(self):
        rng = random.Random(3)
        for _ in range(20):
            inst = small_modulator_instance(rng)
            if len(inst.modulator) == inst.graph.n:
                continue
            fam = build_path_families(inst)
            td = pipeline_decomposition(inst)
            b2, a2 = mark_decomposition(td, fam.a1)
            assert fam.a1 <= a2
            assert len(a2) <= (inst.eta + 1) * len(b2)
            for x in b2:
                for y in b2:
                    assert td.lca(x, y) in b2


class TestReduceComponent:
    def _contexts(self, inst, m):
        core = set(inst.graph.vertices) - inst.modulator
        if not core:
            return []
        td = pipeline_decomposition(inst)
        fam = build_path_families(inst)
        b2, _ = mark_decomposition(td, fam.a1)
        out = []
        for comp in edge_components(td, b2):
            if len(td.bag_union(comp.nodes)) > m:
                out.append(build_component_context(inst, td, b2, comp, m))
        return out

    def test_context_invariants(self):
        rng = random.Random(5)
        seen = 0
        for _ in range(30):
            inst = small_modulator_instance(rng)
            m = 3
            for ctx in self._contexts(inst, m):
                assert len(ctx.s_d) <= 2 * inst.eta + 2
                assert len(ctx.v_d) <= 2 * m + inst.eta + 1
                assert set(ctx.g_d.vertices) == set(ctx.v_d) | set(inst.modulator)
                seen += 1
        assert seen > 10

    def test_not_applicable_when_light(self):
        rng = random.Random(12)
        inst = small_modulator_instance(rng, max_n=10)
        ctxs = self._contexts(inst, 2)
        if not ctxs:
            pytest.skip("no heavy component in this draw")
        with pytest.raises(NotApplicableError):
            reduce_component(inst, ctxs[0], 10**6, solve_linkage)

    def test_safeness_against_brute_force(self):
        rng = random.Random(20260810)
        reduced = 0
        for _ in range(25):
            inst = small_modulator_instance(rng, max_n=16, max_k=4)
            before = brute_force_k_path(inst.graph, inst.k) is not None
            for m in (3, 5):
                for ctx in self._contexts(inst, m):
                    stats = OracleStats()
                    out, deleted = reduce_component(inst, ctx, m, counting_oracle(solve_linkage, stats))
                    after = brute_force_k_path(out, inst.k) is not None
                    assert before == after
                    assert stats.calls <= (inst.k + 1) * rho(inst.eta, len(inst.modulator))
                    if deleted:
                        reduced += 1
        assert reduced > 5


def uncapped_reduction(inst, ctx):
    """Reference for reduce_component with every k' <= k asked: the deleted
    set and the number of oracle calls."""
    k = inst.k
    terminals = frozenset(ctx.s_d | inst.modulator)
    singles = {frozenset({z}) for z in ctx.s_d}
    pairs = {frozenset({z, b}) for z in ctx.s_d for b in terminals if b != z}
    universe = sorted(singles | pairs, key=lambda r: (len(r), sorted(r)))
    candidates = [(kp, (frozenset(),)) for kp in range(k + 1)]
    for r in range(1, min(4 * inst.eta + 4, k) + 1):
        for pat in itertools.combinations_with_replacement(universe, r):
            for kp in range(r + len(frozenset().union(*pat)), k + 1):
                candidates.append((kp, pat))
    marked = set()
    for kp, pat in candidates:
        sol = solve_linkage(LinkageInstance(ctx.g_d, kp, terminals, pat))
        for p in sol or ():
            marked.update(p)
    return frozenset(set(ctx.v_d) - marked - set(ctx.s_d)), len(candidates)


class TestFutileComponents:
    def test_a_component_that_deleted_nothing_is_not_reduced_again(self, monkeypatch):
        # M is fixed and rounds only delete vertices, so a later context with
        # the same v_d and s_d has the same g_d and candidates; reducing it
        # again would delete nothing again
        built, reduced = [], []
        real_build, real_reduce = modulator.build_component_context, modulator.reduce_component

        def build(inst, td, b2, component, m_threshold):
            ctx = real_build(inst, td, b2, component, m_threshold)
            built.append((inst, ctx))
            return ctx

        def reduce(inst, ctx, m_threshold, oracle):
            out = real_reduce(inst, ctx, m_threshold, oracle)
            reduced.append((ctx, out[1]))
            return out

        monkeypatch.setattr(modulator, "build_component_context", build)
        monkeypatch.setattr(modulator, "reduce_component", reduce)
        rng = random.Random(41)
        skipped = 0
        for _ in range(30):
            spec_inst = small_modulator_instance(rng, max_n=40, max_k=4, max_eta=2, max_ell=3)
            inst = make_modulator_instance(
                spec_inst.graph, spec_inst.k, spec_inst.modulator, spec_inst.eta
            )
            built.clear()
            reduced.clear()
            modulator_kernelize(inst, solve_linkage, m_override=4)
            futile = [(ctx.v_d, ctx.s_d) for ctx, deleted in reduced if not deleted]
            assert len(futile) == len(set(futile))
            done = {id(ctx) for ctx, _ in reduced}
            for cur, ctx in built:
                if id(ctx) in done:
                    continue
                assert (ctx.v_d, ctx.s_d) in futile
                assert not real_reduce(cur, ctx, 4, solve_linkage)[1]
                skipped += 1
        assert skipped >= 15


class TestComponentCandidateCap:
    def test_same_deletions_as_the_uncapped_loop_with_fewer_calls(self):
        rng = random.Random(20261018)
        compared = fewer = reduced = 0
        for _ in range(40):
            inst = small_modulator_instance(rng, max_n=16, max_k=4)
            for m in (3, 5):
                for ctx in TestReduceComponent()._contexts(inst, m):
                    stats = OracleStats()
                    _, deleted = reduce_component(inst, ctx, m, counting_oracle(solve_linkage, stats))
                    ref_deleted, ref_calls = uncapped_reduction(inst, ctx)
                    assert deleted == ref_deleted
                    assert stats.calls <= ref_calls
                    fewer += stats.calls < ref_calls
                    reduced += bool(deleted)
                    compared += 1
        assert compared > 30 and fewer >= 5 and reduced >= 5

    def test_component_oracle_calls_bound_still_holds(self):
        rng = random.Random(20261018)
        audited = 0
        for _ in range(15):
            inst = small_modulator_instance(rng, max_n=16, max_k=4, max_eta=1, max_ell=2)
            run = modulator_kernelize(inst, solve_linkage, m_override=4)
            for c in run.bound_checks:
                if c.name == "component_oracle_calls":
                    assert c.passed, c
                    audited += 1
        assert audited > 5


class TestLemmaNeatProperty:
    def test_some_k_path_is_neat_after_marking(self):
        rng = random.Random(77)
        verified = 0
        for _ in range(20):
            inst = small_modulator_instance(rng, max_n=14, max_k=4)
            if brute_force_k_path(inst.graph, inst.k) is None:
                continue
            for ctx in TestReduceComponent()._contexts(inst, 3):
                interior = set(ctx.v_d) - set(ctx.s_d)
                found_neat = False
                for p in iter_k_paths(inst.graph, inst.k):
                    if set(p) <= interior:
                        found_neat = True
                        break
                    ts = traverses(p, interior)
                    if all(t[0] in ctx.s_d or t[-1] in ctx.s_d for t in ts):
                        found_neat = True
                        break
                assert found_neat
                verified += 1
        assert verified > 3

    def test_exchange_property_on_a_theta_graph(self):
        # swap the traverse of a concrete k-path for a disjoint family path
        k = 4
        inst = theta_instance(k + 2, k)
        fam = build_path_families(inst)
        family = fam.families[(1, 2, 1)]
        assert len(family) == k + 1
        used = family[0]  # a path 1-x-2
        p = (3, 1, used[1], 2) if used[1] != 3 else (4, 1, used[1], 2)
        p = tuple(v for v in p)
        assert is_simple_path(inst.graph, (p[1], p[2], p[3]))
        replacement = next(q for q in family if q[1] not in p)
        spliced = (p[0], replacement[0], replacement[1], replacement[2])
        assert is_simple_path(inst.graph, spliced)
        assert len(set(spliced)) == k


class TestModulatorKernelize:
    def test_empty_modulator(self):
        rng = random.Random(1)
        inst = small_modulator_instance(rng, max_ell=0)
        run = modulator_kernelize(inst, solve_linkage)
        truth = brute_force_k_path(inst.graph, inst.k) is not None
        assert run.answer == truth
        assert run.extras["m_threshold"] == default_m_threshold(inst.k, 0, inst.eta)

    def test_whole_graph_is_the_modulator(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        inst = make_modulator_instance(g, 3, {1, 2, 3}, 0)
        run = modulator_kernelize(inst, solve_linkage)
        assert run.answer is True

    def test_equivalence_against_brute_force(self):
        rng = random.Random(20260810)
        for _ in range(40):
            inst = small_modulator_instance(rng, max_n=18, max_k=5, max_eta=2, max_ell=3)
            truth = brute_force_k_path(inst.graph, inst.k) is not None
            run = modulator_kernelize(inst, solve_linkage)
            assert run.answer == truth

    def test_small_threshold_override_reduces_and_stays_correct(self):
        rng = random.Random(41)
        fired = 0
        for _ in range(20):
            inst = small_modulator_instance(rng, max_n=16, max_k=3, max_eta=1, max_ell=2)
            truth = brute_force_k_path(inst.graph, inst.k) is not None
            deletions = []
            run = modulator_kernelize(
                inst,
                solve_linkage,
                m_override=4,
                on_step=lambda w, d: deletions.append(len(d)),
            )
            assert run.answer == truth
            if run.reduction_steps:
                fired += 1
                assert all(d >= 1 for d in deletions)
        assert fired > 5

    def test_stats_count_every_oracle_call_once(self):
        sizes = []

        def oracle(inst):
            sizes.append(inst.graph.n)
            return solve_linkage(inst)

        rng = random.Random(41)
        reduced = 0
        for _ in range(20):
            inst = small_modulator_instance(rng, max_n=16, max_k=3, max_eta=1, max_ell=2)
            before = len(sizes)
            run = modulator_kernelize(inst, oracle, m_override=4)
            assert run.stats.calls == len(sizes) - before
            assert run.stats.max_instance_vertices == max(sizes[before:])
            reduced += run.extras["components_reduced"] > 0
        assert reduced > 5

    def test_structural_bound_checks_pass(self):
        rng = random.Random(10)
        names = {
            "s_d_size",
            "v_d_size",
            "component_count",
            "component_oracle_calls",
            "component_oracle_instance_size",
            "final_graph_size",
        }
        seen = set()
        for _ in range(15):
            inst = small_modulator_instance(rng, max_n=15, max_k=3, max_eta=1, max_ell=2)
            run = modulator_kernelize(inst, solve_linkage, m_override=4)
            for c in run.bound_checks:
                if c.name in names:
                    assert c.passed, c
                    seen.add(c.name)
        assert "component_count" in seen and "final_graph_size" in seen
