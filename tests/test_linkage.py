import hashlib
import itertools
import json
import random

import pytest

from kpath_kernel.errors import (
    BudgetExceededError,
    InputError,
    NotApplicableError,
    OracleFaultError,
)
from kpath_kernel import graphs, linkage
from kpath_kernel.graphs import Graph, has_matching, is_simple_path
from kpath_kernel.linkage import (
    LinkageInstance,
    OracleStats,
    brute_force_linkage,
    counting_oracle,
    decision_to_witness,
    instance_from_json,
    instance_to_json,
    pack_paths,
    solve_linkage,
    validate_solution,
)


def random_graph(rng, n, p):
    g = Graph.from_edges(range(1, n + 1))
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < p:
            g.add_edge(a, b)
    return g


def random_instance(rng, max_n=8, max_r=3, max_k=8):
    n = rng.randint(1, max_n)
    g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7]))
    verts = sorted(g.vertices)
    terms = frozenset(rng.sample(verts, min(n, rng.randint(0, 4))))
    reqs = []
    tlist = sorted(terms)
    for _ in range(rng.randint(0, max_r)):
        size = rng.choice([0, 1, 1, 2, 2])
        if size > len(tlist):
            size = len(tlist)
        reqs.append(frozenset(rng.sample(tlist, size)))
    k = rng.randint(0, max_k)
    return LinkageInstance(g, k, terms, tuple(reqs))


class TestInstanceValidation:
    def test_request_must_reference_terminals(self):
        g = Graph.from_edges([1, 2])
        inst = LinkageInstance(g, 1, frozenset({1}), (frozenset({2}),))
        with pytest.raises(InputError):
            inst.validate()

    def test_oversized_request_rejected(self):
        g = Graph.from_edges([1, 2, 3])
        inst = LinkageInstance(g, 1, frozenset({1, 2, 3}), (frozenset({1, 2, 3}),))
        with pytest.raises(InputError):
            inst.validate()

    def test_negative_budget_rejected(self):
        g = Graph.from_edges([1])
        with pytest.raises(InputError):
            LinkageInstance(g, -1, frozenset(), ()).validate()

    @pytest.mark.parametrize("k_prime", [2.5, 2.0, True, "2", None])
    def test_non_integer_budget_rejected(self, k_prime):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        with pytest.raises(InputError):
            LinkageInstance(g, k_prime, frozenset(), (frozenset(),)).validate()
        data = instance_to_json(LinkageInstance(g, 2, frozenset(), (frozenset(),)))
        data["k_prime"] = k_prime
        with pytest.raises(InputError):
            instance_from_json(json.loads(json.dumps(data)))


class TestSolveLinkage:
    def test_plain_k_path_question(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        sol = solve_linkage(LinkageInstance(g, 3, frozenset(), (frozenset(),)))
        assert sol is not None and len(sol[0]) == 3

    def test_smallest_yes_instance(self):
        g = Graph.from_edges([7])
        sol = solve_linkage(LinkageInstance(g, 1, frozenset(), (frozenset(),)))
        assert sol == [(7,)]

    def test_single_edge_request(self):
        g = Graph.from_edges([1, 2], [(1, 2)])
        inst = LinkageInstance(g, 2, frozenset({1, 2}), (frozenset({1, 2}),))
        assert solve_linkage(inst) == [(1, 2)]
        inst3 = LinkageInstance(g, 3, frozenset({1, 2}), (frozenset({1, 2}),))
        assert solve_linkage(inst3) is None

    def test_no_requests(self):
        g = Graph.from_edges([1, 2])
        assert solve_linkage(LinkageInstance(g, 0, frozenset(), ())) == []
        assert solve_linkage(LinkageInstance(g, 1, frozenset(), ())) is None

    def test_duplicate_pair_requests_share_both_endpoints(self):
        # two internally disjoint 1-interior paths between the poles
        g = Graph.from_edges([1, 2, 3, 4], [(1, 3), (3, 2), (1, 4), (4, 2)])
        req = frozenset({1, 2})
        inst = LinkageInstance(g, 4, frozenset(req), (req, req))
        sol = solve_linkage(inst)
        assert sol is not None
        assert validate_solution(inst, sol)

    def test_budget_is_a_hard_error(self):
        rng = random.Random(3)
        g = random_graph(rng, 8, 0.8)
        inst = LinkageInstance(g, 8, frozenset(), (frozenset(),))
        with pytest.raises(BudgetExceededError):
            solve_linkage(inst, node_budget=2)

    def test_terminal_not_in_any_request_is_avoided(self):
        # path 1-2-3 with 2 a terminal not requested: no 3-path may use it
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        inst = LinkageInstance(g, 3, frozenset({2}), (frozenset(),))
        assert solve_linkage(inst) is None

    def test_witnesses_are_pinned(self):
        # the kernels keep the vertices of the witnesses they are given, so
        # which witness comes back is part of the solver's behaviour
        rng = random.Random(20261018)
        out = []
        for _ in range(500):
            sol = solve_linkage(random_instance(rng))
            out.append(None if sol is None else [list(p) for p in sol])
        assert sum(sol is not None for sol in out) == 106
        digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()[:16]
        assert digest == "d1aaacfd10aa54d2"

    def test_sparse_vertex_ids_give_the_same_witnesses(self):
        # ids far above the vertex count: the witnesses are the same, shifted
        shift = 10**12
        rng = random.Random(5)
        for _ in range(100):
            inst = random_instance(rng)
            g = Graph.from_edges(
                [v + shift for v in inst.graph.vertices],
                [(a + shift, b + shift) for a, b in inst.graph.edges()],
            )
            moved = LinkageInstance(
                g,
                inst.k_prime,
                frozenset(v + shift for v in inst.terminals),
                tuple(frozenset(v + shift for v in r) for r in inst.requests),
            )
            sol, far = solve_linkage(inst), solve_linkage(moved)
            assert far == (None if sol is None else [tuple(v + shift for v in p) for p in sol])


def fresh_packing(inst):
    """Repeated fresh solves, each with the last path's interior added to
    the terminals: what pack_paths must yield."""
    (ends,) = inst.requests
    want = []
    terms = set(inst.terminals)
    while True:
        sol = solve_linkage(LinkageInstance(inst.graph, inst.k_prime, frozenset(terms), (ends,)))
        if sol is None:
            return want
        want.append(sol[0])
        if len(sol[0]) <= 2:
            return want  # no interior to forbid
        terms.update(sol[0][1:-1])


class TestPackPaths:
    def test_each_path_is_a_fresh_solve_with_the_interiors_forbidden(self, monkeypatch):
        rng = random.Random(20261018)
        longer = 0
        for _ in range(400):
            g = random_graph(rng, rng.randint(3, 10), rng.choice([0.35, 0.5, 0.7]))
            verts = sorted(g.vertices)
            ends = frozenset(rng.sample(verts, rng.randint(1, 2)))
            extra = rng.sample(verts, rng.randint(0, 2))
            inst = LinkageInstance(g, rng.randint(1, 6), ends | frozenset(extra), (ends,))
            want = fresh_packing(inst)
            assert list(pack_paths(inst)) == want, instance_to_json(inst)
            longer += len(want) > 1
        assert longer >= 40

        # Larger and denser graphs, and hubs over a sparse core, reach every
        # branch of the kept tests: a route the new interior hits is searched
        # again, a kept matching below the size is extended, and each test
        # ends some packing on a resume.
        seen = dict(recomputed=0, route_cut=0, extended=0, matching_cut=0)
        packing = {"routes": 0, "mates": None}
        real_route, real_matching = linkage._route, linkage.has_matching

        def route(adj, blocked, u, v):
            found = real_route(adj, blocked, u, v)
            if packing["mates"] is not None:
                packing["routes"] += 1
                if packing["routes"] > 1:
                    seen["recomputed"] += 1
                    seen["route_cut"] += found is None
            return found

        def matching(g, avoid, size, mate=None):
            mates = packing["mates"]
            resumed = mates is not None and any(m is mate for m in mates)
            if mates is not None and not resumed:
                mates.append(mate)
            seen["extended"] += resumed and len(mate) // 2 < size
            ok = real_matching(g, avoid, size, mate)
            seen["matching_cut"] += resumed and not ok
            return ok

        monkeypatch.setattr(linkage, "_route", route)
        monkeypatch.setattr(linkage, "has_matching", matching)
        for trial in range(600):
            if trial % 2:
                g = random_graph(rng, rng.randint(10, 16), rng.choice([0.3, 0.5, 0.8]))
            else:
                ell = rng.randint(2, 5)
                g = hubs_graph(ell, rng.randint(6, 12), rng, rng.choice([0.5, 0.8]))
                for a, b in itertools.combinations(range(1, ell + 1), 2):
                    if rng.random() < 0.5:
                        g.add_edge(a, b)
            verts = sorted(g.vertices)
            ends = frozenset(rng.sample(verts, rng.randint(1, 2)))
            extra = rng.sample(verts, rng.randint(0, 2))
            inst = LinkageInstance(g, rng.randint(2, 9), ends | frozenset(extra), (ends,))
            want = fresh_packing(inst)
            packing.update(routes=0, mates=[])
            assert list(pack_paths(inst)) == want, instance_to_json(inst)
            packing["mates"] = None
        assert seen["recomputed"] >= 80 and seen["route_cut"] >= 60, seen
        assert seen["extended"] >= 300 and seen["matching_cut"] >= 40, seen

    def test_needs_one_request_naming_a_terminal(self):
        g = Graph.from_edges([1, 2], [(1, 2)])
        for reqs in ((), (frozenset(),), (frozenset({1}), frozenset({2}))):
            with pytest.raises(InputError):
                next(pack_paths(LinkageInstance(g, 2, frozenset({1, 2}), reqs)))


def hubs_graph(ell, core, rng=None, p=1.0):
    """ell hubs 1..ell joined to an edgeless core ell+1..ell+core (each
    hub-core edge kept with probability p); every edge touches a hub."""
    g = Graph.from_edges(range(1, ell + core + 1))
    for h in range(1, ell + 1):
        for c in range(ell + 1, ell + core + 1):
            if rng is None or rng.random() < p:
                g.add_edge(h, c)
    return g


def sparse_graph(rng, kind):
    n = rng.randint(3, 11)
    if kind == "hubs":
        ell = rng.randint(1, 3)
        g = hubs_graph(ell, n - ell, rng, 0.6)
        for a, b in itertools.combinations(range(1, ell + 1), 2):
            if rng.random() < 0.3:
                g.add_edge(a, b)
        return g
    edges = {
        "star": [(1, v) for v in range(2, n + 1)],
        "matching": [(v, v + 1) for v in range(1, n, 2)],
        "path": [(v, v + 1) for v in range(1, n)],
    }[kind]
    return Graph.from_edges(range(1, n + 1), edges)


class TestMatchingPreCheck:
    def test_edgeless_core_no_instance_needs_no_search(self):
        # every edge touches one of 4 hubs, so nu = 4 and a k-path has k <= 9;
        # with a zero expansion budget any search would raise
        g = hubs_graph(4, 25)
        assert solve_linkage(LinkageInstance(g, 10, frozenset(), (frozenset(),)), node_budget=0) is None
        path = solve_linkage(LinkageInstance(g, 9, frozenset(), (frozenset(),)))[0]
        assert len(path) == 9 and is_simple_path(g, path)

    def test_greedy_matching_bounds_the_answer_without_augmenting(self, monkeypatch):
        # G - hubs is edgeless: the greedy matching is empty, so no size is
        # met, and no augmenting-path search is needed to say so
        real = graphs._augment
        roots = []

        def counting(adj, avoid, mate, root):
            roots.append(root)
            return real(adj, avoid, mate, root)

        monkeypatch.setattr(graphs, "_augment", counting)
        g = hubs_graph(4, 25)
        for size in range(1, 14):
            assert not has_matching(g, frozenset(range(1, 5)), size)
        assert roots == []

    def test_agrees_with_brute_force_where_the_bound_fires(self, monkeypatch):
        real = linkage.has_matching
        decided = []

        def counting(g, avoid, size, mate=None):
            ok = real(g, avoid, size, mate)
            if not ok:
                decided.append(size)
            return ok

        monkeypatch.setattr(linkage, "has_matching", counting)
        rng = random.Random(20261018)
        kinds = set()
        yes = 0
        for trial in range(600):
            g = sparse_graph(rng, ("hubs", "star", "matching", "path")[trial % 4])
            verts = sorted(g.vertices)
            terms = rng.sample(verts, rng.randint(0, 3))
            named = terms[: rng.randint(0, len(terms))]  # the rest are unnamed
            reqs = []
            for _ in range(rng.randint(1, 3)):
                reqs.append(frozenset(rng.sample(named, min(len(named), rng.choice([0, 1, 2])))))
            kinds.update(len(r) for r in reqs)
            inst = LinkageInstance(g, rng.randint(g.n // 3, g.n), frozenset(terms), tuple(reqs))
            a = solve_linkage(inst)
            b = brute_force_linkage(inst)
            assert (a is None) == (b is None), instance_to_json(inst)
            if a is not None:
                yes += 1
                assert validate_solution(inst, a)
        assert kinds == {0, 1, 2}
        assert len(decided) >= 80 and yes >= 200


class TestValidateSolution:
    def test_round_trip(self):
        rng = random.Random(11)
        seen_yes = 0
        for _ in range(150):
            inst = random_instance(rng)
            sol = solve_linkage(inst)
            if sol is not None:
                seen_yes += 1
                assert validate_solution(inst, sol)
        assert seen_yes > 10

    def test_shared_nonterminal_rejected(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        inst = LinkageInstance(g, 3, frozenset({1, 3}), (frozenset({1}), frozenset({3})))
        bogus = [(1, 2), (3, 2)]
        assert not validate_solution(inst, bogus)

    def test_terminal_must_be_an_endpoint(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        inst = LinkageInstance(g, 3, frozenset({1, 2}), (frozenset({1, 2}),))
        assert not validate_solution(inst, [(1, 2, 3)])

    def test_count_must_match(self):
        g = Graph.from_edges([1, 2], [(1, 2)])
        inst = LinkageInstance(g, 1, frozenset({1, 2}), (frozenset({1, 2}),))
        assert not validate_solution(inst, [(1, 2)])


class TestBruteForceLinkage:
    def test_cap(self):
        g = Graph.from_edges(range(1, 20))
        with pytest.raises(NotApplicableError):
            brute_force_linkage(LinkageInstance(g, 0, frozenset(), ()))

    def test_vacuous_cases(self):
        g = Graph.from_edges([1])
        assert brute_force_linkage(LinkageInstance(g, 0, frozenset(), ())) == []
        assert brute_force_linkage(LinkageInstance(g, 2, frozenset(), ())) is None

    def test_agrees_with_solver_on_random_instances(self):
        rng = random.Random(20260810)
        for _ in range(200):
            inst = random_instance(rng, max_n=7)
            a = solve_linkage(inst)
            b = brute_force_linkage(inst)
            assert (a is None) == (b is None), instance_to_json(inst)
            if a is not None:
                assert validate_solution(inst, a) and validate_solution(inst, b)

    def test_agrees_with_solver_when_some_terminals_are_unnamed(self):
        rng = random.Random(5)
        yes = 0
        for _ in range(300):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            verts = sorted(g.vertices)
            unnamed = set(rng.sample(verts, rng.randint(1, max(1, n // 3))))
            rest = [v for v in verts if v not in unnamed]
            named = rng.sample(rest, min(len(rest), rng.randint(0, 3)))
            reqs = []
            for _ in range(rng.randint(1, 3)):
                reqs.append(frozenset(rng.sample(named, min(len(named), rng.choice([0, 1, 2])))))
            inst = LinkageInstance(g, rng.randint(0, 7), frozenset(unnamed | set(named)), tuple(reqs))
            assert unnamed.isdisjoint(frozenset().union(*inst.requests))
            a = solve_linkage(inst)
            b = brute_force_linkage(inst)
            assert (a is None) == (b is None), instance_to_json(inst)
            if a is not None:
                yes += 1
                assert validate_solution(inst, a) and not unnamed & set().union(*a)
        assert yes >= 30

    def test_edge_monotonicity_of_yes(self):
        rng = random.Random(9)
        checked = 0
        for _ in range(200):
            inst = random_instance(rng, max_n=7)
            if solve_linkage(inst) is None:
                continue
            g2 = inst.graph.copy()
            absent = [
                (a, b)
                for a, b in itertools.combinations(sorted(g2.vertices), 2)
                if not g2.has_edge(a, b)
            ]
            if not absent:
                continue
            g2.add_edge(*rng.choice(absent))
            inst2 = LinkageInstance(g2, inst.k_prime, inst.terminals, inst.requests)
            assert solve_linkage(inst2) is not None
            checked += 1
        assert checked > 20


class TestDecisionToWitness:
    @staticmethod
    def make_decider(counter):
        def decide(inst):
            counter[0] += 1
            return brute_force_linkage(inst) is not None

        return decide

    def test_single_edge_reconstruction(self):
        g = Graph.from_edges([1, 2], [(1, 2)])
        inst = LinkageInstance(g, 2, frozenset({1, 2}), (frozenset({1, 2}),))
        calls = [0]
        sol = decision_to_witness(self.make_decider(calls), inst)
        assert sol == [(1, 2)]

    def test_no_instance_costs_one_call(self):
        g = Graph.from_edges([1, 2])
        inst = LinkageInstance(g, 2, frozenset({1, 2}), (frozenset({1, 2}),))
        calls = [0]
        assert decision_to_witness(self.make_decider(calls), inst) is None
        assert calls[0] == 1

    def test_triangle_hamiltonian_witness(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        inst = LinkageInstance(g, 3, frozenset(), (frozenset(),))
        calls = [0]
        sol = decision_to_witness(self.make_decider(calls), inst)
        assert sol is not None and validate_solution(inst, sol)

    def test_random_yes_instances_within_call_budget(self):
        rng = random.Random(17)
        reconstructed = 0
        for _ in range(120):
            inst = random_instance(rng, max_n=7, max_r=2, max_k=6)
            if brute_force_linkage(inst) is None:
                continue
            calls = [0]
            sol = decision_to_witness(self.make_decider(calls), inst)
            assert sol is not None and validate_solution(inst, sol)
            assert calls[0] <= inst.graph.m + inst.graph.n + 1
            reconstructed += 1
        assert reconstructed > 20

    def test_duplicate_pair_requests_can_share_one_edge(self):
        # found by fuzzing: both {2,7} requests ride the single edge (2,7)
        g = Graph.from_edges(
            range(1, 9),
            [(1, 3), (1, 5), (1, 6), (1, 7), (2, 3), (2, 5), (2, 6), (2, 7),
             (2, 8), (3, 4), (3, 5), (3, 6), (3, 8), (4, 5), (4, 6), (5, 7),
             (5, 8), (6, 7)],
        )
        inst = LinkageInstance(
            g, 7, frozenset({2, 6, 7}),
            (frozenset({2, 6}), frozenset({2, 7}), frozenset({2, 7})),
        )
        calls = [0]
        sol = decision_to_witness(self.make_decider(calls), inst)
        assert sol is not None and validate_solution(inst, sol)
        assert calls[0] <= g.m + g.n + 1

    def test_inconsistent_decider_is_reported(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        inst = LinkageInstance(g, 3, frozenset(), (frozenset(),))

        def liar(_inst):
            return True  # claims yes even for empty graphs

        with pytest.raises(OracleFaultError):
            decision_to_witness(liar, inst)


class TestCountingOracle:
    def test_counts_and_max(self):
        stats = OracleStats()
        solver = counting_oracle(solve_linkage, stats)
        for n in (5, 9, 7):
            g = Graph.from_edges(range(1, n + 1))
            solver(LinkageInstance(g, 1, frozenset(), (frozenset(),)))
        assert stats.calls == 3
        assert stats.max_instance_vertices == 9

    def test_pass_through(self):
        rng = random.Random(23)
        stats = OracleStats()
        wrapped = counting_oracle(solve_linkage, stats)
        for _ in range(50):
            inst = random_instance(rng, max_n=6)
            assert (wrapped(inst) is None) == (solve_linkage(inst) is None)
        assert stats.calls == 50


class TestConcurrentStats:
    def test_recording_is_thread_safe(self):
        from concurrent.futures import ThreadPoolExecutor

        stats = OracleStats()
        solver = counting_oracle(solve_linkage, stats)
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        inst = LinkageInstance(g, 3, frozenset(), (frozenset(),))
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: solver(inst), range(200)))
        assert stats.calls == 200
        assert stats.max_instance_vertices == 3


class TestJsonFormat:
    def test_round_trip(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2)])
        inst = LinkageInstance(g, 2, frozenset({1, 2}), (frozenset({1, 2}), frozenset()))
        data = json.loads(json.dumps(instance_to_json(inst)))
        back = instance_from_json(data)
        assert back.graph == inst.graph
        assert back.k_prime == inst.k_prime
        assert back.terminals == inst.terminals
        assert sorted(map(sorted, back.requests)) == sorted(map(sorted, inst.requests))
