import itertools
import random

import pytest

from kpath_kernel.errors import InputError, NotApplicableError
from kpath_kernel.graphs import Graph, brute_force_k_path, induced_subgraph
from kpath_kernel.linkage import OracleStats, counting_oracle, solve_linkage
from kpath_kernel.reduction import (
    _request_universe,
    apply_reduction,
    enumerate_candidates,
    guard_is_valid,
    make_guarded_region,
    mark_and_delete,
    p_bound,
)


def independent_p_bound(k, ell, h):
    # spelled out term by term, kept separate from the implementation
    total = 1
    for r in range(0, 2 * h + 1):
        term = 1
        for _ in range(r):
            term *= h * (ell + 1)
        total += term
    return (k + 1) * total


def random_graph(rng, n, p):
    g = Graph.from_edges(range(1, n + 1))
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < p:
            g.add_edge(a, b)
    return g


class TestPBound:
    def test_pinned_values(self):
        assert p_bound(1, 1, 1) == 16
        assert p_bound(1, 2, 1) == 28
        for k in range(1, 5):
            assert p_bound(k, 3, 0) == 2 * (k + 1)

    def test_matches_independent_summation(self):
        for k in range(1, 6):
            for ell in range(0, 5):
                for h in range(0, 4):
                    assert p_bound(k, ell, h) == independent_p_bound(k, ell, h)

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            p_bound(0, 1, 1)
        with pytest.raises(InputError):
            p_bound(1, -1, 0)


def region_candidates(gr):
    """The candidates ``apply_reduction`` asks for ``gr``."""
    return enumerate_candidates(gr.k, _request_universe(gr.guard, gr.boundary), max(1, 2 * len(gr.guard)))


def full_candidates(gr):
    """Every multiset of at most max(1, 2|Z|) requests, and the free path,
    at every k' in 0..k: the list before counting."""
    universe = _request_universe(gr.guard, gr.boundary)
    patterns = [(frozenset(),)]
    for r in range(1, max(1, 2 * len(gr.guard)) + 1):
        patterns.extend(itertools.combinations_with_replacement(universe, r))
    return [(kp, pat) for kp in range(gr.k + 1) for pat in patterns]


def region_fixture(a_size, boundary_size, k, region_edges=(), rng=None):
    """A graph made of a region, its boundary, and an outside part."""
    g = Graph.from_edges(range(1, a_size + boundary_size + 1))
    region = set(range(1, a_size + 1))
    boundary = set(range(a_size + 1, a_size + boundary_size + 1))
    for u, v in region_edges:
        g.add_edge(u, v)
    for b in boundary:
        g.add_edge(b, min(region))
    return g, region, boundary


class TestEnumerateCandidates:
    def test_empty_guard_leaves_only_free_path_questions(self):
        g = Graph.from_edges(range(1, 8))
        gr = make_guarded_region(g, {1, 2, 3}, k=3)
        assert gr.guard == frozenset()
        cands = region_candidates(gr)
        # a free path covers at least one vertex: one per k' in 1..3
        assert cands == [(kp, (frozenset(),)) for kp in (1, 2, 3)]

    def test_single_vertex_guard_and_boundary(self):
        g = Graph.from_edges(range(1, 6), [(5, i) for i in range(1, 5)])
        gr = make_guarded_region(g, {1, 2, 3, 4}, k=1)
        assert gr.boundary == frozenset({5}) and gr.guard == frozenset({5})
        # ({5},) needs k' >= 2 and ({5}, {5}) k' >= 3
        assert region_candidates(gr) == [(1, (frozenset(),))]
        gr = make_guarded_region(g, {1, 2, 3, 4}, k=3)
        z = frozenset({5})
        assert region_candidates(gr) == [
            (1, (frozenset(),)),
            (2, (frozenset(),)),
            (3, (frozenset(),)),
            (2, (z,)),
            (3, (z,)),
            (3, (z, z)),
        ]

    def test_no_duplicate_candidates(self):
        g = Graph.from_edges(range(1, 8), [(6, 1), (6, 2), (7, 2), (7, 3)])
        gr = make_guarded_region(g, {1, 2, 3, 4, 5}, k=2)
        cands = region_candidates(gr)
        assert len(cands) == len(set(cands))

    def test_count_never_exceeds_p_bound(self):
        # guard z1..zh, boundary adds ell-h more; sweep small shapes
        for ell in range(0, 4):
            for h in range(0, ell + 1):
                for k in (1, 2, 3):
                    verts = list(range(1, 10 + ell))
                    g = Graph.from_edges(verts)
                    region = set(range(1, 10))
                    boundary = list(range(10, 10 + ell))
                    for b in boundary:
                        g.add_edge(b, 1)
                    gr = make_guarded_region(g, region, k=k, guard=boundary[:h])
                    assert len(region_candidates(gr)) <= p_bound(k, ell, h)


class TestCountedCandidates:
    def test_marking_with_the_counted_list_keeps_the_answer(self):
        # the counted list is the full one less every candidate with
        # k' < r + |U| (the free path has r = 1 and U empty); no traverse
        # of a k-path induces those, so marking without them stays safe
        rng = random.Random(20261020)
        cases = deleting = 0
        for _ in range(400):
            n = rng.randint(4, 10)
            g = random_graph(rng, n, rng.choice([0.25, 0.4, 0.55]))
            k = rng.randint(1, 6)
            before = brute_force_k_path(g, k) is not None
            verts = sorted(g.vertices)
            for _ in range(6):
                gr = make_guarded_region(g, rng.sample(verts, rng.randint(1, n - 1)), k)
                if len(gr.boundary) > 3:
                    continue
                if rng.random() < 0.5:
                    guard = rng.sample(sorted(gr.boundary), rng.randint(0, len(gr.boundary)))
                    sub = make_guarded_region(g, gr.region, k, guard)
                    if guard_is_valid(g, sub):
                        gr = sub
                cands = region_candidates(gr)
                full = full_candidates(gr)
                counted = {(kp, pat) for kp, pat in full if kp >= len(pat) + len(frozenset().union(*pat))}
                assert len(cands) == len(set(cands)) and set(cands) == counted
                local = induced_subgraph(g, gr.region | gr.boundary)
                deleted = mark_and_delete(local, gr.boundary, cands, solve_linkage)
                out = g.copy()
                out.delete_vertices(deleted)
                assert (brute_force_k_path(out, k) is not None) == before, (sorted(g.edges()), gr)
                cases += 1
                deleting += bool(deleted)
        assert cases >= 1500 and deleting >= 500


class TestApplyReduction:
    def test_not_applicable_when_region_small(self):
        g = Graph.from_edges(range(1, 6))
        gr = make_guarded_region(g, {1, 2, 3}, k=1)
        with pytest.raises(NotApplicableError):
            apply_reduction(g, gr, solve_linkage)

    def test_isolated_region_is_mostly_deleted(self):
        # 13 isolated region vertices (> k*p_bound = 12), plus a 2-path outside
        g = Graph.from_edges(range(1, 16), [(14, 15)])
        region = set(range(1, 14))
        gr = make_guarded_region(g, region, k=2)
        assert gr.boundary == frozenset()
        stats = OracleStats()
        out, deleted = apply_reduction(g, gr, counting_oracle(solve_linkage, stats))
        assert len(deleted) == 12  # one vertex marked by the single-vertex witness
        assert brute_force_k_path(out, 2) is not None
        assert stats.calls <= p_bound(2, 0, 0)

    def test_oracle_fault_propagates(self):
        g = Graph.from_edges(range(1, 15))
        gr = make_guarded_region(g, set(range(1, 14)), k=2)

        def broken(inst):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            apply_reduction(g, gr, broken)

    def _random_safeness_case(self, rng, k, ell):
        a_size = {(1, 0): 6, (1, 1): 18, (2, 0): 14}[(k, ell)]
        n_out = rng.randint(0, 4)
        g = Graph.from_edges(range(1, a_size + ell + n_out + 1))
        region = list(range(1, a_size + 1))
        boundary = list(range(a_size + 1, a_size + ell + 1))
        outside = list(range(a_size + ell + 1, a_size + ell + n_out + 1))
        for a, b in itertools.combinations(region, 2):
            if rng.random() < 0.12:
                g.add_edge(a, b)
        for b in boundary:
            for a in region:
                if rng.random() < 0.25:
                    g.add_edge(b, a)
            for o in outside:
                if rng.random() < 0.5:
                    g.add_edge(b, o)
        for a, b in itertools.combinations(outside, 2):
            if rng.random() < 0.4:
                g.add_edge(a, b)
        return g, set(region), set(boundary)

    def test_safeness_against_brute_force(self):
        rng = random.Random(20260810)
        cases = 0
        for _ in range(24):
            k, ell = rng.choice([(1, 0), (1, 1), (2, 0)])
            g, region, boundary = self._random_safeness_case(rng, k, ell)
            gr = make_guarded_region(g, region, k=k)
            if len(gr.boundary) != ell:
                continue
            before = brute_force_k_path(g, k) is not None
            stats = OracleStats()
            out, deleted = apply_reduction(g, gr, counting_oracle(solve_linkage, stats))
            after = brute_force_k_path(out, k) is not None
            assert before == after
            assert len(deleted) >= 1
            assert stats.calls <= p_bound(k, len(gr.boundary), len(gr.guard))
            assert stats.max_instance_vertices <= len(region) + len(gr.boundary)
            cases += 1
        assert cases >= 15

    def test_stale_boundary_rejected(self):
        g = Graph.from_edges(range(1, 16))
        gr = make_guarded_region(g, set(range(1, 14)), k=2)
        g2 = g.copy()
        g2.add_edge(2, 15)
        with pytest.raises(InputError):
            apply_reduction(g2, gr, solve_linkage)


class TestGuardValidity:
    def test_full_boundary_is_always_a_valid_guard(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            verts = sorted(g.vertices)
            region = set(rng.sample(verts, rng.randint(1, len(verts))))
            gr = make_guarded_region(g, region, k=rng.randint(1, 3))
            assert guard_is_valid(g, gr)

    def test_bogus_guard_detected(self):
        # only 5-paths are 1-2-3-4-5; region {2,3} forces traverses through it
        g = Graph.from_edges(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)])
        gr = make_guarded_region(g, {2, 3}, k=5, guard=set())
        assert not guard_is_valid(g, gr)
