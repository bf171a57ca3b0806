import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpath_kernel.errors import InputError, NotApplicableError
from kpath_kernel.graphs import (
    Graph,
    Separation,
    brute_force_k_path,
    check_separation,
    closed_neighborhood,
    has_matching,
    induced_subgraph,
    is_guarded,
    open_neighborhood,
    read_graph_text,
    traverses,
    write_graph_text,
)
from kpath_kernel.treedecomp import read_td, validate


def path_graph(n):
    g = Graph.from_edges(range(1, n + 1))
    for i in range(1, n):
        g.add_edge(i, i + 1)
    return g


def random_graph(rng, n, p):
    g = Graph.from_edges(range(1, n + 1))
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < p:
            g.add_edge(a, b)
    return g


def all_k_paths_unpruned(g, k):
    """Independent oracle: enumerate every injective vertex sequence."""
    out = []
    for seq in itertools.permutations(sorted(g.vertices), k):
        if all(g.has_edge(seq[i], seq[i + 1]) for i in range(k - 1)):
            out.append(seq)
    return out


class TestGraphBasics:
    def test_self_loop_rejected(self):
        g = Graph.from_edges([1, 2])
        with pytest.raises(InputError):
            g.add_edge(1, 1)

    @pytest.mark.parametrize("v", [True, 1.0, 0, -2])
    def test_vertex_ids_are_positive_ints(self, v):
        g = Graph()
        with pytest.raises(InputError):
            g._insert_vertex(v)
        assert g.n == 0

    def test_unknown_endpoint_rejected(self):
        g = Graph.from_edges([1, 2])
        with pytest.raises(InputError):
            g.add_edge(1, 5)

    def test_deletion_removes_incident_edges_and_never_reuses_ids(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        g.delete_vertex(2)
        assert set(g.vertices) == {1, 3}
        assert g.m == 0
        assert g.add_vertex() == 4

    def test_duplicate_edge_is_a_noop(self):
        g = Graph.from_edges([1, 2], [(1, 2)])
        g.add_edge(2, 1)
        assert g.m == 1


class TestSortedAdjacency:
    @staticmethod
    def fresh(g):
        return {v: tuple(sorted(g.neighbors(v))) for v in g.vertices}

    def test_rebuilt_after_every_mutator(self):
        g = Graph.from_edges([3, 1, 2], [(3, 1), (2, 3)])
        snap = g.sorted_adjacency()
        assert snap == {1: (3,), 2: (3,), 3: (1, 2)}
        assert g.sorted_adjacency() is snap  # one snapshot per version
        mutations = [
            lambda: g._insert_vertex(7),
            lambda: g.add_vertex(),
            lambda: g.add_edge(1, 7),
            lambda: g.add_edge(8, 2),
            lambda: g.delete_edge(3, 1),
            lambda: g.delete_vertex(2),
            lambda: g.delete_vertices([8]),
        ]
        for mutate in mutations:
            g.sorted_adjacency()
            mutate()
            assert g.sorted_adjacency() == self.fresh(g)

    def test_not_shared_by_copies(self):
        g = path_graph(4)
        snap = g.sorted_adjacency()
        h = g.copy()
        sub = induced_subgraph(g, {1, 2, 3})
        assert h.sorted_adjacency() is not snap
        h.delete_vertex(4)
        sub.add_edge(1, 3)
        assert g.sorted_adjacency() is snap and snap == self.fresh(g)
        assert h.sorted_adjacency() == self.fresh(h)
        assert sub.sorted_adjacency() == {1: (2, 3), 2: (1, 3), 3: (1, 2)}


class TestInducedSubgraph:
    def test_triangle_restriction(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        sub = induced_subgraph(g, {1, 2})
        assert set(sub.vertices) == {1, 2} and sub.has_edge(1, 2) and sub.m == 1

    def test_full_restriction_is_identity(self):
        g = Graph.from_edges(range(1, 6), [(1, 2), (3, 4)])
        assert induced_subgraph(g, g.vertices) == g

    def test_nonadjacent_pair(self):
        g = path_graph(3)
        sub = induced_subgraph(g, {1, 3})
        assert sub.m == 0 and set(sub.vertices) == {1, 3}

    def test_unknown_vertex_rejected(self):
        with pytest.raises(InputError):
            induced_subgraph(path_graph(3), {1, 9})


class TestUnknownVertices:
    @pytest.mark.parametrize("fn", [induced_subgraph, open_neighborhood])
    def test_reported_sorted(self, fn):
        g = path_graph(40)
        g.delete_vertex(7)  # a deleted id is unknown too
        with pytest.raises(InputError) as err:
            fn(g, iter([12, 41, 1, 7, 99, 3]))
        assert str(err.value) == "unknown vertices [7, 41, 99]"


class TestNeighborhoods:
    def test_path_middle(self):
        assert open_neighborhood(path_graph(3), {2}) == {1, 3}

    def test_whole_vertex_set(self):
        g = path_graph(4)
        assert open_neighborhood(g, g.vertices) == set()

    def test_star_leaf(self):
        g = Graph.from_edges(range(1, 6), [(1, i) for i in range(2, 6)])
        assert open_neighborhood(g, {2}) == {1}

    def test_closed_variant(self):
        g = path_graph(3)
        assert closed_neighborhood(g, {2}) == {1, 2, 3}


def sep_of(a, b):
    """The separation (a, b) as its region a∖b and its cut a∩b."""
    return Separation(frozenset(a) - frozenset(b), frozenset(a) & frozenset(b))


class TestCheckSeparation:
    def test_path_cut_vertex(self):
        g = path_graph(3)
        sep = sep_of({1, 2}, {2, 3})
        assert check_separation(g, sep)
        assert sep.order == 1

    def test_triangle_crossing_edge(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        assert not check_separation(g, sep_of({1, 2}, {3}))

    def test_degenerate_full_overlap(self):
        g = path_graph(4)
        vs = set(g.vertices)
        assert check_separation(g, sep_of(vs, vs))

    def test_union_must_cover(self):
        # B is every vertex outside the region, so A ∪ B covers g by
        # construction; it can only fail to be V(g) through an id g lacks
        g = path_graph(3)
        assert not check_separation(g, Separation(frozenset({4}), frozenset()))
        assert not check_separation(g, Separation(frozenset({1}), frozenset({2, 4})))
        assert check_separation(g, Separation(frozenset({1}), frozenset({2})))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetry(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 8), 0.4)
        verts = sorted(g.vertices)
        a = {v for v in verts if rng.random() < 0.5}
        b = set(verts) - a | {v for v in a if rng.random() < 0.3}
        sep = sep_of(a, b)
        swapped = Separation(frozenset(verts) - sep.region - sep.cut, sep.cut)
        assert check_separation(g, sep) == check_separation(g, swapped)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_the_two_sided_definition(self, seed):
        # (A, B) with A ∪ B = V is a separation when no edge runs from A∖B
        # to B∖A; written out here, independently of check_separation
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6]))
        verts = set(g.vertices)
        a = {v for v in verts if rng.random() < 0.5}
        b = verts - a | {v for v in a if rng.random() < 0.3}
        crossing = any(g.has_edge(u, v) for u in a - b for v in b - a)
        sep = sep_of(a, b)
        assert check_separation(g, sep) == (not crossing)
        stray = rng.choice([0, -1, max(verts) + 1, max(verts) + 7])  # ids g lacks
        assert not check_separation(g, Separation(sep.region | {stray}, sep.cut))
        assert not check_separation(g, Separation(sep.region, sep.cut | {stray}))
        v = rng.choice(sorted(verts))
        assert not check_separation(g, Separation(sep.region | {v}, sep.cut | {v}))


class TestTraverses:
    def test_path_inside_region_is_one_traverse(self):
        p = (1, 2, 3)
        assert traverses(p, {1, 2, 3}) == [p]

    def test_disjoint_path_has_none(self):
        assert traverses((1, 2, 3), {7, 8}) == []

    def test_two_traverses_share_the_gap_vertex(self):
        p = (1, 2, 3, 4, 5)
        assert traverses(p, {2, 4}) == [(1, 2, 3), (3, 4, 5)]

    def test_reconstruction_and_partition(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 10)
            p = tuple(rng.sample(range(1, 15), n))
            a = {v for v in range(1, 15) if rng.random() < 0.4}
            ts = traverses(p, a)
            # every occurrence of an a-vertex on p lies on exactly one traverse
            for i, v in enumerate(p):
                if v in a:
                    assert sum(1 for t in ts if v in t) == 1
            # traverse interiors lie in a; endpoints are p's ends or outside a
            for t in ts:
                assert all(v in a for v in t[1:-1]) or len(t) <= 2
                for end in (t[0], t[-1]):
                    assert end in (p[0], p[-1]) or end in a or any(
                        end == p[j] for j in range(len(p))
                    )
            # concatenating traverses and complementary stretches rebuilds p
            joined = set()
            for t in ts:
                joined.update(t)
            outside = [v for v in p if v not in a]
            assert joined | set(outside) == set(p)


class TestIsGuarded:
    def test_inside_region_with_empty_guard(self):
        g = path_graph(3)
        assert is_guarded(g, (1, 2), {1, 2}, set())

    def test_unanchored_traverse_fails(self):
        g = path_graph(5)
        # traverse 1-2-3 has endpoints 1 and 3; guard only holds 5's side
        assert not is_guarded(g, (1, 2, 3, 4, 5), {2}, set())

    def test_disjoint_path_is_vacuously_guarded(self):
        g = path_graph(5)
        assert is_guarded(g, (4, 5), {1}, {2})

    def test_guard_outside_neighborhood_rejected(self):
        g = path_graph(5)
        with pytest.raises(InputError):
            is_guarded(g, (1, 2), {1}, {5})


class TestBruteForceKPath:
    def test_triangle_hamiltonian(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        p = brute_force_k_path(g, 3)
        assert p is not None and len(p) == 3
        assert all(g.has_edge(p[i], p[i + 1]) for i in range(2))

    def test_single_vertex(self):
        g = Graph.from_edges([4])
        assert brute_force_k_path(g, 1) == (4,)

    def test_two_isolated_vertices_have_no_2_path(self):
        g = Graph.from_edges([1, 2])
        assert brute_force_k_path(g, 2) is None

    def test_cap_enforced(self):
        g = Graph.from_edges(range(1, 34))
        with pytest.raises(NotApplicableError):
            brute_force_k_path(g, 2)

    def test_against_unpruned_enumeration(self):
        rng = random.Random(20260810)
        for trial in range(60):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
            k = rng.randint(1, n)
            found = brute_force_k_path(g, k)
            expected = all_k_paths_unpruned(g, k)
            if found is None:
                assert not expected
            else:
                assert found in expected


def matching_number(g, avoid=()):
    """nu(G - avoid) by networkx, the independent reference."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(v for v in g.vertices if v not in avoid)
    h.add_edges_from((u, v) for u, v in g.edges() if u not in avoid and v not in avoid)
    return len(nx.max_weight_matching(h, maxcardinality=True))


def random_matching(rng, g, avoid):
    """A random matching of G - avoid, as has_matching's mate dict."""
    edges = [(u, v) for u, v in sorted(g.edges()) if u not in avoid and v not in avoid]
    rng.shuffle(edges)
    mate = {}
    for u, v in edges[: rng.randint(0, len(edges))]:
        if u not in mate and v not in mate:
            mate[u], mate[v] = v, u
    return mate


def is_matching_of(g, avoid, mate):
    return all(
        mate.get(w) == v and g.has_edge(v, w) and v not in avoid and w not in avoid
        for v, w in mate.items()
    )


def assert_matching_threshold(g, avoid=frozenset(), starts=None):
    """has_matching against networkx's nu for sizes around nu; with a
    ``starts`` rng, also from a random starting matching of G - avoid,
    which must stay a matching and keep its matched vertices matched."""
    nu = matching_number(g, avoid)
    for size in range(max(0, nu - 2), nu + 3):
        where = (sorted(g.edges()), sorted(avoid), size)
        assert has_matching(g, avoid, size) == (size <= nu), where
        if starts is None:
            continue
        start = random_matching(starts, g, avoid)
        mate = dict(start)
        ok = has_matching(g, avoid, size, mate)
        assert ok == (size <= nu), (*where, start)
        assert is_matching_of(g, avoid, mate) and start.keys() <= mate.keys(), (*where, start)
        assert ok == (size <= 0 or len(mate) // 2 >= size), (*where, start)
    return nu


def cycle(n, first=1):
    vs = range(first, first + n)
    return [(v, v + 1) for v in vs[:-1]] + [(vs[-1], first)]


class TestHasMatching:
    def test_random_graphs_with_avoided_vertices(self):
        rng = random.Random(20261018)
        starts = random.Random(20261019)
        for _ in range(300):
            n = rng.randint(1, 16)
            g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5]))
            avoid = frozenset(rng.sample(sorted(g.vertices), rng.randint(0, n // 3)))
            assert_matching_threshold(g, avoid, starts)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_cycles(self, n):
        g = Graph.from_edges(range(1, n + 1), cycle(n))
        assert assert_matching_threshold(g) == n // 2

    def test_petersen_graph(self):
        outer = cycle(5)
        spokes = [(v, v + 5) for v in range(1, 6)]
        inner = [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
        g = Graph.from_edges(range(1, 11), outer + spokes + inner)
        assert assert_matching_threshold(g) == 5
        assert assert_matching_threshold(g, frozenset({1})) == 4

    def test_triangle_with_pendants(self):
        # greedy matches 1-2 and 3-6, stranding the pendants 4 and 5
        g = Graph.from_edges(range(1, 7), cycle(3) + [(1, 4), (2, 5), (3, 6)])
        assert assert_matching_threshold(g) == 3
        assert assert_matching_threshold(g, frozenset({3})) == 2

    def test_two_triangles_joined_by_a_path(self):
        edges = cycle(3) + cycle(3, first=6) + [(3, 4), (4, 5), (5, 6), (1, 9), (8, 10)]
        g = Graph.from_edges(range(1, 11), edges)
        assert assert_matching_threshold(g) == 5

    def test_blossoms_in_every_vertex_order(self):
        # a pendant on each of two odd cycles sharing a path: each relabelling
        # leaves the greedy pass a different matching to repair
        edges = cycle(5) + [(3, 6), (6, 7), (7, 8), (8, 9), (9, 6), (1, 10), (8, 11)]
        rng = random.Random(3)
        starts = random.Random(4)
        for _ in range(60):
            perm = list(range(1, 12))
            rng.shuffle(perm)
            relabel = dict(zip(range(1, 12), perm))
            g = Graph.from_edges(range(1, 12), [(relabel[u], relabel[v]) for u, v in edges])
            assert assert_matching_threshold(g, starts=starts) == 5

    def test_large_star(self):
        g = Graph.from_edges(range(1, 401), [(1, v) for v in range(2, 401)])
        assert has_matching(g, (), 1) and not has_matching(g, (), 2)
        assert not has_matching(g, {1}, 1)

    @pytest.mark.parametrize("ell", [1, 4, 6])
    def test_edgeless_core_with_hubs(self, ell):
        g = Graph.from_edges(range(1, ell + 61))
        for h in range(1, ell + 1):
            for c in range(ell + 1, ell + 61):
                g.add_edge(h, c)
        assert has_matching(g, (), ell) and not has_matching(g, (), ell + 1)
        assert not has_matching(g, {1}, ell)

    def test_nonpositive_size_is_always_met(self):
        g = Graph.from_edges([1])
        assert has_matching(g, (), 0) and has_matching(g, {1}, -3)


class TestGraphTextFormat:
    def test_round_trip_is_idempotent(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 10), 0.4)
            text = write_graph_text(g)
            again = write_graph_text(read_graph_text(text))
            assert text == again

    def test_comments_ignored_and_counts_checked(self):
        g = read_graph_text("c hello\np 3 1\n1 2\n")
        assert g.n == 3 and g.m == 1
        with pytest.raises(InputError):
            read_graph_text("p 3 2\n1 2\n")

    @pytest.mark.parametrize("text", ["p -3 0\n", "p 3 -1\n", "c x\np 0 -1\n"])
    def test_negative_header_counts_rejected(self, text):
        with pytest.raises(InputError, match="line "):
            read_graph_text(text)

    # whole lines that parse, mixed with lines of arbitrary tokens
    _line = st.one_of(
        st.sampled_from(["p 3 2", "1 2", "2 1", "2 3", "s td 2 2 3", "b 1 1 2", "b 2 2 3", "c root 2"]),
        st.lists(
            st.sampled_from(["p", "s", "td", "b", "c", "root", "0", "1", "2", "3", "-1", "x", "2.5"]),
            max_size=5,
        ).map(" ".join),
    )
    _text = st.lists(_line, max_size=6).map("\n".join)

    @settings(max_examples=300, deadline=None)
    @given(_text, _text)
    def test_parsers_accept_or_raise_input_error(self, graph_text, td_text):
        try:
            g = read_graph_text(graph_text)
        except InputError:
            g = path_graph(3)
        else:
            header = next(ln for ln in graph_text.splitlines() if ln.strip().startswith("p"))
            assert g.m == int(header.split()[2])
        try:
            td = read_td(td_text, g)
        except InputError:
            return
        # what parses is a rooted tree the validator can check
        assert isinstance(validate(td).ok, bool)

    def test_sparse_ids_are_remapped(self):
        g = Graph.from_edges([10, 20, 30], [(10, 30)])
        assert write_graph_text(g) == "p 3 1\n1 3\n"
