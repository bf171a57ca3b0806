import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kpath_kernel.modulator as modulator_mod
import kpath_kernel.separation as separation_mod
import kpath_kernel.treedecomp as treedecomp_mod
from kpath_kernel.driver import kernelize
from kpath_kernel.errors import InputError, NotApplicableError
from kpath_kernel.generate import GeneratorSpec, _partial_k_tree, generate
from kpath_kernel.graphs import Graph, induced_subgraph
from kpath_kernel.linkage import solve_linkage
from kpath_kernel.modulator import modulator_kernelize
from kpath_kernel.separation import DecompositionSeparationProvider
from kpath_kernel.treedecomp import (
    DecompositionStats,
    TreeDecomposition,
    Violation,
    _decomposition_from_order,
    _min_fill_order,
    binarize,
    compute_decomposition,
    edge_components,
    lca_closure,
    lowest_heavy_node,
    make_connected,
    is_connected_decomposition,
    measure,
    read_td,
    stats,
    validate,
    write_td,
)


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


def grid_graph(rows, cols):
    g = Graph.from_edges(range(1, rows * cols + 1))
    vid = lambda r, c: r * cols + c + 1
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                g.add_edge(vid(r, c), vid(r, c + 1))
            if r + 1 < rows:
                g.add_edge(vid(r, c), vid(r + 1, c))
    return g


def naive_axiom_check(td):
    """Independent validity oracle, written against the bare definition."""
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
        # count tree edges inside `nodes`; connected iff edges == |nodes| - 1
        inside = sum(1 for p, c in td.tree_edges() if p in nodes and c in nodes)
        if inside != len(nodes) - 1:
            return False
    return True


def naive_min_fill_order(g, fills=None):
    """Reference min-fill: rescan every remaining vertex at every step and
    take the least (fill, degree, id). Each step's fill goes to ``fills``
    when a list is given."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}

    def key(v):
        nb = sorted(adj[v])
        fill = sum(1 for a, b in itertools.combinations(nb, 2) if b not in adj[a])
        return (fill, len(nb), v)

    order = []
    while adj:
        v = min(adj, key=key)
        if fills is not None:
            fills.append(key(v)[0])
        nb = adj.pop(v)
        for a in nb:
            adj[a].discard(v)
        for a, b in itertools.combinations(nb, 2):
            adj[a].add(b)
            adj[b].add(a)
        order.append(v)
    return order


def naive_measure(td):
    """(width, adhesion, adhesion degree) from every node's neighbours, so
    each tree edge is intersected twice and no index is used."""
    width = max(len(b) for b in td.bags.values()) - 1
    adhesion = degree = 0
    for t in td.nodes:
        nbs = td.children[t] + ([td.parent[t]] if td.parent[t] is not None else [])
        adhs = {td.bags[t] & td.bags[nb] for nb in nbs}
        adhesion = max([adhesion] + [len(a) for a in adhs])
        degree = max(degree, len(adhs))
    return (width, adhesion, degree)


def disjoint_union(*graphs):
    g = Graph()
    for h in graphs:
        ids = {v: g.add_vertex() for v in sorted(h.vertices)}
        for a, b in h.edges():
            g.add_edge(ids[a], ids[b])
    return g


def tie_heavy_graph(rng):
    """Shapes where many vertices share a min-fill key."""
    n = rng.randint(1, 12)
    shape = rng.choice(["path", "cycle", "star", "grid", "clique", "isolated"])
    if shape == "path":
        return path_graph(n)
    if shape == "cycle":
        g = path_graph(max(n, 3))
        g.add_edge(1, g.n)
        return g
    if shape == "star":
        return Graph.from_edges(range(1, n + 1), [(1, i) for i in range(2, n + 1)])
    if shape == "grid":
        return grid_graph(rng.randint(1, 4), rng.randint(1, 4))
    if shape == "clique":
        return Graph.from_edges(range(1, n + 1), itertools.combinations(range(1, n + 1), 2))
    return Graph.from_edges(range(1, n + 1))


def worsened_decomposition(rng, g):
    """A valid but sloppier decomposition: start from the computed one, then
    randomly fatten bags along tree edges and duplicate leaf bags."""
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


class TestValidate:
    def test_single_bag_is_valid(self):
        g = random_graph(random.Random(1), 6, 0.5)
        td = TreeDecomposition(g, 1, {1: None}, {1: set(g.vertices)})
        assert validate(td).ok
        assert stats(td).width == g.n - 1

    def test_path_decomposition_example(self):
        g = path_graph(3)
        td = TreeDecomposition(g, 1, {1: None, 2: 1}, {1: {1, 2}, 2: {2, 3}})
        assert validate(td).ok
        s = stats(td)
        assert (s.width, s.adhesion, s.adhesion_degree) == (1, 1, 1)

    def test_uncovered_edge_detected(self):
        g = path_graph(3)
        td = TreeDecomposition(g, 1, {1: None, 2: 1}, {1: {1, 2}, 2: {3}})
        report = validate(td)
        assert not report.ok
        assert any(v.axiom == "edge-coverage" and v.witness == (2, 3) for v in report.violations)

    def test_disconnected_vertex_detected(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        td = TreeDecomposition(
            g, 1, {1: None, 2: 1, 3: 2}, {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}
        )
        report = validate(td)
        assert any(v.axiom == "connectivity" for v in report.violations)

    def test_unknown_bag_vertices_detected(self):
        g = path_graph(2)
        td = TreeDecomposition(g, 1, {1: None, 2: 1}, {1: {1, 2}, 2: {2, 98, 99}})
        report = validate(td)
        assert report.violations == [Violation("unknown-vertex", 98), Violation("unknown-vertex", 99)]
        with pytest.raises(InputError):
            stats(td)

    def test_connectivity_violations_come_sorted(self):
        # the path decomposition of a 7-vertex path, rooted at its far end,
        # with 4 and 7 added below their holders and 2 above its holders:
        # 4 and 7 first turn up at the root, 2 last, and all three are
        # reported in id order
        g = path_graph(7)
        parent = {i: i + 1 for i in range(1, 6)} | {6: None}
        bags = {i: {i, i + 1} for i in range(1, 7)}
        bags[1].add(7)
        bags[5].add(2)
        bags[6].add(4)
        td = TreeDecomposition(g, 6, parent, bags)
        first_seen = [v for v in td.index().holders if v in (2, 4, 7)]
        assert first_seen != sorted(first_seen)
        assert validate(td).violations == [Violation("connectivity", v) for v in (2, 4, 7)]
        assert not naive_axiom_check(td)

    def test_matches_naive_checker_on_mutants(self):
        rng = random.Random(42)
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 9), 0.4)
            td = worsened_decomposition(rng, g)
            assert validate(td).ok and naive_axiom_check(td)
            # random bag-vertex removal
            bags = {t: set(b) for t, b in td.bags.items()}
            t = rng.choice([t for t in bags if bags[t]])
            bags[t].discard(rng.choice(sorted(bags[t])))
            mutant = TreeDecomposition(g, td.root, td.parent, bags)
            assert validate(mutant).ok == naive_axiom_check(mutant)
            # a host vertex dropped from every bag
            gone = rng.choice(sorted(g.vertices))
            bags = {t: set(b) - {gone} for t, b in td.bags.items()}
            mutant = TreeDecomposition(g, td.root, td.parent, bags)
            assert not naive_axiom_check(mutant)
            assert Violation("coverage", gone) in validate(mutant).violations
            # a bag gaining a vertex the host does not have
            stranger = max(g.vertices) + rng.randint(1, 5)
            bags = {t: set(b) for t, b in td.bags.items()}
            bags[rng.choice(sorted(bags))].add(stranger)
            mutant = TreeDecomposition(g, td.root, td.parent, bags)
            assert not naive_axiom_check(mutant)
            assert validate(mutant).violations == [Violation("unknown-vertex", stranger)]


class TestStats:
    def test_single_bag_has_no_adhesion(self):
        g = path_graph(2)
        td = TreeDecomposition(g, 1, {1: None}, {1: {1, 2}})
        s = stats(td)
        assert (s.adhesion, s.adhesion_degree) == (0, 0)

    def test_equal_adhesions_count_once(self):
        g = Graph.from_edges(range(1, 6), [(1, 2), (1, 3), (1, 4), (1, 5)])
        td = TreeDecomposition(
            g,
            1,
            {1: None, 2: 1, 3: 1, 4: 1},
            {1: {1, 2}, 2: {1, 3}, 3: {1, 4}, 4: {1, 5}},
        )
        assert stats(td).adhesion_degree == 1

    def test_invalid_input_rejected(self):
        g = path_graph(3)
        td = TreeDecomposition(g, 1, {1: None}, {1: {1, 2}})
        with pytest.raises(InputError):
            stats(td)

    def test_measure_matches_a_per_node_reference(self):
        rng = random.Random(20261020)
        single = 0
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.7]))
            td = worsened_decomposition(rng, g)
            for tree in (td, binarize(td), make_connected(td)):
                s = measure(tree)
                assert (s.width, s.adhesion, s.adhesion_degree) == naive_measure(tree)
                single += len(tree.bags) == 1
        lone = TreeDecomposition(path_graph(3), 1, {1: None}, {1: {1, 2, 3}})
        assert measure(lone) == DecompositionStats(2, 0, 0)
        assert single >= 10


def naive_index(td):
    """Holders in the order of a preorder (the reversed post-order) and
    every tree edge's adhesion, straight from the bags."""
    pre = list(reversed(td.postorder()))
    held = set().union(*td.bags.values())
    holders = {v: [t for t in pre if v in td.bags[t]] for v in held}
    adhesions = {t: td.bags[t] & td.bags[p] for t, p in td.parent.items() if p is not None}
    return holders, adhesions


def indexed_trees(rng):
    """Computed, worsened, binarized and lifted decompositions of random
    graphs and partial k-trees."""
    for i in range(48):
        if i % 3:
            g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.7]))
        else:
            g = Graph()
            _partial_k_tree(g, rng, rng.randint(31, 120), rng.randint(1, 3), rng.choice([0.5, 0.8]))
        worse = worsened_decomposition(rng, g)
        yield from (compute_decomposition(g), worse, binarize(worse), worse.lift_root(), binarize(worse).lift_root())


class TestSharedBagIndex:
    """``validate``, ``measure`` and the provider's counts read one bag
    index per tree; a copy made by ``restrict`` or ``lift_root`` builds its
    own."""

    def test_provider_matches_stats_and_fresh_counts(self):
        trees = 0
        for td in indexed_trees(random.Random(20261021)):
            provider = DecompositionSeparationProvider(td.host, td)
            s = stats(td)
            assert (s.width, s.adhesion, s.adhesion_degree) == naive_measure(td)
            assert (provider.h, provider.width_bound, provider.degree_bound) == (
                s.adhesion,
                s.width + 1,
                max(s.adhesion_degree, 2),
            )
            assert tuple(td.index()) == naive_index(td)
            counts = provider._counts
            fresh = separation_mod._SubtreeCounts(TreeDecomposition(td.host, td.root, td.parent, td.bags))
            assert (counts.holders, counts.adh, counts.below, counts.live) == (
                fresh.holders,
                fresh.adh,
                fresh.below,
                fresh.live,
            )
            unions = td.subtree_unions()
            assert all(counts.below[t] + counts.adh[t] == len(unions[t]) for t in td.nodes)
            trees += 1
        assert trees == 240

    def test_copies_do_not_reuse_a_stale_index(self):
        rng = random.Random(5)
        for td in indexed_trees(rng):
            before = naive_index(td)
            td.index()
            g = td.host
            keep = rng.sample(sorted(g.vertices), rng.randint(1, g.n))
            for copy in (td.restrict(induced_subgraph(g, keep)), td.lift_root()):
                assert tuple(copy.index()) == naive_index(copy)
                s = stats(copy)
                assert (s.width, s.adhesion, s.adhesion_degree) == naive_measure(copy)
            assert tuple(td.index()) == before

    def test_an_invalid_supplied_tree_names_its_first_three_violations(self):
        # 5 is in no bag, 9 is no vertex, (2, 3), (3, 4) and (4, 5) lie in
        # no bag, and the holders of 1 are not adjacent
        g = path_graph(5)
        td = TreeDecomposition(g, 1, {1: None, 2: 1, 3: 2}, {1: {1, 2, 9}, 2: {3}, 3: {1, 4}})
        assert len(validate(td).violations) == 6
        with pytest.raises(InputError) as err:
            DecompositionSeparationProvider(g, td)
        assert str(err.value) == (
            "invalid decomposition: [Violation(axiom='coverage', witness=5), "
            "Violation(axiom='unknown-vertex', witness=9), "
            "Violation(axiom='edge-coverage', witness=(2, 3))]"
        )


class TestMakeConnected:
    def test_fixed_point_preserves_bag_multiset(self):
        g = path_graph(4)
        td = compute_decomposition(g)
        assert is_connected_decomposition(td)
        out = make_connected(td)
        assert validate(out).ok
        assert sorted(out.bags.values(), key=sorted) == sorted(td.bags.values(), key=sorted)

    def test_splits_disconnected_child(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (1, 3)])  # 1=s, 2=x, 3=y
        td = TreeDecomposition(g, 1, {1: None, 2: 1}, {1: {1}, 2: {1, 2, 3}})
        out = make_connected(td)
        assert validate(out).ok and is_connected_decomposition(out)
        kids = out.children[out.root]
        assert sorted((out.bags[c] for c in kids), key=sorted) == [
            frozenset({1, 2}),
            frozenset({1, 3}),
        ]

    def test_removes_adhesion_vertex_without_neighbors_below(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])  # 1=v, 2=s, 3=x
        td = TreeDecomposition(g, 1, {1: None, 2: 1}, {1: {1, 2}, 2: {1, 2, 3}})
        out = make_connected(td)
        assert validate(out).ok and is_connected_decomposition(out)
        (child,) = out.children[out.root]
        assert out.bags[child] == frozenset({2, 3})

    def test_random_decompositions(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 10), 0.35)
            td = worsened_decomposition(rng, g)
            before = stats(td)
            out = make_connected(td)
            assert validate(out).ok
            assert is_connected_decomposition(out)
            after = stats(out)
            assert after.width <= before.width
            assert after.adhesion <= before.adhesion


@st.composite
def elimination_graphs(draw):
    """Graphs for both compute_decomposition paths (exact up to 30
    vertices, min-fill above), often disconnected, on sparse vertex ids."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(31, 50)))
    start, step = draw(st.integers(1, 50)), draw(st.integers(1, 7))
    ids = [start + step * i for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    edges = {(ids[min(a, b)], ids[max(a, b)]) for a, b in pairs if a != b}
    return Graph.from_edges(ids, sorted(edges))


def preorder_renumbered(td):
    """``td`` with its nodes numbered 1, 2, ... in preorder, children
    ascending: the numbering ``make_connected`` hands out."""
    order, stack = [], [td.root]
    while stack:
        t = stack.pop()
        order.append(t)
        stack.extend(reversed(td.children[t]))
    new = {t: i + 1 for i, t in enumerate(order)}
    parent = {new[t]: None if p is None else new[p] for t, p in td.parent.items()}
    bags = {new[t]: b for t, b in td.bags.items()}
    return TreeDecomposition(td.host, 1, parent, bags)


class TestEliminationDecompositionsAreConnected:
    """compute_decomposition builds a connected decomposition, so the
    kernels skip make_connected and get the same trees."""

    @settings(max_examples=150, deadline=None)
    @given(elimination_graphs())
    def test_make_connected_only_renumbers(self, g):
        td = compute_decomposition(g)
        assert is_connected_decomposition(td)
        out = make_connected(td)
        expected = preorder_renumbered(td)
        assert (out.root, out.parent, out.bags) == (expected.root, expected.parent, expected.bags)
        plain, via = binarize(td), binarize(out)
        assert (plain.parent, plain.bags) == (via.parent, via.bags)

    def test_kernels_do_not_call_make_connected(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return make_connected(*args, **kwargs)

        # count the calls from every module that imports the function
        for mod in (modulator_mod, separation_mod, treedecomp_mod):
            if hasattr(mod, "make_connected"):
                monkeypatch.setattr(mod, "make_connected", counted)
        spec = GeneratorSpec(
            n=14, kind="partial-k-tree", k=5, eta=1, edge_keep_prob=0.6, modulator_size=1, seed=4
        )
        inst = generate(spec)
        run = modulator_kernelize(inst, solve_linkage, m_override=4)
        assert run.reduction_steps > 0
        provider = DecompositionSeparationProvider(inst.graph)
        kernelize(inst.graph, inst.k, provider, solve_linkage)
        assert calls == []


class TestBinarize:
    def test_two_children_unchanged_shape(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (1, 3)])
        td = TreeDecomposition(g, 1, {1: None, 2: 1, 3: 1}, {1: {1}, 2: {1, 2}, 3: {1, 3}})
        out = binarize(td)
        assert len(out.bags) == 3
        assert all(len(out.children[t]) <= 2 for t in out.nodes)

    def test_four_children_get_chained(self):
        g = Graph.from_edges(range(1, 6), [(1, i) for i in range(2, 6)])
        bags = {1: {1}} | {i: {1, i} for i in range(2, 6)}
        td = TreeDecomposition(g, 1, {1: None, 2: 1, 3: 1, 4: 1, 5: 1}, bags)
        out = binarize(td)
        assert validate(out).ok
        assert all(len(out.children[t]) <= 2 for t in out.nodes)
        before, after = stats(td), stats(out)
        assert after.width == before.width
        # the root plus 4 - 2 duplicates of its bag, above the four leaves
        assert len(out.bags) == 7
        assert sum(1 for b in out.bags.values() if b == frozenset({1})) == 3
        assert after.adhesion == before.adhesion == 1

    def test_four_pendant_clique_adhesion_grows(self):
        # K4 on 1..4 with pendant i+4 on each i: the clique bag with one
        # child {i, i+4} per clique vertex has width 3 and adhesion 1. No
        # binary width-3 decomposition reaches adhesion 1: its clique bag
        # is exactly {1,2,3,4} and would need four neighbours, each sharing
        # at most one clique vertex, but a binary tree node has at most three.
        clique = list(itertools.combinations(range(1, 5), 2))
        g = Graph.from_edges(range(1, 9), clique + [(i, i + 4) for i in range(1, 5)])
        parent = {1: None} | {i + 1: 1 for i in range(1, 5)}
        bags = {1: {1, 2, 3, 4}} | {i + 1: {i, i + 4} for i in range(1, 5)}
        td = TreeDecomposition(g, 1, parent, bags)
        before = stats(td)
        assert (before.width, before.adhesion) == (3, 1)
        out = binarize(td)
        after = stats(out)
        assert all(len(out.children[t]) <= 2 for t in out.nodes)
        assert (after.width, after.adhesion) == (3, 4)

    def test_leaf_only_tree_unchanged(self):
        g = Graph.from_edges([1])
        td = TreeDecomposition(g, 1, {1: None}, {1: {1}})
        out = binarize(td)
        assert len(out.bags) == 1

    def test_random_validity_and_width(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 10), 0.35)
            td = worsened_decomposition(rng, g)
            out = binarize(td)
            assert validate(out).ok
            assert all(len(out.children[t]) <= 2 for t in out.nodes)
            assert max(len(b) for b in out.bags.values()) == max(len(b) for b in td.bags.values())


class TestDeepDecompositions:
    """A 2000-vertex path decomposes into a 1999-deep chain of bags; the
    transforms must walk it without hitting the recursion limit."""

    @pytest.fixture(scope="class")
    def chain(self):
        td = compute_decomposition(path_graph(2000))
        assert max(td.depths().values()) == 1999
        return td

    def test_make_connected(self, chain):
        out = make_connected(chain)
        assert validate(out).ok and is_connected_decomposition(out)
        assert sorted(out.bags.values(), key=sorted) == sorted(chain.bags.values(), key=sorted)

    def test_binarize(self, chain):
        out = binarize(chain)
        assert validate(out).ok
        assert out.parent == {t: (t - 1 if t > 1 else None) for t in out.nodes}
        assert sorted(out.bags.values(), key=sorted) == sorted(chain.bags.values(), key=sorted)


class TestLcaClosure:
    def star(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (1, 3)])
        return TreeDecomposition(
            g, 1, {1: None, 2: 1, 3: 1}, {1: {1}, 2: {1, 2}, 3: {1, 3}}
        )

    def test_root_only(self):
        td = self.star()
        assert lca_closure(td, {1}) == frozenset({1})

    def test_two_siblings_pull_in_root(self):
        td = self.star()
        assert lca_closure(td, {2, 3}) == frozenset({1, 2, 3})

    def test_empty_set_gives_root(self):
        td = self.star()
        assert lca_closure(td, set()) == frozenset({1})

    def test_closure_property_random(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 12), 0.3)
            td = worsened_decomposition(rng, g)
            nodes = sorted(td.nodes)
            b1 = set(rng.sample(nodes, rng.randint(0, min(5, len(nodes)))))
            out = lca_closure(td, b1)
            for a in out:
                for b in out:
                    assert td.lca(a, b) in out
            assert len(out) <= 2 * len(b1) + 1

    def test_matches_brute_pairwise_closure(self):
        rng = random.Random(17)
        for _ in range(200):
            td = shuffled_tree(rng, rng.randint(1, 30))
            nodes = sorted(td.nodes)
            b1 = set(rng.sample(nodes, rng.randint(0, min(8, len(nodes)))))
            brute = b1 | {td.root} | {td.lca(a, b) for a in b1 for b in b1}
            assert lca_closure(td, b1) == frozenset(brute)


def shuffled_tree(rng, size):
    """A random rooted tree whose node ids follow no traversal order."""
    ids = rng.sample(range(1, 3 * size + 1), size)
    parent = {ids[0]: None}
    for i in range(1, size):
        parent[ids[i]] = ids[rng.randrange(i)]
    return TreeDecomposition(Graph.from_edges([1]), ids[0], parent, {t: {1} for t in ids})


@st.composite
def random_decompositions(draw):
    """A tree on shuffled node ids with random bags over vertices 1..6."""
    size = draw(st.integers(1, 40))
    ids = draw(st.permutations(range(1, 3 * size + 1)))[:size]
    parent = {ids[0]: None}
    for i in range(1, size):
        parent[ids[i]] = ids[draw(st.integers(0, i - 1))]
    bags = {t: draw(st.frozensets(st.integers(1, 6))) for t in ids}
    return TreeDecomposition(Graph.from_edges(range(1, 7)), ids[0], parent, bags)


def reference_postorder(td):
    kids = {t: [] for t in td.parent}
    for t, p in td.parent.items():
        if p is not None:
            kids[p].append(t)
    out = []

    def walk(t):
        for c in sorted(kids[t]):
            walk(c)
        out.append(t)

    walk(td.root)
    return out


def reference_depths(td):
    kids = {t: [] for t in td.parent}
    for t, p in td.parent.items():
        if p is not None:
            kids[p].append(t)
    depth = {td.root: 0}
    queue = [td.root]
    for t in queue:
        for c in kids[t]:
            depth[c] = depth[t] + 1
            queue.append(c)
    return depth


class TestStoredTreeFacts:
    """Depths and post-order are recorded by the walk that checks the
    parent map, and a restriction shares them."""

    @settings(max_examples=300, deadline=None)
    @given(random_decompositions(), st.frozensets(st.integers(1, 8)))
    def test_match_independent_references(self, td, keep):
        order, depths = td.postorder(), dict(td.depths())
        restricted = td.restrict(induced_subgraph(td.host, td.host.vertices & keep))
        for d in (td, restricted):
            assert list(d.postorder()) == reference_postorder(d)
            assert d.depths() == reference_depths(d)
        # the restriction shares the tree facts and leaves them as they were
        assert td.postorder() == order and td.depths() == depths
        assert restricted.parent == td.parent and restricted.root == td.root
        assert restricted.bags == {t: b & keep for t, b in td.bags.items()}
        assert restricted.host.vertices == td.host.vertices & keep

    @settings(max_examples=200, deadline=None)
    @given(random_decompositions(), st.data())
    def test_broken_parent_maps_are_rejected(self, td, data):
        nodes = sorted(td.nodes)
        non_root = [t for t in nodes if t != td.root]
        breaks = ["unknown"] + (["cycle", "second-root"] if non_root else [])
        kind = data.draw(st.sampled_from(breaks))
        parent = dict(td.parent)
        if kind == "unknown":
            parent[data.draw(st.sampled_from(nodes))] = max(nodes) + 1
        elif kind == "cycle":
            # hang t below itself or one of its descendants
            t = data.draw(st.sampled_from(non_root))
            below = [x for x in nodes if t in self._ancestors(td, x)]
            parent[t] = data.draw(st.sampled_from(below))
        else:
            parent[data.draw(st.sampled_from(non_root))] = None
        with pytest.raises(InputError):
            TreeDecomposition(td.host, td.root, parent, td.bags)

    @staticmethod
    def _ancestors(td, x):
        out = {x}
        while td.parent[x] is not None:
            x = td.parent[x]
            out.add(x)
        return out

    @pytest.mark.parametrize(
        "parent",
        [
            {1: None, 2: 3, 3: 2},  # a cycle beside the root
            {1: None, 2: 2},  # a self-loop
            {1: None, 2: 1, 3: None},  # a second root
            {1: None, 2: 9, 3: 1},  # an unknown parent
        ],
    )
    def test_parent_map_errors(self, parent):
        bags = {t: {1} for t in parent}
        with pytest.raises(InputError):
            TreeDecomposition(Graph.from_edges([1]), 1, parent, bags)


class TestEdgeComponents:
    def chain(self, length):
        g = Graph.from_edges(range(1, length + 1))
        parent = {1: None} | {i: i - 1 for i in range(2, length + 1)}
        bags = {i: {i} for i in range(1, length + 1)}
        for i in range(1, length):
            g.add_edge(i, i + 1)
            bags[i].add(i + 1)  # cover chain edges
        return TreeDecomposition(g, 1, parent, bags)

    def test_root_only_marks_one_component(self):
        td = self.chain(5)
        comps = edge_components(td, {1})
        assert len(comps) == 1
        assert comps[0].anchors == frozenset({1})

    def test_all_marked_isolates_every_edge(self):
        td = self.chain(5)
        comps = edge_components(td, set(td.nodes))
        assert len(comps) == len(td.tree_edges())

    def test_interior_mark_splits(self):
        td = self.chain(3)
        comps = edge_components(td, {1, 2})
        assert len(comps) == 2
        assert {c.edges for c in comps} == {frozenset({(1, 2)}), frozenset({(2, 3)})}

    def test_requires_lca_closed_root_containing_set(self):
        td = self.chain(3)
        with pytest.raises(InputError):
            edge_components(td, {2})

    def test_rejects_root_containing_set_not_closed(self):
        # 4 and 6 hang below 2, 5 below 3: the lca of 4 and 6 is missing,
        # although no two marked nodes adjacent in id order lack their lca
        g = Graph.from_edges([1])
        parent = {1: None, 2: 1, 3: 1, 4: 2, 5: 3, 6: 2}
        td = TreeDecomposition(g, 1, parent, {t: {1} for t in parent})
        with pytest.raises(InputError, match="closed under lca"):
            edge_components(td, {1, 4, 5, 6})
        assert len(edge_components(td, {1, 2, 4, 5, 6})) == 4

    def test_accepts_exactly_the_closed_sets(self):
        rng = random.Random(23)
        for _ in range(200):
            td = shuffled_tree(rng, rng.randint(1, 20))
            nodes = sorted(td.nodes)
            marked = set(rng.sample(nodes, rng.randint(0, min(6, len(nodes))))) | {td.root}
            closed = all(td.lca(a, b) in marked for a in marked for b in marked)
            if closed:
                edge_components(td, marked)
            else:
                with pytest.raises(InputError, match="closed under lca"):
                    edge_components(td, marked)

    def test_partition_and_anchor_invariants(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 12), 0.3)
            td = worsened_decomposition(rng, g)
            nodes = sorted(td.nodes)
            b1 = set(rng.sample(nodes, rng.randint(0, min(4, len(nodes)))))
            b2 = lca_closure(td, b1)
            comps = edge_components(td, b2)
            seen = [e for c in comps for e in c.edges]
            assert sorted(seen) == sorted(td.tree_edges())
            for c in comps:
                assert len(c.anchors) <= 2 and c.top in c.anchors
            # merging two distinct components would break the defining
            # relation: the tree path between their edges crosses a mark
            depth = td.depths()
            for c1, c2 in itertools.combinations(comps, 2):
                e1 = min(c1.edges)
                e2 = min(c2.edges)
                for x in e1:
                    for y in e2:
                        walk = self._tree_path(td, x, y, depth)
                        interior = walk[1:-1]
                        full = set(walk) | {*e1, *e2}
                        if set(e1) <= full and set(e2) <= full:
                            assert set(interior) & b2 or not self._contains_both(
                                walk, e1, e2
                            )

    @pytest.mark.parametrize(
        "parent, marked, want",
        [
            # both components below 2 hold 2 as their smallest node
            (
                {1: None, 2: 1, 7: 2, 3: 2, 8: 7, 4: 3},
                {1, 2},
                [{(1, 2)}, {(2, 3), (3, 4)}, {(2, 7), (7, 8)}],
            ),
            # a component's smallest child need not hang from its top
            ({1: None, 5: 1, 4: 1, 2: 5}, {1}, [{(1, 5), (5, 2)}, {(1, 4)}]),
        ],
    )
    def test_ties_at_one_top_go_by_smallest_child(self, parent, marked, want):
        td = TreeDecomposition(Graph.from_edges([1]), 1, parent, {t: {1} for t in parent})
        assert [c.edges for c in edge_components(td, marked)] == want

    def test_modulator_trees_keep_the_union_find_order(self):
        # the modulator reduces the first oversized component that deletes
        # something, so on its trees the order is behaviour: there
        # binarize numbers nodes in preorder, and the sort key must give
        # the union-find's order (groups by first edge in parent-map
        # order, stably sorted by depth of top, top and smallest node)
        rng = random.Random(37)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 14), rng.choice([0.15, 0.3]))
            td = modulator_mod._single_child_root(binarize(compute_decomposition(g)))
            nodes = sorted(td.nodes)
            b2 = lca_closure(td, rng.sample(nodes, rng.randint(0, min(5, len(nodes)))))
            want = self._union_find_order(td, b2)
            assert [c.edges for c in edge_components(td, b2)] == want

    @staticmethod
    def _union_find_order(td, marked):
        edges = td.tree_edges()
        groups, seen = [], set()
        for e in edges:
            if e in seen:
                continue
            seen.add(e)
            group, stack = [e], [e]
            while stack:
                a = stack.pop()
                for f in edges:
                    if f not in seen and (set(a) & set(f)) - marked:
                        seen.add(f)
                        group.append(f)
                        stack.append(f)
            groups.append(frozenset(group))
        depth = reference_depths(td)

        def key(es):
            nodes = {x for e in es for x in e}
            top = min(nodes, key=lambda t: (depth[t], t))
            return (depth[top], top, min(nodes))

        return sorted(groups, key=key)

    @staticmethod
    def _tree_path(td, x, y, depth):
        up_x, up_y = [x], [y]
        a, b = x, y
        while depth[a] > depth[b]:
            a = td.parent[a]
            up_x.append(a)
        while depth[b] > depth[a]:
            b = td.parent[b]
            up_y.append(b)
        while a != b:
            a = td.parent[a]
            b = td.parent[b]
            up_x.append(a)
            up_y.append(b)
        return up_x + up_y[-2::-1]

    @staticmethod
    def _contains_both(walk, e1, e2):
        pairs = set(zip(walk, walk[1:])) | set(zip(walk[1:], walk))
        return (e1 in pairs or tuple(reversed(e1)) in pairs) and (
            e2 in pairs or tuple(reversed(e2)) in pairs
        )


class TestMarkDecompositionHolders:
    """``mark_decomposition`` marks, for each vertex, the node whose
    parent's bag lacks it. On a valid decomposition that is the shallowest
    node holding it (lowest id on a tie, which cannot occur)."""

    @staticmethod
    def _shallowest_holders(td, a1):
        depth = reference_depths(td)
        return {
            min((t for t, b in td.bags.items() if x in b), key=lambda t: (depth[t], t))
            for x in a1
        }

    def test_matches_brute_force_holders(self, monkeypatch):
        picked = []
        original = modulator_mod.lca_closure

        def recorded(td, b1):
            picked.append(set(b1))
            return original(td, b1)

        monkeypatch.setattr(modulator_mod, "lca_closure", recorded)
        rng = random.Random(43)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 12), 0.3)
            td = worsened_decomposition(rng, g)
            keep = set(rng.sample(sorted(g.vertices), rng.randint(1, g.n)))
            for d in (td, binarize(td), td.restrict(induced_subgraph(g, keep))):
                assert validate(d).ok
                verts = sorted(d.host.vertices)
                a1 = frozenset(rng.sample(verts, rng.randint(0, len(verts))))
                picked.clear()
                modulator_mod.mark_decomposition(d, a1)
                assert picked == [self._shallowest_holders(d, a1)]


class TestLowestHeavyNode:
    def unit_chain(self, length):
        g = Graph.from_edges(range(1, length + 1))
        parent = {1: None} | {i: i - 1 for i in range(2, length + 1)}
        bags = {i: {i} for i in range(1, length + 1)}
        return TreeDecomposition(g, 1, parent, bags)

    def test_chain_with_unit_bags(self):
        td = self.unit_chain(6)
        (comp,) = edge_components(td, {1})
        t0, d = lowest_heavy_node(td, comp, 3)
        assert t0 == 3 and d == frozenset({3, 4, 5, 6})

    def test_parent_of_two_light_subtrees(self):
        g = Graph.from_edges(range(1, 7))
        td = TreeDecomposition(
            g,
            1,
            {1: None, 2: 1, 3: 2, 4: 2},
            {1: {1}, 2: {2}, 3: {3, 4}, 4: {5, 6}},
        )
        (comp,) = edge_components(td, {1})
        t0, d = lowest_heavy_node(td, comp, 3)
        assert t0 == 2 and d == frozenset({2, 3, 4})

    def test_only_topmost_subtree_is_heavy(self):
        td = self.unit_chain(4)
        (comp,) = edge_components(td, {1})
        t0, d = lowest_heavy_node(td, comp, 3)
        assert t0 == 1 and d == frozenset({1, 2, 3, 4})

    def test_too_small_component(self):
        td = self.unit_chain(3)
        (comp,) = edge_components(td, {1})
        with pytest.raises(NotApplicableError):
            lowest_heavy_node(td, comp, 10)

    def test_size_guarantee_on_binarized_decompositions(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, rng.randint(4, 12), 0.3)
            td = binarize(make_connected(compute_decomposition(g)))
            width = max(len(b) for b in td.bags.values()) - 1
            b2 = lca_closure(td, set())
            for comp in edge_components(td, b2):
                for m in (1, 2, 4):
                    try:
                        t0, d = lowest_heavy_node(td, comp, m)
                    except NotApplicableError:
                        continue
                    assert len(td.bag_union(d)) <= 2 * m + width + 1


class TestComputeDecomposition:
    def test_tree_has_width_one(self):
        g = Graph.from_edges(range(1, 8), [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
        td = compute_decomposition(g)
        assert validate(td).ok
        assert stats(td).width == 1

    def test_k4(self):
        g = Graph.from_edges(range(1, 5), list(itertools.combinations(range(1, 5), 2)))
        assert stats(compute_decomposition(g)).width == 3

    def test_grid_3x3(self):
        td = compute_decomposition(grid_graph(3, 3))
        assert validate(td).ok
        assert stats(td).width == 3

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            compute_decomposition(Graph())

    def test_random_graphs_valid_and_no_worse_than_greedy(self):
        rng = random.Random(2)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 11), rng.choice([0.2, 0.4, 0.6]))
            td = compute_decomposition(g)
            assert validate(td).ok

    def test_min_fill_order_matches_naive_scan(self):
        rng = random.Random(17)
        graphs = [tie_heavy_graph(rng) for _ in range(80)]
        for _ in range(60):
            parts = [tie_heavy_graph(rng) for _ in range(rng.randint(2, 4))]
            graphs.append(disjoint_union(*parts))
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 25), rng.choice([0.1, 0.2, 0.4, 0.7]))
            g.add_vertex()  # an isolated vertex with the largest id
            graphs.append(g)
        # partial k-trees, where most steps eliminate a simplicial vertex
        for _ in range(24):
            g = Graph()
            _partial_k_tree(g, rng, rng.randint(1, 200), rng.randint(1, 4), rng.choice([0.5, 0.7, 0.9]))
            graphs.append(g)
        # sparse graphs with pendant trees: steps with fill turn neighbours
        # simplicial, so fill-0 and fill > 0 steps alternate
        for _ in range(24):
            g = random_graph(rng, rng.randint(8, 40), 0.12)
            for _ in range(rng.randint(0, 20)):
                anchor = rng.choice(sorted(g.vertices))
                g.add_edge(g.add_vertex(), anchor)
            graphs.append(g)
        simplicial = with_fill = alternations = 0
        for g in graphs:
            fills = []
            order, bags = _min_fill_order(g)
            assert order == naive_min_fill_order(g, fills)
            assert dict(enumerate(bags, 1)) == _decomposition_from_order(g, order).bags
            simplicial += fills.count(0)
            with_fill += len(fills) - fills.count(0)
            alternations += sum(1 for a, b in zip(fills, fills[1:]) if a > 0 and b == 0)
        assert simplicial > 4 * with_fill > 0
        assert alternations >= 300

    def test_disconnected_graph(self):
        g = Graph.from_edges(range(1, 7), [(1, 2), (3, 4)])
        td = compute_decomposition(g)
        assert validate(td).ok
        assert stats(td).width == 1


class TestPaceFormat:
    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 9), 0.4)
            td = worsened_decomposition(rng, g)
            text = write_td(td)
            back = read_td(text, g)
            assert validate(back).ok
            assert sorted(back.bags.values(), key=sorted) == sorted(td.bags.values(), key=sorted)

    def test_root_directive(self):
        g = path_graph(2)
        text = "c root 2\ns td 2 2 2\nb 1 1 2\nb 2 1\n1 2\n"
        td = read_td(text, g)
        assert td.root == 2

    def test_empty_bags_survive_the_round_trip(self):
        g = Graph.from_edges(range(1, 6), [(1, 2), (4, 5)])
        td = make_connected(compute_decomposition(g))
        assert validate(td).ok
        back = read_td(write_td(td), g)
        assert validate(back).ok
        assert sorted(back.bags.values(), key=sorted) == sorted(td.bags.values(), key=sorted)

    def test_header_mismatch_rejected(self):
        g = path_graph(2)
        with pytest.raises(InputError):
            read_td("s td 1 2 3\nb 1 1 2\n", g)
