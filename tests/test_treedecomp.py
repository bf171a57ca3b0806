import itertools
import random

import pytest

from kpath_kernel.errors import InputError, NotApplicableError
from kpath_kernel.graphs import Graph
from kpath_kernel.treedecomp import (
    TreeDecomposition,
    Violation,
    _min_fill_order,
    binarize,
    check_unbreakable,
    compute_decomposition,
    edge_components,
    lca_closure,
    lowest_heavy_node,
    make_connected,
    is_connected_decomposition,
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


def naive_min_fill_order(g):
    """Reference min-fill: rescan every remaining vertex at every step and
    take the least (fill, degree, id)."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}

    def key(v):
        nb = sorted(adj[v])
        fill = sum(1 for a, b in itertools.combinations(nb, 2) if b not in adj[a])
        return (fill, len(nb), v)

    order = []
    while adj:
        v = min(adj, key=key)
        nb = adj.pop(v)
        for a in nb:
            adj[a].discard(v)
        for a, b in itertools.combinations(nb, 2):
            adj[a].add(b)
            adj[b].add(a)
        order.append(v)
    return order


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
        before, after = stats(td), None
        after_width = max(len(b) for b in out.bags.values()) - 1
        assert after_width == before.width
        # duplicated nodes carry copies of the original bag
        assert sorted(b for b in out.bags.values() if b == frozenset({1})) != []

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
            depth = td.depths()
            for a in out:
                for b in out:
                    assert td.lca(a, b, depth) in out
            assert len(out) <= 2 * len(b1) + 1


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
        for g in graphs:
            assert _min_fill_order(g) == naive_min_fill_order(g)

    def test_disconnected_graph(self):
        g = Graph.from_edges(range(1, 7), [(1, 2), (3, 4)])
        td = compute_decomposition(g)
        assert validate(td).ok
        assert stats(td).width == 1


class TestCheckUnbreakable:
    def test_empty_set_unbreakable(self):
        g = path_graph(4)
        assert check_unbreakable(g, set(), 0, 2)

    def test_path_splits_in_the_middle(self):
        q = 1
        g = path_graph(2 * q + 3)
        assert not check_unbreakable(g, set(g.vertices), q, 1)

    def test_clique_is_unbreakable(self):
        g = Graph.from_edges(range(1, 6), list(itertools.combinations(range(1, 6), 2)))
        for q in (0, 1):
            assert check_unbreakable(g, set(g.vertices), q, 3)

    def test_cap(self):
        g = Graph.from_edges(range(1, 30))
        with pytest.raises(NotApplicableError):
            check_unbreakable(g, set(g.vertices), 1, 5, subset_budget=100)


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
