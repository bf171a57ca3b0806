import itertools
import random

import pytest

from kpath_kernel import treedecomp
from kpath_kernel.driver import kernelize
from kpath_kernel.errors import InputError, NotApplicableError
from kpath_kernel.generate import GeneratorSpec, _partial_k_tree, generate
from kpath_kernel.graphs import Graph, check_separation, connected_components, induced_subgraph
from kpath_kernel.linkage import solve_linkage
from kpath_kernel.modulator import modulator_kernelize
from kpath_kernel.separation import (
    DecompositionSeparationProvider,
    TrivialSeparationProvider,
    separation_from_decomposition,
    trivial_separation_oracle,
)
from kpath_kernel.treedecomp import TreeDecomposition, compute_decomposition, make_connected, stats


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


class TestSeparationFromDecomposition:
    def test_path_graph_example(self):
        g = path_graph(6)
        parent = {1: None} | {i: i - 1 for i in range(2, 6)}
        bags = {i: {i, i + 1} for i in range(1, 6)}
        td = TreeDecomposition(g, 1, parent, bags)
        sep = separation_from_decomposition(g, td, 2)
        s = stats(td)
        assert sep.order <= s.adhesion == 1
        assert 2 < len(sep.region) + sep.order <= 4
        assert check_separation(g, sep)

    def test_star_uses_the_adhesion_group_branch(self):
        g = Graph.from_edges(range(1, 7), [(1, i) for i in range(2, 7)])
        parent = {1: None} | {i: 1 for i in range(2, 7)}
        bags = {1: {1}} | {i: {1, i} for i in range(2, 7)}
        td = TreeDecomposition(g, 1, parent, bags)
        sep = separation_from_decomposition(g, td, 2)
        assert sep.branch == "adhesion-group"
        assert 2 < len(sep.region) + sep.order <= 2 * 2 + 1
        assert sep.cut <= frozenset({1})

    def test_single_bag_degenerate(self):
        g = path_graph(3)
        td = TreeDecomposition(g, 1, {1: None}, {1: set(g.vertices)})
        sep = separation_from_decomposition(g, td, 1)
        assert sep.region == frozenset() and sep.cut == frozenset(g.vertices)
        assert sep.branch == "degenerate-single-bag"

    def test_not_applicable_when_graph_small(self):
        g = path_graph(3)
        td = compute_decomposition(g)
        with pytest.raises(NotApplicableError):
            separation_from_decomposition(g, td, 5)

    def test_contract_on_random_inputs(self):
        rng = random.Random(20260810)
        checked = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(4, 16), rng.choice([0.15, 0.3, 0.5]))
            td = make_connected(compute_decomposition(g))
            if len(td.bags) == 1:
                continue
            s = stats(td)
            p = rng.randint(1, g.n - 1)
            sep = separation_from_decomposition(g, td, p)
            a = max(s.adhesion_degree, 2)
            w = s.width + 1
            assert check_separation(g, sep)
            assert sep.order <= s.adhesion
            assert p < len(sep.region) + sep.order <= w + p * a
            checked += 1
        assert checked > 150


    def test_whole_subtree_side_b_is_the_bag_union_outside(self):
        # restricted trees, as the provider reads them: empty bags, and
        # decompositions that are no longer connected
        rng = random.Random(20261018)
        seen = 0
        for _ in range(300):
            g0 = random_graph(rng, rng.randint(4, 16), rng.choice([0.15, 0.3]))
            keep = {v for v in g0.vertices if rng.random() < 0.8} or {1}
            g = induced_subgraph(g0, keep)
            td = compute_decomposition(g0).restrict(g)
            p = rng.randint(0, g.n - 1)
            if len(td.bags) == 1 or g.n <= p:
                continue
            sep = separation_from_decomposition(g, td, p)
            if sep.branch != "whole-subtree":
                continue
            unions = td.subtree_unions()
            t0 = next(t for t in td.postorder() if len(unions[t]) > p)
            below, stack = set(), [t0]
            while stack:
                t = stack.pop()
                below.add(t)
                stack.extend(td.children[t])
            assert sep.region | sep.cut == unions[t0]
            assert frozenset(g.vertices) - sep.region == td.bag_union(set(td.nodes) - below)
            seen += 1
        assert seen > 30


class TestTrivialSeparationOracle:
    def test_clique_has_no_small_separation(self):
        g = Graph.from_edges(range(1, 6), list(itertools.combinations(range(1, 6), 2)))
        assert trivial_separation_oracle(g, 1, 1, 4) is None

    def test_two_triangles_sharing_a_vertex(self):
        g = Graph.from_edges(
            range(1, 6), [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]
        )
        sep = trivial_separation_oracle(g, 1, 2, 4)
        assert sep is not None
        assert sep.order == 1 and sep.cut == frozenset({3})
        assert len(sep.region) + sep.order == 3
        assert check_separation(g, sep)

    def test_separator_alone_can_be_the_left_side(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        sep = trivial_separation_oracle(g, 2, 1, 3)
        assert sep is not None and len(sep.region) + sep.order > 1

    def test_finds_whenever_the_decomposition_branch_finds(self):
        rng = random.Random(99)
        for _ in range(80):
            g = random_graph(rng, rng.randint(4, 12), rng.choice([0.2, 0.35]))
            td = make_connected(compute_decomposition(g))
            if len(td.bags) == 1:
                continue
            s = stats(td)
            p = rng.randint(1, g.n - 1)
            sep = separation_from_decomposition(g, td, p)
            q_cap = (s.width + 1) + p * max(s.adhesion_degree, 2)
            if sep.order <= s.adhesion and len(sep.region) + sep.order <= q_cap:
                alt = trivial_separation_oracle(g, s.adhesion, p, q_cap)
                assert alt is not None
                assert alt.order <= s.adhesion and p < len(alt.region) + alt.order <= q_cap

    def test_cap(self):
        g = Graph.from_edges(range(1, 40))
        with pytest.raises(NotApplicableError):
            trivial_separation_oracle(g, 4, 1, 10, subset_budget=1000)


class TestProviders:
    def test_decomposition_provider_tracks_deletions(self):
        g = path_graph(12)
        provider = DecompositionSeparationProvider(g)
        sep = provider.find(g, 3, 4)
        assert sep is not None and sep.order <= provider.h
        g2 = g.copy()
        g2.delete_vertices(list(sep.region)[:2])
        sep2 = provider.find(g2, 3, 4)
        if sep2 is not None:
            assert check_separation(g2, sep2)

    def test_trivial_provider_window(self):
        g = path_graph(10)
        provider = TrivialSeparationProvider(h=1)
        sep = provider.find(g, 3, 3)
        assert sep is not None
        assert 3 < len(sep.region) + sep.order <= provider.q(3)

    def test_providers_report_none_when_too_small(self):
        g = path_graph(3)
        assert TrivialSeparationProvider(h=1).find(g, 2, 5) is None
        assert DecompositionSeparationProvider(g).find(g, 2, 5) is None

    def test_supplied_invalid_decomposition_rejected(self):
        g = path_graph(3)
        # edge (2, 3) lies in no bag
        td = TreeDecomposition(g, 1, {1: None, 2: 1}, {1: {1, 2}, 2: {3}})
        with pytest.raises(InputError):
            DecompositionSeparationProvider(g, td=td)


def partial_tree(n, eta, keep, seed):
    g = Graph()
    _partial_k_tree(g, random.Random(seed), n, eta, keep)
    return g


class CheckedProvider:
    """A DecompositionSeparationProvider whose every answer is checked
    against separation_from_decomposition on the first tree restricted to
    the graph from scratch."""

    def __init__(self, g0, provider=None):
        self.inner = provider or DecompositionSeparationProvider(g0)
        self.td0 = compute_decomposition(g0)
        self.h, self.q = self.inner.h, self.inner.q
        self.finds = 0

    def find(self, g, k, p):
        got = self.inner.find(g, k, p)
        if g.n <= p:
            assert got is None
        else:
            want = separation_from_decomposition(g, self.td0.restrict(g), p)
            assert got == want and got.branch == want.branch
            self.finds += 1
        return got


class TestStatefulProvider:
    """The provider keeps live subtree counts between calls instead of
    restricting its tree; it must answer what a fresh restriction would."""

    def test_every_kernelize_step_matches_a_fresh_restriction(self):
        rng = random.Random(20261020)
        steps = finds = 0
        cases = [(1, rng.randint(100, 400), rng.randint(1, 3)) for _ in range(24)]
        cases += [(2, rng.randint(3200, 4500), 1) for _ in range(3)]
        for eta, n, k in cases:
            g = partial_tree(n, eta, rng.choice([0.5, 0.7, 0.9]), rng.randrange(2**32))
            provider = CheckedProvider(g)
            run = kernelize(g, k, provider, solve_linkage)
            steps += run.reduction_steps
            finds += provider.finds
        assert steps >= 60 and finds >= steps

    def test_random_deletions_match_a_fresh_restriction(self):
        # any p and any deletions, not only the kernel's: every branch and a
        # p that changes between calls
        rng = random.Random(7)
        branches = set()
        for _ in range(60):
            g0 = partial_tree(rng.randint(10, 120), rng.choice([1, 2]), rng.choice([0.5, 0.8]), rng.randrange(2**32))
            provider = CheckedProvider(g0)
            g = g0.copy()
            while g.n > 1:
                p = rng.randint(0, g.n - 1)
                sep = provider.find(g, 2, p)
                branches.add(sep.branch)
                pool = sorted(sep.region) or sorted(g.vertices)
                g.delete_vertices(rng.sample(pool, rng.randint(1, len(pool))))
        assert branches == {"whole-subtree", "adhesion-group"}

    def test_a_provider_reused_for_a_second_run_starts_again(self):
        rng = random.Random(11)
        for _ in range(6):
            g = partial_tree(rng.randint(150, 300), 1, 0.7, rng.randrange(2**32))
            provider = CheckedProvider(g)
            first = kernelize(g, 2, provider, solve_linkage)
            second = kernelize(g, 2, provider, solve_linkage)
            assert first.reduction_steps >= 1
            assert first.to_json() == second.to_json()

    def test_a_graph_that_lost_a_whole_component(self):
        rng = random.Random(13)
        seen = 0
        for _ in range(20):
            g0 = partial_tree(rng.randint(60, 200), 1, 0.6, rng.randrange(2**32))
            comps = sorted(connected_components(g0, within=set(g0.vertices)), key=lambda c: (-len(c), min(c)))
            if len(comps) < 2:
                continue
            provider = CheckedProvider(g0)
            g = g0.copy()
            for comp in comps[: rng.randint(1, len(comps) - 1)]:
                provider.find(g, 2, rng.randint(0, g.n - 1))
                g.delete_vertices(comp)
                provider.find(g, 2, rng.randint(0, g.n - 1))
                seen += 1
        assert seen >= 20


class TestDecompositionValidatedOnce:
    """A decomposition is validated where it enters (provider construction),
    not again by the transforms and separations built from it."""

    @pytest.fixture()
    def validate_calls(self, monkeypatch):
        calls = []
        real = treedecomp.validate

        def counting(td):
            calls.append(td)
            return real(td)

        monkeypatch.setattr(treedecomp, "validate", counting)
        return calls

    def test_kernelize_validates_once(self, validate_calls):
        rng = random.Random(8)
        g = Graph.from_edges(range(1, 21))
        for v in range(2, 21):
            g.add_edge(v, rng.randint(1, v - 1))
        run = kernelize(g, 1, DecompositionSeparationProvider(g), solve_linkage)
        assert run.reduction_steps >= 1
        assert len(validate_calls) == 1

    def test_modulator_kernelize_never_validates(self, validate_calls):
        inst = generate(GeneratorSpec(n=16, k=3, eta=1, modulator_size=2, seed=2))
        run = modulator_kernelize(inst, solve_linkage, m_override=4)
        assert run.reduction_steps >= 1
        assert validate_calls == []
