"""Cross-checks of the optimized searches against tiny naive oracles that
enumerate the whole space without any of the implementation's shortcuts."""

import itertools
import random

from kpath_kernel.graphs import Graph, Separation, check_separation, connected_components
from kpath_kernel.linkage import solve_linkage
from kpath_kernel.separation import trivial_separation_oracle
from kpath_kernel.treedecomp import compute_decomposition, stats
from kpath_kernel.driver import kernelize
from kpath_kernel.graphs import brute_force_k_path
from kpath_kernel.separation import DecompositionSeparationProvider, TrivialSeparationProvider


def random_graph(rng, n, p):
    g = Graph.from_edges(range(1, n + 1))
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < p:
            g.add_edge(a, b)
    return g


def naive_treewidth(g):
    """Minimum over all n! elimination orders of the maximum degree at
    elimination time."""
    verts = sorted(g.vertices)
    best = len(verts)
    for order in itertools.permutations(verts):
        adj = {v: set(g.neighbors(v)) for v in verts}
        width = 0
        for v in order:
            nb = adj.pop(v)
            width = max(width, len(nb))
            if width >= best:
                break
            for a in nb:
                adj[a].discard(v)
            for a, b in itertools.combinations(nb, 2):
                adj[a].add(b)
                adj[b].add(a)
        best = min(best, width)
    return best


def naive_separation_exists(g, h, p, q_cap):
    verts = sorted(g.vertices)
    for size in range(min(h, len(verts)) + 1):
        for cut in itertools.combinations(verts, size):
            comps = connected_components(g, within=set(verts) - set(cut))
            for mask in range(1 << len(comps)):
                a = set(cut)
                for i, comp in enumerate(comps):
                    if mask >> i & 1:
                        a |= comp
                sep = Separation(frozenset(a - set(cut)), frozenset(cut))
                if check_separation(g, sep) and p < len(a) <= q_cap:
                    return True
    return False


class TestExactTreewidth:
    def test_matches_permutation_enumeration(self):
        rng = random.Random(20260810)
        for _ in range(40):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
            td = compute_decomposition(g)
            assert stats(td).width == naive_treewidth(g)


class TestTrivialOracleCompleteness:
    def test_finds_iff_one_exists(self):
        rng = random.Random(555)
        for _ in range(60):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
            h = rng.randint(0, 2)
            p = rng.randint(0, n - 1)
            q_cap = rng.randint(p, n)
            sep = trivial_separation_oracle(g, h, p, q_cap)
            exists = naive_separation_exists(g, h, p, q_cap)
            assert (sep is not None) == exists
            if sep is not None:
                assert sep.order <= h and p < len(sep.region) + sep.order <= q_cap


class TestDriverFuzz:
    def test_both_providers_agree_with_brute_force(self):
        rng = random.Random(4242)
        loops = 0
        for _ in range(60):
            n = rng.randint(14, 26)
            g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.15]))
            k = rng.choice([1, 1, 1, 2, 2, 3])
            truth = brute_force_k_path(g, k) is not None
            for provider in (DecompositionSeparationProvider(g), TrivialSeparationProvider(h=1)):
                run = kernelize(g, k, provider, solve_linkage)
                assert run.answer == truth
                loops += run.reduction_steps
        assert loops > 10  # the loop must actually fire somewhere
