import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

from kpath_kernel import driver
from kpath_kernel.driver import kernelize
from kpath_kernel.errors import ProtocolError
from kpath_kernel.generate import GeneratorSpec, generate
from kpath_kernel.graphs import Graph, Separation, brute_force_k_path, open_neighborhood
from kpath_kernel.linkage import solve_linkage
from kpath_kernel.reduction import p_bound
from kpath_kernel.separation import (
    HAS_K_PATH,
    DecompositionSeparationProvider,
    TrivialSeparationProvider,
)


def forest(rng, n):
    g = Graph.from_edges(range(1, n + 1))
    for v in range(2, n + 1):
        if rng.random() < 0.8:
            g.add_edge(v, rng.randint(1, v - 1))
    return g


class FakeProvider:
    def __init__(self, answer, h=1, q_slack=10):
        self.answer = answer
        self.h = h
        self.q_slack = q_slack

    def q(self, p):
        return self.q_slack * (p + 1)

    def find(self, g, k, p):
        return self.answer


class TestKernelize:
    def test_small_graph_needs_one_oracle_call(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        provider = DecompositionSeparationProvider(g)
        run = kernelize(g, 3, provider, solve_linkage)
        assert run.answer is True
        assert run.stats.calls == 1
        assert run.reduction_steps == 0
        assert run.extras["bounds"]["p_threshold"] == 3 * p_bound(3, provider.h, provider.h)

    def test_provider_k_path_claim_is_accepted(self):
        g = Graph.from_edges(range(1, 40))
        run = kernelize(g, 2, FakeProvider(HAS_K_PATH, h=0), solve_linkage)
        assert run.answer is True
        assert run.stats.calls == 0

    def test_invalid_separation_is_a_protocol_error(self):
        g = Graph.from_edges(range(1, 40), [(1, 2)])
        big = frozenset(range(3, 21))  # 18 isolated vertices, more than p + h
        bogus = [
            Separation(frozenset({1}), frozenset()),  # N({1}) = {2}, not cut
            Separation(big | {40}, frozenset()),  # 40 is not in g
            Separation(big, frozenset({3})),  # region meets its cut
            Separation(big | {1}, frozenset()),  # 2 is a neighbour outside the cut
        ]
        for sep in bogus:
            steps = []
            with pytest.raises(ProtocolError, match="invalid separation"):
                kernelize(g, 2, FakeProvider(sep, h=0), solve_linkage, on_step=lambda w, d: steps.append(d))
            assert steps == []  # rejected at the first answer, before any reduction

    def test_undersized_separation_is_a_protocol_error(self):
        g = Graph.from_edges(range(1, 40))
        small = Separation(frozenset({1}), frozenset())
        with pytest.raises(ProtocolError, match="undersized"):
            kernelize(g, 2, FakeProvider(small, h=0), solve_linkage)

    def test_each_region_is_guarded_by_its_full_boundary(self, monkeypatch):
        seen = []
        original = driver.apply_reduction

        def recorded(work, gr, oracle):
            seen.append(gr.guard == gr.boundary == open_neighborhood(work, gr.region))
            return original(work, gr, oracle)

        monkeypatch.setattr(driver, "apply_reduction", recorded)
        g = forest(random.Random(6), 20)
        kernelize(g, 1, DecompositionSeparationProvider(g), solve_linkage)
        assert seen and all(seen)

    def test_loop_fires_and_deletes_on_forests(self):
        rng = random.Random(6)
        g = forest(rng, 20)
        provider = DecompositionSeparationProvider(g)
        assert provider.h <= 1
        run = kernelize(g, 1, provider, solve_linkage)
        assert run.answer is True  # a single vertex is already a 1-path
        assert run.reduction_steps >= 1
        assert run.final_graph_size < g.n
        assert all(c.passed for c in run.bound_checks)

    def test_stats_count_every_oracle_call_once(self):
        sizes = []

        def oracle(inst):
            sizes.append(inst.graph.n)
            return solve_linkage(inst)

        g = forest(random.Random(6), 40)
        run = kernelize(g, 1, DecompositionSeparationProvider(g), oracle)
        assert run.reduction_steps >= 2
        assert run.stats.calls == len(sizes)
        assert run.stats.max_instance_vertices == max(sizes)

    def test_coarse_separation_triggers_the_trivial_fallback(self):
        # the fake provider hands back the degenerate full separation; the
        # clique defeats the exhaustive fallback's tight window too
        g = Graph.from_edges(range(1, 15), list(itertools.combinations(range(1, 15), 2)))
        vs = frozenset(g.vertices)
        coarse = Separation(frozenset(), vs)
        run = kernelize(g, 1, FakeProvider(coarse, h=0, q_slack=1), solve_linkage)
        assert run.answer is True
        assert run.extras["bound_unverified"]

    def test_equivalence_against_brute_force(self):
        rng = random.Random(20260810)
        for trial in range(40):
            spec = GeneratorSpec(
                n=rng.randint(4, 20),
                kind="partial-k-tree",
                k=rng.randint(1, 5),
                eta=rng.randint(1, 2),
                modulator_size=0,
                edge_keep_prob=rng.choice([0.5, 0.7, 0.9]),
                seed=rng.randrange(2**40),
            )
            inst = generate(spec)
            truth = brute_force_k_path(inst.graph, inst.k) is not None
            for provider in (
                DecompositionSeparationProvider(inst.graph),
                TrivialSeparationProvider(h=2),
            ):
                run = kernelize(inst.graph, inst.k, provider, solve_linkage)
                assert run.answer == truth, (spec, type(provider).__name__)

    def test_order_zero_provider_on_a_disconnected_graph(self):
        g = Graph.from_edges(range(1, 23), [(21, 22)])
        run = kernelize(g, 2, TrivialSeparationProvider(h=0), solve_linkage)
        assert run.answer is True
        assert run.reduction_steps >= 1

    def test_step_hook_sees_every_deletion(self):
        rng = random.Random(8)
        g = forest(rng, 22)
        provider = DecompositionSeparationProvider(g)
        seen = []
        run = kernelize(g, 1, provider, solve_linkage, on_step=lambda w, d: seen.append(len(d)))
        assert len(seen) == run.reduction_steps
        assert all(d >= 1 for d in seen)


def test_scale_script_row_at_n_500():
    # scripts/scale.py prints one markdown row per n; at n = 500 the run
    # takes 2 steps and its largest oracle query has 198 vertices
    script = Path(__file__).resolve().parent.parent / "scripts" / "scale.py"
    out = subprocess.run([sys.executable, str(script), "500"], capture_output=True, text=True, check=True, timeout=120)
    header, rule, row = out.stdout.splitlines()
    assert header.startswith("| n | largest oracle query | reduction steps | oracle calls |")
    cells = [c.strip().replace(",", "") for c in row.strip("|").split("|")]
    n, query, steps, calls = map(int, cells[:4])
    seconds, per_step = map(float, cells[4:])
    assert (n, query, steps) == (500, 198, 2)
    assert calls >= steps and seconds >= 0 and per_step >= 0
