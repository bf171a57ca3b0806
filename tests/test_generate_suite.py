import hashlib
import importlib
import json
import os
import random

import pytest

import kpath_kernel.modulator as modulator_mod
from kpath_kernel.driver import kernelize
from kpath_kernel.errors import InputError, SuiteFailure
from kpath_kernel.generate import GeneratorSpec, generate
from kpath_kernel.graphs import Graph, brute_force_k_path, induced_subgraph, write_graph_text
from kpath_kernel.linkage import solve_linkage
from kpath_kernel.modulator import make_modulator_instance, modulator_kernelize
from kpath_kernel.separation import DecompositionSeparationProvider
from kpath_kernel.suite import (
    RunReport,
    SuiteConfig,
    run_one,
    run_suite,
    spec_for_index,
    summarize,
)
from kpath_kernel.treedecomp import compute_decomposition, stats

# the package exports the function generate, which hides the module
generate_mod = importlib.import_module("kpath_kernel.generate")


class TestGenerate:
    def test_same_seed_gives_identical_graphs(self):
        spec = GeneratorSpec(n=18, k=4, eta=2, modulator_size=3, seed=99)
        a = generate(spec)
        b = generate(spec)
        assert write_graph_text(a.graph) == write_graph_text(b.graph)
        assert a.modulator == b.modulator

    def test_partial_k_tree_core_width_is_verified(self):
        for seed in range(8):
            spec = GeneratorSpec(n=12, k=3, eta=1, modulator_size=2, seed=seed)
            inst = generate(spec)
            core = set(inst.graph.vertices) - inst.modulator
            td = compute_decomposition(induced_subgraph(inst.graph, core))
            assert stats(td).width <= 1

    def test_modulator_ids_are_designated_and_disjoint(self):
        spec = GeneratorSpec(n=10, modulator_size=2, seed=5)
        inst = generate(spec)
        assert len(inst.modulator) == 2
        assert inst.modulator <= set(inst.graph.vertices)

    def test_theta_kind(self):
        spec = GeneratorSpec(n=7, kind="theta", k=3, theta_paths=5, theta_path_len=1, seed=1)
        inst = generate(spec)
        assert len(inst.modulator) == 2
        assert inst.graph.n == 7

    def test_grid_and_gnp_measure_eta(self):
        inst = generate(GeneratorSpec(n=9, kind="grid", k=3, seed=0))
        assert inst.eta >= 1
        inst = generate(GeneratorSpec(n=8, kind="gnp", k=3, gnp_p=0.4, seed=3))
        assert inst.eta >= 0

    # (kind, n, k, ell, seed) -> graph digest, eta, answer and reductions
    # under m_override=4, as generated before eta and the kept
    # decomposition came from one decomposition of G - M
    PINNED = [
        ("gnp", 14, 8, 0, 0, "9c93ea5f092b7e61", 1, False, 0),
        ("gnp", 14, 5, 1, 1, "4c560ae0b469fb81", 3, True, 0),
        ("gnp", 14, 11, 2, 2, "c9295ee3069e61a7", 2, False, 0),
        ("grid", 14, 5, 0, 0, "e1216e68b0c551f1", 3, True, 0),
        ("grid", 14, 11, 1, 1, "8b564e765299fd43", 3, True, 0),
        ("grid", 9, 10, 0, 3, "efa5083bf3f45cf0", 3, False, 0),
        ("partial-k-tree", 14, 5, 1, 4, "57452d5816e4f8ed", 1, False, 4),
        ("partial-k-tree", 14, 5, 2, 5, "ad1a6ac517ae0c0a", 1, True, 0),
    ]

    @pytest.mark.parametrize("kind, n, k, ell, seed, digest, eta, answer, steps", PINNED)
    def test_one_decomposition_per_instance(
        self, monkeypatch, kind, n, k, ell, seed, digest, eta, answer, steps
    ):
        calls = []
        original = modulator_mod.compute_decomposition

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # count the calls from every module that imports the function
        for mod in (generate_mod, modulator_mod):
            if hasattr(mod, "compute_decomposition"):
                monkeypatch.setattr(mod, "compute_decomposition", counted)
        spec = GeneratorSpec(
            n=n, kind=kind, k=k, gnp_p=0.18, eta=1, edge_keep_prob=0.6,
            modulator_size=ell, seed=seed,
        )
        inst = generate(spec)
        assert len(calls) == 1
        assert inst.core_decomposition is not None
        assert inst.eta == eta
        text = write_graph_text(inst.graph)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        run = modulator_kernelize(inst, solve_linkage, m_override=4)
        assert (run.answer, run.reduction_steps) == (answer, steps)
        # later rounds restrict round 1's tree instead of decomposing afresh
        assert len(calls) == 1

    def test_bad_spec_rejected(self):
        with pytest.raises(InputError):
            generate(GeneratorSpec(n=0))
        with pytest.raises(InputError):
            generate(GeneratorSpec(n=3, kind="nope"))
        with pytest.raises(InputError):
            generate(GeneratorSpec(n=2, modulator_size=2))


class TestSuite:
    def test_empty_config_gives_empty_reports(self):
        cfg = SuiteConfig(count=0)
        assert run_suite(cfg) == []

    def test_small_suite_agrees(self):
        cfg = SuiteConfig(count=8, seed=7, max_n=14, max_k=4, max_eta=1, max_ell=2)
        reports = run_suite(cfg)
        assert len(reports) == 8
        assert all(r.agreement for r in reports)
        summary = summarize(reports)
        assert summary["agreements"] == 8
        assert summary["instances"] == 8

    def test_summary_gives_latency_percentiles(self):
        def report(i, elapsed):
            return RunReport(i, {}, True, True, True, 1, 5, 0, elapsed=elapsed)

        # 20 instances taking 0.1 .. 2.0 s, listed out of order
        times = [0.1 * ((7 * i) % 20 + 1) for i in range(20)]
        summary = summarize([report(i, t) for i, t in enumerate(times)])
        assert summary["elapsed"] == 21.0
        assert (summary["elapsed_p50"], summary["elapsed_p95"], summary["elapsed_max"]) == (
            1.0, 1.9, 2.0,
        )
        one = summarize([report(0, 0.25)])
        assert (one["elapsed_p50"], one["elapsed_p95"], one["elapsed_max"]) == (0.25, 0.25, 0.25)
        none = summarize([])
        assert (none["elapsed"], none["elapsed_p50"], none["elapsed_p95"], none["elapsed_max"]) == (
            0, 0.0, 0.0, 0.0,
        )

    def test_reports_carry_bound_checks(self):
        cfg = SuiteConfig(count=4, seed=3, max_n=12, max_k=3, max_eta=1, max_ell=2)
        for r in run_suite(cfg):
            names = {c["name"] for c in r.bound_checks}
            assert "a1_size" in names

    def test_parallel_matches_sequential(self):
        cfg1 = SuiteConfig(count=6, seed=11, max_n=12, max_k=3, max_eta=1, max_ell=2, jobs=1)
        cfg2 = SuiteConfig(count=6, seed=11, max_n=12, max_k=3, max_eta=1, max_ell=2, jobs=2)
        a = [r.to_json() for r in run_suite(cfg1)]
        b = [r.to_json() for r in run_suite(cfg2)]
        for x, y in zip(a, b):
            x.pop("elapsed")
            y.pop("elapsed")
        assert a == b

    def test_step_checked_suite(self):
        cfg = SuiteConfig(
            count=6, seed=13, max_n=14, max_k=3, max_eta=1, max_ell=2,
            check_steps=True, m_override=4,
        )
        reports = run_suite(cfg)
        assert all(r.agreement for r in reports)

    def test_deterministic_specs(self):
        cfg = SuiteConfig(count=3, seed=21)
        assert [spec_for_index(cfg, i) for i in range(3)] == [
            spec_for_index(cfg, i) for i in range(3)
        ]

    def test_disagreement_writes_reproducer(self, tmp_path, monkeypatch):
        cfg = SuiteConfig(count=2, seed=5, max_n=10, max_k=3, max_eta=1, max_ell=1,
                          out_dir=str(tmp_path))

        import kpath_kernel.suite as suite_mod

        def lying_kernel(inst, cfg_, truth, checks):
            return [not truth], 0, 0, 0

        monkeypatch.setattr(suite_mod, "_kernel_answer", lying_kernel)
        with pytest.raises(SuiteFailure):
            run_suite(cfg)
        files = sorted(os.listdir(tmp_path))
        assert any(f.endswith(".gr") for f in files)
        meta_file = next(f for f in files if f.endswith(".json"))
        meta = json.loads((tmp_path / meta_file).read_text())
        assert "spec" in meta and "modulator_file_ids" in meta

    def test_run_one_records_truth(self):
        cfg = SuiteConfig(count=1, seed=20260810, max_n=12, max_k=3)
        rep = run_one(cfg, 0)
        inst = generate(spec_for_index(cfg, 0))
        assert rep.brute_force_answer == (brute_force_k_path(inst.graph, inst.k) is not None)


class TestRelabelling:
    def test_permuted_far_ids_give_the_same_answers(self):
        # node, vertex and tie orders all follow the ids, so a random
        # permutation shifted by 10**12 sends every kernel down other
        # paths; the answers must stay and every audit must hold
        shift = 10**12
        rng = random.Random(11)
        cfg = SuiteConfig()
        for i in range(30):
            inst = generate(spec_for_index(cfg, i))
            vs = sorted(inst.graph.vertices)
            relabel = dict(zip(vs, (shift + v for v in rng.sample(vs, len(vs)))))
            g = Graph.from_edges(
                relabel.values(), [(relabel[a], relabel[b]) for a, b in inst.graph.edges()]
            )
            moved = make_modulator_instance(g, inst.k, {relabel[v] for v in inst.modulator}, inst.eta)
            runs = [modulator_kernelize(moved, solve_linkage, m_override=m) for m in (None, 4)]
            if g.n <= 40:
                runs.append(kernelize(g, inst.k, DecompositionSeparationProvider(g), solve_linkage))
            before = modulator_kernelize(inst, solve_linkage).answer
            for run in runs:
                assert run.answer == before, i
                assert all(c.passed for c in run.bound_checks), (i, run.to_json())
