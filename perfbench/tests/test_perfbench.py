"""Tests of the benchmark itself: span arithmetic, tracer hygiene, input
determinism and the refusal to run without the library.

Run from the repository root: python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run as bench
import workloads
from kpath_kernel.generate import GeneratorSpec
from kpath_kernel.suite import spec_for_index
from layers import Span, Tracer, layer_metrics, self_times

BENCH = Path(__file__).resolve().parent.parent


def _tree():
    # verdict [0, 10]
    #   modulator_kernelize [1, 9]
    #     solve_linkage [2, 3]   (yes, 5 vertices)
    #     solve_linkage [4, 8]   (final call, no, 7 vertices)
    #       induced_subgraph [5, 6]
    return [
        Span(layers.ROOT, "trace.glue", 0.0, 10.0, -1, 0),
        Span("modulator_kernelize", "driver", 1.0, 9.0, 0, 0),
        Span("solve_linkage", "linkage", 2.0, 3.0, 1, 0, (5, True, False)),
        Span("solve_linkage", "linkage", 4.0, 8.0, 1, 0, (7, False, True)),
        Span("induced_subgraph", "graphs.induced_subgraph", 5.0, 6.0, 3, 0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [2.0, 3.0, 1.0, 3.0, 1.0]


def test_layer_self_times_add_up_to_the_verdict_time():
    m = layer_metrics(_tree(), instances=2)
    busy = sum(m[name][0] for name in layers.BUSY.values())
    assert busy == pytest.approx(m["trace.verdict_s"][0]) == 5.0
    assert m["linkage.busy_s"][0] == 2.0
    assert m["driver.self_s"][0] == 1.5
    assert m["linkage.calls"][0] == 1.0
    assert m["linkage.yes_ratio"][0] == 0.5
    assert m["linkage.max_instance_vertices"][0] == 7
    assert m["linkage.final_s"][0] == 2.0


def _traced_attributes():
    out = {}
    for mod_name, attr in layers.TRACED:
        module = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            out[(mod_name, attr)] = getattr(module, cls_name).__dict__[meth]
        for name, holder in sys.modules.items():
            if name.split(".")[0] == "kpath_kernel" and hasattr(holder, attr):
                out[(name, attr)] = getattr(holder, attr)
    return out


def test_wrappers_restored_after_traced_run(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    before = _traced_attributes()
    result, report = bench.run("modkernel-m4", seed=3, seconds=0, trace=True, size=2)
    assert result["correct"]
    assert report["spans"]
    assert _traced_attributes() == before


def test_wrappers_restored_when_the_traced_region_raises():
    before = _traced_attributes()
    with pytest.raises(RuntimeError):
        with Tracer().install():
            assert _traced_attributes() != before
            raise RuntimeError("boom")
    assert _traced_attributes() == before


COUNTS = ("linkage.calls", "modulator.rounds", "reduction.apply.calls", "failed_ops_share")


@pytest.mark.parametrize("name", ["modkernel-m4", "kernelize-forest"])
def test_same_seed_gives_identical_specs_and_counts(monkeypatch, name):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    size = 1 if "forest" in name else 3
    (r1, rep1), (r2, rep2) = [bench.run(name, seed=11, seconds=0, trace=True, size=size) for _ in range(2)]
    assert r1["correct"] and r2["correct"]
    assert rep1["corpus"] == rep2["corpus"]
    for key in COUNTS:
        assert r1["metrics"][key] == r2["metrics"][key], key
    e2e = [bench.end_to_end(rep["records"], 0.0)[0] for rep in (rep1, rep2)]
    for key in ("oracle_calls_per_instance", "kernel_vertices_ratio"):
        assert e2e[0][key] == e2e[1][key], key
    if "forest" in name:
        assert r1["metrics"]["reduction.apply.calls"]["value"] > 0
    else:
        assert r1["metrics"]["modulator.rounds"]["value"] > 0


def test_corpus_is_pinned_and_keeps_every_stream_spec():
    w = workloads.WORKLOADS["modkernel-large"]
    specs = w.specs(w.size)
    assert [s.to_json() for s in specs] == [s.to_json() for s in w.specs(w.size)]
    for i, spec in enumerate(specs):
        drawn = spec_for_index(workloads.LARGE_STREAM, i)
        if spec != drawn:
            # only the size of an edgeless-core no-instance is changed
            assert workloads.edgeless_core_no_instance(spec)
            assert dataclasses.replace(spec, n=drawn.n) == drawn


def test_edgeless_core_no_instances_are_shrunk_to_the_budget():
    spec = GeneratorSpec(n=210, kind="partial-k-tree", k=10, eta=0, modulator_size=4, seed=1)
    fitted = workloads.fit_edgeless_core(spec)
    assert fitted.n == 29 and workloads.edgeless_core_no_instance(fitted)
    cheap = dataclasses.replace(spec, modulator_size=1, k=8)
    assert workloads.fit_edgeless_core(cheap) == cheap
    yes = dataclasses.replace(spec, eta=1)
    assert workloads.fit_edgeless_core(yes) == yes


def test_emitted_metric_names_match_benchmark_json(monkeypatch):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    result, report = bench.run("modkernel-m4", seed=2, seconds=0, trace=True, size=2)
    e2e, _ = bench.end_to_end(report["records"], 0.0)
    for key, emitted in (("per_layer", result["metrics"]), ("end_to_end", e2e)):
        units = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: (v["unit"] if isinstance(v, dict) else v[1]) for name, v in emitted.items()}
        assert got == units, key


def test_reference_scaling_is_a_pure_ratio():
    assert bench.scaled(2.0, bench.REF_SECONDS) == 2.0
    assert bench.scaled(2.0, 2 * bench.REF_SECONDS) == 1.0


def test_tail_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 41)]
    assert bench.tail(xs) == (30.0, 75.0)
    assert bench.tail(xs[:10]) == (10.0, 100.0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "modkernel-m4", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
