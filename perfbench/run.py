"""Benchmark: time to a verified k-path verdict on pinned instance corpora.

Run from the repository root:

    python3 perfbench/run.py --workload modkernel-m4 --seed 1 --seconds 25 --trace 0

One client, one process, instances one after another (a closed loop).
Set-up imports the package from ./src, builds the corpus and runs one
warm-up verdict; it is repeated and its median reported as ``setup_s``.
The timed loop replays the corpus in a seed-shuffled order, pass after
pass, until ``--seconds`` is spent. Every verdict is then checked against
brute force, its bound audits and its exception status, outside the timed
region. ``--trace 1`` adds one traced pass over the corpus and reports the
per-layer figures instead of the end-to-end ones.

Reported times are in reference seconds: each measured interval is scaled
by REF_SECONDS over the duration of a fixed pure-Python reference loop run
right before and right after it. The host's speed drifts by up to 2x over
seconds to minutes, and the scaling cancels that drift. Raw seconds are
kept in the report.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A full report (machine, seed, raw and scaled per-verdict times,
spans) is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# What reference_loop typically takes on the 2-vCPU Intel Xeon VM with
# Python 3.11 the benchmark was built on: a reference second is about one
# second there.
REF_SECONDS = 0.004


def reference_loop() -> float:
    """Median seconds of three runs of a fixed mix of dict, set and call
    work; the median drops a run hit by a momentary stall.

    Each run allocates only two containers, so it never triggers a garbage
    collection whose cost would depend on the program's live heap."""
    runs = []
    for _ in range(3):
        t = time.perf_counter()
        d = {}
        for j in range(12000):
            d[j] = j * 2
        s = set()
        for j in range(12000):
            s.add(d[j] % 997)
        acc = 0
        for j in range(6000):
            acc = max(acc, abs(j - 3000))
        runs.append(time.perf_counter() - t)
    return statistics.median(runs)


def scaled(seconds: float, ref: float) -> float:
    return seconds * REF_SECONDS / ref


def _import_library() -> tuple[float, float]:
    """Import kpath_kernel from this checkout's src/; return the raw and
    the scaled import time."""
    src = ROOT / "src"
    if not (src / "kpath_kernel" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kpath_kernel package under {src}")
    before = reference_loop()
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import kpath_kernel

    took = time.perf_counter() - t0
    if Path(kpath_kernel.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: imported kpath_kernel from {kpath_kernel.__file__}, not {src}")
    return took, scaled(took, (before + reference_loop()) / 2)


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def timed_verdict(workload, case, tracer=None) -> dict:
    """One verdict; exceptions are caught so one bad instance cannot abort
    the run, and count as failed operations."""
    rec = {"index": case.index, "n": case.graph.n}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            v = workload.verdict(case)
        else:
            with tracer.verdict(case.index):
                v = workload.verdict(case)
    except Exception:
        rec["elapsed"] = time.perf_counter() - t0
        rec["error"] = traceback.format_exc(limit=5)
        return rec
    rec["elapsed"] = time.perf_counter() - t0
    rec.update(
        answer=v.answer,
        oracle_calls=v.oracle_calls,
        final_graph_size=v.final_graph_size,
        reduction_steps=v.reduction_steps,
        failed_checks=v.failed_checks,
    )
    return rec


def replay(workload, cases, order: list[int], tracer=None) -> list[dict]:
    """Verdicts in ``order``, with a reference loop between each two; each
    verdict is scaled by the mean of the loops on either side of it."""
    records = []
    ref = reference_loop()
    for i in order:
        rec = timed_verdict(workload, cases[i], tracer)
        after = reference_loop()
        rec["ref"] = (ref + after) / 2
        rec["ref_before"], rec["ref_after"] = ref, after
        rec["scaled"] = scaled(rec["elapsed"], rec["ref"])
        records.append(rec)
        ref = after
    return records


def timed_loop(workload, cases, rng: random.Random, seconds: float) -> tuple[list[dict], int]:
    """Whole shuffled passes until the next one would overrun ``seconds``
    reference seconds of verdict time by more than half a pass; at least
    one pass. Counting reference seconds keeps the number of passes, and
    so the sample, the same when the host runs slow."""
    records: list[dict] = []
    passes = 0
    spent = 0.0
    while True:
        order = list(range(len(cases)))
        rng.shuffle(order)
        batch = replay(workload, cases, order)
        records += batch
        passes += 1
        took = sum(r["scaled"] for r in batch)
        spent += took
        if spent + 0.5 * took >= seconds:
            return records, passes


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    xs = sorted(times)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[-TAIL_BEYOND - 1], 100.0 * (len(xs) - TAIL_BEYOND) / len(xs)


def gate(cases, records: list[dict]) -> list[dict]:
    """Check every verdict outside the timed region: against brute force
    (independent of the linkage solver), against its own bound audits, and
    against the other passes' counts for the same instance. Returns the
    failed verdicts with a reason each."""
    from kpath_kernel.graphs import brute_force_k_path

    truth = {c.index: brute_force_k_path(c.graph, c.k, cap=max(c.graph.n, 32)) is not None for c in cases}
    first: dict[int, tuple] = {}
    failures = []
    for rec in records:
        reason = None
        if "error" in rec:
            reason = "exception: " + rec["error"].strip().splitlines()[-1]
        elif rec["answer"] != truth[rec["index"]]:
            reason = f"answer {rec['answer']} but brute force says {truth[rec['index']]}"
        elif rec["failed_checks"]:
            reason = "failed bound checks: " + json.dumps(rec["failed_checks"])
        else:
            counts = (rec["oracle_calls"], rec["final_graph_size"], rec["reduction_steps"])
            if first.setdefault(rec["index"], counts) != counts:
                reason = f"counts {counts} differ from an earlier pass {first[rec['index']]}"
        if reason:
            failures.append({"index": rec["index"], "reason": reason})
    return failures


def per_instance(records: list[dict], key: str) -> list[float]:
    """Each instance's median over the passes that timed it."""
    by_index: dict[int, list[float]] = {}
    for r in records:
        by_index.setdefault(r["index"], []).append(r[key])
    return [statistics.median(ts) for ts in by_index.values()]


def end_to_end(records: list[dict], setup_s: float) -> tuple[dict, dict]:
    """Latency figures are over instances, each instance's time being its
    median over passes; throughput is over every verdict."""
    times = per_instance(records, "scaled")
    tail_s, tail_pct = tail(times)
    ok = {r["index"]: r for r in records if "error" not in r}
    calls = sum(r["oracle_calls"] for r in ok.values())
    final = sum(r["final_graph_size"] for r in ok.values())
    n_total = sum(r["n"] for r in ok.values())
    metrics = {
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_tail_s": (tail_s, "s"),
        "instances_per_s": (len(records) / sum(r["scaled"] for r in records), "1/s"),
        "oracle_calls_per_instance": (calls / max(len(ok), 1), "count"),
        "kernel_vertices_ratio": (final / max(n_total, 1), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    raw = per_instance(records, "elapsed")
    extra = {
        "tail_percentile": tail_pct,
        "samples": len(times),
        "verdicts": len(records),
        "raw_seconds": {"verdict_p50": statistics.median(raw), "verdict_tail": tail(raw)[0]},
    }
    return metrics, extra


def run(workload_name: str, seed: int, seconds: float, trace: bool, size=None, import_s=(0.0, 0.0)):
    """Set up, time, trace (if asked) and check one workload; returns the
    result line and the full report. ``import_s`` is the raw and scaled
    import time, which set-up includes."""
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    setups, setups_raw = [], []
    ref = reference_loop()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases = workload.build_cases(size)
        timed_verdict(workload, min(cases, key=lambda c: (c.graph.n, c.index)))
        took = time.perf_counter() - t0
        after = reference_loop()
        setups_raw.append(took)
        setups.append(scaled(took, (ref + after) / 2))
        ref = after
    setup_s = import_s[1] + statistics.median(setups)

    rng = random.Random(seed)
    records, passes = timed_loop(workload, cases, rng, seconds)
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "machine": machine_info(),
        "ref_seconds": REF_SECONDS,
        "corpus": [c.spec.to_json() for c in cases],
        "passes": passes,
        "setup_raw_s": [import_s[0] + s for s in setups_raw],
    }
    all_records = list(records)
    if trace:
        tracer = layers.Tracer()
        order = list(range(len(cases)))
        rng.shuffle(order)
        with tracer.install():
            traced = replay(workload, cases, order, tracer)
        all_records += traced
        figures = layers.layer_metrics(tracer.spans, len(cases))
        overhead = statistics.fmean(r["scaled"] for r in traced) / statistics.fmean(
            r["scaled"] for r in records
        )
        figures["trace.overhead_ratio"] = (overhead, "ratio")
        report["spans"] = [s.to_row() for s in tracer.spans]
    failures = gate(cases, all_records)
    share = len({f["index"] for f in failures}) / len(cases)
    if trace:
        figures["failed_ops_share"] = (share, "ratio")
        metrics = figures
    else:
        metrics, extra = end_to_end(records, setup_s)
        report.update(extra)
    report.update(metrics=metrics, records=all_records, failures=failures, failed_ops_share=share)
    result = {
        "correct": not failures,
        "attempted": len(all_records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = _import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    summary = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
    print(f"{args.workload} seed={args.seed} {report['machine']}: {summary}", file=sys.stderr)
    if "tail_percentile" in report:
        print(
            f"verdict_tail_s is p{report['tail_percentile']:.1f} of {report['samples']} instances"
            f" ({report['verdicts']} verdicts in {report['passes']} passes);"
            f" raw seconds {report['raw_seconds']}",
            file=sys.stderr,
        )
    for f in report["failures"][:5]:
        print(f"FAILED instance {f['index']}: {f['reason']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
