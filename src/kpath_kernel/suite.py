"""Randomized verification suite: kernel answers against brute force,
with per-run bound audits and a minimized reproducer on any mismatch."""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from random import Random
from typing import Optional

from .driver import kernelize
from .errors import SuiteFailure
from .generate import GeneratorSpec, generate
from .graphs import brute_force_k_path, vertex_index, write_graph_text
from .linkage import solve_linkage
from .modulator import ModulatorInstance, make_modulator_instance, modulator_kernelize
from .separation import DecompositionSeparationProvider

# the largest graph the brute-force reference decides; no suite instance
# may be larger
BRUTE_CAP = 32


@dataclass
class SuiteConfig:
    count: int = 500
    seed: int = 20260810
    min_n: int = 6
    max_n: int = 28
    max_k: int = 7
    max_eta: int = 2
    max_ell: int = 4
    mode: str = "modkernel"  # "modkernel" | "kernelize" | "both"
    check_steps: bool = False
    m_override: Optional[int] = None
    jobs: int = 1
    out_dir: str = "."


@dataclass
class RunReport:
    index: int
    spec: dict
    answer: bool
    brute_force_answer: bool
    agreement: bool
    oracle_calls: int
    max_instance_vertices: int
    reduction_steps: int
    bound_checks: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "spec": self.spec,
            "answer": "yes" if self.answer else "no",
            "brute_force_answer": "yes" if self.brute_force_answer else "no",
            "agreement": self.agreement,
            "oracle_calls": self.oracle_calls,
            "max_instance_vertices": self.max_instance_vertices,
            "reduction_steps": self.reduction_steps,
            "bound_checks": self.bound_checks,
            "elapsed": round(self.elapsed, 4),
        }


def spec_for_index(cfg: SuiteConfig, index: int) -> GeneratorSpec:
    rng = Random(cfg.seed * 1_000_003 + index)
    n = rng.randint(cfg.min_n, cfg.max_n)
    k = rng.randint(1, cfg.max_k)
    # treewidth-0 cores are edgeless; keep them in the mix but rare
    eta = min(cfg.max_eta, rng.choice([0, 1, 1, 2, 2]))
    ell = rng.randint(0, min(cfg.max_ell, n - 2))
    return GeneratorSpec(
        n=n,
        kind="partial-k-tree",
        k=k,
        eta=eta,
        modulator_size=ell,
        modulator_edge_prob=rng.choice([0.15, 0.3, 0.45, 0.6]),
        edge_keep_prob=rng.choice([0.5, 0.7, 0.9]),
        seed=rng.randrange(2**62),
    )


def _kernel_answer(inst: ModulatorInstance, cfg: SuiteConfig, truth: bool, checks: list[dict]):
    """Run the configured kernel(s); step callbacks verify that every
    deletion round preserves the brute-force answer."""

    def on_change(work, deleted):
        now = brute_force_k_path(work, inst.k, cap=BRUTE_CAP) is not None
        checks.append(
            {
                "name": "step_safeness",
                "claimed": int(truth),
                "measured": int(now),
                "pass": now == truth,
            }
        )

    hook = on_change if cfg.check_steps else None
    # each run's bound checks go right after its step_safeness entries
    runs = []
    if cfg.mode in ("modkernel", "both"):
        runs.append(modulator_kernelize(inst, solve_linkage, m_override=cfg.m_override, on_step=hook))
        checks.extend(c.to_json() for c in runs[-1].bound_checks)
    if cfg.mode in ("kernelize", "both"):
        provider = DecompositionSeparationProvider(inst.graph)
        runs.append(kernelize(inst.graph, inst.k, provider, solve_linkage, on_step=hook))
        checks.extend(c.to_json() for c in runs[-1].bound_checks)
    answers = [run.answer for run in runs]
    steps = sum(run.reduction_steps for run in runs)
    calls = sum(run.stats.calls for run in runs)
    maxinst = max((run.stats.max_instance_vertices for run in runs), default=0)
    return answers, steps, calls, maxinst


def run_one(cfg: SuiteConfig, index: int) -> RunReport:
    spec = spec_for_index(cfg, index)
    started = time.monotonic()
    inst = generate(spec)
    truth = brute_force_k_path(inst.graph, inst.k, cap=BRUTE_CAP) is not None
    checks: list[dict] = []
    answers, steps, calls, maxinst = _kernel_answer(inst, cfg, truth, checks)
    agree = all(a == truth for a in answers) and all(c["pass"] for c in checks if c["name"] == "step_safeness")
    return RunReport(
        index=index,
        spec=spec.to_json(),
        answer=answers[0],
        brute_force_answer=truth,
        agreement=agree,
        oracle_calls=calls,
        max_instance_vertices=maxinst,
        reduction_steps=steps,
        bound_checks=checks,
        elapsed=time.monotonic() - started,
    )


def _run_one_packed(args) -> RunReport:
    cfg, index = args
    return run_one(cfg, index)


def run_suite(cfg: SuiteConfig) -> list[RunReport]:
    """Run every instance; on the first disagreement, write a minimized
    reproducer to cfg.out_dir and raise SuiteFailure."""
    indices = list(range(cfg.count))
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            reports = list(pool.map(_run_one_packed, [(cfg, i) for i in indices]))
    else:
        reports = [run_one(cfg, i) for i in indices]
    for rep in reports:
        if not rep.agreement:
            paths = write_reproducer(cfg, rep.index)
            raise SuiteFailure(
                f"instance {rep.index} disagrees with brute force; reproducer at {paths}"
            )
    return reports


def _disagrees(inst: ModulatorInstance, cfg: SuiteConfig) -> bool:
    truth = brute_force_k_path(inst.graph, inst.k, cap=BRUTE_CAP) is not None
    checks: list[dict] = []
    answers, *_ = _kernel_answer(inst, cfg, truth, checks)
    bad_steps = any(not c["pass"] for c in checks if c["name"] == "step_safeness")
    return bad_steps or any(a != truth for a in answers)


def minimize_disagreement(inst: ModulatorInstance, cfg: SuiteConfig) -> ModulatorInstance:
    """Greedy vertex-deletion delta-debugging: drop any vertex whose removal
    keeps the kernel and brute force disagreeing."""
    current = inst
    for v in sorted(inst.graph.vertices):
        if current.graph.n <= 2 or not current.graph.has_vertex(v):
            continue
        g2 = current.graph.copy()
        g2.delete_vertex(v)
        trial = make_modulator_instance(g2, current.k, current.modulator - {v}, current.eta)
        try:
            if _disagrees(trial, cfg):
                current = trial
        except Exception:
            continue
    return current


def write_reproducer(cfg: SuiteConfig, index: int) -> tuple[str, str]:
    spec = spec_for_index(cfg, index)
    inst = generate(spec)
    if _disagrees(inst, cfg):
        inst = minimize_disagreement(inst, cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    gr_path = os.path.join(cfg.out_dir, f"repro_{index}.gr")
    meta_path = os.path.join(cfg.out_dir, f"repro_{index}.json")
    with open(gr_path, "w", encoding="utf-8") as fh:
        fh.write(write_graph_text(inst.graph))
    idx = vertex_index(inst.graph)
    meta = {
        "spec": spec.to_json(),
        "k": inst.k,
        "eta": inst.eta,
        "modulator_file_ids": sorted(idx[v] for v in inst.modulator),
        "mode": cfg.mode,
        "m_override": cfg.m_override,
    }
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    return gr_path, meta_path


def _nearest_rank(ordered: list[float], q: int) -> float:
    """The q-th percentile of an ascending list by nearest rank: the
    smallest value with at least q percent of the list at or below it."""
    if not ordered:
        return 0.0
    return ordered[max(0, (q * len(ordered) + 99) // 100 - 1)]


def summarize(reports: list[RunReport]) -> dict:
    """Totals over the reports, with per-instance latency percentiles next
    to the summed ``elapsed``."""
    times = sorted(r.elapsed for r in reports)
    failed_bounds = [
        {"index": r.index, **c}
        for r in reports
        for c in r.bound_checks
        if not c["pass"]
    ]
    return {
        "instances": len(reports),
        "agreements": sum(1 for r in reports if r.agreement),
        "yes_instances": sum(1 for r in reports if r.brute_force_answer),
        "total_oracle_calls": sum(r.oracle_calls for r in reports),
        "max_instance_vertices": max((r.max_instance_vertices for r in reports), default=0),
        "reduction_steps": sum(r.reduction_steps for r in reports),
        "failed_bound_checks": failed_bounds,
        "elapsed": round(sum(times), 3),
        "elapsed_p50": round(_nearest_rank(times, 50), 4),
        "elapsed_p95": round(_nearest_rank(times, 95), 4),
        "elapsed_max": round(_nearest_rank(times, 100), 4),
    }
