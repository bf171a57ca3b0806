"""Print the equivalence fingerprint: sha256 prefixes of what the kernels
answer, ask, pack and delete on the benchmark corpora and two suite runs.

Run from the repository root (about 90 s on a 2-vCPU VM, most of it the
suites' `kernelize` half):

    python3 scripts/fingerprint.py

Every hash is the first 16 hex digits of the sha256 of a JSON dump with
sorted keys. Per benchmark corpus (`perfbench/workloads.py`, each instance
decided once, in corpus order):

- runs: every instance's `run.to_json()`;
- runs_uncounted: the same without the oracle call counts (`uncounted`);
- rounds: every instance's deleted sets, one sorted list per round or step;
- witnesses: every oracle call's answer, None or its paths;
- families: every `build_path_families` result, as its sorted
  `(repr(key), paths, truncated)` list (modulator corpora);
- separations: every separation the provider returns, as
  `(sorted region ∪ cut, sorted V∖region, branch)` with V the vertices of
  the graph `find` was given (the `kernelize` corpus). These are its sides
  A and B, so the hash is the one taken when a `Separation` held
  `(side_a, side_b)`;
- decompositions: every instance's starting tree, as its root, sorted
  `(node, parent)` pairs and sorted `(node, sorted bag)` pairs: the
  provider's tree on the `kernelize` corpus, the instance's
  `core_decomposition` (None for an empty core) on the modulator corpora.

Then the `SuiteConfig(count=60, mode="both", check_steps=True)` reports
without `elapsed`, the same with `m_override=4` (each also hashed
uncounted), and the solver's witnesses on the 500 random instances of
`test_witnesses_are_pinned`. Two trees behave identically on these inputs
when their outputs are equal; the counts beside the hashes say how much
each one covers. A change that only asks fewer oracle calls moves the
runs, witnesses and reports hashes and keeps every other one.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from kpath_kernel import driver, linkage, modulator, separation  # noqa: E402
from kpath_kernel.graphs import Separation  # noqa: E402
from kpath_kernel.suite import SuiteConfig, run_suite  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from test_linkage import random_instance  # noqa: E402


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def uncounted(report: dict) -> dict:
    """``report`` without its oracle call counts: no `oracle_calls` field,
    and no measured value in any `*_oracle_calls` bound check."""
    out = {key: value for key, value in report.items() if key != "oracle_calls"}
    out["bound_checks"] = [
        {key: value for key, value in c.items() if key != "measured" or not c["name"].endswith("_oracle_calls")}
        for c in report["bound_checks"]
    ]
    return out


def witness(sol) -> object:
    return None if sol is None else [list(p) for p in sol]


def tree(td) -> object:
    if td is None:
        return None
    return [td.root, sorted(td.parent.items()), sorted((t, sorted(b)) for t, b in td.bags.items())]


def corpus(workload) -> dict:
    runs, rounds, calls, families, seps, trees = [], [], [], [], [], []

    def oracle(inst):
        sol = linkage.solve_linkage(inst)
        calls.append(witness(sol))
        return sol

    build, find = modulator.build_path_families, separation.DecompositionSeparationProvider.find

    def recorded_build(*args, **kwargs):
        fam = build(*args, **kwargs)
        families.append(sorted((repr(key), paths, fam.truncated[key]) for key, paths in fam.families.items()))
        return fam

    def recorded_find(self, g, *args, **kwargs):
        found = find(self, g, *args, **kwargs)
        if isinstance(found, Separation):
            seps.append((sorted(found.region | found.cut), sorted(g.vertices - found.region), found.branch))
        return found

    modulator.build_path_families = recorded_build
    separation.DecompositionSeparationProvider.find = recorded_find
    try:
        for case in workload.build_cases():
            deleted: list[list[int]] = []
            on_change = lambda g, d: deleted.append(sorted(d))  # noqa: E731
            if workload.kind == "modkernel":
                inst = modulator.make_modulator_instance(case.graph, case.k, case.modulator, case.eta)
                trees.append(tree(inst.core_decomposition))
                run = modulator.modulator_kernelize(inst, oracle, m_override=workload.m_override, on_step=on_change)
            else:
                provider = separation.DecompositionSeparationProvider(case.graph)
                trees.append(tree(provider._td0))
                run = driver.kernelize(case.graph, case.k, provider, oracle, on_step=on_change)
            runs.append(run.to_json())
            rounds.append(deleted)
    finally:
        modulator.build_path_families = build
        separation.DecompositionSeparationProvider.find = find
    out = {
        "runs": digest(runs),
        "runs_uncounted": digest([uncounted(r) for r in runs]),
        "rounds": digest(rounds),
        "round_count": sum(map(len, rounds)),
        "witnesses": digest(calls),
        "oracle_calls": len(calls),
        "decompositions": digest(trees),
    }
    if workload.kind == "modkernel":
        out.update(families=digest(families), family_builds=len(families))
    else:
        out.update(separations=digest(seps), separation_count=len(seps))
    return out


def suite(**overrides) -> dict:
    reports = [r.to_json() for r in run_suite(SuiteConfig(count=60, mode="both", check_steps=True, **overrides))]
    for r in reports:
        del r["elapsed"]
    return {
        "reports": digest(reports),
        "reports_uncounted": digest([uncounted(r) for r in reports]),
        "checks": sum(len(r["bound_checks"]) for r in reports),
    }


def solver_witnesses() -> dict:
    rng = random.Random(20261018)
    out = [witness(linkage.solve_linkage(random_instance(rng))) for _ in range(500)]
    return {"witnesses": digest(out), "yes": sum(sol is not None for sol in out)}


def main() -> None:
    report = {name: corpus(w) for name, w in WORKLOADS.items()}
    report["solver_500"] = solver_witnesses()
    report["suite"] = suite()
    report["suite_m4"] = suite(m_override=4)
    print(json.dumps(report, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
