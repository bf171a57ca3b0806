"""Time `kernelize` on partial 1-trees of growing size.

For each n it builds one partial 1-tree (a random tree whose edges are kept
with probability 0.7, seeded with n), decides whether it has a 4-path with
a `DecompositionSeparationProvider` and `solve_linkage`, and prints one
markdown table row: the largest oracle query (vertices), the reduction
steps, the oracle calls, the run's wall-clock seconds (the provider's
set-up, its decomposition included, plus `kernelize`) and the seconds per
step. The paper's kernel keeps the largest query flat in n.

Run from the repository root (about 5 s at the default sizes on a 2-vCPU
VM, most of it n = 32,000):

    python3 scripts/scale.py [n ...]     # default: 2000 8000 16000 32000
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kpath_kernel.driver import kernelize  # noqa: E402
from kpath_kernel.generate import _partial_k_tree  # noqa: E402
from kpath_kernel.graphs import Graph  # noqa: E402
from kpath_kernel.linkage import solve_linkage  # noqa: E402
from kpath_kernel.separation import DecompositionSeparationProvider  # noqa: E402

K = 4
KEEP_PROB = 0.7
SIZES = (2_000, 8_000, 16_000, 32_000)


def measure(n: int) -> dict:
    g = Graph()
    _partial_k_tree(g, random.Random(n), n, 1, KEEP_PROB)
    start = time.perf_counter()
    run = kernelize(g, K, DecompositionSeparationProvider(g), solve_linkage)
    seconds = time.perf_counter() - start
    return {
        "n": n,
        "largest_query": run.stats.max_instance_vertices,
        "steps": run.reduction_steps,
        "oracle_calls": run.stats.calls,
        "seconds": seconds,
        "seconds_per_step": seconds / max(run.reduction_steps, 1),
    }


def main(argv: list[str]) -> None:
    sizes = [int(a) for a in argv] or SIZES
    print("| n | largest oracle query | reduction steps | oracle calls | kernel run (s) | per step (s) |")
    print("|---|---|---|---|---|---|")
    for n in sizes:
        r = measure(n)
        print(
            f"| {n:,} | {r['largest_query']} | {r['steps']} | {r['oracle_calls']} "
            f"| {r['seconds']:.2f} | {r['seconds_per_step']:.4f} |",
            flush=True,
        )


if __name__ == "__main__":
    main(sys.argv[1:])
