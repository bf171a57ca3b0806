"""Instance corpora and the timed verdict call for each benchmark workload.

Every workload replays a pinned corpus: the first ``size`` instances of a
suite-style stream drawn at the suite's default seed (``SuiteConfig().seed``),
with edgeless-core no-instances shrunk to a size both the kernel and brute
force decide in about a second. The benchmark's ``--seed`` chooses the
replay order, not the corpus, so two runs always time the same instances
and every count repeats exactly. See README.md for why the corpus is not
drawn from ``--seed``.

Library functions are looked up through their modules at call time, so the
tracer in ``layers.py`` sees every call the timed region makes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

from kpath_kernel import driver, linkage, modulator, separation
from kpath_kernel.generate import GeneratorSpec, _partial_k_tree, generate
from kpath_kernel.graphs import Graph
from kpath_kernel.suite import SuiteConfig, spec_for_index

CORPUS_SEED = SuiteConfig().seed


@dataclass
class Case:
    """One corpus instance: the generator spec and the inputs the CLI would
    read from disk (graph, k and, for the modulator kernel, M and eta)."""

    index: int
    spec: GeneratorSpec
    graph: Graph
    k: int
    modulator: frozenset = frozenset()
    eta: int = 0


@dataclass
class Verdict:
    answer: bool
    oracle_calls: int
    final_graph_size: int
    reduction_steps: int
    failed_checks: list


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "modkernel" or "kernelize"
    size: int
    specs: Callable[[int], list]
    m_override: Optional[int] = None

    def build_cases(self, size: Optional[int] = None) -> list[Case]:
        return [_build_case(i, s, self.kind) for i, s in enumerate(self.specs(size or self.size))]

    def verdict(self, case: Case) -> Verdict:
        """The timed region: what a user of the CLI waits for."""
        if self.kind == "modkernel":
            inst = modulator.make_modulator_instance(case.graph, case.k, case.modulator, case.eta)
            run = modulator.modulator_kernelize(inst, linkage.solve_linkage, m_override=self.m_override)
        else:
            provider = separation.DecompositionSeparationProvider(case.graph)
            run = driver.kernelize(case.graph, case.k, provider, linkage.solve_linkage)
        return Verdict(
            run.answer,
            run.stats.calls,
            run.final_graph_size,
            run.reduction_steps,
            [c.to_json() for c in run.bound_checks if not c.passed],
        )


# The largest count of alternating paths, (n - ell) ** (ell + 1), at which
# both the kernel and brute force decide an edgeless-core no-instance in
# about a second on the 2-vCPU Intel Xeon VM the benchmark was built on.
EDGELESS_PATH_BUDGET = 10**7


def edgeless_core_no_instance(spec: GeneratorSpec) -> bool:
    """With eta = 0 the core is edgeless, so every path alternates through
    the modulator and has at most 2*ell + 1 vertices; for larger k the
    answer is no. Both the kernel's final oracle call and brute force then
    search every alternating path, about (n - ell) ** (ell + 1) of them."""
    return spec.eta == 0 and spec.k > 2 * spec.modulator_size + 1


def fit_edgeless_core(spec: GeneratorSpec) -> GeneratorSpec:
    """Shrink an edgeless-core no-instance to the largest n whose
    alternating-path count fits EDGELESS_PATH_BUDGET; other specs are
    returned as they are. At n = 210, ell = 4 each search runs for
    minutes, at n = 29 for about a second (see README.md)."""
    if not edgeless_core_no_instance(spec):
        return spec
    ell = spec.modulator_size
    core = spec.n - ell
    while core ** (ell + 1) > EDGELESS_PATH_BUDGET:
        core -= 1
    return replace(spec, n=core + ell)


def _suite_specs(cfg: SuiteConfig) -> Callable[[int], list]:
    def specs(size: int) -> list:
        return [fit_edgeless_core(spec_for_index(cfg, i)) for i in range(size)]

    return specs


def _forest_specs(size: int) -> list[GeneratorSpec]:
    out = []
    for i in range(size):
        rng = random.Random(CORPUS_SEED * 1_000_003 + i)
        out.append(
            GeneratorSpec(
                n=rng.randint(500, 900),
                kind="partial-k-tree",
                k=rng.randint(3, 4),
                eta=1,
                modulator_size=0,
                edge_keep_prob=rng.choice([0.5, 0.7, 0.9]),
                seed=rng.randrange(2**62),
            )
        )
    return out


def _build_case(index: int, spec: GeneratorSpec, kind: str) -> Case:
    if kind == "kernelize":
        # generate(spec).graph without the width check generate() runs on
        # G - M, a full decomposition the kernelize path never uses. With
        # no modulator, _partial_k_tree draws every random number generate()
        # would, so the graph is the same.
        g = Graph()
        _partial_k_tree(g, random.Random(spec.seed), spec.n, spec.eta, spec.edge_keep_prob)
        return Case(index, spec, g, spec.k)
    inst = generate(spec)
    return Case(index, spec, inst.graph, inst.k, inst.modulator, inst.eta)


LARGE_STREAM = SuiteConfig(seed=CORPUS_SEED, min_n=120, max_n=240, max_k=10, max_eta=2, max_ell=6)
M4_STREAM = SuiteConfig(seed=CORPUS_SEED, min_n=40, max_n=100, max_k=8, max_eta=2, max_ell=4)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "modkernel-large",
            "modkernel",
            size=46,
            specs=_suite_specs(LARGE_STREAM),
        ),
        Workload(
            "modkernel-m4",
            "modkernel",
            size=53,
            specs=_suite_specs(M4_STREAM),
            m_override=4,
        ),
        Workload("kernelize-forest", "kernelize", size=50, specs=_forest_specs),
    )
}
