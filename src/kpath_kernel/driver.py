"""The generic oracle-driven kernel loop.

While the graph is larger than the reduction threshold, ask a separation
provider for a bounded-order separation, reduce its region with the
oracle, repeat; a single oracle call on the small remainder answers the
k-path question. Every call and every claimed bound is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import InputError, ProtocolError
from .graphs import Graph, Separation, check_separation
from .linkage import LinkageInstance, LinkageSolver, OracleStats, counting_oracle
from .reduction import make_guarded_region, apply_reduction, p_bound
from .separation import HAS_K_PATH, trivial_separation_oracle


@dataclass
class BoundCheck:
    name: str
    claimed: int
    measured: int
    passed: bool

    @staticmethod
    def le(name: str, measured: int, claimed: int) -> "BoundCheck":
        return BoundCheck(name, claimed, measured, measured <= claimed)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "claimed": self.claimed,
            "measured": self.measured,
            "pass": self.passed,
        }


@dataclass
class KernelRun:
    """What either kernel reports: the shared fields, then ``extras``, the
    kernel's own report fields in the order ``to_json`` writes them."""

    answer: bool
    stats: OracleStats
    reduction_steps: int
    final_graph_size: int
    extras: dict = field(default_factory=dict)
    bound_checks: list[BoundCheck] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "answer": "yes" if self.answer else "no",
            "oracle_calls": self.stats.calls,
            "max_instance_vertices": self.stats.max_instance_vertices,
            "reduction_steps": self.reduction_steps,
            "final_graph_size": self.final_graph_size,
            **self.extras,
            "bound_checks": [c.to_json() for c in self.bound_checks],
        }


def kernelize(
    g: Graph,
    k: int,
    provider,
    oracle: LinkageSolver,
    on_step: Optional[Callable[[Graph, frozenset], None]] = None,
) -> KernelRun:
    """Decide whether g has a k-path using bounded oracle queries.

    The provider is asked for separations with threshold p + h so that the
    region A = A'∖B' still exceeds the reduction-rule threshold after its
    cut A'∩B' is set aside. A separation is valid when N(A) lies in its
    cut, so N(A) is the region's boundary and guard. When the
    provider cannot help (or hands back something coarser than its declared
    order) the run falls back to one oracle call on the whole remaining
    graph: the answer stays exact, only the size-bound claim lapses.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    h = provider.h
    h_eff = max(h, 1)
    h_hat = (2 * h_eff) ** (4 * h_eff + 3)
    p_threshold = k * p_bound(k, h, h)
    p_ask = p_threshold + h
    bounds = {"p_threshold": p_threshold, "h_hat": h_hat}
    stats = OracleStats()
    solver = counting_oracle(oracle, stats)
    checks: list[BoundCheck] = []
    work = g.copy()  # apply_reduction deletes from this copy
    n0 = g.n
    steps = 0
    unverified = False

    while work.n > p_ask:
        found = provider.find(work, k, p_ask)
        if found == HAS_K_PATH:
            checks.append(BoundCheck.le("p_threshold_vs_k2_h_hat", p_threshold, k * k * h_hat))
            extras = {"bounds": bounds, "bound_unverified": False}
            return KernelRun(True, stats, steps, work.n, extras, checks)
        if found is None:
            unverified = True
            break
        if not isinstance(found, Separation) or not check_separation(work, found):
            raise ProtocolError("provider returned an invalid separation")
        sep = found
        if sep.order > h:
            # decomposition too coarse; try the exhaustive fallback
            alt = trivial_separation_oracle(work, h, p_ask, provider.q(p_ask))
            if alt is None:
                unverified = True
                break
            sep = alt
        if len(sep.region) + sep.order <= p_ask:
            raise ProtocolError("provider returned an undersized separation")
        gr = make_guarded_region(work, sep.region, k)
        before = stats.calls
        _, deleted = apply_reduction(work, gr, solver)
        steps += 1
        checks.append(
            BoundCheck.le(
                "reduction_oracle_calls",
                stats.calls - before,
                p_bound(k, len(gr.boundary), len(gr.guard)),
            )
        )
        checks.append(
            BoundCheck.le("reduction_instance_size", stats.max_instance_vertices, provider.q(p_ask))
        )
        if on_step is not None:
            on_step(work, deleted)

    final = LinkageInstance(work, k, frozenset(), (frozenset(),))
    answer = solver(final) is not None
    checks.append(BoundCheck.le("total_oracle_calls", stats.calls, p_bound(k, h, h) * n0 + 1))
    checks.append(BoundCheck.le("reduction_steps", steps, n0))
    checks.append(BoundCheck.le("p_threshold_vs_k2_h_hat", p_threshold, k * k * h_hat))
    extras = {"bounds": bounds, "bound_unverified": unverified}
    return KernelRun(answer, stats, steps, work.n, extras, checks)
