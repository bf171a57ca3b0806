"""The oracle-driven reduction rule.

A guarded region is a vertex set A with boundary N(A) and a guard
Z ⊆ N(A) such that, whenever the graph has a k-path, some k-path crosses
A only through traverses anchored in Z (or lies inside A). Querying the
oracle once per candidate way such a path can intersect A marks every
vertex a crossing could need; the rest of A is deleted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import InputError, NotApplicableError
from .graphs import (
    Graph,
    brute_force_k_path,
    induced_subgraph,
    is_guarded,
    iter_k_paths,
    open_neighborhood,
)
from .linkage import LinkageInstance, LinkageSolver


@dataclass(frozen=True)
class GuardedRegion:
    region: frozenset
    boundary: frozenset
    guard: frozenset
    k: int


def make_guarded_region(g: Graph, region, k: int, guard=None) -> GuardedRegion:
    """Build a region with boundary N(region); guard defaults to the full
    boundary, which is always a valid guard."""
    reg = frozenset(region)
    boundary = frozenset(open_neighborhood(g, reg))
    gz = boundary if guard is None else frozenset(guard)
    if not gz <= boundary:
        raise InputError("guard must be a subset of the region's boundary")
    if k < 1:
        raise InputError("k must be >= 1")
    return GuardedRegion(reg, boundary, gz, k)


def p_bound(k: int, ell: int, h: int) -> int:
    """Count bound for the distinct oracle instances a guarded region can
    induce: (k+1) * (1 + sum_{r=0}^{2h} (h*(ell+1))^r). Exact integer."""
    if k < 1 or ell < 0 or h < 0:
        raise InputError("need k >= 1, ell >= 0, h >= 0")
    base = h * (ell + 1)
    return (k + 1) * (1 + sum(base**r for r in range(2 * h + 1)))


def _request_universe(guard, boundary) -> list[frozenset]:
    universe = set()
    for z in sorted(guard):
        universe.add(frozenset({z}))
        for b in sorted(boundary):
            if b != z:
                universe.add(frozenset({z, b}))
    return sorted(universe, key=lambda r: (len(r), sorted(r)))


def enumerate_candidates(
    k: int, universe: Sequence[frozenset], rmax: int, cap: Optional[Callable[[tuple], int]] = None
) -> list[tuple[int, tuple[frozenset, ...]]]:
    """The counted (k', requests) candidates over ``universe``. k' counts
    covered vertices, and each path owns a non-terminal, so a pattern of r
    requests with union U needs k' >= r + |U| (the free path, one empty
    request, k' >= 1). First the free path, then every multiset of at most
    ``rmax`` requests in depth-first pre-order, each up to k' = cap(pattern)
    (default k, never above it). r + |U| only grows, so a branch stops once
    it would exceed k."""

    def top(pattern: tuple) -> int:
        return k if cap is None else min(k, cap(pattern))

    free = (frozenset(),)
    out = [(kp, free) for kp in range(1, top(free) + 1)]
    stack = [(0, (), frozenset())]  # (first usable universe index, pattern, union)
    while stack:
        start, pattern, union = stack.pop()
        if pattern:
            out.extend((kp, pattern) for kp in range(len(pattern) + len(union), top(pattern) + 1))
        if len(pattern) < rmax:
            for idx in reversed(range(start, len(universe))):
                nu = union | universe[idx]
                if len(pattern) + 1 + len(nu) <= k:
                    stack.append((idx, pattern + (universe[idx],), nu))
    return out


def guard_is_valid(g: Graph, gr: GuardedRegion, cap: int = 20) -> bool:
    """Brute-force the guard definition: no k-path at all, or some k-path is
    guarded w.r.t. (region, guard). Exponential; capped."""
    if g.n > cap:
        raise NotApplicableError(f"guard check capped at {cap} vertices")
    if brute_force_k_path(g, gr.k, cap=cap) is None:
        return True
    return any(is_guarded(g, p, gr.region, gr.guard) for p in iter_k_paths(g, gr.k))


def mark_and_delete(
    local: Graph,
    terminals: frozenset,
    candidates: Iterable[tuple[int, tuple[frozenset, ...]]],
    oracle: LinkageSolver,
) -> frozenset:
    """Ask the oracle every (k', requests) candidate on ``local``, mark the
    vertices of every witness, and return the deletable set: the
    non-terminals of ``local`` that no witness uses. The caller deletes
    them from the graph it owns."""
    marked: set[int] = set()
    for kp, requests in candidates:
        sol = oracle(LinkageInstance(local, kp, terminals, requests))
        if sol is not None:
            for p in sol:
                marked.update(p)
    return frozenset(local.vertices - terminals - marked)


def apply_reduction(g: Graph, gr: GuardedRegion, oracle: LinkageSolver) -> tuple[Graph, frozenset]:
    """Run the reduction rule once: mark and delete over G[N[A]] with the
    boundary as terminals, so the deleted vertices are the unmarked part of
    A. Applicable only when |A| exceeds k * p_bound(k, l, h), which
    guarantees at least one deletion. The vertices are deleted from ``g``
    itself, which is returned with them; pass a copy to keep ``g``.

    Candidates are counted multisets of up to max(1, 2|Z|) requests {z} or
    {z, b}, z in the guard, b in the boundary. One below its count may have
    a witness (``({z},)`` at k' = 1 has ``(z,)``), but no traverse of a
    k-path induces it: every traverse owns a vertex of A.

    Unlike ``reduce_component``, no candidate needs a k' cap: every
    candidate has k' <= k < |A|, and A is exactly the non-terminal pool of
    G[N[A]], so no candidate asks for more free vertices than A holds.
    """
    ell, h = len(gr.boundary), len(gr.guard)
    threshold = gr.k * p_bound(gr.k, ell, h)
    if len(gr.region) <= threshold:
        raise NotApplicableError(
            f"|A| = {len(gr.region)} <= k*p_bound = {threshold}; rule not applicable"
        )
    if open_neighborhood(g, gr.region) != set(gr.boundary):
        raise InputError("region boundary is stale for this graph")
    candidates = enumerate_candidates(gr.k, _request_universe(gr.guard, gr.boundary), max(1, 2 * h))
    assert len(candidates) <= p_bound(gr.k, ell, h)
    local = induced_subgraph(g, gr.region | gr.boundary)
    deletable = mark_and_delete(local, gr.boundary, candidates, oracle)
    assert deletable, "marking can never cover a region larger than k*p_bound"
    g.delete_vertices(deletable)
    return g, deletable
