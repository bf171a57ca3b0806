"""Producing reducible separations.

A separation provider, given the current graph and a size threshold p,
returns a separation of bounded order whose left side has more than p
vertices (but not too many), claims the graph has a k-path, or reports
that it cannot help. One provider reads separations off a tree
decomposition, the other finds them by exhaustive separator search.
"""

from __future__ import annotations

from typing import Optional, Union

from .errors import InputError, NotApplicableError
from .graphs import (
    Graph,
    Separation,
    check_separation,
    connected_components,
    open_neighborhood,
    small_separators,
)
from .treedecomp import TreeDecomposition, compute_decomposition, stats

HAS_K_PATH = "has-k-path"
ProviderAnswer = Union[Separation, str, None]


def separation_from_decomposition(g: Graph, td: TreeDecomposition, p: int) -> Separation:
    """Find a separation of order at most the decomposition's adhesion with
    p < |A| <= width+1 + p * max(adhesion_degree, 2).

    Walks to the lowest node whose subtree bags exceed p vertices. If every
    group of equal-adhesion children stays below p, the whole subtree is the
    left side; otherwise children of one heavy group are accumulated
    (smallest subtree first) until just past p.

    Precondition: ``td`` must be a valid decomposition of ``g`` (see
    ``stats``).
    """
    if g.n <= p:
        raise NotApplicableError(f"|V| = {g.n} <= p = {p}")
    if len(td.bags) == 1:
        vs = frozenset(g.vertices)
        return Separation(vs, vs, branch="degenerate-single-bag")
    unions = td.subtree_unions()
    t0 = next(t for t in td.postorder() if len(unions[t]) > p)

    groups: dict[frozenset, list[int]] = {}
    for c in td.children[t0]:
        groups.setdefault(td.bags[c] & td.bags[t0], []).append(c)
    heavy: list[tuple[frozenset, list[int]]] = []
    for s, cs in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
        v_s = frozenset().union(*(unions[c] for c in cs))
        if len(v_s) > p:
            heavy.append((s, cs))
    if not heavy:
        # the bags outside the subtree cover V - A and, by connectivity, meet
        # A only in the adhesion to t0's parent
        a = unions[t0]
        b = set(g.vertices) - a
        if td.parent[t0] is not None:
            b |= td.bags[t0] & td.bags[td.parent[t0]]
        sep = Separation(a, frozenset(b), branch="whole-subtree")
    else:
        s, members = heavy[0]
        members = sorted(members, key=lambda c: (len(unions[c]), c))
        acc: set[int] = set()
        for c in members:
            acc |= unions[c]
            if len(acc) > p:
                break
        rest = set(g.vertices) - acc
        b = rest | set(open_neighborhood(g, rest))
        sep = Separation(frozenset(acc), frozenset(b), branch="adhesion-group")
        assert sep.cut() <= s
    assert check_separation(g, sep.side_a, sep.side_b)
    assert len(sep.side_a) > p
    return sep


def trivial_separation_oracle(
    g: Graph, h: int, p: int, q_cap: int, subset_budget: int = 2_000_000
) -> Optional[Separation]:
    """Exhaustive fallback: try every separator of size at most h and a
    subset-sum over the component sizes of the rest to assemble a left side
    with p < |A| <= q_cap. None when no candidate works."""
    if h < 0 or p < 0:
        raise InputError("need h >= 0 and p >= 0")
    for cs in small_separators(g, h, subset_budget):
        lo = p - len(cs)  # strict lower bound for the component total
        hi = q_cap - len(cs)
        if hi < 0:
            break  # cuts come smallest first, so no later one fits either
        comps = connected_components(g, within=g.vertices - cs)
        sizes = [len(c) for c in comps]
        reach: dict[int, tuple[int, ...]] = {0: ()}
        if lo < 0 and cs:
            chosen: tuple[int, ...] = ()
            return _assemble(g, cs, comps, chosen)
        for i, sz in enumerate(sizes):
            for s, picks in list(reach.items()):
                ns = s + sz
                if ns <= hi and ns not in reach:
                    reach[ns] = picks + (i,)
                    if ns > lo:
                        return _assemble(g, cs, comps, reach[ns])
    return None


def _assemble(g: Graph, cut: set, comps: list[set], picks: tuple[int, ...]) -> Separation:
    a = set(cut)
    for i in picks:
        a |= comps[i]
    b = (set(g.vertices) - a) | set(cut)
    sep = Separation(frozenset(a), frozenset(b), branch="trivial-knapsack")
    assert check_separation(g, sep.side_a, sep.side_b)
    return sep


class DecompositionSeparationProvider:
    """Separations read off a fixed decomposition of the starting graph,
    restricted to whatever vertices survive. Width, adhesion and adhesion
    degree can only shrink under restriction, so the declared bounds hold
    for every later call. The decomposition, computed or supplied, is
    validated once here by ``stats``; restricting it keeps it valid."""

    def __init__(self, g0: Graph, td: Optional[TreeDecomposition] = None):
        self._td0 = td if td is not None else compute_decomposition(g0)
        s = stats(self._td0)
        self.h = s.adhesion
        self.width_bound = s.width + 1
        self.degree_bound = max(s.adhesion_degree, 2)

    def q(self, p: int) -> int:
        return self.width_bound + p * self.degree_bound

    def find(self, g: Graph, k: int, p: int) -> ProviderAnswer:
        if g.n <= p:
            return None
        td = self._td0.restrict(g)
        try:
            return separation_from_decomposition(g, td, p)
        except NotApplicableError:
            return None


class TrivialSeparationProvider:
    """Exhaustive-search provider with a declared order bound ``h``;
    searches the window (p, 2p + h] like the decomposition's group branch."""

    def __init__(self, h: int):
        self.h = h

    def q(self, p: int) -> int:
        return 2 * p + self.h

    def find(self, g: Graph, k: int, p: int) -> ProviderAnswer:
        if g.n <= p:
            return None
        try:
            return trivial_separation_oracle(g, self.h, p, self.q(p))
        except NotApplicableError:
            return None
