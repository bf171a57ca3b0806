"""Producing reducible separations.

A separation provider, given the current graph and a size threshold p,
returns a separation (A, B) of bounded order, given as its region A∖B and
its cut A∩B, with more than p vertices in A (but not too many), claims the
graph has a k-path, or reports that it cannot help. B is every vertex
outside the region, so no provider builds it. One provider reads
separations off a tree decomposition, the other finds them by exhaustive
separator search.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .errors import InputError, NotApplicableError
from .graphs import (
    Graph,
    Separation,
    check_separation,
    connected_components,
    small_separators,
)
from .treedecomp import TreeDecomposition, compute_decomposition, stats

HAS_K_PATH = "has-k-path"
ProviderAnswer = Union[Separation, str, None]


class _SubtreeCounts:
    """The live subtree sizes of a fixed decomposition while vertices are
    deleted from its graph.

    The nodes whose bags hold a vertex v span a subtree; its root is v's
    top holder. v lies in a bag of t's subtree exactly when its top holder
    does, or when v lies in B_t ∩ B_parent(t), and never both. So the
    subtree union of t has below[t] + adh[t] live vertices: below[t] counts
    the live vertices whose top holder lies in t's subtree, and adh[t] is
    the live |B_t ∩ B_parent(t)|. Deleting v lowers adh at its other
    holders and below along the path from its top holder to the root."""

    def __init__(self, td: TreeDecomposition):
        self.td = td
        # holders come in preorder, so a vertex's first holder is its top
        # holder; the index is the tree's own, shared and never changed
        self.holders, self.adhesions = td.index()
        self.live = set(self.holders)
        post = td.postorder()
        self.below = dict.fromkeys(post, 0)
        for hs in self.holders.values():
            self.below[hs[0]] += 1
        for t in post:
            p = td.parent[t]
            if p is not None:
                self.below[p] += self.below[t]
        self.adh = {t: len(a) for t, a in self.adhesions.items()}
        self.adh[td.root] = 0
        self._p: Optional[int] = None
        self._at = 0

    def delete(self, vs: set) -> None:
        parent, below = self.td.parent, self.below
        for v in vs:
            hs = self.holders[v]
            for t in hs[1:]:
                self.adh[t] -= 1
            t = hs[0]
            while t is not None:
                below[t] -= 1
                t = parent[t]
        self.live -= vs

    def first_over(self, p: int) -> int:
        """The first node in post-order whose subtree union has more than p
        live vertices (the root has them all). Sizes only fall, so for the
        same p the walk resumes at the last answer."""
        if p != self._p:
            self._p, self._at = p, 0
        post, below, adh, i = self.td.postorder(), self.below, self.adh, self._at
        while below[post[i]] + adh[post[i]] <= p:
            i += 1
        self._at = i
        return post[i]

    def adhesion(self, t: int) -> frozenset:
        """The live B_t ∩ B_parent(t) of a non-root node t."""
        return self.adhesions[t] & self.live

    def union(self, tops: Iterable[int]) -> set:
        """The live vertices in the bags of the subtrees at ``tops``. A child
        with no top holder below it adds nothing its parent's bag lacks."""
        out: set[int] = set()
        stack = list(tops)
        while stack:
            t = stack.pop()
            out |= self.td.bags[t]
            stack.extend(c for c in self.td.children[t] if self.below[c])
        return out & self.live


def _separation(g: Graph, counts: _SubtreeCounts, p: int) -> Separation:
    """``separation_from_decomposition`` on the tree of ``counts``, whose
    live vertices must be those of ``g``."""
    if g.n <= p:
        raise NotApplicableError(f"|V| = {g.n} <= p = {p}")
    td = counts.td
    if len(td.bags) == 1:
        return Separation(frozenset(), frozenset(g.vertices), branch="degenerate-single-bag")
    t0 = counts.first_over(p)
    below, adh = counts.below, counts.adh
    groups: dict[frozenset, list[int]] = {}
    for c in td.children[t0]:
        if adh[c]:
            groups.setdefault(counts.adhesion(c), []).append(c)
        elif below[c]:  # an empty subtree adds no vertex to its group
            groups.setdefault(frozenset(), []).append(c)
    # a group's subtrees share only their adhesion s: Σ below + |s| vertices
    ordered = sorted(groups.items(), key=lambda kv: sorted(kv[0]))
    heavy = [(s, cs) for s, cs in ordered if sum(below[c] for c in cs) + len(s) > p]
    if not heavy:
        # the bags outside the subtree cover the rest and, by connectivity,
        # meet it only in the adhesion to t0's parent
        cut = counts.adhesion(t0) if td.parent[t0] is not None else frozenset()
        sep = Separation(frozenset(counts.union([t0]) - cut), cut, branch="whole-subtree")
    else:
        s, members = heavy[0]
        # children come in ascending order and share adh = |s|, so this
        # sorts by (subtree size, id)
        members.sort(key=below.__getitem__)
        size = len(s)
        for taken, c in enumerate(members, 1):
            size += below[c]
            if size > p:
                break
        acc = counts.union(members[:taken])
        # the cut is the vertices of acc with a neighbour outside it
        cut = frozenset(v for v in acc if not g.neighbors(v) <= acc)
        sep = Separation(frozenset(acc - cut), cut, branch="adhesion-group")
        assert sep.cut <= s
    assert check_separation(g, sep)
    assert len(sep.region) + sep.order > p
    return sep


def separation_from_decomposition(g: Graph, td: TreeDecomposition, p: int) -> Separation:
    """Find a separation of order at most the decomposition's adhesion with
    p < |region| + order <= width+1 + p * max(adhesion_degree, 2).

    Walks to the lowest node whose subtree bags exceed p vertices. If every
    group of equal-adhesion children stays below p, the whole subtree is
    taken: its cut is the adhesion to its parent, its region the rest of
    it. Otherwise children of one heavy group are accumulated (smallest
    subtree first) until just past p; their cut is the vertices with a
    neighbour outside them. Subtree sizes are counted (``_SubtreeCounts``);
    vertex sets are built only for the subtrees taken.

    Precondition: ``td`` must be a valid decomposition of ``g`` (see
    ``stats``).
    """
    return _separation(g, _SubtreeCounts(td), p)


def trivial_separation_oracle(
    g: Graph, h: int, p: int, q_cap: int, subset_budget: int = 2_000_000
) -> Optional[Separation]:
    """Exhaustive fallback: try every separator of size at most h and a
    subset-sum over the component sizes of the rest to assemble a region
    with p < |region| + |cut| <= q_cap. None when no candidate works."""
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
    region = frozenset().union(*(comps[i] for i in picks))
    sep = Separation(region, frozenset(cut), branch="trivial-knapsack")
    assert check_separation(g, sep)
    return sep


class DecompositionSeparationProvider:
    """Separations read off a fixed decomposition of the starting graph,
    restricted to whatever vertices survive. Width, adhesion and adhesion
    degree can only shrink under restriction, so the declared bounds hold
    for every later call. The decomposition, computed or supplied, is
    validated once here by ``stats``; its validation, its measurement and
    the counts below read the tree's one bag index.

    The provider keeps the tree's live subtree counts (``_SubtreeCounts``)
    between calls instead of restricting the tree: ``find`` deletes from
    them the vertices the graph has lost since the last call, and starts
    again from the first tree if the graph holds a vertex already deleted
    (a second run, say). Its separations are those of
    ``separation_from_decomposition`` on the restricted tree."""

    def __init__(self, g0: Graph, td: Optional[TreeDecomposition] = None):
        self._td0 = td if td is not None else compute_decomposition(g0)
        s = stats(self._td0)
        self.h = s.adhesion
        self.width_bound = s.width + 1
        self.degree_bound = max(s.adhesion_degree, 2)
        self._counts = _SubtreeCounts(self._td0)

    def q(self, p: int) -> int:
        return self.width_bound + p * self.degree_bound

    def find(self, g: Graph, k: int, p: int) -> ProviderAnswer:
        if g.n <= p:
            return None
        gone = self._counts.live - g.vertices
        if len(self._counts.live) - len(gone) != g.n:
            self._counts = _SubtreeCounts(self._td0)
            gone = self._counts.live - g.vertices
        self._counts.delete(gone)
        return _separation(g, self._counts, p)


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
