"""Rooted tree decompositions and the transforms the kernels need.

A decomposition is a rooted tree of bags over a host graph. Width,
adhesion and adhesion degree are measured, never assumed. Exact
treewidth is computed by branch-and-bound over elimination orders up to
a size cap; beyond it a min-fill heuristic is used and the stats report
whatever it produced.
"""

from __future__ import annotations

import copy
import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .errors import InputError, NotApplicableError
from .graphs import Graph, connected_components, parse_int, vertex_index

NodeId = int


class BagIndex(NamedTuple):
    """Who holds what, read once off a tree's bags."""

    holders: dict[int, list[NodeId]]  # vertex -> nodes whose bags hold it, in preorder
    adhesions: dict[NodeId, frozenset]  # non-root t -> B_t ∩ B_parent(t)


class TreeDecomposition:
    def __init__(
        self,
        host: Graph,
        root: NodeId,
        parent: dict[NodeId, Optional[NodeId]],
        bags: dict[NodeId, Iterable[int]],
    ) -> None:
        self.host = host
        self.root = root
        self.parent = dict(parent)
        self.bags = {t: frozenset(b) for t, b in bags.items()}
        if set(self.parent) != set(self.bags):
            raise InputError("parent map and bag map disagree on the node set")
        if self.parent.get(root, "missing") is not None:
            raise InputError("root must be present with parent None")
        self.children: dict[NodeId, list[NodeId]] = {t: [] for t in self.bags}
        for t, p in self.parent.items():
            if p is not None:
                if p not in self.bags:
                    raise InputError(f"node {t} has unknown parent {p}")
                self.children[p].append(t)
        for t in self.children:
            self.children[t].sort()
        # reachability from the root certifies the parent map is a tree; the
        # same walk records depths and a preorder that visits the children
        # last-first, whose reverse is the post-order with children in order
        seen = set()
        depth = {root: 0}
        visits = []
        stack = [root]
        while stack:
            t = stack.pop()
            if t in seen:
                raise InputError("parent map contains a cycle")
            seen.add(t)
            visits.append(t)
            kids = self.children[t]
            if kids:
                below = depth[t] + 1
                for c in kids:
                    depth[c] = below
                stack.extend(kids)
        if seen != set(self.bags):
            raise InputError("parent map is not connected")
        self._depth = depth
        self._postorder = tuple(reversed(visits))
        self._rank = {t: i for i, t in enumerate(self._postorder)}
        self._index: Optional[BagIndex] = None

    @property
    def nodes(self):
        return self.bags.keys()

    def tree_edges(self) -> list[tuple[NodeId, NodeId]]:
        return [(p, t) for t, p in self.parent.items() if p is not None]

    def depths(self) -> dict[NodeId, int]:
        """Depth of every node, the root at 0. Computed once, when the tree
        is checked; treat as read-only."""
        return self._depth

    def postorder(self) -> tuple[NodeId, ...]:
        """Every node after its subtree, children in ascending order.
        Computed once, when the tree is checked; treat as read-only."""
        return self._postorder

    def index(self) -> BagIndex:
        """Every vertex's holders in preorder, so its top holder (the
        shallowest) comes first, and every tree edge's adhesion set, each
        intersected once. Built on first use and kept; ``validate``,
        ``measure`` and the separation provider's counts all read it.
        Treat as read-only."""
        if self._index is None:
            bags = self.bags
            holders: dict[int, list[NodeId]] = {}
            for t in reversed(self._postorder):
                for v in bags[t]:
                    holders.setdefault(v, []).append(t)
            adhesions = {t: bags[t] & bags[p] for t, p in self.parent.items() if p is not None}
            self._index = BagIndex(holders, adhesions)
        return self._index

    def subtree_unions(self) -> dict[NodeId, frozenset]:
        """For every node, the union of bags in its subtree."""
        out: dict[NodeId, frozenset] = {}
        for t in self.postorder():
            u = self.bags[t]
            if self.children[t]:
                u = u.union(*[out[c] for c in self.children[t]])
            out[t] = u
        return out

    def bag_union(self, ts: Iterable[NodeId]) -> frozenset:
        acc: set[int] = set()
        for t in ts:
            acc |= self.bags[t]
        return frozenset(acc)

    def restrict(self, host: Graph) -> "TreeDecomposition":
        """Intersect every bag with the vertices of ``host``, an induced
        subgraph of this decomposition's host: a decomposition of ``host``.
        The tree is the same, so its checked parent map, children, depths,
        post-order and post-order rank are shared, not rebuilt; the bag
        index is not."""
        ks = set(host.vertices)
        out = copy.copy(self)
        out.host = host
        out.bags = {t: b & ks for t, b in self.bags.items()}
        out._index = None
        return out

    def lift_root(self) -> "TreeDecomposition":
        """Put a copy of the root bag above the root, as a new root with
        the next free id. The checked tree is extended, not walked again:
        every depth grows by one and the new root ends the post-order."""
        top = max(self.nodes) + 1
        out = copy.copy(self)
        out.root = top
        out.parent = {**self.parent, self.root: top, top: None}
        out.bags = {**self.bags, top: self.bags[self.root]}
        out.children = {**self.children, top: [self.root]}
        out._depth = {t: d + 1 for t, d in self._depth.items()}
        out._depth[top] = 0
        out._postorder = self._postorder + (top,)
        out._rank = {**self._rank, top: len(self._postorder)}
        out._index = None
        return out

    def lca(self, a: NodeId, b: NodeId) -> NodeId:
        d = self._depth
        while d[a] > d[b]:
            a = self.parent[a]  # type: ignore[assignment]
        while d[b] > d[a]:
            b = self.parent[b]  # type: ignore[assignment]
        while a != b:
            a = self.parent[a]  # type: ignore[assignment]
            b = self.parent[b]  # type: ignore[assignment]
        return a


@dataclass(frozen=True)
class Violation:
    axiom: str  # "coverage" | "unknown-vertex" | "edge-coverage" | "connectivity"
    witness: object


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class DecompositionStats:
    width: int
    adhesion: int
    adhesion_degree: int


def validate(td: TreeDecomposition) -> ValidationReport:
    """Check the decomposition axioms, reporting every violation.

    Every host vertex lies in some bag ("coverage"), every bag vertex lies
    in the host ("unknown-vertex"), every host edge lies in some bag
    ("edge-coverage"), and the nodes holding a vertex span a subtree
    ("connectivity"). All four read the tree's one bag index (``index``),
    so the cost is O(m + Σ|bag|) set operations plus sorting the
    witnesses found."""
    g = td.host
    holders, adhesions = td.index()
    out: list[Violation] = []
    for v in sorted(g.vertices - holders.keys()):
        out.append(Violation("coverage", v))
    for v in sorted(holders.keys() - g.vertices):
        out.append(Violation("unknown-vertex", v))
    nowhere: list[NodeId] = []
    uncovered = [e for e in g.edges() if set(holders.get(e[0], nowhere)).isdisjoint(holders.get(e[1], nowhere))]
    out.extend(Violation("edge-coverage", e) for e in sorted(uncovered))
    # the holders of v induce a forest in the tree; it is one subtree
    # exactly when it has |holders| - 1 edges
    inner_edges: dict[int, int] = dict.fromkeys(holders, 0)
    for a in adhesions.values():
        for v in a:
            inner_edges[v] += 1
    broken = [v for v, hs in holders.items() if inner_edges[v] != len(hs) - 1]
    out.extend(Violation("connectivity", v) for v in sorted(broken))
    return ValidationReport(out)


def stats(td: TreeDecomposition) -> DecompositionStats:
    """Validate ``td``, then measure it."""
    report = validate(td)
    if not report.ok:
        raise InputError(f"invalid decomposition: {report.violations[:3]}")
    return measure(td)


def measure(td: TreeDecomposition) -> DecompositionStats:
    """Width, adhesion and adhesion degree. ``td`` must be a valid
    decomposition. Each tree edge's adhesion set comes from the bag index
    and is counted at both its ends."""
    width = max(len(b) for b in td.bags.values()) - 1
    adhesions = td.index().adhesions
    adhs: dict[NodeId, set[frozenset]] = {t: set() for t in td.nodes}
    for t, a in adhesions.items():
        adhs[t].add(a)
        adhs[td.parent[t]].add(a)
    adhesion = max(map(len, adhesions.values()), default=0)
    return DecompositionStats(width, adhesion, max(map(len, adhs.values())))


def make_connected(td: TreeDecomposition) -> TreeDecomposition:
    """Split child subtrees into one copy per component below the parent bag
    and drop adhesion vertices with no neighbor down there. Width and
    adhesion cannot increase; a single top-down pass suffices.

    Neither kernel calls it: their decompositions come from
    ``compute_decomposition``, which is connected already (see there), and
    on a connected decomposition this only renumbers the nodes in preorder.
    It stays for decompositions from elsewhere; its cost is O(n · depth),
    one component search per child subtree.

    Precondition: ``td`` must be a valid decomposition (see ``stats``)."""
    g = td.host
    unions = td.subtree_unions()
    counter = itertools.count(1)
    parent: dict[NodeId, Optional[NodeId]] = {}
    bags: dict[NodeId, frozenset] = {}
    # explicit stack, ids handed out in preorder; children are pushed in
    # reverse so they are numbered in order
    stack: list[tuple[NodeId, frozenset, Optional[NodeId]]] = [(td.root, frozenset(g.vertices), None)]
    while stack:
        orig, restrict, new_parent = stack.pop()
        nid = next(counter)
        bag = td.bags[orig] & restrict
        bags[nid] = bag
        parent[nid] = new_parent
        pending = []
        for c in td.children[orig]:
            below = (unions[c] & restrict) - bag
            if not below:
                continue  # subtree adds nothing beyond the bag
            for comp in connected_components(g, within=below):
                anchored = {v for v in bag if g.neighbors(v) & comp}
                pending.append((c, frozenset(comp | anchored), nid))
        stack.extend(reversed(pending))
    return TreeDecomposition(g, 1, parent, bags)


def is_connected_decomposition(td: TreeDecomposition) -> bool:
    g = td.host
    unions = td.subtree_unions()
    for t in td.nodes:
        for c in td.children[t]:
            below = unions[c] - td.bags[t]
            if below:
                if len(connected_components(g, within=below)) != 1:
                    return False
            for v in td.bags[t] & td.bags[c]:
                if not g.neighbors(v) & below:
                    return False
    return True


def binarize(td: TreeDecomposition) -> TreeDecomposition:
    """Give every node at most two children by chaining surplus children
    under duplicates of the original bag (left-leaning).

    Width is unchanged. Every adhesion set B_c ∩ B_parent(c) of ``td``
    survives, and a node t with more than two children adds exactly
    len(children(t)) - 2 adhesion sets equal to B_t (each duplicate to the
    copy above it), so the adhesion becomes the larger of the old adhesion
    and the largest such |B_t|. It is not minimised: no width-preserving
    binarization can keep the adhesion in general (README.md).

    Precondition: ``td`` must be a valid decomposition (see ``stats``)."""
    counter = itertools.count(1)
    parent: dict[NodeId, Optional[NodeId]] = {}
    bags: dict[NodeId, frozenset] = {}
    # (orig, first, new_parent): a copy of orig's bag whose children are
    # orig's children from index `first` on. With more than two left, the
    # copy keeps the first and hands the rest to a duplicate below it.
    # Explicit stack, ids handed out in preorder.
    stack: list[tuple[NodeId, int, Optional[NodeId]]] = [(td.root, 0, None)]
    while stack:
        orig, first, new_parent = stack.pop()
        nid = next(counter)
        bags[nid] = td.bags[orig]
        parent[nid] = new_parent
        kids = td.children[orig]
        if len(kids) - first > 2:
            stack.append((orig, first + 1, nid))
            stack.append((kids[first], 0, nid))
        else:
            stack.extend((c, 0, nid) for c in reversed(kids[first:]))
    return TreeDecomposition(td.host, 1, parent, bags)


def _adjacent_lcas(td: TreeDecomposition, ts: Iterable[NodeId]) -> set:
    """The lcas of the nodes adjacent in post-order among ``ts``.

    Post-order keeps every subtree contiguous, so these are all the
    pairwise lcas of ``ts``, and ``ts`` with them is closed under lca
    (the virtual-tree lemma): |ts| - 1 lca calls instead of |ts|²/2."""
    seq = sorted(ts, key=td._rank.__getitem__)
    return {td.lca(a, b) for a, b in zip(seq, seq[1:])}


def lca_closure(td: TreeDecomposition, b1: Iterable[NodeId]) -> frozenset:
    """b1, the root, and all pairwise lowest common ancestors."""
    marked = set(b1)
    unknown = marked - set(td.nodes)
    if unknown:
        raise InputError(f"unknown nodes {sorted(unknown)}")
    out = marked | {td.root} | _adjacent_lcas(td, marked)
    assert len(out) <= 2 * len(marked) + 1
    return frozenset(out)


@dataclass(frozen=True)
class EdgeComponent:
    """An equivalence class of tree edges: two edges are related when some
    tree path contains both without an interior marked node."""

    edges: frozenset  # of (parent, child) pairs
    nodes: frozenset
    anchors: frozenset  # nodes ∩ marked set
    top: NodeId  # the component node closest to the root


def edge_components(td: TreeDecomposition, b2: Iterable[NodeId]) -> list[EdgeComponent]:
    """The edge components of the lca-closed, root-containing set ``b2``,
    sorted by (depth of top, top, smallest child id among their edges).

    One walk down the tree: an edge whose parent is marked starts a
    component, and every other edge joins its parent edge's."""
    marked = set(b2)
    if td.root not in marked:
        raise InputError("marked set must contain the root")
    if not _adjacent_lcas(td, marked) <= marked:
        raise InputError("marked set must be closed under lca")
    comp_of: dict[NodeId, list] = {}  # child end of an edge -> its component's edges
    groups: list[tuple[NodeId, list]] = []  # (top, edges)
    for t in reversed(td.postorder()):
        p = td.parent[t]
        if p is None:
            continue
        if p in marked:
            groups.append((p, []))
            comp_of[t] = groups[-1][1]
        else:
            comp_of[t] = comp_of[p]
        comp_of[t].append((p, t))
    depth = td.depths()
    groups.sort(key=lambda g: (depth[g[0]], g[0], min(c for _, c in g[1])))
    out = []
    for top, es in groups:
        nodes = frozenset(c for _, c in es) | {top}
        anchors = nodes & marked
        assert len(anchors) <= 2
        out.append(EdgeComponent(frozenset(es), nodes, anchors, top))
    return out


def lowest_heavy_node(
    td: TreeDecomposition, component: EdgeComponent, m: int
) -> tuple[NodeId, frozenset]:
    """The deepest component node whose component-subtree bags exceed m
    vertices, together with that node set. First such node in post-order."""
    if m < 1:
        raise InputError("m must be >= 1")
    # the component's nodes span a subtree, so the tree's post-order
    # filtered to them is the component's own, children ascending
    nodes = component.nodes
    xset: dict[NodeId, set[int]] = {}
    dset: dict[NodeId, set[NodeId]] = {}
    for t in td.postorder():
        if t not in nodes:
            continue
        xs = set(td.bags[t])
        ds = {t}
        for c in td.children[t]:
            if c in nodes:
                xs |= xset[c]
                ds |= dset[c]
        xset[t], dset[t] = xs, ds
        if len(xs) > m:
            return t, frozenset(ds)
    raise NotApplicableError(f"component bags hold {len(xset[component.top])} <= {m} vertices")


# -- treewidth ---------------------------------------------------------------


def compute_decomposition(g: Graph, exact_cap: int = 30) -> TreeDecomposition:
    """A valid rooted decomposition of g: exact minimum width up to
    ``exact_cap`` vertices (branch-and-bound over elimination orders with
    memoized dead ends), min-fill greedy above it.

    It is connected (``is_connected_decomposition``), so the kernels use
    it without ``make_connected``. Node i holds v_i and its neighbours
    among v_{i+1}..v_n in the graph filled by eliminating v_1..v_{i-1}.
    By the elimination-tree lemma (Liu, SIAM J. Matrix Anal. Appl. 1990)
    the vertices below node i, bag included, minus its later neighbours
    are exactly the component of G[v_1..v_i] that holds v_i, and every
    later neighbour in the bag has a neighbour in that component. A node
    with no later neighbour (the last vertex of each component of g but the
    root's) hangs under the root with an empty adhesion, and what lies
    below it is that whole component.

    The min-fill path eliminates the graph once: the tree is built from the
    bags ``_min_fill_order`` records as it goes. The exact path simulates
    the elimination of the order it found (``_decomposition_from_order``)."""
    if g.n == 0:
        raise InputError("cannot decompose the empty graph")
    if g.n <= exact_cap:
        return _decomposition_from_order(g, _exact_elimination_order(g))
    order, bags = _min_fill_order(g)
    return _decomposition_from_bags(g, order, bags)


def _exact_elimination_order(g: Graph) -> list[int]:
    ub_order, ub_bags = _min_fill_order(g)
    ub = max(map(len, ub_bags)) - 1
    lb = _degeneracy_lower_bound(g)
    for w in range(lb, ub):
        order = _order_with_width(g, w)
        if order is not None:
            return order
    return ub_order


def _order_with_width(g: Graph, w: int) -> Optional[list[int]]:
    verts = sorted(g.vertices)
    n = len(verts)
    adj = {v: set(g.neighbors(v)) for v in verts}
    failed: set[frozenset] = set()

    def q_of(eliminated: frozenset, v: int) -> int:
        # vertices outside `eliminated` reachable from v through eliminated ones
        seen = {v}
        out = 0
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in seen:
                    continue
                seen.add(y)
                if y in eliminated:
                    stack.append(y)
                else:
                    out += 1
        return out

    acc: list[int] = []

    def rec(eliminated: frozenset) -> bool:
        rem = [v for v in verts if v not in eliminated]
        if len(rem) <= w + 1:
            acc.extend(rem)
            return True
        if eliminated in failed:
            return False
        cands = []
        for v in rem:
            q = q_of(eliminated, v)
            if q <= w:
                cands.append((q, v))
        cands.sort()
        if cands and cands[0][0] <= 1:
            cands = cands[:1]  # eliminating a (near-)pendant vertex is always safe
        for _, v in cands:
            acc.append(v)
            if rec(eliminated | {v}):
                return True
            acc.pop()
        failed.add(eliminated)
        return False

    return acc if rec(frozenset()) else None


def _min_fill_order(g: Graph) -> tuple[list[int], list[frozenset]]:
    """Greedy min-fill elimination order, with its bags: the i-th bag is
    the i-th vertex and its neighbourhood when it is eliminated, so the
    width is the largest bag less one. Repeatedly eliminate the vertex
    whose neighbourhood misses the fewest edges, ties broken by
    (fill, degree, id). Keys sit in a heap whose stale entries are skipped
    when popped. Eliminating v with neighbourhood N changes the
    neighbourhoods of N only; any other vertex w keeps its own, and its
    fill drops only where a new fill edge ab has both ends adjacent to w.
    So the keys to redo are N and the common neighbours of each fill edge
    added: at most Δ² + Δ keys at O(Δ²) each, where Δ is the largest degree
    of the filled graph.

    A simplicial v (fill 0: N is a clique, as on the pendant and leaf
    vertices of a forest) adds no fill edge, and each w in N keeps
    N − {w} among its neighbours: of the d_w − 1 pairs (v, x) that leave
    w's neighbourhood, |N| − 1 were edges. Its key (f_w, d_w, w) becomes
    (f_w − d_w + |N|, d_w − 1, w), read off the old key in O(1), so such a
    step costs O(|N| log n) (Rose, Tarjan & Lueker 1976). A step with
    fill costs O(Δ⁴ + Δ² log n), so the order costs at most
    O(n · (Δ⁴ + Δ² log n)), against O(n² · Δ²) for rescanning every
    remaining vertex at every step."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}

    def key(v: int) -> tuple[int, int, int]:
        nb = adj[v]
        d = len(nb)
        if d < 2:
            return (0, d, v)
        inner = sum(len(adj[a] & nb) for a in nb) // 2
        return (d * (d - 1) // 2 - inner, d, v)

    current = {v: key(v) for v in adj}
    heap = list(current.values())
    heapq.heapify(heap)
    order = []
    bags = []
    while heap:
        k = heapq.heappop(heap)
        v = k[2]
        if current.get(v) != k:
            continue  # stale entry, or v already eliminated
        del current[v]
        nb = adj.pop(v)
        bags.append(frozenset(nb | {v}))
        order.append(v)
        for a in nb:
            adj[a].discard(v)
        if k[0] == 0:  # simplicial: no fill, and N's keys follow from their old ones
            size = len(nb)
            for w in nb:
                f, d, _ = current[w]
                k = (f - d + size, d - 1, w)
                current[w] = k
                heapq.heappush(heap, k)
            continue
        fill = [(a, b) for a, b in itertools.combinations(nb, 2) if b not in adj[a]]
        for a, b in fill:
            adj[a].add(b)
            adj[b].add(a)
        touched = set(nb)
        for a, b in fill:
            touched |= adj[a] & adj[b]
        for w in touched:
            k = key(w)
            if current[w] != k:
                current[w] = k
                heapq.heappush(heap, k)
    return order, bags


def _degeneracy_lower_bound(g: Graph) -> int:
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    lb = 0
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        lb = max(lb, len(adj[v]))
        for w in adj.pop(v):
            adj[w].discard(v)
    return lb


def _decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """The decomposition of eliminating ``order``: simulates the
    elimination to get the bags."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    bags = []
    for v in order:
        nb = adj.pop(v)
        bags.append(frozenset({v} | nb))
        for a in nb:
            adj[a].discard(v)
        for a, b in itertools.combinations(nb, 2):
            adj[a].add(b)
            adj[b].add(a)
    return _decomposition_from_bags(g, order, bags)


def _decomposition_from_bags(g: Graph, order: list[int], bags: list[frozenset]) -> TreeDecomposition:
    """Node i + 1 holds bags[i], the bag of order[i] when it was eliminated;
    its parent is the node of the first later vertex in that bag, or the
    last node (the root) if there is none."""
    n = len(order)
    pos = {v: i + 1 for i, v in enumerate(order)}
    parent: dict[int, Optional[int]] = {}
    for i in range(1, n):
        later = [pos[w] for w in bags[i - 1] if w != order[i - 1]]
        parent[i] = min(later) if later else n
    parent[n] = None
    return TreeDecomposition(g, n, parent, dict(enumerate(bags, 1)))


# -- PACE-style file format ----------------------------------------------------


def write_td(td: TreeDecomposition, vmap: Optional[dict[int, int]] = None) -> str:
    """``s td <bags> <width+1> <n>`` header, ``b`` lines, then tree edges.
    Nodes are renumbered so the root becomes bag 1."""
    vmap = vmap or vertex_index(td.host)
    order = [td.root]
    for t in order:
        order.extend(td.children[t])  # BFS via list growth
    renum = {t: i + 1 for i, t in enumerate(order)}
    width = max((len(b) for b in td.bags.values()), default=1) - 1
    lines = [f"s td {len(td.bags)} {width + 1} {td.host.n}"]
    for t in order:
        ids = sorted(vmap[v] for v in td.bags[t])
        lines.append("b " + " ".join(str(x) for x in [renum[t]] + ids))
    for p, c in sorted((renum[p], renum[c]) for p, c in td.tree_edges()):
        lines.append(f"{p} {c}")
    return "\n".join(lines) + "\n"


def read_td(text: str, host: Graph) -> TreeDecomposition:
    """Parse the decomposition format against ``host`` (vertex ids 1..n).
    Root is bag 1 unless a ``c root <id>`` directive overrides it."""
    header = None
    bag_lines: dict[int, frozenset] = {}
    edges: list[tuple[int, int]] = []
    root_directive = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "c":
            if len(parts) >= 3 and parts[1] == "root":
                root_directive = parse_int(parts[2], lineno)
            continue
        if parts[0] == "s":
            if header is not None:
                raise InputError(f"line {lineno}: duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise InputError(f"line {lineno}: malformed 's td' header")
            header = tuple(parse_int(x, lineno) for x in parts[2:])
        elif parts[0] == "b":
            if len(parts) < 2:
                raise InputError(f"line {lineno}: bag line without an id")
            bid = parse_int(parts[1], lineno)
            if bid in bag_lines:
                raise InputError(f"line {lineno}: duplicate bag {bid}")
            bag_lines[bid] = frozenset(parse_int(x, lineno) for x in parts[2:])
        else:
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected a tree edge")
            edges.append((parse_int(parts[0], lineno), parse_int(parts[1], lineno)))
    if header is None:
        raise InputError("missing 's td' header")
    nbags, _, nverts = header
    if nverts != host.n:
        raise InputError(f"decomposition is for {nverts} vertices, graph has {host.n}")
    if len(bag_lines) != nbags:
        raise InputError(f"header announces {nbags} bags, found {len(bag_lines)}")
    if len(edges) != max(0, nbags - 1):
        raise InputError("a tree on the bags needs exactly #bags-1 edges")
    root = root_directive if root_directive is not None else min(bag_lines, default=1)
    if root not in bag_lines:
        raise InputError(f"root {root} is not a bag")
    adj: dict[int, list[int]] = {b: [] for b in bag_lines}
    for a, b in edges:
        if a not in adj or b not in adj:
            raise InputError(f"tree edge ({a},{b}) references an unknown bag")
        adj[a].append(b)
        adj[b].append(a)
    parent: dict[int, Optional[int]] = {root: None}
    stack = [root]
    while stack:
        t = stack.pop()
        for nb in adj[t]:
            if nb not in parent:
                parent[nb] = t
                stack.append(nb)
    if set(parent) != set(bag_lines):
        raise InputError("bag tree is not connected")
    return TreeDecomposition(host, root, parent, bag_lines)
