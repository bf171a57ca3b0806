"""Rooted tree decompositions and the transforms the kernels need.

A decomposition is a rooted tree of bags over a host graph. Width,
adhesion and adhesion degree are measured, never assumed. Exact
treewidth is computed by branch-and-bound over elimination orders up to
a size cap; beyond it a min-fill heuristic is used and the stats report
whatever it produced.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional

from .errors import InputError, NotApplicableError
from .graphs import Graph, connected_components, vertex_index

NodeId = int


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
        # reachability from the root certifies the parent map is a tree
        seen = set()
        stack = [root]
        while stack:
            t = stack.pop()
            if t in seen:
                raise InputError("parent map contains a cycle")
            seen.add(t)
            stack.extend(self.children[t])
        if seen != set(self.bags):
            raise InputError("parent map is not connected")

    @property
    def nodes(self):
        return self.bags.keys()

    def tree_edges(self) -> list[tuple[NodeId, NodeId]]:
        return [(p, t) for t, p in self.parent.items() if p is not None]

    def depths(self) -> dict[NodeId, int]:
        d = {self.root: 0}
        stack = [self.root]
        while stack:
            t = stack.pop()
            for c in self.children[t]:
                d[c] = d[t] + 1
                stack.append(c)
        return d

    def subtree_nodes(self, t: NodeId) -> set[NodeId]:
        out = {t}
        stack = [t]
        while stack:
            x = stack.pop()
            for c in self.children[x]:
                out.add(c)
                stack.append(c)
        return out

    def postorder(self) -> list[NodeId]:
        out: list[NodeId] = []
        stack: list[tuple[NodeId, bool]] = [(self.root, False)]
        while stack:
            t, done = stack.pop()
            if done:
                out.append(t)
            else:
                stack.append((t, True))
                for c in reversed(self.children[t]):
                    stack.append((c, False))
        return out

    def subtree_unions(self) -> dict[NodeId, frozenset]:
        """For every node, the union of bags in its subtree."""
        out: dict[NodeId, frozenset] = {}
        for t in self.postorder():
            acc = set(self.bags[t])
            for c in self.children[t]:
                acc |= out[c]
            out[t] = frozenset(acc)
        return out

    def bag_union(self, ts: Iterable[NodeId]) -> frozenset:
        acc: set[int] = set()
        for t in ts:
            acc |= self.bags[t]
        return frozenset(acc)

    def restrict(self, keep: Iterable[int]) -> "TreeDecomposition":
        """Intersect every bag with ``keep``: a decomposition of the induced
        subgraph on ``keep``."""
        ks = set(keep)
        from .graphs import induced_subgraph

        sub = induced_subgraph(self.host, ks & set(self.host.vertices))
        return TreeDecomposition(sub, self.root, self.parent, {t: b & ks for t, b in self.bags.items()})

    def lca(self, a: NodeId, b: NodeId, depth: Optional[dict[NodeId, int]] = None) -> NodeId:
        d = depth or self.depths()
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
    ("connectivity"). One holder index (vertex -> nodes whose bag holds it)
    serves all four checks, so the cost is O(m + Σ|bag|) set operations
    plus sorting the witnesses."""
    g = td.host
    out: list[Violation] = []
    holders: dict[int, set[NodeId]] = {}
    for t, b in td.bags.items():
        for v in b:
            holders.setdefault(v, set()).add(t)
    for v in sorted(g.vertices - holders.keys()):
        out.append(Violation("coverage", v))
    for v in sorted(holders.keys() - g.vertices):
        out.append(Violation("unknown-vertex", v))
    nowhere: set[NodeId] = set()
    for u, v in sorted(g.edges()):
        if holders.get(u, nowhere).isdisjoint(holders.get(v, nowhere)):
            out.append(Violation("edge-coverage", (u, v)))
    # the holders of v induce a forest in the tree; it is one subtree
    # exactly when it has |holders| - 1 edges
    inner_edges: dict[int, int] = dict.fromkeys(holders, 0)
    for t, p in td.parent.items():
        if p is not None:
            for v in td.bags[t] & td.bags[p]:
                inner_edges[v] += 1
    for v in sorted(holders):
        if inner_edges[v] != len(holders[v]) - 1:
            out.append(Violation("connectivity", v))
    return ValidationReport(out)


def stats(td: TreeDecomposition) -> DecompositionStats:
    report = validate(td)
    if not report.ok:
        raise InputError(f"invalid decomposition: {report.violations[:3]}")
    width = max(len(b) for b in td.bags.values()) - 1
    adhesion = 0
    degree = 0
    for t in td.nodes:
        adhs = set()
        for nb in itertools.chain(td.children[t], [td.parent[t]]):
            if nb is not None:
                a = td.bags[t] & td.bags[nb]
                adhs.add(a)
                adhesion = max(adhesion, len(a))
        degree = max(degree, len(adhs))
    return DecompositionStats(width, adhesion, degree)


def make_connected(td: TreeDecomposition) -> TreeDecomposition:
    """Split child subtrees into one copy per component below the parent bag
    and drop adhesion vertices with no neighbor down there. Width and
    adhesion cannot increase; a single top-down pass suffices."""
    g = td.host
    report = validate(td)
    if not report.ok:
        raise InputError(f"invalid decomposition: {report.violations[:3]}")
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
    under duplicates of the original bag (left-leaning)."""
    report = validate(td)
    if not report.ok:
        raise InputError(f"invalid decomposition: {report.violations[:3]}")
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


def lca_closure(td: TreeDecomposition, b1: Iterable[NodeId]) -> frozenset:
    """b1, the root, and all pairwise lowest common ancestors."""
    marked = set(b1)
    unknown = marked - set(td.nodes)
    if unknown:
        raise InputError(f"unknown nodes {sorted(unknown)}")
    depth = td.depths()
    out = set(marked) | {td.root}
    items = sorted(marked)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            out.add(td.lca(a, b, depth))
    # one round of pairwise lcas closes the set
    for a in out:
        for b in out:
            assert td.lca(a, b, depth) in out
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
    marked = set(b2)
    if td.root not in marked:
        raise InputError("marked set must contain the root")
    depth = td.depths()
    for a in sorted(marked):
        for b in sorted(marked):
            if td.lca(a, b, depth) not in marked:
                raise InputError("marked set must be closed under lca")
    edges = td.tree_edges()
    idx = {e: i for i, e in enumerate(edges)}
    dsu = list(range(len(edges)))

    def find(x: int) -> int:
        while dsu[x] != x:
            dsu[x] = dsu[dsu[x]]
            x = dsu[x]
        return x

    def union(x: int, y: int) -> None:
        dsu[find(x)] = find(y)

    incident: dict[NodeId, list[int]] = {}
    for e, i in idx.items():
        incident.setdefault(e[0], []).append(i)
        incident.setdefault(e[1], []).append(i)
    for t, inc in incident.items():
        if t not in marked:
            for i in inc[1:]:
                union(inc[0], i)
    groups: dict[int, list[tuple[NodeId, NodeId]]] = {}
    for e, i in idx.items():
        groups.setdefault(find(i), []).append(e)
    out = []
    for es in groups.values():
        nodes = frozenset(itertools.chain.from_iterable(es))
        anchors = frozenset(nodes & marked)
        top = min(nodes, key=lambda t: (depth[t], t))
        assert len(anchors) <= 2 and top in anchors
        out.append(EdgeComponent(frozenset(es), nodes, anchors, top))
    out.sort(key=lambda c: (depth[c.top], c.top, min(c.nodes)))
    return out


def lowest_heavy_node(
    td: TreeDecomposition, component: EdgeComponent, m: int
) -> tuple[NodeId, frozenset]:
    """The deepest component node whose component-subtree bags exceed m
    vertices, together with that node set. First such node in post-order."""
    if m < 1:
        raise InputError("m must be >= 1")
    comp_children: dict[NodeId, list[NodeId]] = {t: [] for t in component.nodes}
    for p, c in component.edges:
        comp_children[p].append(c)
    for t in comp_children:
        comp_children[t].sort()
    order: list[NodeId] = []
    stack: list[tuple[NodeId, bool]] = [(component.top, False)]
    while stack:
        t, done = stack.pop()
        if done:
            order.append(t)
        else:
            stack.append((t, True))
            for c in reversed(comp_children[t]):
                stack.append((c, False))
    xset: dict[NodeId, set[int]] = {}
    dset: dict[NodeId, set[NodeId]] = {}
    for t in order:
        xs = set(td.bags[t])
        ds = {t}
        for c in comp_children[t]:
            xs |= xset[c]
            ds |= dset[c]
        xset[t], dset[t] = xs, ds
        if len(xs) > m:
            return t, frozenset(ds)
    raise NotApplicableError(f"component bags hold {len(xset[component.top])} <= {m} vertices")


# -- treewidth ---------------------------------------------------------------


def compute_decomposition(
    g: Graph, width_hint: Optional[int] = None, exact_cap: int = 30
) -> TreeDecomposition:
    """A valid rooted decomposition of g: exact minimum width up to
    ``exact_cap`` vertices (branch-and-bound over elimination orders with
    memoized dead ends), min-fill greedy above it."""
    if g.n == 0:
        raise InputError("cannot decompose the empty graph")
    if g.n <= exact_cap:
        order = _exact_elimination_order(g, width_hint)
    else:
        order = _min_fill_order(g)
    return _decomposition_from_order(g, order)


def _exact_elimination_order(g: Graph, width_hint: Optional[int]) -> list[int]:
    ub_order = _min_fill_order(g)
    ub = _width_of_order(g, ub_order)
    lb = _degeneracy_lower_bound(g)
    if width_hint is not None:
        lb = max(lb, 0)
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


def _min_fill_order(g: Graph) -> list[int]:
    """Greedy min-fill elimination order: repeatedly eliminate the vertex
    whose neighbourhood misses the fewest edges, ties broken by
    (fill, degree, id). Keys sit in a heap whose stale entries are skipped
    when popped. Eliminating v with neighbourhood N changes the keys of
    N ∪ N(N) only: at most Δ² + Δ keys at O(Δ²) each, where Δ is the
    largest degree of the filled graph. The order costs
    O(n · (Δ⁴ + Δ² log n)), against O(n² · Δ²) for rescanning every
    remaining vertex at every step."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}

    def key(v: int) -> tuple[int, int, int]:
        nb = adj[v]
        d = len(nb)
        inner = sum(len(adj[a] & nb) for a in nb) // 2
        return (d * (d - 1) // 2 - inner, d, v)

    current = {v: key(v) for v in adj}
    heap = list(current.values())
    heapq.heapify(heap)
    order = []
    while heap:
        k = heapq.heappop(heap)
        v = k[2]
        if current.get(v) != k:
            continue  # stale entry, or v already eliminated
        del current[v]
        nb = adj.pop(v)
        for a in nb:
            adj[a].discard(v)
        for a, b in itertools.combinations(nb, 2):
            adj[a].add(b)
            adj[b].add(a)
        order.append(v)
        touched = set(nb)
        for a in nb:
            touched |= adj[a]
        for w in touched:
            k = key(w)
            if current[w] != k:
                current[w] = k
                heapq.heappush(heap, k)
    return order


def _degeneracy_lower_bound(g: Graph) -> int:
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    lb = 0
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        lb = max(lb, len(adj[v]))
        for w in adj.pop(v):
            adj[w].discard(v)
    return lb


def _width_of_order(g: Graph, order: list[int]) -> int:
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    width = 0
    for v in order:
        nb = adj.pop(v)
        width = max(width, len(nb))
        for a in nb:
            adj[a].discard(v)
        for a, b in itertools.combinations(nb, 2):
            adj[a].add(b)
            adj[b].add(a)
    return width


def _decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    pos = {v: i for i, v in enumerate(order)}
    bags: dict[int, frozenset] = {}
    for i, v in enumerate(order):
        nb = adj.pop(v)
        bags[i + 1] = frozenset({v} | nb)
        for a in nb:
            adj[a].discard(v)
        for a, b in itertools.combinations(nb, 2):
            adj[a].add(b)
            adj[b].add(a)
    n = len(order)
    parent: dict[int, Optional[int]] = {}
    for i in range(1, n + 1):
        v = order[i - 1]
        later = [pos[w] + 1 for w in bags[i] if w != v]
        if i == n:
            parent[i] = None
        elif later:
            parent[i] = min(later)
        else:
            parent[i] = n
    return TreeDecomposition(g, n, parent, bags)


def check_unbreakable(
    g: Graph, x: Iterable[int], q: int, h: int, subset_budget: int = 2_000_000
) -> bool:
    """Brute-force the unbreakability of ``x``: every separation of order at
    most h leaves at most q vertices of x strictly on one side."""
    if q < 0 or h < 0:
        raise InputError("q and h must be >= 0")
    xs = set(x)
    if not xs <= set(g.vertices):
        raise InputError("x must be a vertex subset")
    n = g.n
    total_subsets = sum(comb(n, i) for i in range(min(h, n) + 1))
    if total_subsets > subset_budget:
        raise NotApplicableError(f"{total_subsets} separator candidates exceed the cap")
    verts = sorted(g.vertices)
    for size in range(min(h, n) + 1):
        for cut in itertools.combinations(verts, size):
            cs = set(cut)
            counts = [len(c & xs) for c in connected_components(g, within=set(verts) - cs)]
            total = sum(counts)
            if total <= 2 * q + 1:
                continue
            bits = 1
            for c in counts:
                bits |= bits << c
            for s in range(q + 1, total - q):
                if (bits >> s) & 1:
                    return False
    return True


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
                root_directive = int(parts[2])
            continue
        if parts[0] == "s":
            if header is not None:
                raise InputError(f"line {lineno}: duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise InputError(f"line {lineno}: malformed 's td' header")
            header = (int(parts[2]), int(parts[3]), int(parts[4]))
        elif parts[0] == "b":
            bid = int(parts[1])
            if bid in bag_lines:
                raise InputError(f"line {lineno}: duplicate bag {bid}")
            bag_lines[bid] = frozenset(int(x) for x in parts[2:])
        else:
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected a tree edge")
            edges.append((int(parts[0]), int(parts[1])))
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
