"""Undirected simple graphs with stable vertex identities.

Vertices are positive integers handed out by the graph and never reused,
so vertex sets recorded before a deletion stay meaningful afterwards.
Paths are plain tuples of vertex ids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Iterator, Optional

from .errors import InputError, NotApplicableError

Path = tuple  # a simple path, stored as its vertex sequence


class Graph:
    """Adjacency-set graph. No self-loops, no parallel edges."""

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self._next_id = 1
        self._sorted_adj: Optional[dict[int, tuple[int, ...]]] = None

    @classmethod
    def from_edges(cls, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        g = cls()
        for v in vertices:
            g._insert_vertex(v)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def _insert_vertex(self, v: int) -> None:
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise InputError(f"vertex ids are positive integers, got {v!r}")
        if v in self._adj:
            raise InputError(f"duplicate vertex {v}")
        self._sorted_adj = None
        self._adj[v] = set()
        if v >= self._next_id:
            self._next_id = v + 1

    def add_vertex(self) -> int:
        v = self._next_id
        self._sorted_adj = None
        self._adj[v] = set()
        self._next_id = v + 1
        return v

    def add_vertices(self, count: int) -> tuple[int, ...]:
        return tuple(self.add_vertex() for _ in range(count))

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise InputError(f"self-loop at {u}")
        if u not in self._adj or v not in self._adj:
            raise InputError(f"edge ({u},{v}) references an unknown vertex")
        self._sorted_adj = None
        self._adj[u].add(v)
        self._adj[v].add(u)

    def delete_edge(self, u: int, v: int) -> None:
        if v not in self._adj.get(u, ()):
            raise InputError(f"edge ({u},{v}) not present")
        self._sorted_adj = None
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def delete_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise InputError(f"unknown vertex {v}")
        self._sorted_adj = None
        for w in self._adj.pop(v):
            self._adj[w].discard(v)

    def delete_vertices(self, vs: Iterable[int]) -> None:
        for v in list(vs):
            self.delete_vertex(v)

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(s) for s in self._adj.values()) // 2

    @property
    def vertices(self):
        return self._adj.keys()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in self._adj:
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: int) -> set[int]:
        """The adjacency set of ``v``. Treat as read-only."""
        if v not in self._adj:
            raise InputError(f"unknown vertex {v}")
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def sorted_adjacency(self) -> dict[int, tuple[int, ...]]:
        """Every vertex's neighbours in ascending order. Built on first use
        and kept until the graph next changes, so the many oracle calls
        made on one graph version share it. Treat as read-only."""
        if self._sorted_adj is None:
            self._sorted_adj = {v: tuple(sorted(s)) for v, s in self._adj.items()}
        return self._sorted_adj

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: set(s) for v, s in self._adj.items()}
        g._next_id = self._next_id
        return g

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self):
        raise TypeError("Graph is mutable and unhashable")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """The subgraph on vertex set ``s`` with ids preserved."""
    keep = set(s)
    unknown = keep.difference(g._adj)  # one lookup per element of s
    if unknown:
        raise InputError(f"unknown vertices {sorted(unknown)}")
    sub = Graph()
    sub._adj = {v: g.neighbors(v) & keep for v in keep}
    sub._next_id = g._next_id
    return sub


def open_neighborhood(g: Graph, s: Iterable[int]) -> set[int]:
    """All vertices outside ``s`` adjacent to some vertex of ``s``."""
    inside = set(s)
    unknown = inside.difference(g._adj)  # one lookup per element of s
    if unknown:
        raise InputError(f"unknown vertices {sorted(unknown)}")
    out: set[int] = set()
    for v in inside:
        out |= g.neighbors(v)
    return out - inside


def closed_neighborhood(g: Graph, s: Iterable[int]) -> set[int]:
    inside = set(s)
    return open_neighborhood(g, inside) | inside


@dataclass(frozen=True)
class Separation:
    """A separation (A, B) held as its region A∖B and its cut A∩B. B is
    every other vertex of the graph, so A∪B covers the graph by
    construction, and no edge may leave the region except into the cut.
    ``branch`` records which construction produced it."""

    region: frozenset
    cut: frozenset
    branch: Optional[str] = field(default=None, compare=False)

    @property
    def order(self) -> int:
        return len(self.cut)


def check_separation(g: Graph, sep: Separation) -> bool:
    """Total predicate: is ``sep`` a separation of g? Its region and cut
    are disjoint sets of g's vertices and N(region) ⊆ cut. False for an id
    g lacks. O(|region| + |cut| + the edges at region)."""
    region, cut = frozenset(sep.region), frozenset(sep.cut)
    if not region.isdisjoint(cut) or region.difference(g._adj) or cut.difference(g._adj):
        return False
    return open_neighborhood(g, region) <= cut


def is_simple_path(g: Graph, p: Iterable[int]) -> bool:
    seq = tuple(p)
    if not seq or len(set(seq)) != len(seq):
        return False
    if any(not g.has_vertex(v) for v in seq):
        return False
    return all(g.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1))


def traverses(p: Iterable[int], a: Iterable[int]) -> list[Path]:
    """Maximal subpaths of ``p`` that contain a vertex of ``a`` and have all
    internal vertices in ``a``, in order of occurrence along ``p``.

    Each returned subpath ends either at an endpoint of ``p`` or at the
    vertex just outside ``a``; consecutive traverses may share that vertex.
    """
    seq = tuple(p)
    inside = set(a)
    out: list[Path] = []
    i, n = 0, len(seq)
    while i < n:
        if seq[i] in inside:
            j = i
            while j + 1 < n and seq[j + 1] in inside:
                j += 1
            lo = i - 1 if i > 0 else i
            hi = j + 1 if j + 1 < n else j
            out.append(seq[lo : hi + 1])
            i = j + 1
        else:
            i += 1
    return out


def is_guarded(g: Graph, p: Iterable[int], a: Iterable[int], z: Iterable[int]) -> bool:
    """True iff ``p`` lies inside ``a`` or every a-traverse of ``p`` has an
    endpoint in ``z``. Requires z ⊆ N(a)."""
    inside = set(a)
    guard = set(z)
    if not guard <= open_neighborhood(g, inside):
        raise InputError("guard is not a subset of the region's neighborhood")
    seq = tuple(p)
    if set(seq) <= inside:
        return True
    return all(t[0] in guard or t[-1] in guard for t in traverses(seq, inside))


def brute_force_k_path(g: Graph, k: int, cap: int = 32) -> Optional[Path]:
    """The first path ``iter_k_paths`` yields, or None. Reference oracle;
    capped at ``cap`` vertices."""
    if g.n > cap:
        raise NotApplicableError(f"graph has {g.n} > {cap} vertices")
    return next(iter_k_paths(g, k), None)


def iter_k_paths(g: Graph, k: int) -> Iterator[Path]:
    """Yield every simple path on exactly k vertices (each direction once).

    Explicit-stack DFS over partial paths, from each start vertex and over
    neighbours in ascending order. A branch is cut when the vertices still
    reachable from its head cannot complete the path; that cuts only
    branches with no path below them, so the paths and their order are
    those of the unpruned search.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    adj = {v: sorted(g.neighbors(v)) for v in sorted(g.vertices)}

    def reach_count(x: int, on_path: set[int]) -> int:
        seen = {x}
        stack = [x]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen and w not in on_path:
                    seen.add(w)
                    stack.append(w)
        return len(seen) - 1

    for s in adj:
        path, on_path = [s], {s}
        branches: list[Iterator[int]] = []
        while True:
            # the path has just grown to its current head
            need = k - len(path)
            if need == 0:
                yield tuple(path)
            # on backtracking to a level, on_path is as it was here, so the
            # free neighbours can be listed once
            grow = need > 0 and reach_count(path[-1], on_path) >= need
            free = [w for w in adj[path[-1]] if w not in on_path] if grow else []
            branches.append(iter(free))
            while branches:
                w = next(branches[-1], None)
                if w is not None:
                    break
                branches.pop()
                on_path.remove(path.pop())
            if not branches:
                break
            path.append(w)
            on_path.add(w)


def connected_components(g: Graph, within: Optional[Iterable[int]] = None) -> list[set[int]]:
    """Components of g (or of the induced subgraph on ``within``),
    sorted by smallest member."""
    pool = set(g.vertices) if within is None else set(within)
    comps = []
    while pool:
        s = min(pool)
        comp = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for w in g.neighbors(x):
                if w in pool and w not in comp:
                    comp.add(w)
                    stack.append(w)
        pool -= comp
        comps.append(comp)
    comps.sort(key=min)
    return comps


def has_matching(g: Graph, avoid, size: int, mate: Optional[dict[int, int]] = None) -> bool:
    """Does G - avoid have a matching of ``size`` edges?

    A greedy pass answers most yes-instances on its own, and its maximal
    matching rules out a size above twice its own. Between the two,
    Edmonds' augmenting-path search with blossom shrinking (*Paths,
    trees, and flowers*, 1965) grows the greedy matching one exposed root
    at a time. A root whose search fails never gains an augmenting path
    later, so it is dropped for good, and the search stops once the
    matching reaches ``size`` or the exposed roots still untried cannot
    lift it there.

    ``mate``, if given, is a matching of G - avoid (each matched vertex
    maps to its partner) to start from; it is extended in place, so a
    caller that asks again after avoiding more vertices can drop the pairs
    those touch and keep the rest.
    """
    if size <= 0:
        return True
    adj = g.sorted_adjacency()
    if mate is None:
        mate = {}
    matched = len(mate) // 2
    if matched >= size:
        return True
    for v, nbrs in adj.items():
        if v in avoid or v in mate:
            continue
        for w in nbrs:
            if w not in mate and w not in avoid:
                mate[v], mate[w] = w, v
                matched += 1
                if matched == size:
                    return True
                break
    # the greedy matching is maximal, and a maximum one has at most twice
    # its edges: each edge of the maximum one touches a greedy edge
    if 2 * matched < size:
        return False
    roots = [v for v in adj if v not in avoid and v not in mate]
    left = len(roots)  # exposed vertices not yet dropped
    for root in roots:
        if root in mate:
            continue  # matched as the far end of an earlier augmenting path
        if matched + left // 2 < size:
            return False
        if _augment(adj, avoid, mate, root):
            matched += 1
            left -= 2
            if matched == size:
                return True
        else:
            left -= 1
    return False


def _augment(adj: dict, avoid, mate: dict[int, int], root: int) -> bool:
    """One Edmonds search from the exposed ``root``: grow an alternating
    tree, shrinking each odd cycle into its base, and flip ``mate`` along
    the first augmenting path found. All state lives in dicts keyed by the
    tree's own vertices, so a search costs nothing outside its tree."""
    base = {root: root}  # every tree vertex -> the base of its blossom
    parent: dict[int, int] = {}  # odd vertices, and even ones inside a blossom
    outer = {root}
    queue = [root]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for to in adj[v]:
            if to in avoid or base[v] == base.get(to, to) or mate.get(v) == to:
                continue
            if to == root or (to in mate and mate[to] in parent):
                # an edge between two outer vertices closes an odd cycle
                on_root_path = set()
                a = v
                while True:
                    a = base[a]
                    on_root_path.add(a)
                    if a == root:
                        break
                    a = parent[mate[a]]
                b = to
                while base[b] not in on_root_path:
                    b = parent[mate[base[b]]]
                top = base[b]
                blossom: set[int] = set()
                for x, child in ((v, to), (to, v)):
                    while base[x] != top:
                        blossom.add(base[x])
                        blossom.add(base[mate[x]])
                        parent[x] = child
                        child = mate[x]
                        x = parent[child]
                for x in base:
                    if base[x] in blossom:
                        base[x] = top
                        if x not in outer:
                            outer.add(x)
                            queue.append(x)
            elif to not in parent:
                parent[to] = v
                if to not in mate:
                    while to is not None:
                        pv = parent[to]
                        nxt = mate.get(pv)
                        mate[to], mate[pv] = pv, to
                        to = nxt
                    return True
                w = mate[to]
                base[to], base[w] = to, w
                outer.add(w)
                queue.append(w)
    return False


def small_separators(g: Graph, h: int, budget: int) -> Iterator[set[int]]:
    """Every vertex set of size at most h, smallest first, then in
    lexicographic order of the sorted vertices. Raises NotApplicableError
    before the first cut when there are more than ``budget`` of them."""
    n = g.n
    total = sum(comb(n, i) for i in range(min(h, n) + 1))
    if total > budget:
        raise NotApplicableError(f"{total} separator candidates exceed the cap")
    verts = sorted(g.vertices)
    for size in range(min(h, n) + 1):
        for cut in itertools.combinations(verts, size):
            yield set(cut)


def vertex_index(g: Graph) -> dict[int, int]:
    """Map vertex ids to 1..n in ascending order (text format ids)."""
    return {v: i + 1 for i, v in enumerate(sorted(g.vertices))}


def write_graph_text(g: Graph) -> str:
    """Text format: ``p <n> <m>`` header, then one ``<u> <v>`` line per edge
    with 1-based ids in ascending order. Sparse ids are remapped."""
    idx = vertex_index(g)
    lines = [f"p {g.n} {g.m}"]
    mapped = sorted((min(idx[u], idx[v]), max(idx[u], idx[v])) for u, v in g.edges())
    lines.extend(f"{u} {v}" for u, v in mapped)
    return "\n".join(lines) + "\n"


def parse_int(token: str, lineno: int) -> int:
    """An integer token of a text file; InputError naming the line if not."""
    try:
        return int(token)
    except ValueError:
        raise InputError(f"line {lineno}: expected an integer, got {token!r}") from None


def read_graph_text(text: str) -> Graph:
    """Parse the text format of ``write_graph_text``. Rejects non-integer
    tokens, a negative header count, an edge given twice, in either
    orientation, a self-loop and an endpoint outside 1..n, each with its
    line number."""
    n = m = None
    edges: dict[tuple[int, int], tuple[int, int, int]] = {}  # (min, max) -> as written, line
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate header")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: malformed header")
            n, m = parse_int(parts[1], lineno), parse_int(parts[2], lineno)
            if n < 0 or m < 0:
                raise InputError(f"line {lineno}: negative count in header")
        else:
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected an edge line")
            u, v = parse_int(parts[0], lineno), parse_int(parts[1], lineno)
            key = (min(u, v), max(u, v))
            if key in edges:
                raise InputError(f"line {lineno}: repeated edge ({u},{v})")
            edges[key] = (u, v, lineno)
    if n is None:
        raise InputError("missing 'p <n> <m>' header")
    if m != len(edges):
        raise InputError(f"header announces {m} edges, found {len(edges)}")
    g = Graph.from_edges(range(1, n + 1))
    for u, v, lineno in edges.values():
        try:
            g.add_edge(u, v)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return g
