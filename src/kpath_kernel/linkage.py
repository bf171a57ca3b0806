"""Exact k-linkage solving.

An instance asks for one path per request. A request names at most two
terminals; its path must meet the terminal set exactly in those vertices,
and only at its endpoints. Paths are disjoint on non-terminals, terminals
are shared exactly by the paths whose requests name them, and the paths
together cover exactly ``k_prime`` distinct vertices.

Asking with no terminals and a single empty request is exactly the
k-path question, which is how the kernel drivers use this module.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, InputError, NotApplicableError, OracleFaultError
from .graphs import Graph, Path, connected_components, has_matching, is_simple_path

Request = frozenset
Solution = list  # list[Path], aligned with the instance's request order
LinkageSolver = Callable[["LinkageInstance"], Optional[Solution]]


@dataclass
class LinkageInstance:
    graph: Graph
    k_prime: int
    terminals: frozenset
    requests: tuple[Request, ...]

    def validate(self) -> None:
        if isinstance(self.k_prime, bool) or not isinstance(self.k_prime, int):
            raise InputError(f"k_prime must be an integer, got {self.k_prime!r}")
        if self.k_prime < 0:
            raise InputError("k_prime must be >= 0")
        if not self.terminals <= self.graph.vertices:
            raise InputError("terminals must be vertices of the graph")
        for r in self.requests:
            if len(r) > 2:
                raise InputError(f"request {sorted(r)} has more than two terminals")
            if not r <= self.terminals:
                raise InputError(f"request {sorted(r)} references a non-terminal")


def validate_solution(inst: LinkageInstance, sol: Optional[Sequence[Path]]) -> bool:
    """True iff ``sol`` is a feasible solution of ``inst``."""
    if sol is None or len(sol) != len(inst.requests):
        return False
    g, terms = inst.graph, set(inst.terminals)
    nonterm_owner: dict[int, int] = {}
    covered: set[int] = set()
    for i, p in enumerate(sol):
        if not is_simple_path(g, p):
            return False
        on_terms = set(p) & terms
        if on_terms != set(inst.requests[i]):
            return False
        if any(v in on_terms for v in p[1:-1]):
            return False
        for v in p:
            if v not in terms:
                if nonterm_owner.setdefault(v, i) != i:
                    return False
        covered.update(p)
    return len(covered) == inst.k_prime


def solve_linkage(inst: LinkageInstance, node_budget: Optional[int] = None) -> Optional[Solution]:
    """Exact branch-and-bound search.

    Counting rules out what it can before any search: the instance needs
    enough non-terminals, and G - T needs a matching of
    ceil((k' - |union of requests| - #requests) / 2) edges (for the plain
    k-path question, k <= 2*nu(G) + 1). Requests are then processed
    most-constrained first (pairs, then single endpoints, then free
    paths). The search tracks the number of non-terminal vertices still
    to be placed; branches are cut when that budget cannot be met by the
    remaining requests or when a pair's endpoints are no longer connected
    through unused non-terminals.

    Each request is a generator that yields once per route it finds, and
    the search is a list of these generators, one per request placed, so
    neither the path length nor the number of requests meets Python's
    recursion limit. Exceeding ``node_budget`` expansions raises, it never
    mis-answers.
    """
    inst.validate()
    g = inst.graph
    reqs = inst.requests
    if not reqs:
        return [] if inst.k_prime == 0 else None
    plan = _plan(g, inst.terminals, inst.k_prime, reqs)
    if plan is None:
        return None
    free_total, order, suffix_lb = plan
    adj = g.sorted_adjacency()
    blocked = set(inst.terminals)
    spent = [0]
    limit = sys.maxsize if node_budget is None else node_budget
    paths: list[Optional[Path]] = [None] * len(reqs)
    last = len(order) - 1

    def routes(pos: int, free: int) -> Iterator[int]:
        """Route request ``order[pos]`` in every way that leaves enough of
        the ``free`` non-terminals for the requests after it (the last
        request takes exactly what is left). Yields the count left, with
        the route in ``paths`` and its vertices blocked until resumed."""
        i = order[pos]
        r = reqs[i]
        room = free - suffix_lb[pos + 1]
        low = room if pos == last else 0
        if len(r) == 2:
            u, v = sorted(r)
            if _route(adj, blocked, u, v) is None:
                return
            seq: list[int] = []
            for _ in _grow(adj, blocked, u, seq, low, room, g.neighbors(v), spent, limit):
                paths[i] = (u, *seq, v)
                yield free - len(seq)
        elif len(r) == 1:
            (u,) = r
            seq = []
            for _ in _grow(adj, blocked, u, seq, low, room, None, spent, limit):
                paths[i] = (u, *seq)
                yield free - len(seq)
        else:
            for s in sorted(g.vertices):
                if s in blocked:
                    continue
                blocked.add(s)
                seq = [s]
                for _ in _grow(adj, blocked, s, seq, low, room, None, spent, limit):
                    # free paths are direction-symmetric: keep one orientation
                    if len(seq) == 1 or seq[0] < seq[-1]:
                        paths[i] = tuple(seq)
                        yield free - len(seq)
                blocked.remove(s)

    placed = [routes(0, free_total)]
    while placed:
        left = next(placed[-1], None)
        if left is None:
            placed.pop()
        elif len(placed) == len(order):
            return paths
        else:
            placed.append(routes(len(placed), left))
    return None


def pack_paths(inst: LinkageInstance) -> Iterator[Path]:
    """Greedy internally disjoint paths for an instance with one request
    naming one or two terminals: the path ``solve_linkage`` returns, then
    the one it returns once that path's interior joins the terminals, and
    so on until it returns None. A path with no interior ends the packing,
    as forbidding nothing would find it again. Paths start at the request's
    smaller terminal.

    One search serves the whole packing. Adding path i's interior to the
    terminals turns the search tree into its restriction: each branch
    through a new terminal is cut and the rest keep their order. Search i
    stopped at the first witness in that order and path i's first hop is
    now cut, so search i+1 is search i resumed at the next first hop, once
    the counting tests pass for the new terminal set.

    The counting tests are kept from one path to the next, not redone. The
    matching of G - T that the last test found loses only the pairs that
    touch the new interior, and ``has_matching`` extends what is left. The
    u-v route the last reachability test found still joins u to v unless
    the new interior hits it; only then is a route searched again.
    """
    inst.validate()
    if len(inst.requests) != 1 or not inst.requests[0]:
        raise InputError("packing needs exactly one request, naming a terminal")
    g, k_prime, reqs = inst.graph, inst.k_prime, inst.requests
    u, *rest = sorted(reqs[0])
    v = rest[0] if rest else None
    need = k_prime - len(reqs[0])
    terms = set(inst.terminals)
    adj = g.sorted_adjacency()
    blocked = set(terms)
    near = None if v is None else g.neighbors(v)
    mate: dict[int, int] = {}
    route: Optional[set] = set() if v is None else _route(adj, blocked, u, v)
    if route is None or _plan(g, terms, k_prime, reqs, mate) is None:
        return
    seq: list[int] = []
    search = _grow(adj, blocked, u, seq, need, need, near, [0], sys.maxsize)
    if next(search, None) is None:
        return
    while True:
        path = (u, *seq) if v is None else (u, *seq, v)
        yield path
        if len(path) <= 2:
            return
        # the interior stays blocked; a one-terminal path's far end is free
        if v is None:
            blocked.remove(seq[-1])
        interior = path[1:-1]
        terms.update(interior)
        for x in interior:
            if x in mate:
                del mate[mate.pop(x)]
        if not route.isdisjoint(interior):
            route = _route(adj, blocked, u, v)
        # of _plan's tests, only these two can fail for a larger terminal set
        if route is None or need > g.n - len(terms) or not has_matching(g, terms, need // 2, mate):
            return
        try:
            search.send(True)
        except StopIteration:
            return


def _plan(g: Graph, terms, k_prime: int, reqs, mate=None) -> Optional[tuple[int, list[int], list[int]]]:
    """Counting tests that rule an instance out before any search, else
    the search plan: the free vertices to place, the request order, and
    the fewest free vertices the requests from each position on need.
    ``mate`` is a matching of G - T for ``has_matching`` to start from."""
    union_terms = frozenset().union(*reqs)
    free_total = k_prime - len(union_terms)
    if free_total < 0:
        return None
    if free_total > g.n - len(terms):  # the non-terminals, which paths may use
        return None
    # each request's non-terminal segment is a path of c vertices in G - T,
    # which holds floor(c/2) >= (c-1)/2 disjoint edges
    if not has_matching(g, terms, (free_total - len(reqs) + 1) // 2, mate):
        return None
    order = sorted(range(len(reqs)), key=lambda i: (-len(reqs[i]), sorted(reqs[i]), i))
    lbs = []
    for i in order:
        r = reqs[i]
        if len(r) == 2:
            u, v = sorted(r)
            lbs.append(0 if g.has_edge(u, v) else 1)
        else:
            lbs.append(0 if len(r) == 1 else 1)
    suffix_lb = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix_lb[i] = suffix_lb[i + 1] + lbs[i]
    if free_total < suffix_lb[0]:
        return None
    return free_total, order, suffix_lb


def _route(adj: dict, blocked: set, u: int, v: int) -> Optional[set]:
    """The inner vertices of one path from u to v through unblocked
    vertices, or None if there is no such path."""
    parent = {u: u}
    stack = [u]
    while stack:
        x = stack.pop()
        for w in adj[x]:
            if w == v:
                route = set()
                while x != u:
                    route.add(x)
                    x = parent[x]
                return route
            if w not in parent and w not in blocked:
                parent[w] = x
                stack.append(w)
    return None


def _grow(adj: dict, blocked: set, head: int, seq: list, low: int, room: int, near, spent: list, limit: int):
    """Extend ``seq`` depth first from ``head``, its last vertex (or, while
    it is empty, the request's terminal), through unblocked vertices,
    neighbours in ascending order. Yields at every node where a route may
    stop: ``low <= len(seq)`` and, if ``near`` is given, ``head`` lies in
    it. A node grows only while ``len(seq) < room``. A vertex is blocked
    while on ``seq``. Resumed by ``send(True)``, the search leaves the
    route's blocks to the caller and goes on from the root's next
    neighbour. ``spent`` counts nodes, and more than ``limit`` raises."""
    c = base = len(seq)
    stack: list[Iterator[int]] = []  # one neighbour iterator per inner node on the path
    while True:
        spent[0] += 1
        if spent[0] > limit:
            raise BudgetExceededError(f"exceeded {limit} expansions")
        if c >= low and (near is None or head in near) and (yield True):
            del stack[1:]
            del seq[base:]
            c = base
        elif c < room:
            stack.append(iter(adj[head]))
        elif c > base:
            blocked.remove(seq.pop())
            c -= 1
        while stack:
            for w in stack[-1]:
                if w not in blocked:
                    break
            else:
                stack.pop()
                if stack:
                    blocked.remove(seq.pop())
                    c -= 1
                continue
            break
        else:
            return
        blocked.add(w)
        seq.append(w)
        c += 1
        head = w


def brute_force_linkage(inst: LinkageInstance, cap: int = 16) -> Optional[Solution]:
    """Independent reference solver: enumerate every tuple of satisfying
    paths, request by request, and keep the first feasible one."""
    inst.validate()
    if inst.graph.n > cap:
        raise NotApplicableError(f"graph has {inst.graph.n} > {cap} vertices")
    g = inst.graph
    reqs = inst.requests
    if not reqs:
        return [] if inst.k_prime == 0 else None
    terms = set(inst.terminals)
    pool = sorted(set(g.vertices) - terms)
    adj = {v: sorted(g.neighbors(v)) for v in g.vertices}
    used: set[int] = set()
    paths: list[Optional[Path]] = [None] * len(reqs)

    def paths_for(r: Request) -> list[Path]:
        out: list[Path] = []
        if len(r) == 2:
            u, v = sorted(r)

            def dfs2(x: int, seq: list[int]) -> None:
                for w in adj[x]:
                    if w == v:
                        out.append((u, *seq, v))
                    elif w in pool and w not in used and w not in seq:
                        seq.append(w)
                        dfs2(w, seq)
                        seq.pop()

            dfs2(u, [])
        elif len(r) == 1:
            (u,) = r
            out.append((u,))

            def dfs1(x: int, seq: list[int]) -> None:
                for w in adj[x]:
                    if w in pool and w not in used and w not in seq:
                        seq.append(w)
                        out.append((u, *seq))
                        dfs1(w, seq)
                        seq.pop()

            dfs1(u, [])
        else:
            def dfs0(x: int, seq: list[int]) -> None:
                for w in adj[x]:
                    if w in pool and w not in used and w not in seq:
                        seq.append(w)
                        out.append(tuple(seq))
                        dfs0(w, seq)
                        seq.pop()

            for s in pool:
                if s not in used:
                    out.append((s,))
                    dfs0(s, [s])
        return out

    def rec(i: int, covered: frozenset) -> bool:
        if len(covered) > inst.k_prime:
            return False
        if i == len(reqs):
            return len(covered) == inst.k_prime
        for p in paths_for(reqs[i]):
            fresh = [w for w in p if w not in terms]
            paths[i] = p
            used.update(fresh)
            if rec(i + 1, covered | frozenset(p)):
                return True
            used.difference_update(fresh)
            paths[i] = None
        return False

    if rec(0, frozenset()):
        return [p for p in paths]  # type: ignore[list-item]
    return None


def decision_to_witness(
    decider: Callable[[LinkageInstance], bool], inst: LinkageInstance
) -> Optional[Solution]:
    """Turn a yes/no oracle into a witness-producing one.

    Deletes edges, then request-free vertices, as long as the decider keeps
    answering yes. In the surviving minimal graph every edge and vertex lies
    on every solution, so the solution paths can be read off its structure.
    Uses at most |E| + |V| decision calls beyond the first.
    """
    inst.validate()
    if not decider(inst):
        return None
    work = inst.graph.copy()
    terms = set(inst.terminals)
    req_union = set().union(*inst.requests) if inst.requests else set()

    def ask(g2: Graph, t2: set[int]) -> bool:
        return decider(LinkageInstance(g2, inst.k_prime, frozenset(t2), inst.requests))

    for u, v in sorted(inst.graph.edges()):
        trial = work.copy()
        trial.delete_edge(u, v)
        if ask(trial, terms):
            work = trial
    for v in sorted(inst.graph.vertices):
        if v in req_union:
            continue
        trial = work.copy()
        trial.delete_vertex(v)
        t2 = terms - {v}
        if ask(trial, t2):
            work, terms = trial, t2

    sol = _read_off_solution(work, terms & set(work.vertices), inst.requests)
    if sol is None or not validate_solution(inst, sol):
        raise OracleFaultError("decider answers do not describe a consistent solution")
    return sol


def _read_off_solution(
    h: Graph, terms: set[int], requests: tuple[Request, ...]
) -> Optional[Solution]:
    """Decompose a minimal surviving graph into one path per request."""
    nonterm = [v for v in h.vertices if v not in terms]
    if any(h.degree(v) > 2 for v in nonterm):
        return None
    spelled: list[tuple[Request, Path]] = []
    for u, v in sorted(h.edges()):
        if u in terms and v in terms:
            spelled.append((frozenset({u, v}), (u, v)))
    for comp in connected_components(h, within=nonterm):
        seg = _order_segment(h, comp, terms)
        if seg is None:
            return None
        spelled.append(seg)

    want: dict[Request, list[int]] = {}
    for i, r in enumerate(requests):
        want.setdefault(r, []).append(i)
    assign: list[Optional[Path]] = [None] * len(requests)
    for r, p in spelled:
        slots = want.get(r)
        if not slots:
            return None
        assign[slots.pop(0)] = p
    # leftovers are requests whose paths add no vertices of their own: a bare
    # terminal, or a duplicate pair request reusing a surviving edge
    for r, slots in want.items():
        for i in slots:
            if len(r) == 1:
                (t,) = r
                if t in terms:
                    assign[i] = (t,)
                    continue
            if len(r) == 2:
                u, v = sorted(r)
                if h.has_edge(u, v):
                    assign[i] = (u, v)
                    continue
            return None
    return assign  # type: ignore[return-value]


def _order_segment(h: Graph, comp: set[int], terms: set[int]) -> Optional[tuple[Request, Path]]:
    """Lay out one non-terminal component as a path and attach its
    terminal endpoints; None if the shape is not a path."""
    if len(comp) == 1:
        (v,) = comp
        ts = sorted(w for w in h.neighbors(v) if w in terms)
        if len(ts) > 2:
            return None
        if len(ts) == 2:
            return (frozenset(ts), (ts[0], v, ts[1]))
        if len(ts) == 1:
            return (frozenset(ts), (ts[0], v))
        return (frozenset(), (v,))
    ends = sorted(v for v in comp if len(h.neighbors(v) & comp) <= 1)
    if len(ends) != 2:
        return None  # a cycle, or something stranger
    seq = [ends[0]]
    seen = {ends[0]}
    while True:
        nxt = [w for w in h.neighbors(seq[-1]) if w in comp and w not in seen]
        if not nxt:
            break
        if len(nxt) > 1:
            return None
        seq.append(nxt[0])
        seen.add(nxt[0])
    if len(seq) != len(comp):
        return None
    t_first = sorted(w for w in h.neighbors(seq[0]) if w in terms)
    t_last = sorted(w for w in h.neighbors(seq[-1]) if w in terms)
    if len(t_first) > 1 or len(t_last) > 1:
        return None
    for v in seq[1:-1]:
        if h.neighbors(v) & terms:
            return None
    if t_first and t_last and t_first[0] == t_last[0]:
        return None
    full = tuple(t_first) + tuple(seq) + tuple(t_last)
    return (frozenset(t_first + t_last), full)


class OracleStats:
    """Audit trail of oracle usage. Safe for concurrent recording."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0
        self.max_instance_vertices = 0

    def record(self, vertices: int) -> None:
        with self._lock:
            self.calls += 1
            self.max_instance_vertices = max(self.max_instance_vertices, vertices)


def counting_oracle(inner: LinkageSolver, stats: OracleStats) -> LinkageSolver:
    """Decorate a solver so every call is logged; answers pass through."""

    def solver(inst: LinkageInstance) -> Optional[Solution]:
        ans = inner(inst)
        stats.record(inst.graph.n)
        return ans

    return solver


def instance_to_json(inst: LinkageInstance) -> dict:
    return {
        "graph": {
            "vertices": sorted(inst.graph.vertices),
            "edges": sorted([u, v] for u, v in inst.graph.edges()),
        },
        "k_prime": inst.k_prime,
        "terminals": sorted(inst.terminals),
        "requests": [sorted(r) for r in inst.requests],
    }


def _vertex_ids(items, what: str) -> list:
    """The ids of a JSON list; a float equal to an integer, or a bool, is
    not a vertex id, though it would hash like one."""
    ids = list(items)
    for v in ids:
        if isinstance(v, bool) or not isinstance(v, int):
            raise InputError(f"{what} vertex ids are integers, got {v!r}")
    return ids


def instance_from_json(data: dict) -> LinkageInstance:
    try:
        gd = data["graph"]
        g = Graph.from_edges(gd["vertices"], [tuple(_vertex_ids(e, "edge")) for e in gd["edges"]])
        inst = LinkageInstance(
            g,
            data["k_prime"],
            frozenset(_vertex_ids(data["terminals"], "terminal")),
            tuple(frozenset(_vertex_ids(r, "request")) for r in data["requests"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed linkage instance: {exc}") from exc
    inst.validate()
    return inst


def load_instance(path: str) -> LinkageInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"line {exc.lineno}: malformed JSON: {exc.msg}") from exc
    return instance_from_json(data)
