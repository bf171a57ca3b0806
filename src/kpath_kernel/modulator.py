"""The treewidth-modulator kernel.

Given a modulator M whose removal leaves treewidth at most eta, repeated
rounds of: pack bounded families of modulator-to-modulator paths, mark
the tree-decomposition nodes carrying them (closed under lca), carve the
remaining tree edges into components, and shrink any component whose
bags hold too many vertices by oracle-marking every way a well-behaved
k-path can cross it. One final oracle call decides the reduced graph.
G - M is decomposed once, when the instance is checked; each round
restricts that tree to the vertices still alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Optional

from .errors import InputError, NotApplicableError
from .graphs import Graph, Path, connected_components, induced_subgraph, open_neighborhood
from .linkage import LinkageInstance, LinkageSolver, OracleStats, counting_oracle, pack_paths
from .driver import BoundCheck, KernelRun
from .reduction import _request_universe, enumerate_candidates, mark_and_delete
from .treedecomp import (
    EdgeComponent,
    TreeDecomposition,
    binarize,
    compute_decomposition,
    edge_components,
    lca_closure,
    lowest_heavy_node,
)

FamilyKey = tuple  # (u, v, k') for two-endpoint families, (u, None, k') otherwise


@dataclass
class ModulatorInstance:
    graph: Graph
    k: int
    modulator: frozenset
    eta: int
    # the decomposition of G - M that make_modulator_instance checked; the
    # first round starts from it, so the instance's graph must not change
    core_decomposition: Optional[TreeDecomposition] = field(
        default=None, init=False, compare=False, repr=False
    )


def make_modulator_instance(
    g: Graph, k: int, modulator, eta: Optional[int]
) -> ModulatorInstance:
    """Verify treewidth(G - M) <= eta before accepting the instance, and keep
    the decomposition that shows it. With ``eta`` None the instance takes
    the width of that decomposition as its eta."""
    mset = frozenset(modulator)
    if not mset <= set(g.vertices):
        raise InputError("modulator must be a vertex subset")
    if k < 1 or (eta is not None and eta < 0):
        raise InputError("need k >= 1 and eta >= 0")
    core = set(g.vertices) - mset
    td = compute_decomposition(induced_subgraph(g, core)) if core else None
    width = max(len(b) for b in td.bags.values()) - 1 if td else 0
    if eta is None:
        eta = width
    elif width > eta:
        raise InputError(f"G - M has width {width} > eta = {eta}")
    inst = ModulatorInstance(g, k, mset, eta)
    inst.core_decomposition = td
    return inst


def find_uvk_path(
    g: Graph,
    m_set,
    u: int,
    v: Optional[int],
    k_prime: int,
    forbidden=(),
) -> Optional[Path]:
    """A path from u (to v, if given) with exactly k_prime further vertices,
    all outside the modulator and outside ``forbidden``. Exact, via the
    linkage solver on g itself: the other modulator vertices and the
    forbidden ones are terminals that no request names, which no path may
    use, so every call on one graph version shares its adjacency. It is
    the first path of the packing ``build_path_families`` makes."""
    mset = frozenset(m_set)
    forb = frozenset(forbidden)
    if u not in mset or (v is not None and v not in mset):
        raise InputError("endpoints must lie in the modulator")
    if v == u:
        raise InputError("endpoints must be distinct")
    if forb & mset:
        raise InputError("forbidden vertices must lie outside the modulator")
    ends = frozenset({u} if v is None else {u, v})
    path = next(pack_paths(LinkageInstance(g, k_prime + len(ends), mset | forb, (ends,))), None)
    if path is not None and path[0] != u:
        path = tuple(reversed(path))
    return path


@dataclass
class PathFamilyIndex:
    families: dict[FamilyKey, tuple[Path, ...]]
    truncated: dict[FamilyKey, bool]
    a1: frozenset

    @property
    def truncated_count(self) -> int:
        return sum(1 for t in self.truncated.values() if t)


def build_path_families(
    inst: ModulatorInstance, prev: Optional[PathFamilyIndex] = None
) -> PathFamilyIndex:
    """Greedy internally-disjoint path packing, capped at k+1 per family.

    Two-endpoint families run over unordered modulator pairs and
    0 <= k' <= k-2; one-endpoint families over 0 <= k' <= k-1. A family
    shorter than the cap is maximal: the search that would extend it came
    back empty. Each family is packed by one ``pack_paths`` search, which
    resumes after each path instead of starting again, so a first hop one
    path's search exhausted is not explored again for the next. A pair
    with no u-v path through G - M gets empty families from the first
    reachability test of each ``pack_paths`` call. a1 collects every
    non-modulator vertex the kept paths use.

    ``prev``, if given, must have been built for the same k and M on a graph
    of which ``inst.graph`` is an induced subgraph (the graph before a
    deletion round). Each family then keeps the longest prefix of its
    ``prev`` paths that still lie wholly in the graph and packs on from
    there; a family that survives whole keeps its flag and costs no search.
    The result is the fresh build's: each path is the first solution, in
    sorted-adjacency order, of one request, and a subgraph's solutions are
    some of the supergraph's, so a surviving path is still first. The
    k' = 1 one-endpoint family is always recomputed, because its flag
    counts neighbours beyond the cap.
    """
    g, k, mset = inst.graph, inst.k, inst.modulator
    cap = k + 1
    families: dict[FamilyKey, tuple[Path, ...]] = {}
    truncated: dict[FamilyKey, bool] = {}
    mods = sorted(mset)
    alive = g.vertices
    nonmod = set(alive) - mset

    def pack(key: FamilyKey) -> None:
        u, v, kp = key
        old = prev.families[key] if prev is not None else ()
        kept = 0
        while kept < len(old) and all(x in alive for x in old[kept]):
            kept += 1
        if prev is not None and kept == len(old):
            families[key], truncated[key] = old, prev.truncated[key]
            return
        found = list(old[:kept])
        # every packed path has internal vertices (k' >= 1 between two
        # endpoints, k' >= 2 from one), and later paths must avoid them
        forb = frozenset(x for p in found for x in p[1:-1])
        ends = frozenset({u} if v is None else {u, v})
        found += islice(pack_paths(LinkageInstance(g, kp + len(ends), mset | forb, (ends,))), cap - kept)
        families[key], truncated[key] = tuple(found), len(found) == cap

    for i, u in enumerate(mods):
        for v in mods[i + 1 :]:
            for kp in range(0, max(0, k - 1)):
                key = (u, v, kp)
                if kp == 0:
                    fam = [(u, v)] if g.has_edge(u, v) else []
                    families[key] = tuple(fam)
                    truncated[key] = False
                    continue
                pack(key)
    for u in mods:
        for kp in range(0, k):
            key = (u, None, kp)
            if kp == 0:
                families[key] = ((u,),)
                truncated[key] = False
                continue
            if kp == 1:
                ext = sorted(g.neighbors(u) & nonmod)
                families[key] = tuple((u, x) for x in ext[:cap])
                truncated[key] = len(ext) > cap
                continue
            pack(key)
    a1: set[int] = set()
    for fam in families.values():
        for p in fam:
            a1.update(set(p) - mset)
    return PathFamilyIndex(families, truncated, frozenset(a1))


def _single_child_root(td: TreeDecomposition) -> TreeDecomposition:
    """Duplicate the root bag above itself if the root has two children.

    The component count argument charges at most two components per marked
    node but only one for the root; a single-child root makes that exact.
    """
    return td.lift_root() if len(td.children[td.root]) > 1 else td


def rho(eta: int, ell: int) -> int:
    """1 + sum_{j=0}^{4*eta+4} ((2*eta+2)*(ell+2*eta+2))^j, exact."""
    if eta < 0 or ell < 0:
        raise InputError("need eta >= 0 and ell >= 0")
    base = (2 * eta + 2) * (ell + 2 * eta + 2)
    return 1 + sum(base**j for j in range(4 * eta + 5))


def mark_decomposition(td: TreeDecomposition, a1) -> tuple[frozenset, frozenset]:
    """Pick one node per marked vertex, the shallowest node holding it,
    close under lca together with the root, and return the node set and the
    union of its bags.

    Precondition: ``td`` must be a valid decomposition (see ``stats``).
    Then the nodes holding x span a subtree, and its top, the shallowest
    holder, is the one node whose parent's bag lacks x (the root's parent
    bag counts as empty)."""
    a1 = frozenset(a1)
    core_vertices = set(td.host.vertices)
    if not a1 <= core_vertices:
        raise InputError("marked vertices must avoid the modulator")
    bags, empty = td.bags, frozenset()
    b1 = {t for t, p in td.parent.items() if not (bags[t] & a1) <= bags.get(p, empty)}
    b2 = lca_closure(td, b1)
    a2 = td.bag_union(b2)
    return b2, frozenset(a2)


@dataclass
class ComponentContext:
    """One oversized edge component, localized for reduction: its lowest
    heavy node t0, the component nodes below it, their bag union v_d, the
    boundary bags s_d, and the working graph g_d = G[v_d ∪ M]."""

    component: EdgeComponent
    t0: int
    d_nodes: frozenset
    v_d: frozenset
    s_d: frozenset
    g_d: Graph


def build_component_context(
    inst: ModulatorInstance,
    td: TreeDecomposition,
    b2,
    component: EdgeComponent,
    m_threshold: int,
) -> ComponentContext:
    t0, d_nodes = lowest_heavy_node(td, component, m_threshold)
    v_d = td.bag_union(d_nodes)
    s_d = td.bag_union(set(d_nodes) & (set(b2) | {t0}))
    g_d = induced_subgraph(inst.graph, set(v_d) | set(inst.modulator))
    ctx = ComponentContext(component, t0, frozenset(d_nodes), frozenset(v_d), frozenset(s_d), g_d)
    spill = open_neighborhood(inst.graph, set(v_d) - set(s_d)) - set(s_d) - set(inst.modulator)
    assert not spill, "bags outside the component leak into its interior"
    return ctx


def _component_candidates(
    k: int, eta: int, g_d: Graph, s_d: frozenset, terminals: frozenset
) -> list[tuple[int, tuple[frozenset, ...]]]:
    """The counted candidates of one component (``enumerate_candidates``),
    over a filtered request universe and with k' capped by the segments of
    g_d - terminals. Requests hold one boundary vertex and possibly a
    second vertex of the boundary or the modulator; a well-behaved k-path
    induces at most min(4*eta+4, k) of them.

    A path meets the terminals only at its ends, so the interior vertices
    of a request's path are one segment inside one component of
    g_d - terminals that touches each terminal of the request (a pair may
    instead be the edge between its two). A pair with neither a shared
    component nor an edge is left out of the request universe; a single
    request always has the path (z,). The k' - |U| free vertices of a
    pattern with union U then fit only if each request takes at most its
    largest usable component and the r requests use at most r distinct
    components touching U, which caps k'; a free path (the empty request)
    fits in the largest component; no candidate above that cap has a
    witness. All components together are the interior, so a pattern of
    more requests than interior vertices gets no k' and is never built.
    """
    comps = connected_components(g_d, g_d.vertices - terminals)
    comps.sort(key=len, reverse=True)  # component i is the i-th largest
    sizes = [len(c) for c in comps]
    comp_of = {x: i for i, c in enumerate(comps) for x in c}
    touch = {t: frozenset(comp_of[x] for x in g_d.neighbors(t) if x in comp_of) for t in terminals}
    # each kept request with the largest component its path can use
    largest = {}
    for r in _request_universe(s_d, terminals):
        shared = frozenset.intersection(*[touch[t] for t in r])
        if len(r) == 1 or shared or g_d.has_edge(*r):
            largest[r] = sizes[min(shared)] if shared else 0

    def segment_cap(pattern: tuple) -> int:
        union = frozenset().union(*pattern)
        if not union:  # the free path
            return max(sizes, default=0)
        near = sorted(frozenset().union(*[touch[t] for t in union]))
        return len(union) + min(sum(map(largest.get, pattern)), sum(sizes[i] for i in near[: len(pattern)]))

    return enumerate_candidates(k, list(largest), min(4 * eta + 4, k, sum(sizes)), segment_cap)


def reduce_component(
    inst: ModulatorInstance,
    ctx: ComponentContext,
    m_threshold: int,
    oracle: LinkageSolver,
) -> tuple[Graph, frozenset]:
    """Mark and delete over g_d with s_d and the modulator as terminals: the
    deleted vertices are the interior ones, v_d - s_d, that no witness of a
    candidate crossing uses. They are deleted from ``inst.graph`` itself,
    which is returned with them."""
    if len(ctx.v_d) <= m_threshold:
        raise NotApplicableError(
            f"|v_d| = {len(ctx.v_d)} <= m_threshold = {m_threshold}; nothing to reduce"
        )
    terminals = frozenset(ctx.s_d | inst.modulator)
    candidates = _component_candidates(inst.k, inst.eta, ctx.g_d, ctx.s_d, terminals)
    deletable = mark_and_delete(ctx.g_d, terminals, candidates, oracle)
    inst.graph.delete_vertices(deletable)
    return inst.graph, deletable


def explicit_size_bound(k: int, ell: int, m_threshold: int, a2_size: int) -> int:
    return (4 * k * (k + 1) * ell**2 + 1) * m_threshold + a2_size + ell


def default_m_threshold(k: int, ell: int, eta: int) -> int:
    """Smallest component threshold that provably leaves a vertex to delete:
    marking can cover at most (k+1)*k*rho vertices plus the boundary."""
    return (k + 1) * k * rho(eta, ell) + (2 * eta + 2) + 1


def modulator_kernelize(
    inst: ModulatorInstance,
    oracle: LinkageSolver,
    m_override: Optional[int] = None,
    on_step: Optional[Callable[[Graph, frozenset], None]] = None,
) -> KernelRun:
    """Run reduction rounds until no component is oversized, then decide the
    remainder with a single oracle call (no terminals, one empty request).

    The tree of G - M is the binarized decomposition make_modulator_instance
    checked (for an instance built directly, it is asked for one), and
    after a deletion round it is restricted to the surviving core: the same
    tree, so still binary with a single-child root, and no bag grows, so the
    width stays at most eta. Families are repacked from the last round's
    (only those that lost a path search again); marking and components are
    computed afresh. A component whose reduction deleted nothing is not
    reduced again with the same v_d and s_d: M is fixed and rounds only
    delete vertices, so g_d = G[v_d ∪ M] and the candidates are the same,
    and so are the answers. ``m_override`` substitutes the
    component threshold (used by step-level safeness tests); the default is
    the smallest provably-progressing value, which at desk scale usually
    means no round fires at all and the final call decides.
    """
    k, mset, eta = inst.k, inst.modulator, inst.eta
    ell = len(mset)
    rho_value = rho(eta, ell)
    m_threshold = m_override if m_override is not None else default_m_threshold(k, ell, eta)
    stats = OracleStats()
    solver = counting_oracle(oracle, stats)
    checks: list[BoundCheck] = []
    work = inst.graph.copy()  # reduce_component deletes from cur.graph, this copy
    cur = replace(inst, graph=work)
    rounds = 0
    components_reduced = 0
    futile: set[tuple[frozenset, frozenset]] = set()  # (v_d, s_d) that deleted nothing
    stalled = False
    fam = build_path_families(cur)
    a2: frozenset = frozenset()
    checked = inst.core_decomposition
    if checked is None:
        checked = make_modulator_instance(work, k, mset, eta).core_decomposition
    # compute_decomposition's trees are connected already
    td = _single_child_root(binarize(checked)) if checked is not None else None

    while True:
        a1_claim = (k + 1) * k * ell**2
        # with no modulator the strict bound degenerates to 0 < 0; the content
        # of the claim is then simply that no path vertices get marked
        a1_ok = len(fam.a1) < a1_claim or (ell == 0 and not fam.a1)
        checks.append(BoundCheck("a1_size", a1_claim, len(fam.a1), a1_ok))
        core_vs = set(work.vertices) - mset
        if not core_vs:
            break
        b2, a2 = mark_decomposition(td, fam.a1)
        checks.append(BoundCheck.le("b2_size", len(b2), 2 * k * (k + 1) * ell**2 + 1))
        checks.append(BoundCheck.le("a2_size", len(a2), (eta + 1) * len(b2)))
        comps = edge_components(td, b2)
        checks.append(BoundCheck.le("component_count", len(comps), 4 * k * (k + 1) * ell**2 + 1))
        oversized = [c for c in comps if len(td.bag_union(c.nodes)) > m_threshold]
        progressed = False
        for comp in oversized:
            ctx = build_component_context(cur, td, b2, comp, m_threshold)
            checks.append(BoundCheck.le("s_d_size", len(ctx.s_d), 2 * eta + 2))
            checks.append(BoundCheck.le("v_d_size", len(ctx.v_d), 2 * m_threshold + eta + 1))
            if (ctx.v_d, ctx.s_d) in futile:
                continue
            calls_before = stats.calls
            _, deleted = reduce_component(cur, ctx, m_threshold, solver)
            checks.append(
                BoundCheck.le("component_oracle_calls", stats.calls - calls_before, (k + 1) * rho_value)
            )
            components_reduced += 1
            if deleted:
                rounds += 1
                if on_step is not None:
                    on_step(work, deleted)
                fam = build_path_families(cur, fam)
                # restricting keeps the tree, so it stays binary with a
                # single-child root and its width cannot grow; a fresh
                # min-fill run could come out wider than eta
                td = td.restrict(induced_subgraph(work, set(work.vertices) - mset))
                progressed = True
                break
            futile.add((ctx.v_d, ctx.s_d))
        if not progressed:
            # oversized components left: possible only under an m_override
            # below the safe formula
            stalled = bool(oversized)
            break

    # only component calls are recorded before the final one
    checks.append(
        BoundCheck.le(
            "component_oracle_instance_size", stats.max_instance_vertices, 2 * m_threshold + eta + 1 + ell
        )
    )
    final = LinkageInstance(work, k, frozenset(), (frozenset(),))
    answer = solver(final) is not None
    bound = explicit_size_bound(k, ell, m_threshold, len(a2))
    if not stalled:
        checks.append(BoundCheck.le("final_graph_size", work.n, bound))
    extras = {
        "final_size_bound": bound,
        "m_threshold": m_threshold,
        "rho": rho_value,
        "components_reduced": components_reduced,
        "families_truncated": fam.truncated_count,
        "progress_stalled": stalled,
    }
    return KernelRun(answer, stats, rounds, work.n, extras, checks)
