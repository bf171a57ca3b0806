"""Seeded instance generation for the verification harness.

The workhorse kind is ``partial-k-tree``: a random eta-tree thinned by
edge deletion (treewidth at most eta by construction), plus a designated
modulator wired in with random edges. ``gnp``, ``grid`` and ``theta``
cover the remaining test shapes; their eta is measured exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .graphs import Graph
from .modulator import ModulatorInstance, make_modulator_instance

KINDS = ("partial-k-tree", "gnp", "grid", "theta")


@dataclass(frozen=True)
class GeneratorSpec:
    n: int
    kind: str = "partial-k-tree"
    k: int = 5
    eta: int = 2
    modulator_size: int = 0
    modulator_edge_prob: float = 0.35
    edge_keep_prob: float = 0.7
    gnp_p: float = 0.3
    theta_paths: int = 4
    theta_path_len: int = 1
    seed: int = 0

    def to_json(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


def generate(spec: GeneratorSpec) -> ModulatorInstance:
    """Deterministic: the same spec always yields the identical graph."""
    if spec.n < 1:
        raise InputError("n must be >= 1")
    if spec.kind not in KINDS:
        raise InputError(f"unknown kind {spec.kind!r}; expected one of {KINDS}")
    rng = random.Random(spec.seed)
    g = Graph()
    if spec.kind == "theta":
        core, modulator, eta = _theta(g, spec)
    else:
        ell = spec.modulator_size
        n_core = spec.n - ell
        if n_core < 1:
            raise InputError("modulator_size leaves no core vertices")
        # gnp and grid leave eta to make_modulator_instance, which measures
        # it on the decomposition of G - M it keeps
        eta: Optional[int] = None
        if spec.kind == "partial-k-tree":
            core = _partial_k_tree(g, rng, n_core, spec.eta, spec.edge_keep_prob)
            eta = spec.eta
        elif spec.kind == "gnp":
            core = _gnp(g, rng, n_core, spec.gnp_p)
        else:
            core = _grid(g, n_core)
        modulator = _attach_modulator(g, rng, core, ell, spec.modulator_edge_prob)
    return make_modulator_instance(g, spec.k, modulator, eta)


def _partial_k_tree(g: Graph, rng: random.Random, n: int, eta: int, keep_prob: float):
    vs = g.add_vertices(n)
    seed_clique = vs[: min(eta + 1, n)]
    for a, b in itertools.combinations(seed_clique, 2):
        g.add_edge(a, b)
    cliques = [tuple(seed_clique)]
    for v in vs[len(seed_clique) :]:
        base = list(rng.choice(cliques))
        if len(base) > eta:
            base.pop(rng.randrange(len(base)))
        for w in base:
            g.add_edge(v, w)
        cliques.append(tuple(sorted(base + [v])))
    for u, v in sorted(g.edges()):
        if rng.random() > keep_prob:
            g.delete_edge(u, v)
    return vs


def _gnp(g: Graph, rng: random.Random, n: int, p: float):
    vs = g.add_vertices(n)
    for a, b in itertools.combinations(vs, 2):
        if rng.random() < p:
            g.add_edge(a, b)
    return vs


def _grid(g: Graph, n: int):
    rows = max(1, int(n**0.5))
    cols = -(-n // rows)
    vs = g.add_vertices(n)
    at = {}
    for i, v in enumerate(vs):
        at[(i // cols, i % cols)] = v
    for (r, c), v in at.items():
        if (r, c + 1) in at:
            g.add_edge(v, at[(r, c + 1)])
        if (r + 1, c) in at:
            g.add_edge(v, at[(r + 1, c)])
    return vs


def _theta(g: Graph, spec: GeneratorSpec):
    """Two poles joined by ``theta_paths`` internally disjoint paths with
    ``theta_path_len`` interior vertices each; the poles are the modulator."""
    if spec.theta_paths < 1 or spec.theta_path_len < 1:
        raise InputError("theta needs >= 1 path with >= 1 interior vertex")
    u, v = g.add_vertices(2)
    core = []
    for _ in range(spec.theta_paths):
        inner = g.add_vertices(spec.theta_path_len)
        core.extend(inner)
        g.add_edge(u, inner[0])
        for a, b in zip(inner, inner[1:]):
            g.add_edge(a, b)
        g.add_edge(inner[-1], v)
    return core, [u, v], 1


def _attach_modulator(g: Graph, rng: random.Random, core, ell: int, prob: float):
    mods = list(g.add_vertices(ell))
    others = list(core)
    for m in mods:
        for w in others:
            if rng.random() < prob:
                g.add_edge(m, w)
        others.append(m)
    return mods

