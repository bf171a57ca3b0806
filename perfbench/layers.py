"""Span tracing around the library's public functions, from outside the
library.

``Tracer.install()`` replaces each traced function (and the two provider
methods) with a wrapper that records a span: name, layer, start, end,
parent span and instance id. Spans stay in memory until the run ends.
Every patched attribute is put back when the ``with`` block exits, also on
error. A layer's self time is its spans' duration minus the time covered
by their child spans; the self times of all layers plus the root span's
add up to the traced verdict time exactly.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional

ROOT = "verdict"

# (module, attribute) -> layer. An attribute "Class.method" patches a method.
# compute_decomposition's layer is decided per call (exact or min-fill).
TRACED = {
    ("kpath_kernel.linkage", "solve_linkage"): "linkage",
    ("kpath_kernel.graphs", "induced_subgraph"): "graphs.induced_subgraph",
    ("kpath_kernel.modulator", "build_path_families"): "modulator.families",
    ("kpath_kernel.modulator", "find_uvk_path"): "modulator.families",
    ("kpath_kernel.modulator", "mark_decomposition"): "modulator.mark",
    ("kpath_kernel.treedecomp", "lca_closure"): "modulator.mark",
    ("kpath_kernel.treedecomp", "edge_components"): "modulator.mark",
    ("kpath_kernel.modulator", "build_component_context"): "modulator.reduce",
    ("kpath_kernel.treedecomp", "lowest_heavy_node"): "modulator.reduce",
    ("kpath_kernel.modulator", "reduce_component"): "modulator.reduce",
    ("kpath_kernel.modulator", "make_modulator_instance"): "modulator.verify",
    ("kpath_kernel.treedecomp", "compute_decomposition"): None,
    ("kpath_kernel.treedecomp", "validate"): "treedecomp.validate",
    ("kpath_kernel.treedecomp", "make_connected"): "treedecomp.transform",
    ("kpath_kernel.treedecomp", "binarize"): "treedecomp.transform",
    ("kpath_kernel.treedecomp", "TreeDecomposition.restrict"): "treedecomp.transform",
    ("kpath_kernel.separation", "DecompositionSeparationProvider.__init__"): "separation.init",
    ("kpath_kernel.separation", "DecompositionSeparationProvider.find"): "separation.find",
    ("kpath_kernel.separation", "separation_from_decomposition"): "separation.find",
    ("kpath_kernel.reduction", "make_guarded_region"): "reduction.apply",
    ("kpath_kernel.reduction", "apply_reduction"): "reduction.apply",
    ("kpath_kernel.driver", "kernelize"): "driver",
    ("kpath_kernel.modulator", "modulator_kernelize"): "driver",
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "instance", "info")

    def __init__(self, name, layer, start, end, parent, instance, info=None):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.instance = instance
        self.info = info

    def to_row(self) -> list:
        return [self.name, self.layer, self.start, self.end, self.parent, self.instance]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans nest (one thread, strictly stacked), so children never overlap
    and the subtraction is exact."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _arg(fn: Callable, name: str) -> Callable[[tuple, dict], object]:
    """Reader for one named argument of a call to ``fn``, positional or not."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def get(args: tuple, kwargs: dict):
        return args[pos] if len(args) > pos else kwargs.get(name, default)

    return get


def _linkage_info(fn):
    inst_of = _arg(fn, "inst")

    def info(args, kwargs, result):
        inst = inst_of(args, kwargs)
        final = not inst.terminals and inst.requests == (frozenset(),)
        return (inst.graph.n, result is not None, final)

    return info


def _decomposition_layer(fn):
    g_of, cap_of = _arg(fn, "g"), _arg(fn, "exact_cap")

    def layer(args, kwargs, result):
        return "treedecomp.exact" if g_of(args, kwargs).n <= cap_of(args, kwargs) else "treedecomp.minfill"

    return layer


# name -> factory(fn) -> info(args, kwargs, result); the value is kept on the span
INFO = {
    "solve_linkage": _linkage_info,
    "find_uvk_path": lambda fn: lambda a, k, r: r is not None,
    "reduce_component": lambda fn: lambda a, k, r: len(r[1]),
    "apply_reduction": lambda fn: lambda a, k, r: len(r[1]),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance: Optional[int] = None
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, name: str, layer: Optional[str]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info_of = INFO[name](fn) if name in INFO else None
        layer_of = _decomposition_layer(fn) if layer is None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.instance)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info_of is not None:
                span.info = info_of(args, kwargs, result)
            if layer_of is not None:
                span.layer = layer_of(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def install(self):
        """Patch every traced function wherever a kpath_kernel module holds
        it by name, and restore all of them on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            for (mod_name, attr), layer in TRACED.items():
                module = sys.modules[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    saved.append((owner, meth, original))
                    setattr(owner, meth, self._wrap(original, attr, layer))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(original, attr, layer)
                for holder in [m for n, m in sys.modules.items() if n.split(".")[0] == "kpath_kernel"]:
                    if getattr(holder, attr, None) is original:
                        saved.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def verdict(self, instance: int):
        """The root span of one instance's timed region."""
        self.instance = instance
        span = Span(ROOT, "trace.glue", 0.0, 0.0, -1, instance)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.instance = None


# Self-time layers; with trace.glue they partition the traced verdict time.
BUSY = {
    "linkage": "linkage.busy_s",
    "graphs.induced_subgraph": "graphs.induced_subgraph.busy_s",
    "modulator.families": "modulator.families.busy_s",
    "modulator.mark": "modulator.mark.busy_s",
    "modulator.reduce": "modulator.reduce.busy_s",
    "modulator.verify": "modulator.verify.busy_s",
    "treedecomp.exact": "treedecomp.exact.busy_s",
    "treedecomp.minfill": "treedecomp.minfill.busy_s",
    "treedecomp.validate": "treedecomp.validate.busy_s",
    "treedecomp.transform": "treedecomp.transform.busy_s",
    "separation.init": "separation.init.busy_s",
    "separation.find": "separation.find.busy_s",
    "reduction.apply": "reduction.apply.busy_s",
    "driver": "driver.self_s",
    "trace.glue": "trace.glue_s",
}


def layer_metrics(spans: list[Span], instances: int) -> dict[str, tuple[float, str]]:
    """Per-instance layer figures from one traced pass over ``instances``
    instances. ``modulator_kernelize`` rebuilds the path families once after
    every deletion round, so rebuilds count rounds."""
    selfs = self_times(spans)
    busy = dict.fromkeys(BUSY.values(), 0.0)
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    linkage_yes = linkage_max = 0
    final_s = rebuild_s = 0.0
    hits = useful = deleted = rounds = 0
    seen_families: set = set()
    for span, own in zip(spans, selfs):
        busy[BUSY[span.layer]] += own
        calls[span.name] = calls.get(span.name, 0) + 1
        calls[span.layer] = calls.get(span.layer, 0) + 1
        took = span.end - span.start
        inclusive[span.name] = inclusive.get(span.name, 0.0) + took
        if span.name == "solve_linkage":
            vertices, yes, final = span.info
            linkage_yes += yes
            linkage_max = max(linkage_max, vertices)
            if final:
                final_s += took
        elif span.name == "find_uvk_path":
            hits += span.info
        elif span.name == "reduce_component":
            useful += span.info > 0
        elif span.name == "apply_reduction":
            deleted += span.info
        elif span.name == "build_path_families":
            if span.instance in seen_families:
                rebuild_s += took
                rounds += 1
            seen_families.add(span.instance)

    def per(x: float) -> float:
        return x / instances

    def share(num: int, den: int) -> float:
        return num / den if den else 0.0

    s, c = "s", "count"
    out = {name: (per(v), s) for name, v in busy.items()}
    out.update(
        {
            "linkage.calls": (per(calls.get("solve_linkage", 0)), c),
            "linkage.yes_ratio": (share(linkage_yes, calls.get("solve_linkage", 0)), "ratio"),
            "linkage.max_instance_vertices": (float(linkage_max), c),
            "linkage.final_s": (per(final_s), s),
            "graphs.induced_subgraph.calls": (per(calls.get("induced_subgraph", 0)), c),
            "modulator.families.searches": (per(calls.get("find_uvk_path", 0)), c),
            "modulator.families.hit_ratio": (share(hits, calls.get("find_uvk_path", 0)), "ratio"),
            "modulator.families.rebuild_s": (per(rebuild_s), s),
            "modulator.reduce.components": (per(calls.get("reduce_component", 0)), c),
            "modulator.reduce.useful_ratio": (share(useful, calls.get("reduce_component", 0)), "ratio"),
            "modulator.rounds": (per(rounds), c),
            "modulator.verify_s": (per(inclusive.get("make_modulator_instance", 0.0)), s),
            "treedecomp.exact.calls": (per(calls.get("treedecomp.exact", 0)), c),
            "treedecomp.validate.calls": (per(calls.get("validate", 0)), c),
            "separation.provider_init_s": (
                per(inclusive.get("DecompositionSeparationProvider.__init__", 0.0)),
                s,
            ),
            "separation.find.calls": (per(calls.get("DecompositionSeparationProvider.find", 0)), c),
            "reduction.apply.calls": (per(calls.get("apply_reduction", 0)), c),
            "reduction.deleted_per_call": (share(deleted, calls.get("apply_reduction", 0)), c),
            "trace.verdict_s": (per(inclusive.get(ROOT, 0.0)), s),
        }
    )
    return out
