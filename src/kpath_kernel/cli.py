"""Command-line harness.

Subcommands: gen, solve, linkage solve, kernelize, modkernel,
validate-td, suite. Reports are JSON on stdout; exit code 0 means every
check the command ran has passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import __version__
from .driver import kernelize
from .errors import InputError, KPathError, SuiteFailure
from .generate import KINDS, GeneratorSpec, generate
from .graphs import brute_force_k_path, parse_int, read_graph_text, vertex_index, write_graph_text
from .linkage import brute_force_linkage, load_instance, solve_linkage
from .modulator import make_modulator_instance, modulator_kernelize
from .separation import DecompositionSeparationProvider, TrivialSeparationProvider
from .suite import BRUTE_CAP, SuiteConfig, run_suite, summarize
from .treedecomp import measure as td_measure, read_td, validate as td_validate


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return read_graph_text(fh.read())


def _read_modulator(path: str) -> list[int]:
    ids = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            ids.extend(parse_int(x, lineno) for x in line.split("#", 1)[0].split())
    return ids


def _oracle(name: str):
    if name == "bruteforce":
        return partial(brute_force_linkage, cap=24)
    return solve_linkage


def _emit(data: dict, out: str | None = None) -> None:
    text = json.dumps(data, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_gen(args) -> int:
    spec = GeneratorSpec(
        n=args.n,
        kind=args.kind,
        k=args.k,
        eta=args.eta,
        modulator_size=args.ell,
        modulator_edge_prob=args.modulator_edge_prob,
        edge_keep_prob=args.edge_keep_prob,
        gnp_p=args.gnp_p,
        seed=args.seed,
    )
    inst = generate(spec)
    gr_path = args.out + ".gr"
    mod_path = args.out + ".mod"
    with open(gr_path, "w", encoding="utf-8") as fh:
        fh.write(write_graph_text(inst.graph))
    idx = vertex_index(inst.graph)
    with open(mod_path, "w", encoding="utf-8") as fh:
        for v in sorted(idx[m] for m in inst.modulator):
            fh.write(f"{v}\n")
    _emit(
        {
            "graph": gr_path,
            "modulator": mod_path,
            "n": inst.graph.n,
            "m": inst.graph.m,
            "k": inst.k,
            "eta": inst.eta,
            "spec": spec.to_json(),
        }
    )
    return 0


def cmd_solve(args) -> int:
    if args.k < 1:
        raise InputError("k must be >= 1")
    g = _read_graph(args.graph)
    if args.method == "bruteforce":
        path = brute_force_k_path(g, args.k, cap=args.cap)
    else:
        from .linkage import LinkageInstance

        sol = solve_linkage(LinkageInstance(g, args.k, frozenset(), (frozenset(),)))
        path = sol[0] if sol else None
    _emit({"answer": "yes" if path else "no", "path": list(path) if path else None})
    return 0


def cmd_linkage_solve(args) -> int:
    inst = load_instance(args.file)
    sol = solve_linkage(inst)
    if sol is None:
        print("NO")
    else:
        print("YES")
        for p in sol:
            print(" ".join(str(v) for v in p))
    return 0


def cmd_kernelize(args) -> int:
    g = _read_graph(args.graph)
    if args.td:
        with open(args.td, "r", encoding="utf-8") as fh:
            td = read_td(fh.read(), g)
        provider = DecompositionSeparationProvider(g, td=td)
    elif args.provider == "trivial":
        provider = TrivialSeparationProvider(h=args.h)
    else:
        provider = DecompositionSeparationProvider(g)
    run = kernelize(g, args.k, provider, _oracle(args.oracle))
    _emit(run.to_json(), args.stats)
    return 0 if all(c.passed for c in run.bound_checks) else 1


def cmd_modkernel(args) -> int:
    g = _read_graph(args.graph)
    modulator = _read_modulator(args.modulator)
    inst = make_modulator_instance(g, args.k, modulator, args.eta)
    run = modulator_kernelize(inst, _oracle(args.oracle), m_override=args.m_override)
    _emit(run.to_json(), args.stats)
    return 0 if all(c.passed for c in run.bound_checks) else 1


def cmd_validate_td(args) -> int:
    g = _read_graph(args.graph)
    with open(args.td, "r", encoding="utf-8") as fh:
        td = read_td(fh.read(), g)
    report = td_validate(td)
    data = {
        "valid": report.ok,
        "violations": [{"axiom": v.axiom, "witness": str(v.witness)} for v in report.violations],
    }
    if report.ok:
        s = td_measure(td)
        data["stats"] = {
            "width": s.width,
            "adhesion": s.adhesion,
            "adhesion_degree": s.adhesion_degree,
        }
    _emit(data)
    return 0 if report.ok else 1


def cmd_suite(args) -> int:
    if args.count < 1:
        raise InputError("count must be >= 1")
    # spec_for_index draws n from [min_n, max_n], k from [1, max_k] and ell
    # from [0, min(max_ell, n - 2)]; eta is at most max_eta
    for name, value, low in (
        ("max-n", args.max_n, SuiteConfig.min_n),
        ("max-k", args.max_k, 1),
        ("max-eta", args.max_eta, 0),
        ("max-ell", args.max_ell, 0),
    ):
        if value < low:
            raise InputError(f"{name} must be >= {low}")
    # every instance is checked against brute force, which stops at BRUTE_CAP
    if args.max_n > BRUTE_CAP:
        raise InputError(f"max-n must be <= {BRUTE_CAP}, the brute-force reference's cap")
    cfg = SuiteConfig(
        count=args.count,
        seed=args.seed,
        max_n=args.max_n,
        max_k=args.max_k,
        max_eta=args.max_eta,
        max_ell=args.max_ell,
        mode=args.mode,
        check_steps=args.check_steps,
        m_override=args.m_override,
        jobs=args.jobs,
        out_dir=args.out_dir,
    )
    try:
        reports = run_suite(cfg)
    except SuiteFailure as exc:
        _emit({"ok": False, "error": str(exc)}, args.report)
        return 1
    summary = summarize(reports)
    summary["ok"] = summary["agreements"] == summary["instances"] and not summary["failed_bound_checks"]
    _emit(summary, args.report)
    return 0 if summary["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kpath", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kpath-kernel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance (graph + modulator files)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=KINDS, default="partial-k-tree")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--eta", type=int, default=2)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--modulator-edge-prob", type=float, default=0.35)
    p.add_argument("--edge-keep-prob", type=float, default=0.7)
    p.add_argument("--gnp-p", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="decide the k-path question directly")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=["linkage", "bruteforce"], default="linkage")
    p.add_argument("--cap", type=int, default=32)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("linkage", help="linkage subcommands")
    linksub = p.add_subparsers(dest="linkage_command", required=True)
    ps = linksub.add_parser("solve", help="solve a JSON linkage instance")
    ps.add_argument("file")
    ps.set_defaults(func=cmd_linkage_solve)

    p = sub.add_parser("kernelize", help="generic separation-driven kernel")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--td", help="decomposition file backing the separation provider")
    p.add_argument("--provider", choices=["decomposition", "trivial"], default="decomposition")
    p.add_argument("--h", type=int, default=2, help="order bound for the trivial provider")
    p.add_argument("--oracle", choices=["bruteforce", "solver"], default="solver")
    p.add_argument("--stats", help="write the run report to this JSON file")
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("modkernel", help="treewidth-modulator kernel")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--modulator", required=True, help="file of 1-based vertex ids")
    p.add_argument("--eta", type=int, required=True)
    p.add_argument("--oracle", choices=["bruteforce", "solver"], default="solver")
    p.add_argument("--m-override", type=int)
    p.add_argument("--stats", help="write the run report to this JSON file")
    p.set_defaults(func=cmd_modkernel)

    p = sub.add_parser("validate-td", help="check a decomposition file against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--td", required=True)
    p.set_defaults(func=cmd_validate_td)

    p = sub.add_parser("suite", help="randomized kernel-vs-brute-force suite")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--max-n", type=int, default=28)
    p.add_argument("--max-k", type=int, default=7)
    p.add_argument("--max-eta", type=int, default=2)
    p.add_argument("--max-ell", type=int, default=4)
    p.add_argument("--mode", choices=["modkernel", "kernelize", "both"], default="modkernel")
    p.add_argument("--check-steps", action="store_true")
    p.add_argument("--m-override", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--report", help="write the summary to this JSON file")
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KPathError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(json.dumps({"error": "FileNotFoundError", "detail": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
