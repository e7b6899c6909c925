"""Command-line front end: nhsf <roots|grade|prolong|cohomology|bwb|verify>.

JSON output (default) is byte-deterministic for identical inputs and engine
version, excluding the "timing" field.  Exit codes:

* 0: success;
* 1: ``verify`` found a case whose status is neither Match nor NoExpectedData;
* 2: usage error: bad arguments, or input nhsf rejects (``nhsf.InputError``:
  Cartan type, node list, budget, ``--kmax``), with ``error: ...`` on stderr;
* 3: internal error: any other exception, such as a failed invariant
  (``nhsf.InvariantError``), with ``internal error: ...`` on stderr;
* 141 (128 + SIGPIPE): stdout was closed before the output was written, as
  in ``nhsf roots ... | head -1``; nothing is printed on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import InputError
from .rootsys import build_root_system
from .liealg import GradingSpec, graded_algebra
from .gmod import FlagCase
from .cohom import cohomology, full_window
from .decomp import HIGHEST, LOWEST, ExtremalWeights, decompose
from .prolong import full_prolong, prolong_as_module, yamaguchi_classify
from .verify import CaseSpec, bwb_adjoint, run_case, run_g2_structure, MATCH, NO_DATA
from .expected import TABLE1
from .cache import default_cache


def _common(p: argparse.ArgumentParser, need_nodes: bool = True):
    p.add_argument("--type", required=True, choices=list("ABCDEFG"), dest="type_letter")
    p.add_argument("--rank", required=True, type=int)
    if need_nodes:
        p.add_argument("--nodes", required=True,
                       help="comma-separated selected node list, 1-based")
    p.add_argument("--format", choices=["json", "text"], default="json")


def _nodes(args) -> tuple[int, ...]:
    try:
        nodes = tuple(sorted(int(x) for x in args.nodes.split(",")))
    except ValueError:
        raise InputError(f"--nodes must be comma-separated integers, not {args.nodes!r}") from None
    GradingSpec.from_nodes(args.rank, nodes)  # rejects nodes outside 1..rank and repeats
    return nodes


def _emit(args, obj, text_render=None) -> None:
    if args.format == "json":
        print(json.dumps(obj, indent=1))
    else:
        print(text_render(obj) if text_render else json.dumps(obj, indent=1))


def cmd_roots(args) -> int:
    rs = build_root_system(args.type_letter, args.rank)
    obj = {
        "type": rs.spec.name,
        "positive_roots": len(rs.positive_roots),
        "maximal_root": list(rs.maximal_root),
        "cartan_matrix": rs.cartan_matrix,
        "dynkin_edges": [list(e) for e in rs.dynkin_edges],
    }
    _emit(args, obj, lambda o: "\n".join(
        [f"{o['type']}: {o['positive_roots']} positive roots",
         f"maximal root {o['maximal_root']}"]))
    return 0


def cmd_grade(args) -> int:
    alg = graded_algebra(args.type_letter, args.rank, _nodes(args))
    obj = {
        "type": alg.rs.spec.name,
        "nodes": list(_nodes(args)),
        "d": alg.depth,
        "dims": {str(k): v for k, v in sorted(alg.dims_by_degree.items())},
    }
    _emit(args, obj, lambda o: f"d={o['d']} dims={o['dims']}")
    return 0


def cmd_prolong(args) -> int:
    fc = FlagCase(args.type_letter, args.rank, _nodes(args))
    p = full_prolong(fc.gminus, fc.levi_g0(), args.kmax)
    obj = {
        "case": {"type": fc.rs.spec.name, "nodes": list(fc.nodes)},
        "classification": yamaguchi_classify(fc.alg),
        "dims": {str(k): v for k, v in sorted(p.dims().items())},
        "computed_to": p.computed_to,
        "stabilized": p.stabilized,
        "equals_ambient": all(
            p.dims().get(k, 0) == fc.alg.dims_by_degree.get(k, 0)
            for k in range(1, fc.alg.depth + 1)) and p.stabilized,
    }
    _emit(args, obj, lambda o: "\n".join(
        [f"{o['classification']} computed_to={o['computed_to']} "
         f"stabilized={o['stabilized']} equals_ambient={o['equals_ambient']}"]
        + [f"degree {k}: dim {v}" for k, v in o["dims"].items()]))
    return 0


def _cohomology_text(o) -> str:
    """One line per slice, then one per summand."""
    lines = [f"H^{sl['s']}_{sl['k']}: dim {sl['dim_h']}" + ("" if sl["valid"] else " (invalid)")
             for sl in o["slices"]]
    lines += [f"{sm['kind']} {sm['weight_cm']} degree {sm['degree']} "
              f"multiplicity {sm['multiplicity']}" for sm in o.get("summands", [])]
    return "\n".join(lines) if lines else f"H^{o['case']['s']} = 0 in the window"


def cmd_cohomology(args) -> int:
    fc = FlagCase(args.type_letter, args.rank, _nodes(args))
    mod = {
        "adjoint": fc.adjoint_module,
        "riemann": fc.riemann_module,
        "coriemann": fc.coriemann_module,
        "trivial": fc.trivial_module,
    }.get(args.coeff)
    if mod is None:
        fcp = full_prolong(fc.gminus, fc.levi_g0(), args.kmax)
        module = prolong_as_module(fcp)
    else:
        module = mod()
    window = full_window(fc.gminus, module, args.s)
    if args.min_degree is not None:
        window = [k for k in window if k >= args.min_degree]
    if args.max_degree is not None:
        window = [k for k in window if k <= args.max_degree]
    slices = cohomology(fc.gminus, module, args.s, window)
    obj = {
        "case": {"type": fc.rs.spec.name, "nodes": list(fc.nodes), "coeff": args.coeff,
                 "s": args.s},
        "slices": [{"s": sl.s, "k": sl.k, "dim_h": sl.dim_h, "valid": sl.valid}
                   for sl in slices if sl.dim_h or not sl.valid],
    }
    nz = [sl for sl in slices if sl.dim_h and sl.valid]
    if args.coeff != "prolong" and nz:
        kind = LOWEST if args.s == 2 else HIGHEST
        sums = decompose(nz, module, ExtremalWeights(fc.rs, tuple(fc.unselected), kind))
        obj["summands"] = [{
            "kind": sm.extremal_kind, "weight_cm": list(sm.weight_cm),
            "weight_fw": [str(c) for c in sm.weight_fw],
            "degree": sm.degree, "multiplicity": sm.multiplicity,
        } for sm in sums]
    _emit(args, obj, _cohomology_text)
    return 0


def cmd_bwb(args) -> int:
    rs = build_root_system(args.type_letter, args.rank)
    rows = bwb_adjoint(rs, _nodes(args), args.s)
    obj = {
        "case": {"type": rs.spec.name, "nodes": list(_nodes(args)), "s": args.s},
        "weights": [{"weight_cm": list(e["weight_cm"]),
                     "degree": e["degree"]} for e in rows],
    }
    _emit(args, obj, lambda o: "\n".join(str(w["weight_cm"]) for w in o["weights"]))
    return 0


def _verify_suite(args) -> list[tuple[str, dict]]:
    cache = default_cache(args.cache_dir)
    suites = {
        "table1": _suite_table1,
        "tables234": _suite_tables234,
        "sec6": _suite_sec6,
        "sec71": lambda: [("sec7.1 g2-structure", None)],
    }
    chosen = list(suites.values()) if args.suite == "all" else [suites[args.suite]]
    cases = [case for fn in chosen for case in fn()]
    if args.only:
        cases = [(name, spec) for name, spec in cases if args.only in name]
        if not cases:
            raise InputError(f"--only {args.only!r} matches no case of suite {args.suite!r}")
    return [(name, run_g2_structure() if spec is None else run_case(spec, cache))
            for name, spec in cases]


def _suite_table1():
    """(name, CaseSpec) for every Table-1 row."""
    out = []
    for t, r, budget_nodes in [("G", 2, {}), ("F", 4, {}),
                               ("E", 6, {1: "full", 5: "full", 2: "bwb", 3: "bwb",
                                         4: "bwb", 6: "bwb"}),
                               ("E", 7, "bwb"), ("E", 8, "bwb")]:
        for node in sorted(TABLE1[(t, r)]):
            if budget_nodes == "bwb":
                budget = "bwb"
            elif isinstance(budget_nodes, dict) and budget_nodes:
                budget = budget_nodes.get(node, "bwb")
            else:
                budget = "full"
            out.append((f"table1 {t.lower()}{r} node {node}",
                        CaseSpec(t, r, (node,), budget=budget)))
    return out


def _suite_tables234():
    cases = ([("D", 4, n) for n in (1, 2, 3, 4)] + [("D", 5, n) for n in (1, 2, 3)]
             + [("B", 3, n) for n in (1, 2, 3)] + [("B", 4, n) for n in (1, 2, 3, 4)]
             + [("C", 2, n) for n in (1, 2)] + [("C", 3, n) for n in (1, 2, 3)]
             + [("C", 4, n) for n in (1, 2, 3, 4)])
    out = []
    for t, r, node in cases:
        label = {"D": f"o({2 * r})", "B": f"o({2 * r + 1})", "C": f"sp({2 * r})"}[t]
        out.append((f"tables234 {label} node {node}", CaseSpec(t, r, (node,))))
    return out


def _suite_sec6():
    return [(f"sec6 {t.lower()}{r} nodes {nodes}", CaseSpec(t, r, nodes))
            for t, r, nodes in [("A", 2, (1, 2)), ("A", 3, (1, 2)), ("A", 3, (1, 3)),
                                ("A", 4, (1, 2)), ("A", 4, (1, 3)),
                                ("C", 2, (1, 2)), ("C", 3, (1, 3))]]


def cmd_verify(args) -> int:
    results = _verify_suite(args)
    bad = 0
    lines = []
    for name, rec in results:
        status = rec["status"]
        if status not in (MATCH, NO_DATA):
            bad += 1
        lines.append({"name": name, "status": status})
    if args.format == "json":
        print(json.dumps({"results": lines, "records": [r for _, r in results]}, indent=1))
    else:
        for entry in lines:
            print(f"{entry['status']:14s} {entry['name']}")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nhsf",
                                 description="Nonholonomic structure functions of flag manifolds")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="root system data")
    _common(p, need_nodes=False)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("grade", help="Z-grading from selected nodes")
    _common(p)
    p.set_defaults(fn=cmd_grade)

    p = sub.add_parser("prolong", help="Tanaka prolongation of (g_-, l)")
    _common(p)
    p.add_argument("--kmax", type=int, default=8)
    p.set_defaults(fn=cmd_prolong)

    p = sub.add_parser("cohomology", help="H^s slices and decomposition")
    _common(p)
    p.add_argument("--coeff", default="adjoint",
                   choices=["adjoint", "riemann", "coriemann", "prolong", "trivial"])
    p.add_argument("--s", type=int, default=2, choices=[0, 1, 2])
    p.add_argument("--min-degree", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--kmax", type=int, default=8)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("bwb", help="Borel-Weil-Bott lowest weights (adjoint)")
    _common(p)
    p.add_argument("--s", type=int, default=2, choices=[0, 1, 2])
    p.set_defaults(fn=cmd_bwb)

    p = sub.add_parser("verify", help="compare against the embedded table data")
    p.add_argument("--suite", default="all",
                   choices=["table1", "tables234", "sec6", "sec71", "all"])
    p.add_argument("--only", default=None)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull so the flush at interpreter exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
