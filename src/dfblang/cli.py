"""Command line driver: one executable, four subcommands.

    dfb check FILE [TYPE] [--json]     parse + table checks, optional query
    dfb graph FILE [--depth K] [--out PATH]
    dfb poset domain FILE [--lower M] [--upper M] [--strict]
    dfb poset theorem [FILE --map M | --random N] [--max-size M] [--seed S]
    dfb real [--lower E] [--upper E] [--body E] [--window A B] ...

Exit codes: 0 success (and valid / theorem holds), 1 semantic failure
(invalid type, theorem counterexample), 2 parse or input error, 3
internal error. Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import poset as posets
from . import realline
from .classtable import ClassTable, build_table
from .errors import DfbError, InvalidValue
from .subtyping import export_graph
from .syntax import parse_program, parse_type
from .validity import Verdict, check_type

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read_source(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DfbError(f"{path}: not UTF-8 text: {exc.reason} "
                           f"at byte {exc.start}") from None


def _load_table(path: str) -> ClassTable:
    return build_table(parse_program(_read_source(path)))


def _print_warnings(table: ClassTable) -> None:
    for diag in table.warnings:
        print(str(diag), file=sys.stderr)


def _cmd_check(args: argparse.Namespace) -> int:
    table = _load_table(args.file)
    if args.type is None:
        if args.json:
            payload = {
                "classes": list(table.names()),
                "warnings": [str(d) for d in table.warnings],
            }
            print(json.dumps(payload, sort_keys=True))
        else:
            _print_warnings(table)
            print(f"ok: {len(table.infos)} classes")
        return EXIT_OK

    verdict: Verdict = check_type(table, parse_type(args.type))
    if args.json:
        payload = {
            "query": args.type,
            "status": verdict.status.value,
            "reasons": list(verdict.reasons),
            "query_log": [q.as_dict() for q in verdict.query_log],
            "warnings": [str(d) for d in table.warnings],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_warnings(table)
        print(verdict.status.value)
        for reason in verdict.reasons:
            print(f"  {reason}")
    return EXIT_OK if verdict.is_valid else EXIT_SEMANTIC


def _cmd_graph(args: argparse.Namespace) -> int:
    table = _load_table(args.file)
    _print_warnings(table)
    text = export_graph(table, args.depth)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return EXIT_OK


def _format_members(poset: posets.FinitePoset, members: frozenset[str]) -> str:
    ordered = [x for x in poset.elements if x in members]
    return "{" + ", ".join(ordered) + "}"


def _pick_map(maps: dict[str, posets.EndoMap], name: str,
              path: str) -> posets.EndoMap:
    try:
        return maps[name]
    except KeyError:
        known = ", ".join(sorted(maps)) or "none"
        raise posets.PosetFileError(
            f"{path}: no map named {name!r} (have: {known})") from None


def _cmd_poset_domain(args: argparse.Namespace) -> int:
    poset, maps = posets.load_poset_file(args.file)
    if args.lower is None and args.upper is None:
        raise posets.PosetFileError("give at least one of --lower / --upper")
    lower, upper = [None if name is None else _pick_map(maps, name, args.file)
                    for name in (args.lower, args.upper)]
    result = posets.dfbf_domain(poset,
                                posets.DomainSpec(lower, upper, args.strict))
    print(_format_members(poset, result.members))
    return EXIT_OK


def _cmd_poset_theorem(args: argparse.Namespace) -> int:
    if args.random is not None:
        if args.random < 1:
            raise InvalidValue(
                f"--random needs at least 1 instance, got {args.random}")
        failures = 0
        for i in range(args.random):
            poset = posets.random_poset(args.seed + i, args.max_size)
            g = posets.random_endomap(args.seed + args.random + i, poset)
            if not posets.theorem_check(poset, g, args.strict):
                failures += 1
        total = args.random
        print(f"{total - failures}/{total} pass")
        return EXIT_OK if failures == 0 else EXIT_SEMANTIC
    if args.file is None or args.map is None:
        raise posets.PosetFileError(
            "give a poset file with --map NAME, or --random N")
    poset, maps = posets.load_poset_file(args.file)
    g = _pick_map(maps, args.map, args.file)
    if posets.theorem_check(poset, g, args.strict):
        print("pass")
        return EXIT_OK
    print("fail")
    return EXIT_SEMANTIC


def _format_interval(iv: realline.Interval) -> str:
    def fmt(v: float) -> str:
        text = f"{v:.6f}"
        return "0.000000" if text == "-0.000000" else text

    lo = "-edge" if iv.touches_left_edge else fmt(iv.lo)
    hi = "+edge" if iv.touches_right_edge else fmt(iv.hi)
    return f"[{lo}, {hi}]"


def _cmd_real(args: argparse.Namespace) -> int:
    if args.lower is None and args.upper is None:
        raise DfbError("give at least one of --lower / --upper")
    body = realline.parse_expr(args.body) if args.body is not None else None
    if body is not None and realline.contains_self(body):
        raise realline.SelfReferenceInBody(
            "the function body cannot mention f(x)")
    bounds = {}
    for side, text in (("lower", args.lower), ("upper", args.upper)):
        if text is None:
            bounds[side] = None
            continue
        expr = realline.parse_expr(text)
        if realline.contains_self(expr):
            if body is None:
                raise DfbError(
                    f"--{side} mentions f(x); give the function with --body")
            expr = realline.resolve_self_reference(expr, body)
        bounds[side] = expr
    report = realline.real_domain(
        bounds["lower"], bounds["upper"],
        window=(args.window[0], args.window[1]),
        grid_n=args.grid, tol=args.tol,
    )
    # Written before the answer, so an unwritable path prints nothing.
    if args.csv is not None:
        realline.emit_plot_csv(args.csv, report, body,
                               bounds["lower"], bounds["upper"])
    if len(report.intervals):
        print(" ∪ ".join(_format_interval(iv) for iv in report.intervals))
    else:
        print("(empty)")
    for skip in report.skipped:
        print(f"skipped x = {skip.x!r}: {skip.reason}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfb",
        description="Check bounded generic declarations and decide "
                    "bounded-argument domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="check a source file, optionally judging one type")
    p_check.add_argument("file", help="source file (.dfb)")
    p_check.add_argument("type", nargs="?", default=None,
                         help="ground type to judge, e.g. 'Enum<Color>'")
    p_check.add_argument("--json", action="store_true",
                         help="emit one JSON object instead of text")
    p_check.set_defaults(handler=_cmd_check)

    p_graph = sub.add_parser(
        "graph", help="export the ground subtype graph as DOT")
    p_graph.add_argument("file", help="source file (.dfb)")
    p_graph.add_argument("--depth", type=int, default=1,
                         help="nesting depth budget (default 1)")
    p_graph.add_argument("--out", default=None,
                         help="output path (default: stdout)")
    p_graph.set_defaults(handler=_cmd_graph)

    p_poset = sub.add_parser("poset", help="finite poset engine")
    poset_sub = p_poset.add_subparsers(dest="poset_command", required=True)

    p_domain = poset_sub.add_parser(
        "domain", help="members satisfying the chosen bounds")
    p_domain.add_argument("file", help="poset JSON file")
    p_domain.add_argument("--lower", default=None, metavar="MAP",
                          help="name of the lower bound map")
    p_domain.add_argument("--upper", default=None, metavar="MAP",
                          help="name of the upper bound map")
    p_domain.add_argument("--strict", action="store_true",
                          help="exclude elements equal to their bound")
    p_domain.set_defaults(handler=_cmd_poset_domain)

    p_theorem = poset_sub.add_parser(
        "theorem", help="one-shot domain vs self-referential domain")
    p_theorem.add_argument("file", nargs="?", default=None,
                           help="poset JSON file (with --map)")
    p_theorem.add_argument("--map", default=None, metavar="MAP",
                           help="bound map to test from the file")
    p_theorem.add_argument("--random", type=int, default=None, metavar="N",
                           help="run N seeded random instances instead")
    p_theorem.add_argument("--max-size", type=int, default=8,
                           help="largest random carrier (default 8)")
    p_theorem.add_argument("--seed", type=int, default=0,
                           help="base seed for --random (default 0)")
    p_theorem.add_argument("--strict", action=argparse.BooleanOptionalAction,
                           default=True,
                           help="strict bound comparison (default on)")
    p_theorem.set_defaults(handler=_cmd_poset_theorem)

    p_real = sub.add_parser("real", help="real line engine")
    p_real.add_argument("--lower", default=None, metavar="EXPR",
                        help="lower bound expression in x")
    p_real.add_argument("--upper", default=None, metavar="EXPR",
                        help="upper bound expression in x")
    p_real.add_argument("--body", default=None, metavar="EXPR",
                        help="function body; substituted for f(x) in bounds")
    p_real.add_argument("--window", type=float, nargs=2, metavar=("A", "B"),
                        default=list(realline.DEFAULT_WINDOW),
                        help="sampling window (default -100 100)")
    p_real.add_argument("--grid", type=int, default=realline.DEFAULT_GRID_N,
                        help=f"grid samples (default {realline.DEFAULT_GRID_N})")
    p_real.add_argument("--tol", type=float, default=realline.DEFAULT_TOL,
                        help=f"endpoint tolerance (default {realline.DEFAULT_TOL})")
    p_real.add_argument("--csv", default=None, metavar="PATH",
                        help="also write per-sample plot data")
    p_real.set_defaults(handler=_cmd_real)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DfbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        import traceback  # only an internal error needs it

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
