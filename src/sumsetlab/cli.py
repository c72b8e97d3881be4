"""Command-line interface: every operation behind one deterministic binary.

Exit codes: 0 when all requested checks pass, 1 when a verdict fails (the
report names what failed) or the reader of standard output goes away, 2 on
input, output (two output flags naming one file), usage, or guard errors.
Reports are JSON with a "schema": 1 marker and sorted keys, so identical
configuration (including the seed) produces byte-identical output.  Set
data files use the plain GSet / graph schemas without the marker.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .bounds import (
    bound_report,
    bound_report_to_json,
    csv_header,
    csv_row,
)
from .constructions import _measure, construction_spec_to_json, example1, example2
from .errors import GuardError, InputError
from .graphs import (
    DEFAULT_EDGE_GUARD,
    build_addition_graph,
    build_restricted_graph,
    check_commutative,
    dump_graph,
    load_graph,
)
from .groups import (
    cardinality_stream,
    dump_gset,
    iterated_sumset,
    load_gset,
    _plain,
    _shown,
    _write_json,
    _write_text,
)
from .magnification import (
    magnification_bruteforce,
    magnification_flow,
    magnification_to_json,
)
from .partition import partition_graph, partition_to_json, verify_partition
from .suite import run_suite

__all__ = ["main"]

SCHEMA = 1


def _report(payload: dict, path: str | None) -> None:
    payload["schema"] = SCHEMA
    _write_json(payload, path)


def _cmd_sumset(args) -> int:
    a = load_gset(args.a)
    b = load_gset(args.b)
    if args.cardinality_only:
        stream = cardinality_stream(a, b, args.h, args.max_size)
        _report({"h": args.h, "cardinalities": list(stream)}, args.out)
        return 0
    total = iterated_sumset(a, b, args.h, args.max_size)
    dump_gset(total, args.out)
    return 0


def _cmd_graph(args) -> int:
    if args.graph_cmd == "build":
        a = load_gset(args.a)
        b = load_gset(args.b)
        dump_graph(build_addition_graph(a, b, args.h, args.max_size), args.out)
        return 0
    if args.graph_cmd == "restrict":
        a = load_gset(args.a)
        b = load_gset(args.b)
        c = load_gset(args.c)
        dump_graph(build_restricted_graph(a, b, c, args.h, args.max_size), args.out)
        return 0
    graph = load_graph(args.graph)
    report = check_commutative(graph, args.max_edges)
    _report(
        {
            "commutative": report.is_commutative,
            "upward_ok": report.upward_ok,
            "downward_ok": report.downward_ok,
            "violations": [
                {"vertices": list(vs), "direction": kind}
                for vs, kind in report.violations
            ],
        },
        args.out,
    )
    return 0 if report.is_commutative else 1


def _cmd_mag(args) -> int:
    graph = load_graph(args.graph)
    if args.oracle:
        result = magnification_bruteforce(graph, args.level)
    else:
        result = magnification_flow(graph, args.level)
    payload = magnification_to_json(result)
    payload["method"] = "bruteforce" if args.oracle else "flow"
    payload["witness_check"] = result.witness_check
    _report(payload, args.out)
    return 0


def _cmd_partition(args) -> int:
    graph = load_graph(args.graph)
    result = partition_graph(graph)
    checks = verify_partition(result)
    payload = partition_to_json(result)
    payload["degenerate"] = [b.index for b in result.blocks if b.degenerate]
    payload["checks"] = _plain(checks)
    _report(payload, args.out)
    return 0 if checks.ok else 1


def _cmd_bounds(args) -> int:
    a = load_gset(args.a)
    b = load_gset(args.b)
    report = bound_report(a, b, args.h, args.max_size)
    _report(bound_report_to_json(report), args.out)
    if args.csv:
        _write_text([csv_header(), csv_row(report)], args.csv)
    return 0 if report.all_ok else 1


def _cmd_construct(args) -> int:
    if args.which == "example1":
        a, b, spec = example1(args.h, args.a, args.l)
    else:
        if args.alpha is None:
            raise InputError("construct example2 requires --alpha")
        a, b, spec = example2(args.h, args.a, args.alpha)
    dump_gset(a, args.out_a)
    dump_gset(b, args.out_b)
    payload = construction_spec_to_json(spec)
    verdict = True
    if args.check:
        sizes, hb, verdict = _measure(a, b, spec)
        payload["measured"] = {"m": sizes[0], "ab": sizes[1], "top": sizes[-1], "hb": hb}
        payload["check_ok"] = verdict
    _report(payload, args.out)
    return 0 if verdict else 1


def _cmd_verify(args) -> int:
    result = run_suite(args.seed, args.cases)
    for r in result.results:
        print(r.line)
    if args.out:
        _report(result.to_json(), args.out)
    return 0 if result.ok else 1


def _add_max_size(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-size",
        type=int,
        default=None,
        metavar="CAP",
        help="abort with an error if any sumset would exceed CAP elements",
    )


@cache  # one parser per process, built by the first `main`
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumsetlab",
        description="Sumset growth toolkit: layered graphs, magnification "
        "ratios, partitions, and certified cardinality bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sumset", help="compute A + hB from two set files")
    p.add_argument("a", metavar="A.json")
    p.add_argument("b", metavar="B.json")
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--cardinality-only", action="store_true")
    p.add_argument("--out", default=None)
    _add_max_size(p)
    p.set_defaults(func=_cmd_sumset)

    p = sub.add_parser("graph", help="build, restrict, or check layered graphs")
    gsub = p.add_subparsers(dest="graph_cmd", required=True)
    g = gsub.add_parser("build", help="addition graph of A and B")
    g.add_argument("a", metavar="A.json")
    g.add_argument("b", metavar="B.json")
    g.add_argument("--h", type=int, required=True)
    g.add_argument("--out", default=None)
    _add_max_size(g)
    g.set_defaults(func=_cmd_graph)
    g = gsub.add_parser("restrict", help="restricted graph avoiding C shifts")
    g.add_argument("a", metavar="A.json")
    g.add_argument("b", metavar="B.json")
    g.add_argument("c", metavar="C.json")
    g.add_argument("--h", type=int, required=True)
    g.add_argument("--out", default=None)
    _add_max_size(g)
    g.set_defaults(func=_cmd_graph)
    g = gsub.add_parser("check", help="verify the two exchange conditions")
    g.add_argument("graph", metavar="G.json")
    g.add_argument("--max-edges", type=int, default=DEFAULT_EDGE_GUARD)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_graph)

    p = sub.add_parser("mag", help="exact magnification ratio of a graph")
    p.add_argument("graph", metavar="G.json")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="subset enumeration")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mag)

    p = sub.add_parser("partition", help="peel into increasing-ratio channels")
    p.add_argument("graph", metavar="G.json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("bounds", help="evaluate all named bounds for (A, B, h)")
    p.add_argument("a", metavar="A.json")
    p.add_argument("b", metavar="B.json")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--csv", default=None, metavar="ROW.csv")
    p.add_argument("--out", default=None)
    _add_max_size(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", help="emit an extremal example instance")
    p.add_argument("which", choices=["example1", "example2"])
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--alpha", default=None, help="rational such as 3/2 or 1.5")
    p.add_argument("--out-a", default="A.json")
    p.add_argument("--out-b", default="B.json")
    p.add_argument("--out", default=None, help="parameter report path (default stdout)")
    p.add_argument("--check", action="store_true", help="measure and compare")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="run verification suites")
    vsub = p.add_subparsers(dest="verify_cmd", required=True)
    v = vsub.add_parser("suite", help="all acceptance checks on seeded instances")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--cases", type=int, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)

    return parser


# The least value of each count or cap option; 0 is a valid cap.
_FLOORS = (("cases", 1), ("max_size", 0), ("max_edges", 0))


def _check_floors(args) -> None:
    for dest, low in _FLOORS:
        value = getattr(args, dest, None)
        if value is not None and value < low:
            flag = "--" + dest.replace("_", "-")
            raise InputError(f"{flag} must be >= {low}, got {value}")


def _check_outputs(args) -> None:
    # Up front, refuse an unwritable path or two flags naming one regular file.
    named, created = {}, []
    try:
        for flag in ("--out", "--out-a", "--out-b", "--csv"):
            path = vars(args).get(flag[2:].replace("-", "_"))
            if path is not None:
                # A dangling link is kept: the file made is its target.
                made = not os.path.exists(path)
                _write_text((), path, "a")
                created += [os.path.realpath(path)] if made else []
                st = os.stat(path)
                first, shown = named.setdefault((st.st_dev, st.st_ino), (flag, path))
                if first != flag and os.path.isfile(path):
                    raise InputError(f"{first} and {flag} name the same file {_shown(shown)}")
    finally:
        for path in filter(os.path.lexists, created):
            os.remove(path)


def _command_name(args) -> str:
    sub = getattr(args, "graph_cmd", None) or getattr(args, "verify_cmd", None)
    return f"{args.command} {sub}" if sub else args.command


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_floors(args)
        _check_outputs(args)
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout is gone.  What is still buffered goes to
        # devnull, so the flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (InputError, GuardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: {_command_name(args)}: recursion limit reached "
              "(is the input nested too deeply?)", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {_command_name(args)}: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
