"""Command-line front end: solve, kernelize, verify, gen, convert, stats."""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import comb

from .degenerate import kernelize_degenerate, solve_isr_degenerate
from .dsr import kernelize_dsr, solve_dsr
from .engine import (
    DEFAULT_STATE_BUDGET,
    ReconfSequence,
    SolveResult,
    bfs_reconfig,
    verify_sequence,
)
from .graph import contains_biclique, degeneracy_order
from .hardness import isr_to_dsr
from .instances import (
    InstanceFormatError,
    Problem,
    ReductionLog,
    ReportFormatError,
    gen_random_degenerate,
    parse_instance,
    parse_report,
    plant_dsr_instance,
    plant_isr_instance,
    rules_to_json,
    serialize_instance,
    serialize_report,
)
from .quasiwide import (
    QuasiWideParams,
    kernelize_quasiwide,
    partition_by_solution_neighborhood,
    solve_isr_quasiwide,
)

EX_OK = 0
EX_NO = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_DATA = 65
EX_SOFTWARE = 70

_BICLIQUE_WORK_CAP = 200_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want 64
        raise _UsageError(message)


def _at_least(lo: int):
    """An argparse ``type=`` for integers >= lo; a bad value is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_positive, _non_negative = _at_least(1), _at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tokenjump", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("instance", nargs="?", help="instance path (default: stdin)")

    def add_out(p):
        p.add_argument("--out", help="write output to this path instead of stdout")

    def add_quasiwide_flags(p):
        p.add_argument("--class-threshold", type=_positive, default=32)
        p.add_argument("--max-deletions", type=_non_negative, default=2)
        p.add_argument("--search-budget", type=_positive, default=10_000)

    p = sub.add_parser("solve", help="decide an instance and emit a report")
    add_input(p)
    p.add_argument("--strategy", choices=["auto", "quasiwide", "oracle"], default="auto")
    p.add_argument("--state-budget", type=_positive, default=DEFAULT_STATE_BUDGET)
    add_quasiwide_flags(p)
    add_out(p)

    p = sub.add_parser("kernelize", help="emit the kernel instance and rule log")
    add_input(p)
    p.add_argument("--strategy", choices=["auto", "quasiwide"], default="auto")
    add_quasiwide_flags(p)
    add_out(p)

    p = sub.add_parser("verify", help="check a report's sequence against an instance")
    p.add_argument("instance", help="instance path")
    p.add_argument("report", nargs="?", help="report path (default: stdin)")
    add_out(p)

    p = sub.add_parser("gen", help="generate a random planted instance")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--d", type=_positive, required=True)
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--problem", choices=["isr", "dsr"], default="isr")
    add_out(p)

    p = sub.add_parser("convert", help="transform an ISR instance into a DSR gadget")
    add_input(p)
    add_out(p)

    p = sub.add_parser("stats", help="print structural statistics of an instance")
    add_input(p)
    add_out(p)

    return parser


_PARSER = build_parser()  # argparse parsers can be reused across calls


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _quasiwide_params(args, k: int) -> QuasiWideParams:
    # the reducer requires class_threshold >= 2k; clamp rather than fail
    return QuasiWideParams(
        class_threshold=max(args.class_threshold, 2 * k),
        max_deletions=args.max_deletions,
        search_budget=args.search_budget,
    )


def _read_instance(args):
    """The instance of ``solve`` or ``kernelize``; quasiwide needs ISR."""
    inst = parse_instance(_read_input(args.instance))
    if args.strategy == "quasiwide" and inst.problem is not Problem.ISR:
        raise _UsageError("strategy 'quasiwide' requires an ISR instance")
    return inst


def _cmd_solve(args) -> int:
    inst = _read_instance(args)
    start = time.perf_counter()
    if args.strategy == "oracle":
        outcome = bfs_reconfig(inst, args.state_budget)
        result = SolveResult(outcome, ReductionLog(), inst)
    elif args.strategy == "quasiwide":
        result = solve_isr_quasiwide(
            inst, _quasiwide_params(args, inst.k), args.state_budget
        )
    elif inst.problem is Problem.ISR:
        result = solve_isr_degenerate(inst, args.state_budget)
    else:
        result = solve_dsr(inst, args.state_budget)
    ms = int((time.perf_counter() - start) * 1000)
    _emit(
        serialize_report(result.outcome, result.log, result.kernel.graph, ms=ms),
        args.out,
    )
    return {"yes": EX_OK, "no": EX_NO, "exhausted": EX_UNKNOWN}[result.outcome.verdict.value]


def _cmd_kernelize(args) -> int:
    inst = _read_instance(args)
    if args.strategy == "quasiwide":
        kernel, log = kernelize_quasiwide(inst, _quasiwide_params(args, inst.k))
    elif inst.problem is Problem.ISR:
        kern = kernelize_degenerate(inst)
        kernel, log = kern.kernel, kern.log
    else:
        kernel, log, _core = kernelize_dsr(inst)
    payload = {
        "instance": serialize_instance(kernel),
        "kernel": {
            "n": kernel.graph.n,
            "m": kernel.graph.m,
            "deleted": [v + 1 for v in log.deleted_vertices()],
        },
        "rules": rules_to_json(log),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EX_OK


def _cmd_verify(args) -> int:
    inst = parse_instance(_read_input(args.instance))
    report = parse_report(_read_input(args.report))
    if report["answer"] != "yes":
        _emit(
            json.dumps({"ok": True, "checked": False, "note": "report has no sequence"})
            + "\n",
            args.out,
        )
        return EX_OK
    seq = ReconfSequence(
        tuple(frozenset(v - 1 for v in entry) for entry in report["sequence"])
    )
    violation = verify_sequence(inst, seq)
    if violation is None:
        _emit(json.dumps({"ok": True, "checked": True}) + "\n", args.out)
        return EX_OK
    _emit(
        json.dumps(
            {
                "ok": False,
                "condition": violation.condition,
                "index": violation.index,
                "message": violation.message,
                "vertices": [v + 1 for v in violation.vertices],
            }
        )
        + "\n",
        args.out,
    )
    return EX_NO


def _cmd_gen(args) -> int:
    graph = gen_random_degenerate(args.n, args.d, args.seed)
    plant = plant_isr_instance if args.problem == "isr" else plant_dsr_instance
    inst = plant(graph, args.k, args.seed)
    if inst is None:
        print(
            f"could not plant a {args.problem} instance with k={args.k}",
            file=sys.stderr,
        )
        return EX_UNKNOWN
    _emit(serialize_instance(inst), args.out)
    return EX_OK


def _cmd_convert(args) -> int:
    inst = parse_instance(_read_input(args.instance))
    if inst.problem is not Problem.ISR:
        raise InstanceFormatError("convert requires an ISR instance")
    gadget, gm = isr_to_dsr(inst)
    payload = {
        "instance": serialize_instance(gadget),
        "gadget_map": gm.to_json_dict(),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EX_OK


def _cmd_stats(args) -> int:
    inst = parse_instance(_read_input(args.instance))
    g = inst.graph
    bicliques: dict[str, bool | None] = {}
    for d in (2, 3):
        candidates = sum(1 for v in g.vertices if g.degree(v) >= d)
        if comb(candidates, d) > _BICLIQUE_WORK_CAP:
            bicliques[str(d)] = None  # too large for the exhaustive check
        else:
            bicliques[str(d)] = contains_biclique(g, d)
    classes = partition_by_solution_neighborhood(g, inst.anchors)
    payload = {
        "problem": inst.problem.value,
        "n": g.n,
        "m": g.m,
        "k": inst.k,
        "degeneracy": degeneracy_order(g).d,
        "contains_biclique": bicliques,
        "class_sizes": sorted((len(vs) for vs in classes.values()), reverse=True),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EX_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "kernelize": _cmd_kernelize,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "convert": _cmd_convert,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"tokenjump: error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (InstanceFormatError, ReportFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"tokenjump: error: {exc}", file=sys.stderr)
        return EX_DATA
    except Exception as exc:  # a defect or exhausted memory, never a "no"
        print(f"tokenjump: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
