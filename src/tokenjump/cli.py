"""Command-line front end: solve, kernelize, verify, gen, convert, stats."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import degenerate, dsr, quasiwide
from .engine import (
    DEFAULT_STATE_BUDGET,
    ReconfSequence,
    SolveResult,
    Verdict,
    bfs_reconfig,
    verify_sequence,
)
from .graph import (
    bitset_index,
    closed_cells,
    contains_biclique,
    degeneracy_core,
    mask_of,
    set_bits,
)
from .hardness import isr_to_dsr
from .instances import (
    MAX_VERTICES,
    Instance,
    InstanceFormatError,
    Problem,
    ReductionLog,
    ReportFormatError,
    gen_random_degenerate,
    kernel_to_json,
    layout_json,
    parse_instance,
    parse_report,
    plant_dsr_instance,
    plant_isr_instance,
    rules_to_json,
    serialize_instance,
    serialize_report,
)
from .quasiwide import QuasiWideParams

EX_OK = 0
EX_NO = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_DATA = 65
EX_SOFTWARE = 70
EX_CANTCREAT = 73

_EXIT_CODES = {Verdict.YES: EX_OK, Verdict.NO: EX_NO, Verdict.EXHAUSTED: EX_UNKNOWN}


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    """``--out`` names a file that cannot be created or written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want 64
        raise _UsageError(message)


def _int_range(lo: int, hi: int | None = None):
    """An argparse ``type=`` for integers in lo..hi; a bad value is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_positive, _non_negative = _int_range(1), _int_range(0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tokenjump", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("instance", nargs="?", help="instance path (default: stdin)")

    def add_out(p):  # "--out -" writes to stdout, as a "-" input reads stdin
        p.add_argument("--out", type=lambda out: None if out == "-" else out,
                       help="write output to this path instead of stdout")

    defaults = QuasiWideParams()  # the quasiwide flags' defaults

    def add_quasiwide_flags(p):
        p.add_argument("--class-threshold", type=_positive, default=defaults.class_threshold)
        p.add_argument("--max-deletions", type=_non_negative, default=defaults.max_deletions)
        p.add_argument("--search-budget", type=_positive, default=defaults.search_budget)

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
    p.add_argument("--n", type=_int_range(1, MAX_VERTICES), required=True)
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
# Each command's own parser, which parses its arguments the way the
# top-level parser would hand them on, in about half the time.
_COMMAND_PARSERS: dict[str, argparse.ArgumentParser] = next(
    action.choices for action in _PARSER._actions
    if isinstance(action, argparse._SubParsersAction)
)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the top-level parser parses it.

    A known command's own parser reads the rest of ``argv``; anything else
    (no argument, help, an unknown word, a flag first) goes through the
    top-level parser, which gives help and every usage error.
    """
    own = _COMMAND_PARSERS.get(argv[0]) if argv else None
    if own is None:
        return _PARSER.parse_args(argv)
    return own.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _check_out(out: str) -> None:
    """Fail before any work when ``--out`` cannot be written; touch nothing."""
    folder = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(folder):
        raise _OutputError(f"cannot write {out}: no directory {folder}")
    if os.path.isdir(out):
        raise _OutputError(f"cannot write {out}: it is a directory")
    if not os.access(out if os.path.exists(out) else folder, os.W_OK):
        raise _OutputError(f"cannot write {out}: permission denied")


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _OutputError(f"cannot write {out}: {exc}") from None


def _quasiwide_params(args) -> QuasiWideParams:
    return QuasiWideParams(args.class_threshold, args.max_deletions, args.search_budget)


def _read_instance(args):
    """The instance of ``solve`` or ``kernelize``; quasiwide needs ISR."""
    inst = parse_instance(_read_input(args.instance))
    if args.strategy == "quasiwide" and inst.problem is not Problem.ISR:
        raise _UsageError("strategy 'quasiwide' requires an ISR instance")
    return inst


def _kernelize(
    inst: Instance, strategy: str, params: QuasiWideParams | None
) -> tuple[Instance, ReductionLog]:
    """The kernel of ``inst`` under ``strategy`` and its log: the one map from a
    strategy and a problem to a kernelizer.  ``auto`` keeps an ISR ``inst`` where
    ``degenerate._kernel_is_identity`` shows that no rule can fire.  Kernelizers
    are read off their modules at call time, so a binding replaced there is called.
    """
    if strategy == "oracle":
        return inst, ReductionLog()
    if strategy == "quasiwide":
        return quasiwide.kernelize_quasiwide(inst, params)
    if inst.problem is Problem.DSR:
        kernel, log, _core = dsr.kernelize_dsr(inst)
        return kernel, log
    if degenerate._kernel_is_identity(inst):
        return inst, ReductionLog()
    kern = degenerate.kernelize_degenerate(inst)
    return kern.kernel, kern.log


def _solve(
    inst: Instance, strategy: str, params: QuasiWideParams | None, budget: int
) -> SolveResult:
    """Kernelize ``inst`` under ``strategy``, then search the kernel.

    Every deletion preserves the answer, so the verdict applies to ``inst``,
    and a yes-sequence never touches a deleted vertex, so it is valid there.
    """
    kernel, log = _kernelize(inst, strategy, params)
    return SolveResult(bfs_reconfig(kernel, budget), log, kernel)


def solve_isr_degenerate(inst: Instance, budget: int = DEFAULT_STATE_BUDGET) -> SolveResult:
    """The low-degree kernel, then the search; its witness is not claimed
    shortest for ``inst``."""
    if inst.problem is not Problem.ISR:
        raise ValueError("this reduction applies to ISR instances only")
    return _solve(inst, "auto", None, budget)


def solve_isr_quasiwide(
    inst: Instance, params: QuasiWideParams, budget: int = DEFAULT_STATE_BUDGET
) -> SolveResult:
    """The scattered-set kernel, then the search of the residual graph."""
    return _solve(inst, "quasiwide", params, budget)


def solve_dsr(inst: Instance, budget: int = DEFAULT_STATE_BUDGET) -> SolveResult:
    """The domination core, strong-irrelevance removal, then the search.

    Only strongly irrelevant vertices are deleted, so a yes-sequence is also
    shortest for ``inst``.
    """
    if inst.problem is not Problem.DSR:
        raise ValueError("solve_dsr applies to DSR instances only")
    return _solve(inst, "auto", None, budget)


def _cmd_solve(args) -> int:
    inst = _read_instance(args)
    start = time.perf_counter()
    result = _solve(inst, args.strategy, _quasiwide_params(args), args.state_budget)
    ms = int((time.perf_counter() - start) * 1000)
    _emit(
        serialize_report(result.outcome, result.log, result.kernel.graph, ms=ms),
        args.out,
    )
    return _EXIT_CODES[result.outcome.verdict]


def _cmd_kernelize(args) -> int:
    kernel, log = _kernelize(_read_instance(args), args.strategy, _quasiwide_params(args))
    payload = {
        "instance": serialize_instance(kernel),
        "kernel": kernel_to_json(kernel.graph, log),
        "rules": rules_to_json(log),
    }
    _emit(layout_json(payload), args.out)
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
    _emit(layout_json(payload), args.out)
    return EX_OK


def _cmd_stats(args) -> int:
    inst = parse_instance(_read_input(args.instance))
    g = inst.graph
    _, pos, nbr = bitset_index(g)
    every = (1 << g.n) - 1
    anchors = mask_of(pos, inst.anchors)
    classes = closed_cells(nbr, set_bits(every & ~anchors), anchors)
    payload = {
        "problem": inst.problem.value,
        "n": g.n,
        "m": g.m,
        "k": inst.k,
        "degeneracy": degeneracy_core(nbr, every)[0],
        "contains_biclique": {str(d): contains_biclique(g, d) for d in (2, 3)},
        "class_sizes": sorted((len(vs) for vs in classes.values()), reverse=True),
    }
    _emit(layout_json(payload), args.out)
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
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args.out:
            _check_out(args.out)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"tokenjump: error: {exc}", file=sys.stderr)
        return EX_USAGE
    except _OutputError as exc:
        print(f"tokenjump: error: {exc}", file=sys.stderr)
        return EX_CANTCREAT
    except (InstanceFormatError, ReportFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"tokenjump: error: {exc}", file=sys.stderr)
        return EX_DATA
    except Exception as exc:  # a defect or exhausted memory, never a "no"
        print(f"tokenjump: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
