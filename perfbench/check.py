"""The correctness gate every request passes through, and its self-test."""

from __future__ import annotations

import json
from collections import Counter
from typing import Optional

from tokenjump.engine import ReconfSequence, verify_sequence
from tokenjump.instances import (
    Problem,
    ReductionLog,
    ReductionStep,
    ReportFormatError,
    parse_report,
    replay_reductions,
)

from workloads import Case, Result

EXIT_CODE = {"yes": 0, "no": 1, "unknown": 2}


def _sequence(report: dict) -> ReconfSequence:
    return ReconfSequence(tuple(frozenset(v - 1 for v in s) for s in report["sequence"]))


def failure(case: Case, result: Result) -> Optional[str]:
    """Why ``result`` is wrong for ``case``, or None when it passes every check."""
    try:
        report = parse_report(result.report)
    except ReportFormatError as exc:
        return f"malformed report: {exc}"
    answer = report["answer"]
    if result.code != EXIT_CODE[answer]:
        return f"exit code {result.code} for answer {answer!r}"
    if answer != case.expected.answer:
        return f"answer {answer!r}, oracle says {case.expected.answer!r}"
    if answer == "yes":
        seq = _sequence(report)
        bad = verify_sequence(case.solved, seq)
        if bad is not None:
            return f"witness rejected: {bad.message}"
        if case.solved.problem is Problem.DSR and seq.length != case.expected.length:
            return f"DSR witness has length {seq.length}, oracle {case.expected.length}"
        if case.strategy == "gadget":
            if result.projected is None:
                return "gadget witness was not projected back"
            bad = verify_sequence(case.source, result.projected)
            if bad is not None:
                return f"projected witness rejected: {bad.message}"
    log = ReductionLog([ReductionStep(r["rule"], r["vertex"] - 1, {}) for r in report["rules"]])
    try:
        kernel = replay_reductions(case.solved.graph, log)
    except KeyError as exc:
        return f"replay failed: {exc}"
    claimed = report["kernel"]
    if (
        [v - 1 for v in claimed["deleted"]] != log.deleted_vertices()
        or (kernel.n, kernel.m) != (claimed["n"], claimed["m"])
    ):
        return "replaying the rule log does not give the reported kernel"
    return None


class Tally:
    """Attempted and failed requests, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: Counter[str] = Counter()

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    def record(self, reason: Optional[str]) -> None:
        self.attempted += 1
        if reason is not None:
            self.reasons[reason.split(":")[0]] += 1


def judge(tally: Tally, case: Case, result: Optional[Result], error: Optional[BaseException]) -> bool:
    """Count one request; a crash is a failure like any wrong output."""
    if error is not None:
        reason = f"crash: {type(error).__name__}"
    else:
        reason = failure(case, result)
    tally.record(reason)
    return reason is None


def self_test(case: Case, good: Result) -> list[str]:
    """Feed the gate six bad results derived from a good one.

    ``case`` must be a DSR yes-instance whose witness has at least one jump
    and whose reduction deleted at least one vertex.  Returns the problems
    found with the gate itself (empty when it catches all six).
    """
    report = json.loads(good.report)
    reason = failure(case, good)
    if reason is not None:
        return [f"gate rejects a good result: {reason}"]
    if report["answer"] != "yes" or len(report["sequence"]) < 3 or not report["rules"]:
        return ["self-test case needs a yes witness with a jump and a deletion"]

    def variant(**changes) -> Result:
        return Result(good.code, json.dumps({**report, **changes}))

    no = {k: v for k, v in report.items() if k != "sequence"}
    seq = report["sequence"]
    first = set(seq[0])
    extra = min(v for v in range(1, case.solved.graph.n + 1) if v not in first)
    detour = [seq[0], sorted(first | {extra}), seq[0]] + seq[1:]
    bad = {
        "flipped verdict": Result(1, json.dumps({**no, "answer": "no"})),
        "illegal step": variant(sequence=[seq[0]] + seq[2:]),
        "witness one jump longer": variant(sequence=detour),
        "replay misses a vertex": variant(rules=report["rules"][1:]),
        "wrong exit code": Result(1, good.report),
    }
    tally = Tally()
    slipped = [name for name, result in bad.items() if judge(tally, case, result, None)]
    if judge(tally, case, None, RuntimeError("request crashed")):
        slipped.append("crashed request")
    if slipped or tally.failed != 6:
        return [f"gate passed {slipped}; counted {tally.failed} of 6 as failed"]
    return []
