"""The three workloads: instance pools drawn from a seed, and the request each sends.

A request is what ``tokenjump solve - --strategy S`` does, run in-process:
instance text in, exit code and JSON report out.  The ``gadget`` request is
``tokenjump convert`` followed by ``solve`` on the gadget and a projection of
the witness back to the ISR instance.

Each pool is stratified: instance sizes come from a fixed grid that every
seed shares, and the seed only draws the graphs and endpoint sets.  That
keeps the pool's cost from one seed to the next within the benchmark's
bounds without selecting instances by their answer.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from tokenjump import cli, hardness
from tokenjump.engine import ReconfSequence, SearchOutcome, Verdict, bfs_reconfig
from tokenjump.graph import Graph
from tokenjump.instances import (
    Instance,
    Problem,
    gen_random_degenerate,
    parse_instance,
    parse_report,
    plant_isr_instance,
    serialize_instance,
)

ANSWER = {Verdict.YES: "yes", Verdict.NO: "no", Verdict.EXHAUSTED: "unknown"}


@dataclass(frozen=True)
class Expected:
    """The oracle's answer: plain BFS on the unreduced instance."""

    answer: str
    length: Optional[int]
    oracle_ms: float


@dataclass(frozen=True)
class Case:
    """One request of a workload, with what the checker needs to judge it.

    ``solved`` is the instance the DSR/ISR solver runs on and ``expected`` is
    the oracle's answer for it.  For gadget requests ``source`` is the ISR
    instance the request starts from and ``source_answer`` its own oracle
    verdict; for the others both describe ``solved`` itself.
    """

    text: str
    strategy: str
    solved: Instance
    expected: Expected
    source: Instance
    source_answer: str


@dataclass(frozen=True)
class Result:
    code: int
    report: str
    projected: Optional[ReconfSequence] = None


def oracle(inst: Instance) -> Expected:
    start = time.perf_counter()
    out: SearchOutcome = bfs_reconfig(inst)
    ms = (time.perf_counter() - start) * 1000
    length = out.sequence.length if out.sequence is not None else None
    return Expected(ANSWER[out.verdict], length, ms)


@contextlib.contextmanager
def _stdin(text: str):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def solve_text(text: str, strategy: str) -> Result:
    """Run ``tokenjump solve - --strategy <strategy>`` on ``text`` in-process."""
    out = io.StringIO()
    with _stdin(text), contextlib.redirect_stdout(out):
        code = cli.main(["solve", "-", "--strategy", strategy])
    return Result(code, out.getvalue())


def solve_gadget(text: str) -> Result:
    """Convert an ISR instance to the DSR gadget, solve it, project the witness."""
    isr = cli.parse_instance(text)
    gadget, gmap = hardness.isr_to_dsr(isr)
    result = solve_text(serialize_instance(gadget), "auto")
    report = parse_report(result.report)
    if report["answer"] != "yes":
        return result
    seq = ReconfSequence(
        tuple(frozenset(v - 1 for v in s) for s in report["sequence"])
    )
    return Result(result.code, result.report, hardness.map_sequence_back(gmap, seq))


def run_request(case: Case) -> Result:
    if case.strategy == "gadget":
        return solve_gadget(case.text)
    return solve_text(case.text, case.strategy)


# -- instance pools -----------------------------------------------------------


def _grid(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spread evenly over [lo, hi], the same for every seed."""
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def _planted_isr(rng: random.Random, n: int, d: int, k: int) -> Instance:
    while True:
        seed = rng.randrange(2**31)
        inst = plant_isr_instance(gen_random_degenerate(n, d, seed), k, seed)
        if inst is not None:
            return inst


def _dominating_sets(g: Graph, k: int) -> list[frozenset[int]]:
    closed = [sum(1 << w for w in g.closed_neighbor_set(v)) for v in g.vertices]
    full = (1 << g.n) - 1
    found = []
    for combo in itertools.combinations(range(g.n), k):
        mask = 0
        for v in combo:
            mask |= closed[v]
        if mask == full:
            found.append(frozenset(combo))
    return found


def _pendant_dsr(rng: random.Random, n: int, k: int) -> Instance:
    """Leaves piled onto at most k-1 hubs of a small random base.

    Every dominating k-set then holds the hubs, so its remaining tokens roam
    the base.  ``plant_dsr_instance`` rarely finds such sets, so the endpoints
    are drawn from all dominating k-sets instead.  The self-test of the
    correctness gate uses one such instance for its DSR cases.
    """
    while True:
        size = rng.randint(8, 10)
        base = gen_random_degenerate(size, 2, rng.randrange(2**31))
        hubs = rng.sample(range(size), rng.randint(1, k - 1))
        edges = list(base.edges())
        edges += [(hubs[i % len(hubs)], leaf) for i, leaf in enumerate(range(size, n))]
        g = Graph(range(n), edges)
        doms = _dominating_sets(g, k)
        if len(doms) >= 2:
            source, target = rng.sample(doms, 2)
            return Instance(Problem.DSR, g, k, source, target)


def _isr_sparse(rng: random.Random) -> list[tuple[Instance, str]]:
    # Forests (d=1, k=2) past the low-degree threshold of 162: both reducers
    # delete there.  d=2..3 graphs: `auto` deletes nothing and `quasiwide`
    # searches its oversized class in vain.  With 36 graphs to 14 forests the
    # median falls among the quasiwide searches on graphs and the 90th
    # percentile among quasiwide on forests, not on a boundary between kinds.
    instances = [_planted_isr(rng, n, 2 + i % 2, 2) for i, n in enumerate(_grid(60, 66, 36))]
    instances += [_planted_isr(rng, n, 1, 2) for n in _grid(240, 250, 14)]
    return [(inst, s) for inst in instances for s in ("auto", "quasiwide")]


def _isr_search(rng: random.Random) -> list[tuple[Instance, str]]:
    # d >= 2 puts the low-degree threshold at 29160 or more: nothing is
    # deleted and the BFS does the work.
    return [
        (_planted_isr(rng, n, 2 + i % 2, 3), "auto")
        for i, n in enumerate(_grid(38, 44, 150))
    ]


def _dsr_gadget(rng: random.Random) -> list[tuple[Instance, str]]:
    # ISR trees with n=4 and k=2 give gadgets of 56 vertices.  n=5 (70
    # vertices) costs about three times as much per request.  k=3 gadgets
    # (~225 vertices) exhaust memory in the core enumeration.
    return [(_planted_isr(rng, 4, 1, 2), "gadget") for _ in range(100)]


WORKLOADS: dict[str, Callable[[random.Random], list[tuple[Instance, str]]]] = {
    "isr-sparse": _isr_sparse,
    "isr-search": _isr_search,
    "dsr-gadget": _dsr_gadget,
}


def build_cases(workload: str, seed: int) -> list[Case]:
    """Draw the workload's pool from ``seed`` and compute the oracle answers."""
    rng = random.Random(f"{workload}/{seed}")
    cases = []
    answers: dict[str, Expected] = {}  # isr-sparse sends each instance twice
    for inst, strategy in WORKLOADS[workload](rng):
        text = serialize_instance(inst)
        inst = parse_instance(text)
        if text not in answers:
            answers[text] = oracle(inst)
        own = answers[text]
        if strategy == "gadget":
            gadget, _ = hardness.isr_to_dsr(inst)
            cases.append(Case(text, strategy, gadget, oracle(gadget), inst, own.answer))
        else:
            cases.append(Case(text, strategy, inst, own, inst, own.answer))
    return cases
