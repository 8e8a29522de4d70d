"""Kernelization pipeline for independent set reconfiguration on sparse graphs.

Two answer-preserving deletion rules run to a fixpoint: closed-twin removal,
and an irrelevant-vertex rule that extracts a sunflower with 2k petals from
the closed neighborhoods of low-degree vertices whenever there are more of
them than ``low_degree_threshold(d, k)``.  Every deletion carries a
certificate that can be re-checked by replaying the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .engine import DEFAULT_STATE_BUDGET, SolveResult, bfs_reconfig
from .graph import degeneracy_order
from .instances import (
    RULE_SUNFLOWER,
    RULE_TWIN,
    Instance,
    Problem,
    ReductionLog,
    ReductionStep,
)
from .sunflower import SetFamily, find_sunflower

__all__ = [
    "DegenerateKernel",
    "low_degree_threshold",
    "kernel_vertex_bound",
    "remove_closed_twins",
    "reduce_low_degree_once",
    "reduce_to_fixpoint",
    "kernelize_degenerate",
    "solve_isr_degenerate",
]


def low_degree_threshold(d: int, k: int) -> int:
    """Count of degree-<=2d non-anchor vertices above which a deletion fires."""
    return math.factorial(2 * d + 1) * (2 * k - 1) ** (2 * d + 1)


def kernel_vertex_bound(d: int, k: int) -> int:
    """Certified upper bound on kernel vertices at the reduction fixpoint."""
    return (2 * d + 1) * low_degree_threshold(d, k) + 2 * k


@dataclass(frozen=True)
class DegenerateKernel:
    kernel: Instance
    log: ReductionLog
    d: int
    low_degree_bound: int
    kernel_bound: int


def _require_isr(inst: Instance) -> None:
    if inst.problem is not Problem.ISR:
        raise ValueError("this reduction applies to ISR instances only")


def remove_closed_twins(inst: Instance) -> tuple[Instance, ReductionLog]:
    """Delete one of any pair of closed twins outside the solution sets.

    Two vertices are closed twins when N[u] = N[v]; one of them never needs
    to be touched, so keeping the smaller id preserves the answer (and even
    shortest sequences).  Deleting a vertex v with a closed twin u makes no
    new twin pair and breaks none: were N[w1] and N[w2] equal but for v, the
    one of them not adjacent to v would contain u (or be u), and so be
    adjacent to v after all.  The twin groups are therefore built in one scan;
    each keeps its smallest member, and groups are emptied in order of that
    member, the order of rescanning after every deletion.
    """
    _require_isr(inst)
    g = inst.graph
    anchors = inst.anchors
    groups: dict[frozenset[int], list[int]] = {}
    for v in g.vertices:
        if v not in anchors:
            groups.setdefault(g.closed_neighbor_set(v), []).append(v)
    log = ReductionLog()
    for survivor, *doomed in groups.values():
        for v in doomed:
            log.append(ReductionStep(RULE_TWIN, v, {"survivor": survivor}))
    if log.steps:
        g = g.induced_subgraph(g.vertex_set.difference(log.deleted_vertices()))
    return inst.with_graph(g), log


def reduce_low_degree_once(
    inst: Instance, d: int
) -> Optional[tuple[Instance, ReductionStep]]:
    """Try to delete one irrelevant low-degree vertex, with a sunflower certificate.

    ``d`` must be at least the degeneracy of the graph (0 is allowed, for
    edgeless graphs).  Expects closed twins outside the solution sets to have
    been removed already, which makes the closed neighborhoods of the
    low-degree vertices pairwise distinct.  Returns None when the count of
    low-degree non-anchor vertices is not strictly above the threshold.
    """
    _require_isr(inst)
    if d < 0:
        raise ValueError("d must be >= 0")
    g = inst.graph
    anchors = inst.anchors
    low = [v for v in g.vertices if v not in anchors and g.degree(v) <= 2 * d]
    if len(low) <= low_degree_threshold(d, inst.k):
        return None
    family = SetFamily(
        [g.closed_neighbor_set(b) for b in low], card_bound=2 * d + 1
    )
    flower = find_sunflower(family, 2 * inst.k)
    if flower is None or len(flower.petal_indices) < 2 * inst.k:
        raise RuntimeError(
            "sunflower extraction failed above the guarantee threshold"
        )
    centers = [low[i] for i in flower.petal_indices]
    center = centers[0]
    step = ReductionStep(
        RULE_SUNFLOWER,
        center,
        {"core": sorted(flower.core), "petal_centers": centers},
    )
    return inst.with_graph(g.delete_vertex(center)), step


Rule = Callable[[Instance], Optional[tuple[Instance, ReductionStep]]]


def reduce_to_fixpoint(inst: Instance, rule: Rule) -> tuple[Instance, ReductionLog]:
    """Alternate twin removal and one deletion by ``rule`` until it finds none.

    Both ISR kernels share this loop; they differ only in the rule that finds
    the certifying sunflower.
    """
    cur = inst
    log = ReductionLog()
    while True:
        cur, twin_log = remove_closed_twins(cur)
        log.extend(twin_log.steps)
        reduced = rule(cur)
        if reduced is None:
            return cur, log
        cur, step = reduced
        log.append(step)


def kernelize_degenerate(inst: Instance) -> DegenerateKernel:
    """Alternate twin removal and the low-degree rule to a fixpoint.

    The degeneracy is recomputed before every attempt, so the threshold only
    shrinks as the graph does.  The certified size bound is checked before
    returning; a violation signals an implementation bug, not bad input.
    """
    _require_isr(inst)
    cur, log = reduce_to_fixpoint(
        inst, lambda cur: reduce_low_degree_once(cur, degeneracy_order(cur.graph).d)
    )
    d = degeneracy_order(cur.graph).d
    low_bound = low_degree_threshold(d, cur.k)
    total_bound = kernel_vertex_bound(d, cur.k)
    anchors = cur.anchors
    g = cur.graph
    low_count = sum(
        1 for v in g.vertices if v not in anchors and g.degree(v) <= 2 * d
    )
    non_anchor = g.n - len(anchors & g.vertex_set)
    if low_count > low_bound or non_anchor > (2 * d + 1) * low_bound or g.n > total_bound:
        raise RuntimeError("kernel bound violated; this is an internal error")
    return DegenerateKernel(
        kernel=cur,
        log=log,
        d=d,
        low_degree_bound=low_bound,
        kernel_bound=total_bound,
    )


def solve_isr_degenerate(
    inst: Instance, budget: int = DEFAULT_STATE_BUDGET
) -> SolveResult:
    """Kernelize, then search the kernel.

    The verdict applies to the original instance.  A yes-sequence is valid in
    the original graph as well (deleted vertices are never touched by it) but
    is not claimed shortest for the original instance.
    """
    kern = kernelize_degenerate(inst)
    outcome = bfs_reconfig(kern.kernel, budget)
    return SolveResult(outcome=outcome, log=kern.log, kernel=kern.kernel)
