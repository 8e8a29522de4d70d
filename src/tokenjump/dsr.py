"""Dominating set reconfiguration via bounded domination cores.

A core is a vertex set C such that, for every candidate set of size at most
k+1, dominating C is equivalent to dominating the whole graph.  Sets in a
reconfiguration sequence never exceed k+1 vertices, so the size-bounded core
property is exactly what the correctness argument consumes.  The core is
shrunk greedily from V; each removal test is a search tree of depth k+1 over
closed-neighborhood bitmasks, whose branching factor is the number of
dominators of the least-dominated needed vertex (two for a pendant leaf).
Vertices outside the core and the endpoint sets that share their
core-neighborhood with another such vertex are strongly irrelevant: deleting
them preserves not just the answer but shortest sequence lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import DEFAULT_STATE_BUDGET, SolveResult, bfs_reconfig
from .graph import Graph, bitset_index
from .instances import (
    RULE_CORE_TWIN,
    Instance,
    Problem,
    ReductionLog,
    ReductionStep,
)

__all__ = [
    "InfeasibleInstanceError",
    "DominationCore",
    "compute_bounded_core",
    "remove_core_twins",
    "kernelize_dsr",
    "solve_dsr",
]


class InfeasibleInstanceError(ValueError):
    """The graph has no dominating set within the requested size."""


@dataclass(frozen=True)
class DominationCore:
    """Core C: a set of at most k+1 vertices dominates C iff it dominates V."""

    core: frozenset[int]


def _dominated(closed: list[int], needed: int, allowed: int, budget: int) -> bool:
    """Whether at most ``budget`` vertices of ``allowed`` dominate ``needed``.

    Bounded search tree over closed-neighborhood bitmasks: branch on the
    needed vertex with the fewest dominators in ``allowed``; one with none
    ends the branch.  A dominator already tried is left out of later siblings.
    """
    if not needed:
        return True
    if not budget:
        return False
    best, best_count = 0, -1
    rest = needed
    while rest:
        low = rest & -rest
        rest ^= low
        cands = closed[low.bit_length() - 1] & allowed
        count = cands.bit_count()
        if not count:
            return False
        if best_count < 0 or count < best_count:
            best, best_count = cands, count
    while best:
        low = best & -best
        best ^= low
        if _dominated(closed, needed & ~closed[low.bit_length() - 1], allowed, budget - 1):
            return True
        allowed ^= low
    return False


def compute_bounded_core(g: Graph, k: int) -> DominationCore:
    """Greedily shrink C from V while the bounded core property is preserved.

    In ascending vertex order, w leaves C when no set of at most k+1 vertices
    outside N[w] dominates C minus w, decided by a search tree of depth k+1.
    One pass suffices: a witness that keeps w also keeps it for every smaller
    C.  Raises InfeasibleInstanceError when the graph has no dominating set of
    size <= k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    verts, _pos, nbr = bitset_index(g)
    closed = [mask | 1 << i for i, mask in enumerate(nbr)]
    full = (1 << len(verts)) - 1
    if not _dominated(closed, full, full, k):
        raise InfeasibleInstanceError(f"graph has no dominating set of size <= {k}")
    core_mask = full
    for i, mask in enumerate(closed):
        bit = 1 << i
        if not _dominated(closed, core_mask & ~bit, full & ~mask, k + 1):
            core_mask &= ~bit
    core = frozenset(v for i, v in enumerate(verts) if core_mask >> i & 1)
    return DominationCore(core=core)


def remove_core_twins(
    inst: Instance, core: DominationCore
) -> tuple[Instance, ReductionLog]:
    """Keep one vertex per core-neighborhood cell outside C and the endpoints.

    The deleted vertices are strongly irrelevant, so shortest reconfiguration
    distances between the endpoints are preserved exactly.
    """
    if inst.problem is not Problem.DSR:
        raise ValueError("core-twin removal applies to DSR instances only")
    g = inst.graph
    protected = core.core | inst.anchors
    cells: dict[frozenset[int], list[int]] = {}
    for v in g.vertices:
        if v in protected:
            continue
        cells.setdefault(g.neighbor_set(v) & core.core, []).append(v)
    log = ReductionLog()
    for key in sorted(cells, key=lambda s: tuple(sorted(s))):
        survivor, *doomed = cells[key]
        for v in doomed:
            cert = {"survivor": survivor, "shared_core_neighborhood": sorted(key)}
            log.append(ReductionStep(RULE_CORE_TWIN, v, cert))
    if log.steps:
        g = g.induced_subgraph(g.vertex_set.difference(log.deleted_vertices()))
    return inst.with_graph(g), log


def kernelize_dsr(inst: Instance) -> tuple[Instance, ReductionLog, DominationCore]:
    core = compute_bounded_core(inst.graph, inst.k)
    kernel, log = remove_core_twins(inst, core)
    return kernel, log, core


def solve_dsr(inst: Instance, budget: int = DEFAULT_STATE_BUDGET) -> SolveResult:
    """Core computation, strong-irrelevance removal, then kernel search.

    Because only strongly irrelevant vertices are deleted, a yes-sequence is
    shortest for the original instance, and it is valid there as well.
    """
    if inst.problem is not Problem.DSR:
        raise ValueError("solve_dsr applies to DSR instances only")
    kernel, log, _core = kernelize_dsr(inst)
    outcome = bfs_reconfig(kernel, budget)
    return SolveResult(outcome=outcome, log=log, kernel=kernel)
