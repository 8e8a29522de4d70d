"""Dominating set reconfiguration via bounded domination cores.

A core is a vertex set C such that, for every candidate set of size at most
k+1, dominating C is equivalent to dominating the whole graph.  Sets in a
reconfiguration sequence never exceed k+1 vertices, so the size-bounded core
property is exactly what the correctness argument consumes.  The core is
shrunk greedily from V; each removal test is a search tree of depth k+1 over
closed-neighborhood bitmasks.  The bits run in descending degree order, so a
node branches on the dominators of its top needed bit, the needed vertex of
least degree (two for a pendant leaf).  The last level does not branch: the
needed vertices' closed masks are ANDed together and the test fails as soon
as no allowed vertex is left in the result.
Vertices outside the core and the endpoint sets that share their
core-neighborhood with another such vertex are strongly irrelevant: deleting
them preserves not just the answer but shortest sequence lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bitset_index
from .instances import (
    RULE_CORE_TWIN,
    Instance,
    Problem,
    ReductionLog,
    ReductionStep,
    replay_reductions,
)

__all__ = [
    "InfeasibleInstanceError",
    "DominationCore",
    "compute_bounded_core",
    "remove_core_twins",
    "kernelize_dsr",
]


class InfeasibleInstanceError(ValueError):
    """The graph has no dominating set within the requested size."""


@dataclass(frozen=True)
class DominationCore:
    """Core C: a set of at most k+1 vertices dominates C iff it dominates V."""

    core: frozenset[int]


def _dominated(closed: list[int], needed: int, allowed: int, budget: int) -> bool:
    """Whether at most ``budget`` vertices of ``allowed`` dominate ``needed``.

    Bounded search tree over closed-neighborhood bitmasks whose bits run in
    descending degree order: branch on the top bit of ``needed``, the needed
    vertex of least degree, leaving a dominator already tried out of later
    siblings.  With budget 1 the one dominator must lie in every needed
    vertex's closed mask, so those masks are ANDed into ``allowed`` until the
    result is 0.  ``budget`` is at least 1.
    """
    if not needed:
        return True
    if budget == 1:
        while needed:
            low = needed & -needed
            needed ^= low
            allowed &= closed[low.bit_length() - 1]
            if not allowed:
                return False
        return True
    cands = closed[needed.bit_length() - 1] & allowed
    while cands:
        low = cands & -cands
        cands ^= low
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
    # Stable sort: among equal degrees, bits keep ascending ids.
    order = sorted(g.vertices, key=g.degree, reverse=True)
    verts, pos, nbr = bitset_index(g, order)
    closed = [mask | 1 << i for i, mask in enumerate(nbr)]
    full = (1 << len(verts)) - 1
    if not _dominated(closed, full, full, k):
        raise InfeasibleInstanceError(f"graph has no dominating set of size <= {k}")
    core_mask = full
    for v in g.vertices:
        i = pos[v]
        bit = 1 << i
        if not _dominated(closed, core_mask & ~bit, full & ~closed[i], k + 1):
            core_mask &= ~bit
    core = frozenset(v for v in verts if core_mask >> pos[v] & 1)
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
    return inst.with_graph(replay_reductions(g, log)), log


def kernelize_dsr(inst: Instance) -> tuple[Instance, ReductionLog, DominationCore]:
    core = compute_bounded_core(inst.graph, inst.k)
    kernel, log = remove_core_twins(inst, core)
    return kernel, log, core
