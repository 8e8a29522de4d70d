"""Irrelevant-vertex reduction built on scattered sets instead of low degree.

Vertices outside the solution sets are partitioned by their neighborhood in
the solution sets (at most 4^k classes).  In a class larger than a tunable
threshold, the reducer searches for a small deletion set B and a set A of
class vertices whose radius-2 balls are pairwise disjoint once B is removed.
Vertices of A sharing the same B-neighborhood then have closed neighborhoods
forming a sunflower whose core lies inside B and the solution sets, and one
petal center can be deleted.

The thresholds the enabling theory derives from a graph class are not
computable from a single input graph, so they are exposed as tunable search
budgets.  A deletion is performed only after the sunflower has been
constructed and validated, so correctness never depends on the parameters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .degenerate import reduce_to_fixpoint
from .engine import DEFAULT_STATE_BUDGET, SolveResult, bfs_reconfig
from .graph import Graph, bitset_index
from .instances import (
    RULE_QUASIWIDE,
    Instance,
    Problem,
    ReductionLog,
    ReductionStep,
)
from .sunflower import SetFamily, Sunflower, is_valid_sunflower

__all__ = [
    "QuasiWideParams",
    "ScatteredCertificate",
    "partition_by_solution_neighborhood",
    "find_scattered_with_deletions",
    "reduce_quasiwide_once",
    "kernelize_quasiwide",
    "solve_isr_quasiwide",
]


@dataclass(frozen=True)
class QuasiWideParams:
    """Performance knobs for the scattered-set reducer.

    ``class_threshold`` must be at least 2k for the instance at hand;
    ``max_deletions`` bounds |B|; ``search_budget`` caps how many candidate
    deletion sets are tried per reduction attempt.
    """

    class_threshold: int = 32
    max_deletions: int = 2
    search_budget: int = 10_000

    def __post_init__(self) -> None:
        if self.class_threshold < 1:
            raise ValueError("class_threshold must be >= 1")
        if self.max_deletions < 0:
            raise ValueError("max_deletions must be >= 0")
        if self.search_budget < 1:
            raise ValueError("search_budget must be >= 1")


@dataclass(frozen=True)
class ScatteredCertificate:
    """Deletion set B and a set A that is 2-scattered once B is removed."""

    deleted: frozenset[int]
    scattered: frozenset[int]


def partition_by_solution_neighborhood(
    g: Graph, anchors: frozenset[int]
) -> dict[frozenset[int], tuple[int, ...]]:
    """Partition V minus anchors into classes of equal anchor-neighborhood."""
    anchors = frozenset(anchors)
    classes: dict[frozenset[int], list[int]] = {}
    for v in g.vertices:
        if v in anchors:
            continue
        classes.setdefault(g.neighbor_set(v) & anchors, []).append(v)
    return {key: tuple(vs) for key, vs in classes.items()}


def _ball2(g: Graph, v: int, blocked: frozenset[int]) -> frozenset[int]:
    """Closed radius-2 ball around v in the graph minus ``blocked``."""
    first = g.neighbor_set(v) - blocked
    ball = set(first)
    ball.add(v)
    for w in first:
        ball.update(g.neighbor_set(w) - blocked)
    return frozenset(ball)


def _scattered_valid(g: Graph, cert: ScatteredCertificate) -> bool:
    if cert.scattered & cert.deleted:
        return False
    balls = [_ball2(g, v, cert.deleted) for v in cert.scattered]
    return sum(map(len, balls)) == len(set().union(*balls))


def _ball2_mask(nbr: list[int], i: int, blocked: int) -> int:
    """Bitmask form of ``_ball2``: the radius-2 ball of bit i minus ``blocked``."""
    first = nbr[i] & ~blocked
    ball = first | 1 << i
    while first:
        low = first & -first
        ball |= nbr[low.bit_length() - 1]
        first ^= low
    return ball & ~blocked


def _search_scattered(
    g: Graph,
    pool: list[int],
    params: QuasiWideParams,
    required: Callable[[int], int],
) -> Optional[ScatteredCertificate]:
    """Enumerate deletion sets by increasing size, high-degree vertices first.

    For each candidate B, a greedy ascending-id sweep picks vertices of the
    pool whose radius-2 balls in the graph minus B are pairwise disjoint; the
    candidate succeeds when at least ``required(|B|)`` are found, and a sweep
    stops once that is out of reach.  Balls are computed once in g; only a
    vertex with a neighbor in B needs its ball recomputed in g minus B.  The
    sweep runs on bitmasks for speed; every certificate is re-validated with
    plain set arithmetic before it is returned.
    """
    verts, pos, nbr = bitset_index(g)
    pool_idx = [pos[v] for v in pool if v in pos]
    balls = {i: _ball2_mask(nbr, i, 0) for i in pool_idx}
    ranked: list[int] = []
    budget = params.search_budget
    for size in range(params.max_deletions + 1):
        need = required(size)
        if size == 1:
            ranked = sorted(verts, key=lambda v: (-g.degree(v), v))
        for combo in itertools.combinations(ranked, size):
            if budget <= 0:
                return None
            budget -= 1
            blocked = 0
            for v in combo:
                blocked |= 1 << pos[v]
            candidates = [i for i in pool_idx if not blocked >> i & 1]
            left = len(candidates)
            used = 0
            chosen: list[int] = []
            for i in candidates:
                if len(chosen) + left < need:
                    break
                left -= 1
                if nbr[i] & blocked:
                    ball = _ball2_mask(nbr, i, blocked)
                else:
                    ball = balls[i] & ~blocked
                if used & ball:
                    continue
                chosen.append(verts[i])
                used |= ball
            if len(chosen) >= need:
                cert = ScatteredCertificate(frozenset(combo), frozenset(chosen))
                if _scattered_valid(g, cert):
                    return cert
    return None


def find_scattered_with_deletions(
    g: Graph, w: frozenset[int], target: int, params: QuasiWideParams
) -> Optional[ScatteredCertificate]:
    """Search for B with |B| <= max_deletions and a 2-scattered A of size >= target."""
    if target < 1:
        raise ValueError("target must be >= 1")
    w = frozenset(w)
    unknown = w - g.vertex_set
    if unknown:
        raise KeyError(f"vertex {min(unknown)} not in graph")
    return _search_scattered(g, sorted(w), params, lambda _size: target)


def reduce_quasiwide_once(
    inst: Instance, params: QuasiWideParams
) -> Optional[tuple[Instance, ReductionStep]]:
    """Try to delete one irrelevant vertex from an oversized class.

    Picks the largest class above ``class_threshold`` and searches for a
    scattered set inside it, in the graph without the solution vertices.  A
    candidate deletion set B of size s must come with at least 2k * 2^s
    scattered vertices, so that some subclass of equal B-neighborhood keeps
    2k of them; their closed neighborhoods form the certifying sunflower.
    Expects closed twins outside the solution sets to be removed already.
    A certificate that fails validation is an internal error: by pigeonhole
    some cell holds 2k vertices, and the scattered balls make their closed
    neighborhoods meet exactly in the shared anchor and B neighbors.
    """
    if inst.problem is not Problem.ISR:
        raise ValueError("this reduction applies to ISR instances only")
    two_k = 2 * inst.k
    if params.class_threshold < two_k:
        raise ValueError(f"class_threshold must be >= 2k = {two_k}")
    g = inst.graph
    anchors = inst.anchors
    classes = partition_by_solution_neighborhood(g, anchors)
    oversized = [
        (len(vs), tuple(sorted(key)), vs)
        for key, vs in classes.items()
        if len(vs) > params.class_threshold
    ]
    if not oversized:
        return None
    oversized.sort(key=lambda t: (-t[0], t[1]))
    pool = list(oversized[0][2])
    rest = g.induced_subgraph([v for v in g.vertices if v not in anchors])
    cert = _search_scattered(rest, pool, params, lambda size: two_k << size)
    if cert is None:
        return None
    cells: dict[frozenset[int], list[int]] = {}
    for a in sorted(cert.scattered):
        cells.setdefault(g.neighbor_set(a) & cert.deleted, []).append(a)
    petals = min(cells.items(), key=lambda kv: (-len(kv[1]), sorted(kv[0])))[1]
    family = SetFamily([g.closed_neighbor_set(a) for a in petals])
    core = family.members[0] & family.members[1]
    flower = Sunflower(core=core, petal_indices=tuple(range(len(petals))))
    if not (
        is_valid_sunflower(family, flower, petals_wanted=two_k)
        and core <= cert.deleted | anchors
    ):
        raise RuntimeError("scattered-set sunflower failed validation")
    center = petals[0]
    step = ReductionStep(
        RULE_QUASIWIDE,
        center,
        {
            "core": sorted(core),
            "petal_centers": list(petals),
            "deletions": sorted(cert.deleted),
        },
    )
    return inst.with_graph(g.delete_vertex(center)), step


def kernelize_quasiwide(
    inst: Instance, params: QuasiWideParams
) -> tuple[Instance, ReductionLog]:
    """Alternate twin removal and the scattered-set rule to a fixpoint."""
    return reduce_to_fixpoint(inst, lambda cur: reduce_quasiwide_once(cur, params))


def solve_isr_quasiwide(
    inst: Instance,
    params: QuasiWideParams | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> SolveResult:
    """Reduce to a fixpoint, then search the residual graph."""
    if params is None:
        params = QuasiWideParams()
    kernel, log = kernelize_quasiwide(inst, params)
    outcome = bfs_reconfig(kernel, budget)
    return SolveResult(outcome=outcome, log=log, kernel=kernel)
