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

The kernel reduces one ``degenerate.Workspace`` from start to fixpoint.
Anchors are never deleted, so the classes are computed once, and each
radius-2 ball is computed once and kept until a deletion next to its centre
(a deletion two steps away only clears its bit).  The certifying sunflower
is checked, and its first petal deleted, by ``Workspace.delete_petal``, the
step the low-degree rule takes too.  The docstring of
``_ScatteredWorkspace.search`` gives the order in which B is tried, how
sweeps and whole runs of deletion sets are cut short, and why the cuts
change no result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator, Optional

from .degenerate import Workspace
from .graph import Graph, closed_cells, set_bits, union_of
from .instances import (
    RULE_QUASIWIDE,
    Instance,
    Problem,
    ReductionLog,
    ReductionStep,
)

__all__ = ["QuasiWideParams", "kernelize_quasiwide"]


@dataclass(frozen=True)
class QuasiWideParams:
    """Performance knobs for the scattered-set reducer.

    A class is searched when it has more than ``class_threshold`` vertices;
    a threshold below 2k for the instance at hand acts as 2k.
    ``max_deletions`` bounds |B|; ``search_budget`` caps how many candidate
    deletion sets are tried per reduction attempt, counting B = {} and every
    set the search rules out without a sweep.
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


def _ball2_mask(nbr: list[int], i: int, blocked: int) -> int:
    """The closed radius-2 ball of bit i in the graph minus ``blocked``."""
    first = nbr[i] & ~blocked
    return (union_of(nbr, first) | first | 1 << i) & ~blocked


def _balls_disjoint(nbr: list[int], chosen: list[int], blocked: int) -> bool:
    """Whether the chosen bits avoid ``blocked`` and have pairwise disjoint balls."""
    used = 0
    for i in chosen:
        if blocked >> i & 1:
            return False
        ball = _ball2_mask(nbr, i, blocked)
        if used & ball:
            return False
        used |= ball
    return True


def _checked(nbr: list[int], chosen: list[int], blocked: int) -> list[int]:
    """The chosen bits, once ``_balls_disjoint`` confirms them; else an internal error."""
    if not _balls_disjoint(nbr, chosen, blocked):
        raise RuntimeError("scattered set failed validation")
    return chosen


def _conflicts(
    pool: list[int], pool_mask: int, balls: dict[int, int], top: int
) -> tuple[dict[int, int], int]:
    """Robust conflicts of the pool, and the size of a clique cover of them.

    Two pool vertices conflict robustly when their balls share more than
    ``top`` vertices; each vertex gets the mask of its robust partners.  The
    cover seeds its cliques, and grows them, in order of ascending robust
    degree (ties by position): a vertex with few conflicts is covered early
    by a small clique instead of splitting a large one later.
    """
    robust = dict.fromkeys(pool, 0)
    for a, i in enumerate(pool):
        ball = balls[i]
        for j in pool[a + 1 :]:
            if (ball & balls[j]).bit_count() > top:
                robust[i] |= 1 << j
                robust[j] |= 1 << i
    order = sorted(pool, key=lambda i: (robust[i].bit_count(), i))
    cover = 0
    uncovered = pool_mask
    for a, i in enumerate(order):
        if not uncovered >> i & 1:
            continue
        uncovered ^= 1 << i
        common = robust[i] & uncovered
        for j in order[a + 1 :]:
            if not common:
                break
            if common >> j & 1:
                uncovered ^= 1 << j
                common &= robust[j]
        cover += 1
    return robust, cover


def _largest_sums(counts: list[int], top: int) -> list[tuple[int, ...]]:
    """For each start s, the sums of the 0, 1, ..., ``top`` largest of counts[s:]."""
    sums = [(0,)] * (len(counts) + 1)
    largest: list[int] = []
    for s in range(len(counts) - 1, -1, -1):
        largest = sorted(largest + [counts[s]], reverse=True)[:top]
        sums[s] = tuple(itertools.accumulate(largest, initial=0))
    return sums


def _deletion_sets(
    nbr: list[int],
    ranked: list[int],
    size: int,
    hopeless: Callable[[int, int, int, int], bool],
) -> Iterator[tuple[int, Optional[int], int]]:
    """The ``size``-sets of ``ranked`` in lexicographic order, with runs cut.

    Yields ``(1, blocked, near)`` for each set looked at, with its bit mask
    and the union of its members' neighbor masks, and ``(count, None, 0)``
    for each run of ``count`` consecutive sets skipped unseen.  A run is the
    sets that extend a prefix, given by its ``blocked`` and ``near`` masks,
    with ``more`` members from ``ranked[start:]``; it is skipped when
    ``hopeless(blocked, near, more, start)``.  The walk recurses one level
    per member of the deletion set, so it is ``size`` levels deep.
    """
    n = len(ranked)

    def extend(
        start: int, blocked: int, near: int, more: int
    ) -> Iterator[tuple[int, Optional[int], int]]:
        for t in range(start, n - more + 1):
            if hopeless(blocked, near, more, t):
                yield comb(n - t, more), None, 0
                return
            v = ranked[t]
            if more == 1:
                yield 1, blocked | 1 << v, near | nbr[v]
            else:
                yield from extend(t + 1, blocked | 1 << v, near | nbr[v], more - 1)

    return extend(0, 0, 0, size)


class _ScatteredWorkspace(Workspace):
    """Workspace for the scattered-set rule.

    "Rest", the graph the search runs in, is the live non-anchor part.
    Anchors are never deleted, so the classes are computed once, keyed by
    the mask of the anchors their members see, with members ascending, and
    held in ascending order of their keys' anchor positions, the tie-break
    between the largest; a deleted position leaves the class its anchor
    neighbors key.  Each pool vertex's radius-2 ball in the rest is cached
    until a deletion at or next to its centre; a ball centred two steps away
    only loses the deleted bit.
    """

    def __init__(self, graph: Graph, anchors: frozenset[int]) -> None:
        super().__init__(graph, anchors)
        rest = set_bits(self.alive & ~self.anchor_mask)
        classes = closed_cells(self.nbr, rest, self.anchor_mask)
        self._classes = dict(sorted(classes.items(), key=lambda kv: list(set_bits(kv[0]))))
        self._balls: dict[int, int] = {}

    def delete(self, i: int, step: ReductionStep) -> int:
        nb = super().delete(i, step)
        self._classes[nb & self.anchor_mask].remove(i)
        balls, bit = self._balls, 1 << i
        first = nb & ~self.anchor_mask
        balls.pop(i, None)
        for w in set_bits(first):
            balls.pop(w, None)
        for j in set_bits(union_of(self.nbr, first) & ~(first | self.anchor_mask)):
            ball = balls.get(j)
            if ball is not None:
                balls[j] = ball & ~bit
        return nb

    def _ball(self, i: int) -> int:
        """Cached radius-2 ball of position i in the rest."""
        ball = self._balls.get(i)
        if ball is None:
            ball = self._balls[i] = _ball2_mask(self.nbr, i, self.anchor_mask)
        return ball

    def search(
        self, pool: list[int], params: QuasiWideParams, required: Callable[[int], int]
    ) -> Optional[tuple[int, list[int]]]:
        """Enumerate deletion sets by increasing size, high-degree vertices first.

        For each candidate B, a greedy sweep over the pool (ascending
        positions) picks vertices whose radius-2 balls in the rest minus B are
        pairwise disjoint; the candidate succeeds, and the sweep stops, once
        it has picked ``required(|B|)`` of them, and a sweep also stops once
        that is out of reach.  The sets of each size come in lexicographic
        order over the rest vertices ranked by degree.  Every B tried or
        skipped costs one unit of ``search_budget``, and sizes stop at the
        number of rest vertices.  B = {} takes a fast path, a sweep over the
        cached balls alone.  The balls of a success are recomputed from the
        adjacency masks before B's mask and the chosen positions are
        returned; a disagreement is an internal error.

        A pool vertex with no neighbor in B ("tame") has its cached ball minus
        B; only the "wild" ones, with a neighbor in B, need their ball
        recomputed, cached by their neighbors in B.  When as many sweeps past
        B = {} have failed as half the pool, about the cost of comparing the
        pool's balls pairwise, the pairwise meets are computed, once per call;
        a search that succeeds sooner never pays for them.  Two tame vertices
        whose balls share more than ``max_deletions`` vertices always
        conflict, so at most one tame vertex of each clique of a clique cover
        of these robust conflicts can be picked: from then on, B is skipped,
        unswept, when the cover plus the wild vertices falls short, and so is
        every set extending a prefix when the cover, the prefix's wild
        vertices and the most pool neighbors its remaining members could add
        fall short.  Picks strike later tame candidates whose balls they
        meet outside B, which the sweep would reject: a tame pick strikes
        its robust partners only, and a wild one, through an index of the
        pool balls that hold each rest vertex, every tame candidate whose
        ball holds a vertex of its own.  None of this changes what the sweep
        picks for any B, or at which B the budget runs out.
        """
        nbr, anchors, balls = self.nbr, self.anchor_mask, self._balls
        # B = {} has a pass of its own: it needs neither the pool mask nor the ranking
        need = required(0)
        used = 0
        chosen: list[int] = []
        left = len(pool)
        for i in pool:
            if len(chosen) + left < need:
                break
            left -= 1
            ball = balls.get(i)
            if ball is None:
                ball = balls[i] = _ball2_mask(nbr, i, anchors)
            if used & ball:
                continue
            chosen.append(i)
            if len(chosen) == need:
                return 0, _checked(nbr, chosen, anchors)
            used |= ball
        rest = self.alive & ~anchors
        top = min(params.max_deletions, rest.bit_count())
        if top == 0:
            return None
        pool_mask = 0
        for i in pool:
            pool_mask |= 1 << i
        ranked = sorted(set_bits(rest), key=lambda i: (-(nbr[i] & rest).bit_count(), i))
        wild_balls: dict[tuple[int, int], int] = {}
        # until the pool is compared: no strikes or skipped runs, and a cover of singletons
        robust: dict[int, int] = {}
        holders: list[int] = []
        most: list[tuple[int, ...]] = []
        cover = len(pool)

        def hopeless(blocked: int, near: int, more: int, start: int) -> bool:
            if not most:
                return False
            return cover + (pool_mask & ~blocked & near).bit_count() + most[start][more] < need

        misses = 0
        budget = params.search_budget - 1
        for size in range(1, top + 1):
            need = required(size)
            for run, blocked, near in _deletion_sets(nbr, ranked, size, hopeless):
                if budget < run:
                    return None
                budget -= run
                if blocked is None:
                    continue
                candidates = pool_mask & ~blocked
                wild = candidates & near
                if cover + wild.bit_count() < need:
                    continue
                tame = candidates ^ wild
                used = 0
                chosen = []
                left = candidates.bit_count()
                for i in pool:
                    if len(chosen) + left < need:
                        break
                    if not candidates >> i & 1:
                        continue
                    left -= 1
                    cut = nbr[i] & blocked
                    if cut:
                        ball = wild_balls.get((i, cut))
                        if ball is None:
                            ball = wild_balls[i, cut] = _ball2_mask(nbr, i, anchors | cut)
                        ball &= ~blocked
                        if used & ball:
                            continue
                        strike = union_of(holders, ball) if holders else 0
                    else:
                        ball = (balls.get(i) or self._ball(i)) & ~blocked
                        if used & ball:
                            continue
                        strike = robust.get(i, 0)
                    if strike & tame:
                        tame &= ~strike
                        candidates = tame | wild
                        left = (candidates >> i + 1).bit_count()
                    chosen.append(i)
                    if len(chosen) == need:
                        return blocked, _checked(nbr, chosen, blocked | anchors)
                    used |= ball
                misses += 1
                if misses == (len(pool) + 1) // 2:
                    pool_balls = {i: self._ball(i) for i in pool}
                    robust, cover = _conflicts(pool, pool_mask, pool_balls, top)
                    holders = [0] * len(nbr)
                    for i, ball in pool_balls.items():
                        for v in set_bits(ball):
                            holders[v] |= 1 << i
                    most = _largest_sums([(nbr[v] & pool_mask).bit_count() for v in ranked], top)
        return None

    def scattered_once(self, k: int, params: QuasiWideParams) -> Optional[ReductionStep]:
        """Try to delete one irrelevant vertex from an oversized class.

        Takes the largest class, the first in class order among equals, if
        it has more than ``class_threshold`` members, or more than 2k if
        that is more, and searches for a scattered set inside it, in the
        rest.  Every search for a deletion set B of size s stops at 2k * 2^s
        scattered vertices: they fall into at most 2^s cells of equal
        B-neighborhood, so by pigeonhole one keeps 2k of them.  The closed
        neighborhoods of the first 2k of the largest cell form the
        certifying sunflower, since the scattered balls make them meet
        exactly in the shared anchor and B neighbors.  Expects closed twins
        outside the anchors to be removed already.  A certificate that fails
        validation is an internal error.
        """
        two_k = 2 * k
        pool = max(self._classes.values(), key=len, default=[])
        if len(pool) <= max(params.class_threshold, two_k):
            return None
        found = self.search(pool, params, lambda size: two_k << size)
        if found is None:
            return None
        blocked, chosen = found
        cells = closed_cells(self.nbr, chosen, blocked)
        petals = min(cells.items(), key=lambda kv: (-len(kv[1]), list(set_bits(kv[0]))))[1]
        allowed = blocked | self.anchor_mask
        return self.delete_petal(RULE_QUASIWIDE, petals, allowed, two_k, deletions=blocked)


def kernelize_quasiwide(
    inst: Instance, params: QuasiWideParams
) -> tuple[Instance, ReductionLog]:
    """Alternate twin removal and the scattered-set rule to a fixpoint."""
    if inst.problem is not Problem.ISR:
        raise ValueError("this reduction applies to ISR instances only")
    ws = _ScatteredWorkspace(inst.graph, inst.anchors)
    ws.run(lambda: ws.scattered_once(inst.k, params))
    return ws.reduced(inst), ws.log
