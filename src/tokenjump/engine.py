"""Ground-truth search over the reconfiguration graph, plus a sequence verifier.

States are feasible vertex sets with sizes in [r_l, r_u]; two states are
adjacent when their symmetric difference has exactly one vertex.  Independent
set instances use r_l = k-1, r_u = k; dominating set instances use r_l = k,
r_u = k+1, which realizes single token jumps as remove/add (or add/remove)
pairs through the off-size intermediate.

The search, ``bfs_reconfig``, is the final solver on kernels.  It is a
two-sided breadth-first search over bitmask states: whole layers grow
forward from the source or backward from the target, whichever next layer
costs less, until the two sides meet.  A layer costs its frontier's length
times the moves per state: r_u removals at size r_u, up to n - r_l
additions at size r_l.  It returns the same witness as a one-sided FIFO
search would: the lexicographically least sequence of toggled vertex ids
among all shortest paths.

Each move toggles one vertex, so no path from S to T is shorter than
|S Δ T| moves, and one of exactly that length toggles only vertices of
S Δ T.  The search first runs in that band, with moves restricted to S Δ T
and the two sides' depths capped at |S Δ T| in sum.  A path found there is
a shortest path, and the band holds every shortest path and every state
the witness rule reads, so the witness is the one the unrestricted search
would return.  Only when the band holds no such path does the unrestricted
search run.  States of both passes count toward ``states_explored`` and
the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .graph import bitset_index, mask_of, set_bits, union_of
from .instances import Instance, Problem, ReductionLog, Verdict, infeasibility

__all__ = [
    "DEFAULT_STATE_BUDGET",
    "Verdict",
    "ReconfSequence",
    "SearchOutcome",
    "SolveResult",
    "Violation",
    "size_bounds",
    "bfs_reconfig",
    "verify_sequence",
]

DEFAULT_STATE_BUDGET = 10_000_000


@dataclass(frozen=True)
class ReconfSequence:
    """Ordered vertex sets; consecutive sets differ by exactly one vertex."""

    sets: tuple[frozenset[int], ...]

    @property
    def length(self) -> int:
        """Number of moves (one less than the number of sets)."""
        return max(len(self.sets) - 1, 0)


@dataclass(frozen=True)
class SearchOutcome:
    verdict: Verdict
    sequence: Optional[ReconfSequence]
    states_explored: int


@dataclass(frozen=True)
class SolveResult:
    """A pipeline outcome: search verdict, reduction log, and the kernel solved."""

    outcome: SearchOutcome
    log: ReductionLog
    kernel: Instance


@dataclass(frozen=True)
class Violation:
    """First failed sequence condition.

    Conditions: (1) endpoints, (2) feasibility, (3) unit symmetric difference,
    (4) size bounds.  ``index`` is the position of the offending set (for
    condition 3, of the latter set of the offending step).  ``vertices`` names
    the witnesses, when any, in the instance's own vertex ids.
    """

    condition: int
    index: int
    message: str
    vertices: tuple[int, ...] = ()


def size_bounds(problem: Problem, k: int) -> tuple[int, int]:
    if problem is Problem.ISR:
        return k - 1, k
    return k, k + 1


def bfs_reconfig(
    instance: Instance, state_budget: int = DEFAULT_STATE_BUDGET
) -> SearchOutcome:
    """Shortest-witness search from source to target over feasible states.

    Each move toggles one vertex, so every path from S to T has at least
    |S Δ T| moves, and a path of exactly |S Δ T| moves toggles each vertex
    of S Δ T once and no other.  The search therefore runs at most twice.
    The band pass lets moves toggle only vertices of S Δ T and stops once
    the depths of its two sides sum to |S Δ T| without meeting; any path it
    finds has |S Δ T| moves and is a shortest path.  Only when the band
    holds none does the full pass run, with every vertex toggleable and no
    depth limit.

    Each pass is one two-sided search.  A state of size r_u only loses a
    vertex and a state of size r_l only gains one.  All states of a frontier
    have one size, so the kind of move is chosen once per layer.  Successors
    come from the set bits of the state (removals) or of the vertices it may
    take (additions), in ascending vertex id.  Each round expands one whole
    layer of the side whose next layer costs less, the forward side on ties:
    a frontier costs ``len(frontier) * r_u`` at size r_u and
    ``len(frontier) * (n - r_l)`` at size r_l, in both passes.  Which side
    grows changes the work, not the witness.  The forward side keeps
    first-discovery parents, the backward side distances to the target.

    Witness rule: the lexicographically least sequence of toggled vertex ids
    among all shortest paths.  Within a layer, first-discovery order is that
    order, by induction on the layer, so a one-sided FIFO search returns the
    same witness.  Both sides hold every state within their depth and share
    none, so every state where they meet lies on a shortest path.  When a
    forward layer meets the backward side, the first new forward state that
    the backward side holds ends the prefix.  When a backward layer meets
    the forward frontier, the rest of that layer is scanned without inserts,
    and the first frontier state (in discovery order) that it met ends the
    prefix.  The prefix is that state's parent chain; the suffix steps to
    the successor with the least toggled id that is one step closer to the
    target.  When the band pass finds a path, every shortest path lies in
    the band, and so do the parents and distances the rule reads, so the
    band pass returns the witness the full pass would.

    ``states_explored`` counts the distinct states of both sides of both
    passes, kept as a running count.  The budget is checked before each
    insert and caps that sum, so the count never exceeds ``state_budget``;
    EXHAUSTED means an insert would have exceeded it before the question
    was resolved.
    """
    if state_budget < 1:
        raise ValueError("state_budget must be >= 1")
    if instance.source == instance.target:
        return SearchOutcome(Verdict.YES, ReconfSequence((instance.source,)), 1)
    if state_budget < 2:  # the target would be the second state
        return SearchOutcome(Verdict.EXHAUSTED, None, 1)
    r_l, r_u = size_bounds(instance.problem, instance.k)
    verts, pos, nbr = bitset_index(instance.graph)
    n = len(verts)
    full = (1 << n) - 1
    isr = instance.problem is Problem.ISR
    if not isr:  # DSR covers with closed neighborhoods
        nbr = [mask | 1 << i for i, mask in enumerate(nbr)]

    def to_set(mask: int) -> frozenset[int]:
        return frozenset(verts[i] for i in set_bits(mask))

    def removals(cur: int, toggles: int) -> list[int]:
        """States one removal of a ``toggles`` bit from ``cur``, by ascending id."""
        out = []
        rest = cur & toggles
        while rest:
            low = rest & -rest
            rest ^= low
            if isr or union_of(nbr, cur ^ low) == full:
                out.append(cur ^ low)
        return out

    def additions(cur: int, toggles: int) -> list[int]:
        """States one addition of a ``toggles`` bit to ``cur``, by ascending id.

        For DSR any superset of a dominating set dominates.
        """
        out = []
        rest = toggles & ~(cur | union_of(nbr, cur) if isr else cur)
        while rest:
            low = rest & -rest
            rest ^= low
            out.append(cur | low)
        return out

    def moves(cur: int) -> tuple[Callable[[int, int], list[int]], int]:
        """The moves of states of ``cur``'s size, and their count per state."""
        if cur.bit_count() > r_l:
            return removals, r_u
        return additions, n - r_l

    src = mask_of(pos, instance.source)
    tgt = mask_of(pos, instance.target)

    def search(toggles: int, limit: float, explored: int) -> SearchOutcome:
        """One two-sided pass whose moves toggle only bits of ``toggles``.

        It gives up, answering NO, when a side runs out of states or when
        the depths of the two sides sum to ``limit``.  ``explored`` counts
        the states of earlier passes.
        """
        if explored + 2 > state_budget:
            return SearchOutcome(Verdict.EXHAUSTED, None, explored)
        parent: dict[int, Optional[int]] = {src: None}  # forward side
        dist = {tgt: 0}  # backward side: distance to the target
        forward, backward = [src], [tgt]
        explored += 2

        def path_to(state: Optional[int]) -> list[int]:
            """The forward parent chain from the source to ``state``."""
            chain = []
            while state is not None:
                chain.append(state)
                state = parent[state]
            return chain[::-1]

        def finish(chain: list[int], d: int) -> SearchOutcome:
            """``chain`` ends d steps from the target; the suffix is greedy."""
            cur = chain[-1]
            while d:
                d -= 1
                cur = next(
                    nm for nm in moves(cur)[0](cur, toggles) if dist.get(nm) == d
                )
                chain.append(cur)
            seq = ReconfSequence(tuple(to_set(m) for m in chain))
            return SearchOutcome(Verdict.YES, seq, explored)

        depth = ahead_depth = 0  # of the backward and the forward side
        while forward and backward and depth + ahead_depth < limit:
            layer: list[int] = []
            ahead, ahead_cost = moves(forward[0])
            back, back_cost = moves(backward[0])
            if len(forward) * ahead_cost <= len(backward) * back_cost:
                for cur in forward:
                    for nm in ahead(cur, toggles):
                        if nm in parent:
                            continue
                        if nm in dist:
                            return finish(path_to(cur) + [nm], dist[nm])
                        if explored >= state_budget:
                            return SearchOutcome(Verdict.EXHAUSTED, None, explored)
                        parent[nm] = cur
                        explored += 1
                        layer.append(nm)
                forward = layer
                ahead_depth += 1
                continue
            met: set[int] = set()
            for cur in backward:
                for nm in back(cur, toggles):
                    if nm in dist:
                        continue
                    if nm in parent:
                        met.add(nm)  # necessarily on the forward frontier
                    elif not met:
                        if explored >= state_budget:
                            return SearchOutcome(Verdict.EXHAUSTED, None, explored)
                        dist[nm] = depth + 1
                        explored += 1
                        layer.append(nm)
            if met:
                first = next(s for s in forward if s in met)
                return finish(path_to(first), depth + 1)
            backward = layer
            depth += 1
        return SearchOutcome(Verdict.NO, None, explored)

    band = src ^ tgt
    outcome = search(band, band.bit_count(), 0)
    if outcome.verdict is Verdict.NO:
        outcome = search(full, math.inf, outcome.states_explored)
    return outcome


def verify_sequence(instance: Instance, seq: ReconfSequence) -> Optional[Violation]:
    """Check a sequence against the instance; None means it is valid.

    Reports the first violated condition in scan order: the source endpoint,
    then per position feasibility (2), size bounds (4), and the step from the
    previous set (3), and finally the target endpoint.
    """
    g = instance.graph
    r_l, r_u = size_bounds(instance.problem, instance.k)
    sets = seq.sets
    if not sets:
        return Violation(1, 0, "sequence is empty")
    if sets[0] != instance.source:
        return Violation(1, 0, "sequence does not start at the source set")
    vertex_set = g.vertex_set
    for i, s in enumerate(sets):
        unknown = s - vertex_set
        if unknown:
            w = min(unknown)
            return Violation(2, i, f"set at index {i} names unknown vertex {w}", (w,))
        witness = infeasibility(g, instance.problem, s)
        if witness:
            message = (
                "vertices {} and {} are adjacent"
                if instance.problem is Problem.ISR
                else "vertex {} is not dominated"
            )
            return Violation(2, i, message.format(*witness), witness)
        if not (r_l <= len(s) <= r_u):
            return Violation(
                4, i, f"set at index {i} has size {len(s)}, outside [{r_l}, {r_u}]"
            )
        if i > 0:
            delta = sets[i - 1] ^ s
            if len(delta) != 1:
                return Violation(
                    3,
                    i,
                    f"sets at indices {i - 1} and {i} differ by {len(delta)} vertices",
                    tuple(sorted(delta)),
                )
    if sets[-1] != instance.target:
        return Violation(1, len(sets) - 1, "sequence does not end at the target set")
    return None
