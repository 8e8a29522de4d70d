"""Ground-truth search over the reconfiguration graph, plus a sequence verifier.

States are feasible vertex sets with sizes in [r_l, r_u]; two states are
adjacent when their symmetric difference has exactly one vertex.  Independent
set instances use r_l = k-1, r_u = k; dominating set instances use r_l = k,
r_u = k+1, which realizes single token jumps as remove/add (or add/remove)
pairs through the off-size intermediate.

The search, ``bfs_reconfig``, is the final solver on kernels.  It is a
two-sided breadth-first search over bitmask states: whole layers grow
forward from the source or backward from the target, whichever frontier is
smaller, until the two sides meet.  It returns the same witness as a
one-sided FIFO search would: the lexicographically least sequence of toggled
vertex ids among all shortest paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .graph import bitset_index
from .instances import Instance, Problem, ReductionLog

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


class Verdict(str, Enum):
    YES = "yes"
    NO = "no"
    EXHAUSTED = "exhausted"


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

    Each state has one kind of move: a state of size r_u only loses a vertex
    and a state of size r_l only gains one.  Successors come from the set
    bits of the state (removals) or of the vertices it may take (additions),
    in ascending vertex id.  Each round expands one whole layer of the side
    whose frontier is smaller, the forward side on ties.  The forward side
    keeps first-discovery parents, the backward side distances to the target.

    Witness rule: the lexicographically least sequence of toggled vertex ids
    among all shortest paths.  Within a layer, first-discovery order is that
    order, by induction on the layer, so a one-sided FIFO search returns the
    same witness.  Both sides hold every state within their depth and share
    none, so every state where they meet lies on a shortest path.  When a
    forward layer meets the backward side, the first new forward state that
    the backward side holds ends the prefix.  When a backward layer meets
    the forward frontier, the rest of that layer is scanned without inserts,
    and the first frontier state (in discovery order) that it met ends the
    prefix.  The prefix is that
    state's parent chain; the suffix steps to the successor with the least
    toggled id that is one step closer to the target.

    ``states_explored`` counts the distinct states of both sides.  The budget
    is checked before each insert, so the count never exceeds
    ``state_budget``; EXHAUSTED means an insert would have exceeded it before
    the question was resolved.
    """
    if state_budget < 1:
        raise ValueError("state_budget must be >= 1")
    if instance.source == instance.target:
        return SearchOutcome(Verdict.YES, ReconfSequence((instance.source,)), 1)
    if state_budget < 2:  # the target would be the second state
        return SearchOutcome(Verdict.EXHAUSTED, None, 1)
    r_l, _ = size_bounds(instance.problem, instance.k)
    verts, pos, nbr = bitset_index(instance.graph)
    full = (1 << len(verts)) - 1
    isr = instance.problem is Problem.ISR
    if not isr:  # DSR covers with closed neighborhoods
        nbr = [mask | 1 << i for i, mask in enumerate(nbr)]

    def to_mask(s: frozenset[int]) -> int:
        m = 0
        for v in s:
            m |= 1 << pos[v]
        return m

    def to_set(mask: int) -> frozenset[int]:
        return frozenset(verts[i] for i in range(len(verts)) if mask >> i & 1)

    def successors(cur: int) -> list[int]:
        """States one move from ``cur``, by ascending toggled vertex id."""
        out = []
        if cur.bit_count() > r_l:  # removals only
            rest = cur
            while rest:
                low = rest & -rest
                rest ^= low
                if isr or cover_of(cur ^ low) == full:
                    out.append(cur ^ low)
            return out
        # Additions only.  For DSR any superset of a dominating set dominates.
        rest = full & ~(cur | cover_of(cur) if isr else cur)
        while rest:
            low = rest & -rest
            rest ^= low
            out.append(cur | low)
        return out

    def cover_of(mask: int) -> int:
        """The union of the neighbor masks of the members of ``mask``."""
        cover = 0
        while mask:
            low = mask & -mask
            mask ^= low
            cover |= nbr[low.bit_length() - 1]
        return cover

    src = to_mask(instance.source)
    tgt = to_mask(instance.target)
    parent: dict[int, Optional[int]] = {src: None}  # forward side
    dist = {tgt: 0}  # backward side: distance to the target
    forward, backward = [src], [tgt]

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
            cur = next(nm for nm in successors(cur) if dist.get(nm) == d)
            chain.append(cur)
        seq = ReconfSequence(tuple(to_set(m) for m in chain))
        return SearchOutcome(Verdict.YES, seq, len(parent) + len(dist))

    depth = 0  # of the backward side
    while forward and backward:
        layer: list[int] = []
        if len(forward) <= len(backward):
            for cur in forward:
                for nm in successors(cur):
                    if nm in parent:
                        continue
                    if nm in dist:
                        return finish(path_to(cur) + [nm], dist[nm])
                    if len(parent) + len(dist) >= state_budget:
                        return SearchOutcome(
                            Verdict.EXHAUSTED, None, len(parent) + len(dist)
                        )
                    parent[nm] = cur
                    layer.append(nm)
            forward = layer
            continue
        met: set[int] = set()
        for cur in backward:
            for nm in successors(cur):
                if nm in dist:
                    continue
                if nm in parent:
                    met.add(nm)  # necessarily on the forward frontier
                elif not met:
                    if len(parent) + len(dist) >= state_budget:
                        return SearchOutcome(
                            Verdict.EXHAUSTED, None, len(parent) + len(dist)
                        )
                    dist[nm] = depth + 1
                    layer.append(nm)
        if met:
            first = next(s for s in forward if s in met)
            return finish(path_to(first), depth + 1)
        backward = layer
        depth += 1
    return SearchOutcome(Verdict.NO, None, len(parent) + len(dist))


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
        if instance.problem is Problem.ISR:
            for u in sorted(s):
                inside = g.neighbor_set(u) & s
                if inside:
                    w = min(inside)
                    return Violation(
                        2, i, f"vertices {u} and {w} are adjacent", (u, w)
                    )
        else:
            covered: set[int] = set()
            for v in s:
                covered.add(v)
                covered.update(g.neighbor_set(v))
            missing = vertex_set - covered
            if missing:
                w = min(missing)
                return Violation(2, i, f"vertex {w} is not dominated", (w,))
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
