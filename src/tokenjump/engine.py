"""Ground-truth search over the reconfiguration graph, plus a sequence verifier.

States are feasible vertex sets with sizes in [r_l, r_u]; two states are
adjacent when their symmetric difference has exactly one vertex.  Independent
set instances use r_l = k-1, r_u = k; dominating set instances use r_l = k,
r_u = k+1, which realizes single token jumps as remove/add (or add/remove)
pairs through the off-size intermediate.

The breadth-first search doubles as the final solver on kernels and as the
oracle that soundness tests compare every reduction pipeline against.
"""

from __future__ import annotations

from collections import deque
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
    """Shortest-witness BFS from source to target over feasible states.

    Moves are generated deterministically: removals in ascending vertex id,
    then additions in ascending vertex id; each state keeps its first-discovery
    parent, so the returned witness is stable across runs.  Returns EXHAUSTED
    when the number of distinct discovered states would exceed the budget
    before the question is resolved.
    """
    if state_budget < 1:
        raise ValueError("state_budget must be >= 1")
    g = instance.graph
    r_l, r_u = size_bounds(instance.problem, instance.k)
    verts, pos, nbr = bitset_index(g)
    n = len(verts)
    isr = instance.problem is Problem.ISR
    if not isr:  # DSR covers with closed neighborhoods
        nbr = [mask | 1 << i for i, mask in enumerate(nbr)]
        full = (1 << n) - 1

    def to_mask(s: frozenset[int]) -> int:
        m = 0
        for v in s:
            m |= 1 << pos[v]
        return m

    def to_set(mask: int) -> frozenset[int]:
        return frozenset(verts[i] for i in range(n) if mask >> i & 1)

    src = to_mask(instance.source)
    tgt = to_mask(instance.target)
    if src == tgt:
        return SearchOutcome(Verdict.YES, ReconfSequence((instance.source,)), 1)

    parent: dict[int, Optional[int]] = {src: None}
    queue: deque[int] = deque((src,))

    def finish(goal: int) -> SearchOutcome:
        chain = []
        cur: Optional[int] = goal
        while cur is not None:
            chain.append(cur)
            cur = parent[cur]
        chain.reverse()
        seq = ReconfSequence(tuple(to_set(m) for m in chain))
        return SearchOutcome(Verdict.YES, seq, len(parent))

    while queue:
        cur = queue.popleft()
        size = cur.bit_count()
        members = [i for i in range(n) if cur >> i & 1]
        neighbors: list[int] = []
        if size - 1 >= r_l:
            for i in members:
                nm = cur & ~(1 << i)
                if isr:
                    neighbors.append(nm)
                else:
                    cover = 0
                    for j in members:
                        if j != i:
                            cover |= nbr[j]
                    if cover == full:
                        neighbors.append(nm)
        if size + 1 <= r_u:
            for i in range(n):
                if cur >> i & 1:
                    continue
                if isr and nbr[i] & cur:
                    continue
                # For DSR any superset of a dominating set still dominates.
                neighbors.append(cur | 1 << i)
        for nm in neighbors:
            if nm in parent:
                continue
            if nm == tgt:
                parent[nm] = cur
                return finish(nm)
            if len(parent) >= state_budget:
                return SearchOutcome(Verdict.EXHAUSTED, None, len(parent))
            parent[nm] = cur
            queue.append(nm)
    return SearchOutcome(Verdict.NO, None, len(parent))


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
