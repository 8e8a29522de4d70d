"""Kernelization pipeline for independent set reconfiguration on sparse graphs.

Two answer-preserving deletion rules run to a fixpoint: closed-twin removal,
and an irrelevant-vertex rule that extracts a sunflower with 2k petals from
the closed neighborhoods of low-degree vertices whenever there are more of
them than ``low_degree_threshold(d, k)``.  Every deletion carries a
certificate that can be re-checked by replaying the log: the core and the
2k petal centers the rule needs, checked on the bitsets before the deletion.

Both ISR kernels, this one and the scattered-set kernel in ``quasiwide``,
reduce one ``Workspace``: a bitset copy of the graph built once per
kernelization and updated only around each deleted vertex.  The degeneracy
and the low-degree vertices are maintained, and the twins of a vertex w
whose neighborhood changed are sought in N[w] & N[y], y its least neighbor,
which holds them all; so a deletion costs time near the deleted vertex.
The immutable ``Graph`` of the kernel is built once, at the end, by
replaying the log against the input graph.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .graph import Graph, bitset_index, closed_cells, degeneracy_core, mask_of, set_bits
from .instances import (
    RULE_SUNFLOWER,
    RULE_TWIN,
    Instance,
    Problem,
    ReductionLog,
    ReductionStep,
    replay_reductions,
)

__all__ = [
    "DegenerateKernel",
    "extract_sunflower",
    "low_degree_threshold",
    "kernel_vertex_bound",
    "kernelize_degenerate",
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


class Workspace:
    """A graph being reduced: bitsets edited in place, and the log so far.

    Holds the ascending vertex ids, their bit positions, the open neighbor
    masks, and the masks of live, anchor and re-keyed positions, the
    non-anchors whose closed neighborhoods changed since the last
    ``remove_twins``; it keeps no twin groups, which that call reads off the
    masks near each re-keyed w and its least neighbor.  ``delete`` clears the
    deleted bit from its neighbors' masks and re-keys them; rules that keep
    more state extend it.  Both sunflower rules certify and delete through
    ``delete_petal``.  Every non-anchor starts out re-keyed.
    """

    def __init__(self, graph: Graph, anchors: frozenset[int]) -> None:
        self.graph = graph
        self.verts, self.pos, self.nbr = bitset_index(graph)
        self.alive = (1 << len(self.verts)) - 1
        self.anchor_mask = mask_of(self.pos, anchors)
        self.log = ReductionLog()
        self._rekeyed = self.alive & ~self.anchor_mask

    def delete(self, i: int, step: ReductionStep) -> int:
        """Delete position i, logging ``step``; returns i's neighbor mask."""
        self.log.append(step)
        bit = 1 << i
        nb = self.nbr[i]
        self.nbr[i] = 0
        self.alive ^= bit
        for w in set_bits(nb):
            self.nbr[w] ^= bit
        self._rekeyed |= nb & ~self.anchor_mask
        return nb

    def delete_petal(
        self, rule: str, petals: list[int], allowed: int, wanted: int, deletions: int | None = None
    ) -> ReductionStep:
        """Delete the first petal centre of a sunflower rule, and return its step.

        Only the first ``wanted`` petals are kept: ``_sunflower_core`` checks
        their closed neighborhoods first, and the certificate names the core
        and those petal centres, and the deletion set when ``deletions`` is
        given, all in vertex ids.
        """
        petals = petals[:wanted]
        core = _sunflower_core(self.nbr, petals, allowed, wanted)
        verts = self.verts
        certificate = {
            "core": [verts[i] for i in set_bits(core)],
            "petal_centers": [verts[i] for i in petals],
        }
        if deletions is not None:
            certificate["deletions"] = [verts[i] for i in set_bits(deletions)]
        step = ReductionStep(rule, verts[petals[0]], certificate)
        self.delete(petals[0], step)
        return step

    def remove_twins(self) -> None:
        """Delete all closed twins outside the anchors but the least of each group.

        Two vertices are closed twins when N[u] = N[v]; one of them never
        needs to be touched, so keeping the smaller id preserves the answer
        (and even shortest sequences).  Deleting a vertex v with a closed twin
        u makes no new twin pair and breaks none: were N[w1] and N[w2] equal
        but for v, the one of them not adjacent to v would contain u (or be
        u), and so be adjacent to v after all.  So each group read keeps its
        smallest member, and groups are emptied in order of that member, the
        order of rescanning after every deletion.  Any other deletion can
        make new twins only of a neighbor w1 of the deleted vertex, whose
        closed neighborhood changed, with some w2 whose closed neighborhood
        now equals it; so a call reads only the groups of positions re-keyed
        since the last one, and the first call, every group.

        A twin u of a live re-keyed w has N[u] = N[w], which holds the least
        neighbor y of w, so u lies in N[w] & N[y]; an isolated w has no twin.
        One ``closed_cells`` call groups the non-anchor positions of those
        meets.  No twins outlive a call, so each group of two or more holds a
        re-keyed w, and all of it lies in w's meet: every cell of two or more
        is a whole group.  When every live non-anchor is re-keyed, as on the
        first call, the meets would cover all of them that have a neighbor,
        so the rest is grouped directly; an isolated one is a cell alone.
        """
        nbr, alive = self.nbr, self.alive
        rest = alive & ~self.anchor_mask
        near = rest
        if rest & ~self._rekeyed:
            near = 0
            for w in set_bits(self._rekeyed & alive):
                nb = nbr[w]
                if nb:
                    y = (nb & -nb).bit_length() - 1
                    near |= (nb | 1 << w) & (nbr[y] | 1 << y)
            near &= rest
        cells = closed_cells(nbr, set_bits(near), alive)
        verts = self.verts
        for survivor, *doomed in cells.values():
            for v in doomed:
                self.delete(v, ReductionStep(RULE_TWIN, verts[v], {"survivor": verts[survivor]}))
        self._rekeyed = 0

    def run(self, rule: Callable[[], Optional[ReductionStep]]) -> None:
        """Alternate twin removal and one deletion by ``rule`` until it finds none."""
        self.remove_twins()
        while rule() is not None:
            self.remove_twins()

    def reduced(self, inst: Instance) -> Instance:
        """``inst`` on the replay of the log; ``inst`` itself if nothing was deleted."""
        if not self.log.steps:
            return inst
        return inst.with_graph(replay_reductions(self.graph, self.log))


def extract_sunflower(masks: Iterable[int], want: int) -> Optional[list[int]]:
    """Indices of ``want`` masks that form a sunflower, or None.

    The masks must be distinct and nonempty.  A greedy reads them in order
    and keeps each one disjoint from those kept, and stops at ``want``; only
    when it falls short are the masks past it read.  Then the most frequent
    bit (ties to the lowest) joins the core, and the search recurses on the
    masks holding it, without it.  The petals are the kept indices,
    ascending; the core is the meet of any two of their masks.  With more
    than ``c! * (want - 1) ** c`` masks of at most c bits a sunflower is
    always found (Erdos and Rado); below that, None may come back.
    """
    if want < 1:
        raise ValueError("want must be >= 1")
    return _extract(enumerate(masks), want)


def _extract(indexed: Iterable[tuple[int, int]], want: int) -> Optional[list[int]]:
    read: list[tuple[int, int]] = []
    used = 0
    chosen: list[int] = []
    for idx, mask in indexed:
        read.append((idx, mask))
        if mask and not used & mask:
            chosen.append(idx)
            if len(chosen) == want:
                return chosen
            used |= mask
    if len(read) < want:
        return None
    freq = Counter(bit for _, mask in read for bit in set_bits(mask))
    best = max(sorted(freq), key=freq.__getitem__)
    bit = 1 << best
    return _extract([(idx, mask ^ bit) for idx, mask in read if mask & bit], want)


def _sunflower_core(nbr: list[int], petals: list[int], allowed: int, wanted: int) -> int:
    """The core mask of the petals' closed neighborhoods, checked as a sunflower.

    There must be at least ``wanted`` petals; the core, the first two closed
    neighborhoods' meet, must lie in every one and inside ``allowed``; and
    the parts outside the core must be nonempty and pairwise disjoint.
    Anything else is an internal error.
    """
    closed = [nbr[a] | 1 << a for a in petals]
    if len(closed) >= wanted:
        core = closed[0] & closed[1]
        used = 0
        for mask in closed:
            own = mask & ~core
            if core & ~mask or not own or used & own:
                break
            used |= own
        else:
            if not core & ~allowed:
                return core
    raise RuntimeError("sunflower failed validation")


class _LowDegreeWorkspace(Workspace):
    """Workspace for the low-degree rule.

    Maintains the degeneracy d, the d-core and the sorted list of live
    non-anchor positions of degree at most 2d.  ``graph.degeneracy_core``
    gives d and the d-core at set-up.  Deleting a core vertex peels the
    core vertices left with fewer than d core neighbors, as in Batagelj and
    Zaversnik's core decomposition; d never rises under deletions, and the
    peeler runs again only when the d-core empties.
    """

    def __init__(self, inst: Instance) -> None:
        super().__init__(inst.graph, inst.anchors)
        self.k = inst.k
        self.d, self._core = degeneracy_core(self.nbr, self.alive)
        self._set_low()

    def _set_low(self) -> None:
        nbr, bound = self.nbr, 2 * self.d
        self._low = [
            i for i in set_bits(self.alive & ~self.anchor_mask) if nbr[i].bit_count() <= bound
        ]

    def delete(self, i: int, step: ReductionStep) -> int:
        nb = super().delete(i, step)
        nbr, low, bound = self.nbr, self._low, 2 * self.d
        if nb.bit_count() <= bound:
            del low[bisect_left(low, i)]
        for w in set_bits(nb & ~self.anchor_mask):
            if nbr[w].bit_count() == bound:
                low.insert(bisect_left(low, w), w)
        if self._core >> i & 1:
            self._peel_core(i, nb)
        return nb

    def _peel_core(self, i: int, nb: int) -> None:
        nbr, d = self.nbr, self.d
        core = self._core ^ 1 << i
        stack = list(set_bits(nb & core))
        while stack:
            w = stack.pop()
            if core >> w & 1 and (nbr[w] & core).bit_count() < d:
                core ^= 1 << w
                stack.extend(set_bits(nbr[w] & core))
        self._core = core
        if not core and self.alive:
            self.d, self._core = degeneracy_core(nbr, self.alive)
            self._set_low()

    def low_degree_once(self) -> Optional[ReductionStep]:
        """Delete one irrelevant low-degree vertex, with a sunflower certificate.

        Returns None unless the count of live non-anchor vertices of degree
        at most 2d is strictly above ``low_degree_threshold(d, k)``.  The
        closed neighborhoods of the low-degree list are read in ascending
        position, which is ascending id, only as far as the extraction needs
        them.  Twin removal has made them distinct, and each has at most
        2d + 1 bits, so above the threshold a sunflower of 2k petals exists.
        """
        d, k, low, nbr = self.d, self.k, self._low, self.nbr
        if len(low) <= low_degree_threshold(d, k):
            return None
        found = extract_sunflower((nbr[i] | 1 << i for i in low), 2 * k)
        if found is None:
            raise RuntimeError(
                "sunflower extraction failed above the guarantee threshold"
            )
        return self.delete_petal(RULE_SUNFLOWER, [low[j] for j in found], self.alive, 2 * k)


def kernelize_degenerate(inst: Instance) -> DegenerateKernel:
    """Alternate twin removal and the low-degree rule to a fixpoint.

    The degeneracy is maintained under every deletion, so each attempt uses
    the degeneracy of the current graph and the threshold only shrinks as
    the graph does.  The certified size bound is checked before returning,
    on the bitset index of the kernel's own ``Graph``, the replay of the
    log, not on the workspace masks, so it trusts no maintained state: it
    counts the low-degree and non-anchor vertices there and peels d again
    with ``degeneracy_core`` on every call.  A violation signals an
    implementation bug, not bad input.  The search on the kernel reuses
    that index, the one the workspace was built from when nothing was
    deleted.
    """
    if inst.problem is not Problem.ISR:
        raise ValueError("this reduction applies to ISR instances only")
    ws = _LowDegreeWorkspace(inst)
    ws.run(ws.low_degree_once)
    cur = ws.reduced(inst)
    _, pos, nbr = bitset_index(cur.graph)
    every = (1 << len(nbr)) - 1
    d = degeneracy_core(nbr, every)[0]
    low_bound = low_degree_threshold(d, cur.k)
    total_bound = kernel_vertex_bound(d, cur.k)
    rest = every & ~mask_of(pos, cur.anchors)
    low_count = sum(1 for i in set_bits(rest) if nbr[i].bit_count() <= 2 * d)
    if (
        d != ws.d
        or low_count > low_bound
        or rest.bit_count() > (2 * d + 1) * low_bound
        or len(nbr) > total_bound
    ):
        raise RuntimeError("kernel bound violated; this is an internal error")
    return DegenerateKernel(
        kernel=cur,
        log=ws.log,
        d=d,
        low_degree_bound=low_bound,
        kernel_bound=total_bound,
    )


def _kernel_is_identity(inst: Instance) -> bool:
    """Whether ``kernelize_degenerate(inst)`` would return ``inst`` unchanged.

    No rule fires when no two non-anchor vertices are closed twins and the r
    non-anchors number at most t = ``low_degree_threshold(1, k)``, taken at
    d = 0 on an edgeless graph: an edge gives d >= 1, t grows with d, and
    only non-anchors are low.  The kernel is then ``inst`` with an empty log,
    so the workspace and the peel can be skipped.  The bound check holds
    there unrun: d is the input's, and r <= t <= t_d =
    ``low_degree_threshold(d, k)``, so at most t_d vertices are low,
    r <= (2d + 1)t_d and n <= r + 2k is within ``kernel_vertex_bound``.
    ``kernelize_degenerate`` itself always runs the rules and the check.
    """
    _, pos, nbr = bitset_index(inst.graph)
    rest = ((1 << len(nbr)) - 1) & ~mask_of(pos, inst.anchors)
    count = rest.bit_count()
    if count > low_degree_threshold(1 if any(nbr) else 0, inst.k):
        return False
    return len({nbr[i] | 1 << i for i in set_bits(rest)}) == count
