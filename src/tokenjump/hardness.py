"""Parameter-preserving transformation of ISR instances into DSR instances.

The gadget graph consists of k cliques of size n (one selector per solution
slot), a forcer set per clique that pins any small dominating set to pick one
clique vertex each, and guard sets that rule out picks corresponding to equal
or adjacent original vertices.

A gadget token never leaves its clique, so the gadget decides a labelled
version of ISR: which clique holds each solution vertex is fixed by the
embedding of the endpoints.  The source is embedded in sorted order; the
target is embedded with the labelling that an ISR witness carries along
(an unlabelled jump is a labelled jump of the token that was removed).
Each conversion therefore runs one ISR search.  Yes-instances map to
yes-instances with shortest reconfiguration sequences of exactly the same
length, and gadget witnesses project back step for step, which makes the
transformation useful both as an instance generator and as a cross-check
between the two solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .engine import ReconfSequence, Verdict, bfs_reconfig
from .graph import Graph
from .instances import Instance, Problem

__all__ = [
    "GadgetShapeError",
    "GuardSet",
    "GadgetMap",
    "gadget_vertex_count",
    "isr_to_dsr",
    "lift_sequence",
    "map_sequence_back",
]


class GadgetShapeError(ValueError):
    """A gadget sequence that no correct solver can produce."""


@dataclass(frozen=True)
class GuardSet:
    """Guard vertices adjacent to all of cliques i and j except picks (p, q)."""

    i: int
    j: int
    p: int
    q: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class GadgetMap:
    """Where each gadget vertex lives; clique slots are 1-indexed (i, p)."""

    k: int
    n: int
    clique_vertex: Mapping[tuple[int, int], int]
    forcer_sets: tuple[tuple[int, ...], ...]
    guard_sets: tuple[GuardSet, ...]
    position_of: Mapping[int, tuple[int, int]] = field(repr=False)

    def clique(self, i: int) -> tuple[int, ...]:
        return tuple(self.clique_vertex[(i, p)] for p in range(1, self.n + 1))

    def to_json_dict(self) -> dict:
        """JSON form, with ids in 1-indexed file coordinates."""
        return {
            "k": self.k,
            "n": self.n,
            "cliques": [
                [v + 1 for v in self.clique(i)] for i in range(1, self.k + 1)
            ],
            "forcers": [[v + 1 for v in f] for f in self.forcer_sets],
            "guards": [
                {
                    "i": gs.i,
                    "j": gs.j,
                    "p": gs.p,
                    "q": gs.q,
                    "vertices": [v + 1 for v in gs.vertices],
                }
                for gs in self.guard_sets
            ],
        }


def gadget_vertex_count(n: int, m: int, k: int) -> int:
    return k * n + k * (k + 2) + (k * (k - 1) // 2) * (n + 2 * m) * (k + 2)


def isr_to_dsr(inst: Instance) -> tuple[Instance, GadgetMap]:
    """Build the gadget DSR instance; equivalent to the ISR input.

    Requires the ISR instance to use contiguous ids 0..n-1.  Gadget ids are
    assigned in deterministic blocks: cliques, then forcers, then guards in
    lexicographic (i, j, p, q) order, so the map is reproducible.

    The source puts its i-th smallest vertex into clique i.  The target
    follows the shortest ISR witness that ``bfs_reconfig`` finds: it is the
    last set of ``lift_sequence`` of that witness, so the gadget is a
    yes-instance at exactly the ISR distance.  When the ISR answer is no, the
    target is embedded in sorted order; every labelling of it is then
    unreachable (a gadget witness would project to an ISR one), so the
    gadget is a no-instance too.  When the search exhausts its default
    state budget the target is also embedded in sorted order, and
    equivalence is not certified.
    """
    if inst.problem is not Problem.ISR:
        raise ValueError("isr_to_dsr expects an ISR instance")
    g = inst.graph
    n, k = g.n, inst.k
    if g.vertices != tuple(range(n)):
        raise ValueError("isr_to_dsr expects vertices labeled 0..n-1 contiguously")

    clique_vertex: dict[tuple[int, int], int] = {}
    position_of: dict[int, tuple[int, int]] = {}
    next_id = 0
    for i in range(1, k + 1):
        for p in range(1, n + 1):
            clique_vertex[(i, p)] = next_id
            position_of[next_id] = (i, p)
            next_id += 1

    adj: list[set[int]] = [set() for _ in range(next_id)]  # by gadget id

    def add_block(targets: list[int]) -> tuple[int, ...]:
        """k + 2 new vertices, the next ids, each adjacent to every target."""
        block = tuple(range(len(adj), len(adj) + k + 2))
        adj.extend(set(targets) for _ in block)
        for t in targets:
            adj[t].update(block)
        return block

    for i in range(1, k + 1):
        ci = [clique_vertex[(i, p)] for p in range(1, n + 1)]
        for v in ci:
            adj[v].update(ci)
            adj[v].discard(v)

    forcers = [
        add_block([clique_vertex[(i, p)] for p in range(1, n + 1)])
        for i in range(1, k + 1)
    ]

    guards: list[GuardSet] = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    if p != q and (q - 1) not in g.neighbor_set(p - 1):
                        continue
                    excluded = {clique_vertex[(i, p)], clique_vertex[(j, q)]}
                    targets = [
                        clique_vertex[(x, r)]
                        for x in (i, j)
                        for r in range(1, n + 1)
                        if clique_vertex[(x, r)] not in excluded
                    ]
                    guards.append(GuardSet(i, j, p, q, add_block(targets)))

    gm = GadgetMap(
        k=k,
        n=n,
        clique_vertex=clique_vertex,
        forcer_sets=tuple(forcers),
        guard_sets=tuple(guards),
        position_of=position_of,
    )
    witness = bfs_reconfig(inst)
    if witness.verdict is Verdict.YES:
        target = lift_sequence(gm, witness.sequence).sets[-1]
    else:
        target = _embed_sorted(gm, inst.target)
    gadget_inst = Instance(
        Problem.DSR,
        Graph._of({v: frozenset(ns) for v, ns in enumerate(adj)}),
        k,
        _embed_sorted(gm, inst.source),
        target,
    )
    return gadget_inst, gm


def _embed_sorted(gm: GadgetMap, solution: frozenset[int]) -> frozenset[int]:
    """Put the i-th smallest vertex of ``solution`` into clique i."""
    return frozenset(
        gm.clique_vertex[(i, v + 1)] for i, v in enumerate(sorted(solution), 1)
    )


def lift_sequence(gm: GadgetMap, seq: ReconfSequence) -> ReconfSequence:
    """Lift an ISR sequence to the gadget; the inverse of ``map_sequence_back``.

    The first set is embedded in sorted order, as ``isr_to_dsr`` embeds the
    source.  Each ISR pair "remove u, add v" becomes the gadget pair
    "add c(l(u), v), remove c(l(u), u)", where l(u) is the clique whose token
    sits on u; the token then sits on v.  The output has exactly the same
    length, and a valid ISR sequence lifts to a valid gadget sequence.
    Raises ValueError when the sets do not alternate single removals and
    single additions starting from a k-set.
    """
    sets = seq.sets
    if not sets:
        raise ValueError("empty sequence")
    if len(sets[0]) != gm.k:
        raise ValueError(f"first set has {len(sets[0])} vertices, not k = {gm.k}")
    if len(sets) % 2 == 0:
        raise ValueError("sequence ends on an intermediate set")
    label = {v: i for i, v in enumerate(sorted(sets[0]), 1)}
    cur = _embed_sorted(gm, sets[0])
    out: list[frozenset[int]] = [cur]
    for step in range(1, len(sets), 2):
        before, mid, after = sets[step - 1], sets[step], sets[step + 1]
        removed, added = before - mid, after - mid
        if len(removed) != 1 or mid - before:
            raise ValueError(f"step {step} is not a single removal")
        if len(added) != 1 or before & added or mid - after:
            raise ValueError(f"step {step + 1} is not a single addition")
        (u,) = removed
        (v,) = added
        i = label[v] = label.pop(u)
        up = cur | {gm.clique_vertex[(i, v + 1)]}
        cur = up - {gm.clique_vertex[(i, u + 1)]}
        out.append(up)
        out.append(cur)
    return ReconfSequence(tuple(out))


def _project_full(gm: GadgetMap, s: frozenset[int]) -> frozenset[int]:
    """Project a size-k gadget set picking one vertex per clique."""
    picks: dict[int, int] = {}
    for vid in s:
        pos = gm.position_of.get(vid)
        if pos is None:
            raise GadgetShapeError(f"set contains non-clique vertex {vid}")
        i, p = pos
        if i in picks:
            raise GadgetShapeError(f"set picks two vertices from clique {i}")
        picks[i] = p
    if len(picks) != gm.k:
        raise GadgetShapeError("set does not pick one vertex from every clique")
    return frozenset(p - 1 for p in picks.values())


def map_sequence_back(gm: GadgetMap, seq: ReconfSequence) -> ReconfSequence:
    """Project a gadget DSR sequence to the original ISR sequence.

    Gadget moves come in add-then-remove pairs inside a single clique; each
    pair maps to the corresponding remove-then-add pair on original vertices,
    so the output has exactly the same length.  Raises GadgetShapeError on
    sequences no correct solver can emit.
    """
    sets = seq.sets
    if not sets:
        raise GadgetShapeError("empty sequence")
    out: list[frozenset[int]] = [_project_full(gm, sets[0])]
    i = 1
    while i < len(sets):
        if i + 1 >= len(sets):
            raise GadgetShapeError("sequence ends on an intermediate set")
        up, down = sets[i], sets[i + 1]
        added = up - sets[i - 1]
        removed = up - down
        if len(up) != gm.k + 1 or len(added) != 1 or sets[i - 1] - up:
            raise GadgetShapeError(f"step {i} is not a single addition")
        if len(down) != gm.k or len(removed) != 1 or down - up:
            raise GadgetShapeError(f"step {i + 1} is not a single removal")
        (a,) = added
        (r,) = removed
        pos_a = gm.position_of.get(a)
        pos_r = gm.position_of.get(r)
        if pos_a is None or pos_r is None:
            raise GadgetShapeError("intermediate set touches a non-clique vertex")
        if pos_a[0] != pos_r[0]:
            raise GadgetShapeError("addition and removal touch different cliques")
        cur = out[-1]
        mid = cur - {pos_r[1] - 1}
        nxt = mid | {pos_a[1] - 1}
        if nxt != _project_full(gm, down):
            raise GadgetShapeError(f"projection mismatch at step {i + 1}")
        out.append(mid)
        out.append(nxt)
        i += 2
    return ReconfSequence(tuple(out))
