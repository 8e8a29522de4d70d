"""Brute-force reference implementations and shared corpora for the tests.

Everything here is deliberately independent of the solver internals: states
are enumerated with itertools, feasibility is re-derived from first
principles, and distances come from a textbook BFS over an explicitly built
reconfiguration graph.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Optional

from tokenjump import (
    DEFAULT_STATE_BUDGET,
    QuasiWideParams,
    Graph,
    InfeasibleInstanceError,
    Instance,
    Problem,
    ReductionLog,
    ReconfSequence,
    ReductionStep,
    SearchOutcome,
    Verdict,
    bfs_reconfig,
    gen_random_degenerate,
    isr_to_dsr,
    kernel_vertex_bound,
    low_degree_threshold,
    plant_isr_instance,
    size_bounds,
)
from tokenjump.degenerate import extract_sunflower
from tokenjump.graph import bitset_index, degeneracy_core
from tokenjump.instances import (
    MAX_VERTICES,
    InstanceFormatError,
    _decode,
    _int_error,
    _ints,
)

ISR_CORPUS_SIZE = 500
DSR_CORPUS_SIZE = 300
TINY_CORPUS_SIZE = 100
NO_CORPUS_SIZE = 120  # per problem
BLOCKED_CORPUS_SIZE = 30  # ISR instances; the DSR gadgets come on top


def independent(g: Graph, s) -> bool:
    return all(
        v not in g.neighbor_set(u)
        for u, v in itertools.combinations(sorted(s), 2)
    )


def dominating(g: Graph, s) -> bool:
    covered = set(s)
    for v in s:
        covered |= g.neighbor_set(v)
    return covered == set(g.vertex_set)


def feasible(g: Graph, problem: Problem, s) -> bool:
    return independent(g, s) if problem is Problem.ISR else dominating(g, s)


def enumerate_feasible(g: Graph, problem: Problem, k: int) -> list[frozenset[int]]:
    lo, hi = (k - 1, k) if problem is Problem.ISR else (k, k + 1)
    states = []
    for size in range(lo, hi + 1):
        for combo in itertools.combinations(g.vertices, size):
            s = frozenset(combo)
            if feasible(g, problem, s):
                states.append(s)
    return states


def materialized_distance(instance: Instance):
    """Shortest-path distance in the explicit reconfiguration graph, or None."""
    states = enumerate_feasible(instance.graph, instance.problem, instance.k)
    index = {s: i for i, s in enumerate(states)}
    adjacency: list[list[int]] = [[] for _ in states]
    for s, i in index.items():
        for v in s:
            j = index.get(s - {v})
            if j is not None:
                adjacency[i].append(j)
                adjacency[j].append(i)
    src = index[instance.source]
    tgt = index[instance.target]
    dist = {src: 0}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        if cur == tgt:
            return dist[cur]
        for nxt in adjacency[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return None


# The one-sided FIFO search that the two-sided ``bfs_reconfig`` replaced,
# kept as it was: the witness tests require both to return the same sequence.
def fifo_bfs(
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


# -- the set-based sunflower extraction that the mask extractor replaced -----
# Kept as it was: the mask extractor must choose the same petals, and the
# certificate audit below checks petals with ``is_valid_sunflower``.


class SetFamily:
    """An indexed family of distinct nonempty sets of bounded size.

    Members must be nonempty: a sunflower petal is required to be nonempty, so
    an empty member could never participate in one and would break the
    extraction guarantee.
    """

    __slots__ = ("members", "card_bound")

    def __init__(
        self, members: Iterable[Iterable[int]], card_bound: int | None = None
    ) -> None:
        mems = tuple(frozenset(m) for m in members)
        if card_bound is None:
            card_bound = max((len(m) for m in mems), default=1)
        if card_bound < 1:
            raise ValueError("card_bound must be >= 1")
        seen: set[frozenset[int]] = set()
        for idx, m in enumerate(mems):
            if not m:
                raise ValueError(f"member {idx} is empty")
            if len(m) > card_bound:
                raise ValueError(f"member {idx} exceeds card_bound {card_bound}")
            if m in seen:
                raise ValueError(f"member {idx} duplicates an earlier member")
            seen.add(m)
        self.members = mems
        self.card_bound = card_bound

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Sunflower:
    """Member indices whose sets pairwise intersect in exactly ``core``."""

    core: frozenset[int]
    petal_indices: tuple[int, ...]


def sunflower_threshold(card_bound: int, petals: int) -> int:
    """Family size above which extraction of ``petals`` petals is guaranteed."""
    return math.factorial(card_bound) * (petals - 1) ** card_bound


def find_sunflower(fam: SetFamily, petals_wanted: int) -> Optional[Sunflower]:
    """Extract a sunflower with at least ``petals_wanted`` petals.

    Greedy maximal pairwise-disjoint selection first, keeping every petal it
    finds; otherwise restrict to the most frequent element (ties to the
    smallest id), strip it, recurse, and re-add it to the core.
    """
    if petals_wanted < 1:
        raise ValueError("petals_wanted must be >= 1")
    return _extract(list(enumerate(fam.members)), petals_wanted)


def _extract(
    indexed: list[tuple[int, frozenset[int]]], want: int
) -> Optional[Sunflower]:
    if len(indexed) < want:
        return None
    chosen: list[int] = []
    union: set[int] = set()
    for idx, s in indexed:
        if s and not (s & union):
            chosen.append(idx)
            union |= s
    if len(chosen) >= want:
        return Sunflower(core=frozenset(), petal_indices=tuple(chosen))
    freq: Counter[int] = Counter()
    for _, s in indexed:
        freq.update(s)
    if not freq:
        return None
    best = max(freq.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    sub = [(idx, s - {best}) for idx, s in indexed if best in s]
    inner = _extract(sub, want)
    if inner is None:
        return None
    return Sunflower(core=inner.core | {best}, petal_indices=inner.petal_indices)


def is_valid_sunflower(
    fam: SetFamily, flower: Sunflower, petals_wanted: int | None = None
) -> bool:
    """Invariant check, linear in the petal sizes.

    Two or more sets meet pairwise in exactly the core when the core lies in
    each and their petals (set minus core) are pairwise disjoint.
    """
    idxs = flower.petal_indices
    if len(set(idxs)) != len(idxs):
        return False
    if any(i < 0 or i >= len(fam.members) for i in idxs):
        return False
    if petals_wanted is not None and len(idxs) < petals_wanted:
        return False
    sets = [fam.members[i] for i in idxs]
    petals = [s - flower.core for s in sets]
    if not all(petals) or sum(map(len, petals)) != len(set().union(*petals)):
        return False
    return len(sets) < 2 or all(flower.core <= s for s in sets)


def mask_sunflower(fam: SetFamily, want: int) -> Optional[Sunflower]:
    """``degenerate.extract_sunflower`` on the members as bit masks.

    Requires the set-based ``find_sunflower`` to agree: both find none, or
    the masks' petals are the first ``want`` of the oracle's and their core,
    the meet of two petals, is the oracle's.
    """
    found = extract_sunflower([sum(1 << e for e in m) for m in fam.members], want)
    oracle = find_sunflower(fam, want)
    if found is None:
        assert oracle is None
        return None
    assert oracle is not None and list(oracle.petal_indices[:want]) == found
    petals = [fam.members[i] for i in found]
    core = petals[0] & petals[1] if len(petals) > 1 else frozenset()
    assert core == oracle.core
    return Sunflower(core, tuple(found))


def check_reduction_log(inst: Instance, log, kernel_graph: Graph) -> None:
    """Audit every certificate against the graph state it fired on, then
    confirm that replaying the deletions reproduces the kernel exactly."""
    g = inst.graph
    anchors = inst.source | inst.target
    for step in log:
        assert step.vertex not in anchors
        cert = step.certificate
        if step.rule in ("sunflower-degenerate", "quasi-wide"):
            centers = cert["petal_centers"]
            assert step.vertex == centers[0]
            assert len(centers) == 2 * inst.k
            assert not (set(centers) & anchors)
            family = SetFamily([g.closed_neighbor_set(c) for c in centers])
            flower = Sunflower(
                core=frozenset(cert["core"]),
                petal_indices=tuple(range(len(centers))),
            )
            assert is_valid_sunflower(family, flower, petals_wanted=2 * inst.k)
            if step.rule == "quasi-wide":
                allowed = set(cert["deletions"]) | anchors
                assert set(cert["core"]) <= allowed
        elif step.rule == "twin":
            survivor = cert["survivor"]
            assert survivor not in anchors
            assert g.closed_neighbor_set(survivor) == g.closed_neighbor_set(step.vertex)
        elif step.rule == "core-twin":
            survivor = cert["survivor"]
            shared = frozenset(cert["shared_core_neighborhood"])
            assert g.neighbor_set(survivor) & shared == shared
            assert g.neighbor_set(step.vertex) & shared == shared
        else:
            raise AssertionError(f"unknown rule {step.rule!r}")
        g = g.induced_subgraph(g.vertex_set - {step.vertex})
    assert g == kernel_graph


def unique_cover_masks(g: Graph, k: int) -> tuple[list[int], int, dict[int, int], bool]:
    """Unique domination masks over all vertex subsets of size <= k+1.

    Also reports whether some subset of size <= k dominates everything.
    """
    verts = g.vertices
    pos = {v: i for i, v in enumerate(verts)}
    closed = []
    for v in verts:
        mask = 1 << pos[v]
        for w in g.neighbor_set(v):
            mask |= 1 << pos[w]
        closed.append(mask)
    full = (1 << len(verts)) - 1
    covers: set[int] = set()
    feasible = False
    for size in range(k + 2):
        for combo in itertools.combinations(range(len(verts)), size):
            mask = 0
            for i in combo:
                mask |= closed[i]
            covers.add(mask)
            if size <= k and mask == full:
                feasible = True
    return sorted(covers), full, pos, feasible


def bounded_core(g: Graph, k: int) -> frozenset[int]:
    """The greedy domination core, decided against every cover mask.

    Rescans in ascending vertex order until nothing leaves, so it does not
    rely on the one-pass argument of ``compute_bounded_core``.
    """
    covers, full, pos, feasible = unique_cover_masks(g, k)
    if not feasible:
        raise InfeasibleInstanceError(f"graph has no dominating set of size <= {k}")
    core_mask = full
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            bit = 1 << pos[v]
            if not core_mask & bit:
                continue
            needed = core_mask & ~bit
            if not any(c & needed == needed and not c & bit for c in covers):
                core_mask &= ~bit
                changed = True
    return frozenset(v for v in g.vertices if core_mask >> pos[v] & 1)


def _min_count_dominated(closed: list[int], needed: int, allowed: int, budget: int) -> bool:
    """Whether at most ``budget`` vertices of ``allowed`` dominate ``needed``.

    Every node scans all of ``needed`` for the vertex with the fewest
    dominators in ``allowed`` and branches on them, down to budget 0.
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
        if _min_count_dominated(
            closed, needed & ~closed[low.bit_length() - 1], allowed, budget - 1
        ):
            return True
        allowed ^= low
    return False


def search_core(g: Graph, k: int) -> frozenset[int]:
    """The one-pass greedy core, each removal decided by a min-count search tree.

    Bits follow ascending ids.  This is the oracle of ``compute_bounded_core``
    on graphs too large for ``bounded_core`` to enumerate.
    """
    verts, _pos, nbr = bitset_index(g)
    closed = [mask | 1 << i for i, mask in enumerate(nbr)]
    full = (1 << len(verts)) - 1
    if not _min_count_dominated(closed, full, full, k):
        raise InfeasibleInstanceError(f"graph has no dominating set of size <= {k}")
    core_mask = full
    for i, mask in enumerate(closed):
        bit = 1 << i
        if not _min_count_dominated(closed, core_mask & ~bit, full & ~mask, k + 1):
            core_mask &= ~bit
    return frozenset(v for i, v in enumerate(verts) if core_mask >> i & 1)


def degeneracy(g: Graph) -> int:
    """Degeneracy by min-degree peeling, with a full scan of the vertices
    left at every step."""
    degs = {v: g.degree(v) for v in g.vertices}
    alive = set(degs)
    d = 0
    while alive:
        v = min(alive, key=lambda u: (degs[u], u))
        d = max(d, degs[v])
        alive.remove(v)
        for w in g.neighbor_set(v):
            if w in alive:
                degs[w] -= 1
    return d


def d_core(g: Graph, d: int) -> frozenset[int]:
    """The d-core: drop vertices with fewer than d neighbours left until
    none is left."""
    left = set(g.vertices)
    while True:
        low = {v for v in left if len(g.neighbor_set(v) & left) < d}
        if not low:
            return frozenset(left)
        left -= low


def peeled_degeneracy(g: Graph) -> int:
    """d of g by the solver's peeler, for the oracles that peel again after
    every deletion, where the full scan would be too slow."""
    return degeneracy_core(bitset_index(g)[2], (1 << g.n) - 1)[0]


def remove_closed_twins(inst: Instance) -> tuple[Instance, ReductionLog]:
    """Closed-twin removal that regroups after every deletion until none is left.

    Deletes the second vertex of the lexicographically least twin group,
    so it does not rely on the one-scan argument of the solver's version.
    """
    g = inst.graph
    log = ReductionLog()
    while True:
        groups: dict[frozenset[int], list[int]] = {}
        for v in g.vertices:
            if v not in inst.anchors:
                groups.setdefault(g.closed_neighbor_set(v), []).append(v)
        twin_groups = [vs for vs in groups.values() if len(vs) >= 2]
        if not twin_groups:
            return inst.with_graph(g), log
        vs = min(twin_groups)
        g = g.induced_subgraph(g.vertex_set - {vs[1]})
        log.append(ReductionStep("twin", vs[1], {"survivor": vs[0]}))


def sunflower_valid(fam: SetFamily, flower: Sunflower, petals_wanted=None) -> bool:
    """The sunflower invariants, checked pair by pair."""
    idxs = flower.petal_indices
    if len(set(idxs)) != len(idxs):
        return False
    if any(i < 0 or i >= len(fam.members) for i in idxs):
        return False
    if petals_wanted is not None and len(idxs) < petals_wanted:
        return False
    sets = [fam.members[i] for i in idxs]
    if any(not (s - flower.core) for s in sets):
        return False
    return all(a & b == flower.core for a, b in itertools.combinations(sets, 2))


def ball2(g: Graph, v: int, blocked) -> frozenset[int]:
    """Closed radius-2 ball around v in g minus ``blocked``, by distances."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        if dist[u] == 2:
            continue
        for w in g.neighbor_set(u):
            if w not in blocked and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return frozenset(dist)


@dataclass(frozen=True)
class ScatteredCertificate:
    """Deletion set B and a set A that is 2-scattered once B is removed."""

    deleted: frozenset[int]
    scattered: frozenset[int]


def scattered_valid(g: Graph, cert: ScatteredCertificate) -> bool:
    """Whether the radius-2 balls of the scattered set, minus B, are pairwise disjoint."""
    if cert.scattered & cert.deleted:
        return False
    balls = [ball2(g, v, cert.deleted) for v in cert.scattered]
    return not any(a & b for a, b in itertools.combinations(balls, 2))


def rules_to_json(log: ReductionLog) -> list[dict]:
    """The ``rules`` entries of a report as dicts, in 1-indexed file coordinates:
    the encoder oracle for the rule lines that ``instances`` writes.

    Every certificate value is a vertex or a list of vertices (see
    ``ReductionStep``), shifted by its shape.
    """
    return [
        {
            "rule": step.rule,
            "vertex": step.vertex + 1,
            "certificate": {
                key: value + 1 if isinstance(value, int) else [v + 1 for v in value]
                for key, value in step.certificate.items()
            },
        }
        for step in log
    ]


def log_digest(runs) -> str:
    """sha256 over each run's steps (rule, vertex, certificate) and kernel vertices."""
    h = hashlib.sha256()
    for kernel, log in runs:
        steps = [[s.rule, s.vertex, s.certificate] for s in log]
        h.update(json.dumps([steps, kernel.graph.vertices], sort_keys=True).encode())
    return h.hexdigest()


def two_k_petals(log: ReductionLog, k: int) -> ReductionLog:
    """A reference log as the solver writes it: petal lists cut to their first 2k.

    The kernels list only the 2k petals the rule needs, in every
    ``sunflower-degenerate`` and ``quasi-wide`` step.  Rules, vertices,
    cores and deletion sets are kept as they are.
    """
    steps = []
    for step in log:
        cert = step.certificate
        if step.rule in ("sunflower-degenerate", "quasi-wide"):
            step = ReductionStep(
                step.rule, step.vertex, {**cert, "petal_centers": cert["petal_centers"][: 2 * k]}
            )
        steps.append(step)
    return ReductionLog(steps)


def assert_same_reductions(ours, ref, k: int) -> None:
    """``ours`` equals the reference run ``(kernel, log, *rest)`` with its log
    cut by ``two_k_petals``: same rules, vertices, cores, deletion sets,
    kernels and the rest, and petal lists that are prefixes of the reference's."""
    kernel, log, *rest = ref
    assert ours == (kernel, two_k_petals(log, k), *rest)


# -- the adjacency-set parser that the ISR bitset parser replaced -----------
#
# ``parse_instance`` as it was before ISR text was parsed straight into the
# bitset index: every graph is built as adjacency sets.  The differential
# test in test_instances.py holds the library's parser to it.


def parse_instance(data: str | bytes) -> Instance:
    data = _decode(data, InstanceFormatError)
    header: tuple[Problem, int, int, int] | None = None
    edge_lines: dict[tuple[int, int], int] = {}  # file edge -> its line
    source: list[int] | None = None
    target: list[int] | None = None

    for line_no, raw in enumerate(data.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] in "#c":
            continue
        tag = parts[0]
        if tag == "e" and header is not None:
            if len(parts) != 3:
                raise InstanceFormatError("edge line must be 'e <u> <v>'", line_no)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise _int_error(parts[1:], line_no) from None
            if not 1 <= u < v <= n:
                raise InstanceFormatError(
                    f"edge ({u}, {v}) must satisfy 1 <= u < v <= n", line_no
                )
            first = edge_lines.setdefault((u, v), line_no)
            if first != line_no:
                raise InstanceFormatError(
                    f"duplicate edge ({u}, {v}), first seen on line {first}", line_no
                )
            continue
        if tag == "p":
            if header is not None:
                raise InstanceFormatError("duplicate problem line", line_no)
            if len(parts) != 5:
                raise InstanceFormatError(
                    "problem line must be 'p <isr|dsr> <n> <m> <k>'", line_no
                )
            if parts[1] not in (Problem.ISR.value, Problem.DSR.value):
                raise InstanceFormatError(f"unknown problem tag {parts[1]!r}", line_no)
            n, m, k = _ints(parts[2:], line_no)
            if n < 1:
                raise InstanceFormatError("n must be >= 1", line_no)
            if n > MAX_VERTICES:
                raise InstanceFormatError(f"n must be <= {MAX_VERTICES}", line_no)
            if m < 0:
                raise InstanceFormatError("m must be >= 0", line_no)
            if k < 1:
                raise InstanceFormatError("k must be >= 1", line_no)
            header = (Problem(parts[1]), n, m, k)
        elif header is None:
            raise InstanceFormatError(f"{tag!r} line before the problem line", line_no)
        elif tag in ("s", "t"):
            if (source if tag == "s" else target) is not None:
                raise InstanceFormatError(f"duplicate {tag!r} line", line_no)
            vs = _ints(parts[1:], line_no)
            seen: set[int] = set()
            for v in vs:
                if not 1 <= v <= n:
                    raise InstanceFormatError(f"vertex {v} out of range 1..{n}", line_no)
                if v in seen:
                    raise InstanceFormatError(f"duplicate vertex {v} in {tag!r} line", line_no)
                seen.add(v)
            if tag == "s":
                source = [v - 1 for v in vs]
            else:
                target = [v - 1 for v in vs]
        else:
            raise InstanceFormatError(f"unknown line tag {tag!r}", line_no)

    if header is None:
        raise InstanceFormatError("missing problem line")
    problem, n, m, k = header
    if len(edge_lines) != m:
        raise InstanceFormatError(f"expected {m} edge lines, found {len(edge_lines)}")
    if source is None:
        raise InstanceFormatError("missing source line")
    if target is None:
        raise InstanceFormatError("missing target line")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_lines:
        adj[u - 1].append(v - 1)
        adj[v - 1].append(u - 1)
    graph = Graph._of({v: frozenset(ns) for v, ns in enumerate(adj)})
    try:
        return Instance(problem, graph, k, frozenset(source), frozenset(target))
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


# -- the per-deletion ISR kernels that the reduction workspace replaced ------
# Kept as they were, with the rescanning twin removal above: every deletion
# restarts twin removal, the degeneracy order, the low-degree family, the
# anchor classes and every radius-2 ball.  The kernel tests require the
# workspace kernels to return the same logs, kernels and d.


def reduce_to_fixpoint(inst: Instance, rule) -> tuple[Instance, ReductionLog]:
    """Alternate twin removal and one deletion by ``rule`` until it finds none."""
    cur = inst
    log = ReductionLog()
    while True:
        cur, twin_log = remove_closed_twins(cur)
        log.steps.extend(twin_log.steps)
        reduced = rule(cur)
        if reduced is None:
            return cur, log
        cur, step = reduced
        log.append(step)


def reduce_low_degree_once(inst: Instance, d: int):
    """Delete one petal centre of a sunflower among the degree-<=2d closed
    neighbourhoods, or return None at or below the threshold."""
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
        "sunflower-degenerate",
        center,
        {"core": sorted(flower.core), "petal_centers": centers},
    )
    return inst.with_graph(g.induced_subgraph(g.vertex_set - {center})), step


def kernelize_degenerate(inst: Instance) -> tuple[Instance, ReductionLog, int]:
    """Kernel, log and d, recomputing the degeneracy before every attempt."""
    cur, log = reduce_to_fixpoint(
        inst,
        lambda cur: reduce_low_degree_once(cur, peeled_degeneracy(cur.graph)),
    )
    d = peeled_degeneracy(cur.graph)
    low_bound = low_degree_threshold(d, cur.k)
    anchors = cur.anchors
    g = cur.graph
    low_count = sum(
        1 for v in g.vertices if v not in anchors and g.degree(v) <= 2 * d
    )
    non_anchor = g.n - len(anchors & g.vertex_set)
    if (
        low_count > low_bound
        or non_anchor > (2 * d + 1) * low_bound
        or g.n > kernel_vertex_bound(d, cur.k)
    ):
        raise RuntimeError("kernel bound violated; this is an internal error")
    return cur, log, d


def _ball2_mask(nbr: list[int], i: int, blocked: int) -> int:
    first = nbr[i] & ~blocked
    ball = first | 1 << i
    while first:
        low = first & -first
        ball |= nbr[low.bit_length() - 1]
        first ^= low
    return ball & ~blocked


def search_scattered(
    g: Graph, pool: list[int], params: QuasiWideParams, required
) -> Optional[ScatteredCertificate]:
    """Deletion sets by increasing size, high-degree vertices first; for each,
    a greedy ascending-id sweep for pool vertices with disjoint radius-2 balls
    that stops at ``required(size)`` of them."""
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
                if len(chosen) == need:
                    break
                used |= ball
            if len(chosen) >= need:
                cert = ScatteredCertificate(frozenset(combo), frozenset(chosen))
                if scattered_valid(g, cert):
                    return cert
    return None


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


def reduce_quasiwide_once(inst: Instance, params: QuasiWideParams):
    """Delete one petal centre found by the scattered-set search in the
    largest class above max(class_threshold, 2k), or return None."""
    two_k = 2 * inst.k
    g = inst.graph
    anchors = inst.anchors
    classes = partition_by_solution_neighborhood(g, anchors)
    oversized = [
        (len(vs), tuple(sorted(key)), vs)
        for key, vs in classes.items()
        if len(vs) > max(params.class_threshold, two_k)
    ]
    if not oversized:
        return None
    oversized.sort(key=lambda t: (-t[0], t[1]))
    pool = list(oversized[0][2])
    rest = g.induced_subgraph([v for v in g.vertices if v not in anchors])
    cert = search_scattered(rest, pool, params, lambda size: two_k << size)
    if cert is None:
        return None
    cells: dict[frozenset[int], list[int]] = {}
    for a in sorted(cert.scattered):
        cells.setdefault(g.neighbor_set(a) & cert.deleted, []).append(a)
    petals = min(cells.items(), key=lambda kv: (-len(kv[1]), sorted(kv[0])))[1]
    family = SetFamily([g.closed_neighbor_set(a) for a in petals])
    core = family.members[0] & family.members[1]
    flower = Sunflower(core=core, petal_indices=tuple(range(len(petals))))
    assert sunflower_valid(family, flower, petals_wanted=two_k)
    assert core <= cert.deleted | anchors
    step = ReductionStep(
        "quasi-wide",
        petals[0],
        {
            "core": sorted(core),
            "petal_centers": list(petals),
            "deletions": sorted(cert.deleted),
        },
    )
    return inst.with_graph(g.induced_subgraph(g.vertex_set - {petals[0]})), step


def kernelize_quasiwide(
    inst: Instance, params: QuasiWideParams
) -> tuple[Instance, ReductionLog]:
    return reduce_to_fixpoint(inst, lambda cur: reduce_quasiwide_once(cur, params))


# -- shared corpora (built lazily so acceptance timing includes the work) ----

_cache: dict[str, object] = {}


def isr_corpus() -> list[tuple[Instance, int]]:
    """500 planted ISR instances on random degenerate graphs, with the d used."""
    if "isr" not in _cache:
        rng = random.Random(0x5EED1)
        corpus = []
        while len(corpus) < ISR_CORPUS_SIZE:
            n = rng.randint(6, 18)
            d = rng.choice((1, 2))
            k = rng.choice((2, 3, 4))
            g = gen_random_degenerate(n, d, rng.randrange(2**30))
            inst = plant_isr_instance(g, k, rng.randrange(2**30))
            if inst is None:
                continue
            corpus.append((inst, d))
        _cache["isr"] = corpus
    return _cache["isr"]


def isr_oracle_outcomes():
    """bfs_reconfig on every unreduced ISR corpus instance."""
    if "isr_oracle" not in _cache:
        _cache["isr_oracle"] = [bfs_reconfig(inst) for inst, _ in isr_corpus()]
    return _cache["isr_oracle"]


def _pendant_heavy_graph(n: int, rng: random.Random) -> Graph:
    """Small random base with pendant leaves piled onto random base vertices."""
    base = rng.randint(2, min(6, n))
    g = gen_random_degenerate(base, rng.choice((1, 2)), rng.randrange(2**30))
    edges = list(g.edges())
    for v in range(base, n):
        edges.append((rng.randrange(base), v))
    return Graph(range(n), edges)


def dsr_corpus() -> list[Instance]:
    """300 DSR instances with endpoints drawn from enumerated dominating sets.

    Half the graphs are plain random degenerate graphs; half are pendant-heavy
    so that domination cores are small and core-twins actually occur.
    """
    if "dsr" not in _cache:
        rng = random.Random(0x5EED2)
        corpus = []
        while len(corpus) < DSR_CORPUS_SIZE:
            n = rng.randint(4, 14)
            k = rng.randint(1, 3)
            if rng.random() < 0.5:
                g = gen_random_degenerate(n, rng.choice((1, 2)), rng.randrange(2**30))
            else:
                g = _pendant_heavy_graph(n, rng)
            doms = [
                frozenset(c)
                for c in itertools.combinations(g.vertices, k)
                if dominating(g, c)
            ]
            if not doms:
                continue
            corpus.append(
                Instance(Problem.DSR, g, k, rng.choice(doms), rng.choice(doms))
            )
        _cache["dsr"] = corpus
    return _cache["dsr"]


def dsr_oracle_outcomes():
    if "dsr_oracle" not in _cache:
        _cache["dsr_oracle"] = [bfs_reconfig(inst) for inst in dsr_corpus()]
    return _cache["dsr_oracle"]


def tiny_isr_corpus() -> list[Instance]:
    """100 ISR instances on at most 5 vertices with k = 2."""
    if "tiny" not in _cache:
        rng = random.Random(0x5EED3)
        corpus = []
        while len(corpus) < TINY_CORPUS_SIZE:
            n = rng.randint(2, 5)
            pairs = list(itertools.combinations(range(n), 2))
            edges = [e for e in pairs if rng.random() < 0.45]
            g = Graph(range(n), edges)
            sets = [
                frozenset(c)
                for c in itertools.combinations(range(n), 2)
                if independent(g, c)
            ]
            if not sets:
                continue
            corpus.append(
                Instance(Problem.ISR, g, 2, rng.choice(sets), rng.choice(sets))
            )
        _cache["tiny"] = corpus
    return _cache["tiny"]


def _closed_blowup(rng: random.Random) -> Graph:
    """A random degenerate graph with each vertex replaced by a clique of 1-3
    closed twins, joined completely along the base edges."""
    base = gen_random_degenerate(rng.randint(6, 16), rng.choice((1, 2)), rng.randrange(2**30))
    copies: dict[int, list[int]] = {}
    for v in base.vertices:
        start = sum(len(c) for c in copies.values())
        copies[v] = list(range(start, start + rng.choice((1, 1, 2, 3))))
    edges = [e for c in copies.values() for e in itertools.combinations(c, 2)]
    for u, v in base.edges():
        edges += itertools.product(copies[u], copies[v])
    return Graph(range(sum(len(c) for c in copies.values())), edges)


def sparse_corpus() -> list[Instance]:
    """Planted instances on which every deletion rule fires.

    Forests of 240-250 vertices (k = 2) exceed the low-degree threshold of
    162; closed blow-ups are full of twin groups; pendant-heavy graphs make
    the scattered-set search delete hubs.
    """
    if "sparse" not in _cache:
        rng = random.Random(0x5EED4)
        graphs = [gen_random_degenerate(n, 1, rng.randrange(2**30)) for n in (240, 250)]
        graphs += [_closed_blowup(rng) for _ in range(20)]
        graphs += [_pendant_heavy_graph(rng.randint(20, 60), rng) for _ in range(20)]
        corpus = []
        for g in graphs:
            inst = None
            while inst is None:
                inst = plant_isr_instance(g, rng.choice((2, 3)) if g.n < 240 else 2, rng.randrange(2**30))
            corpus.append(inst)
        _cache["sparse"] = corpus
    return _cache["sparse"]


def _cycle_and_paths(paths: int, isolated: int) -> Instance:
    """k = 1: a 5-cycle on 0-4, then three-vertex paths, then isolated vertices.

    The endpoints are the last two isolated vertices.  Every non-anchor
    vertex has degree at most 2d, so the low-degree rule deletes down to
    its threshold; each time the d-core empties d falls, from 2 to 0.
    """
    edges = [(i, (i + 1) % 5) for i in range(5)]
    for p in range(paths):
        a = 5 + 3 * p
        edges += [(a, a + 1), (a + 1, a + 2)]
    n = 5 + 3 * paths + isolated
    return Instance(Problem.ISR, Graph(range(n), edges), 1, {n - 1}, {n - 2})


def deletion_corpus() -> list[Instance]:
    """Instances on which the ISR rules delete most vertices.

    Forests of 240-250 vertices with k = 2 pass the low-degree threshold of
    162.  The k = 1 cycle-and-paths graphs make d fall while the rule
    deletes, and deleting an end of a three-vertex path leaves the other
    two closed twins.
    """
    if "deletion" not in _cache:
        rng = random.Random(0x5EED6)
        corpus = []
        for n in (240, 245, 250):
            g = gen_random_degenerate(n, 1, rng.randrange(2**30))
            inst = None
            while inst is None:
                inst = plant_isr_instance(g, 2, rng.randrange(2**30))
            corpus.append(inst)
        corpus += [_cycle_and_paths(40, 80), _cycle_and_paths(20, 150)]
        _cache["deletion"] = corpus
    return _cache["deletion"]


def hub_graph(rng):
    """Hubs 0..h-1 (h = 1-3), every other vertex joined to 1-h of them, then
    random chords; n = 6-40.  A vertex on j hubs is cut loose by deleting j."""
    n = rng.randint(6, 40)
    hubs = rng.randint(1, 3)
    edges = {
        (h, v) for v in range(hubs, n) for h in rng.sample(range(hubs), rng.randint(1, hubs))
    }
    for _ in range(rng.randint(0, n // 3)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(range(n), edges)


def hub_corpus() -> list[Instance]:
    """60 planted k = 2 instances on hub graphs with n >= 20, where the
    scattered-set rule deletes both with and without a deletion set."""
    if "hub" not in _cache:
        rng = random.Random(0x5EED7)
        corpus = []
        while len(corpus) < 60:
            g = hub_graph(rng)
            inst = plant_isr_instance(g, 2, rng.randrange(2**30)) if g.n >= 20 else None
            if inst is not None:
                corpus.append(inst)
        _cache["hub"] = corpus
    return _cache["hub"]


def no_instance_corpus() -> list[Instance]:
    """120 ISR and 120 DSR no-instances on G(n, p), n = 6-11, k = 2-3.

    Both endpoints are drawn from all feasible k-sets, and the draws the
    one-sided search answers "yes" are dropped.  p is dense for ISR and
    middling for DSR, where about one draw in ten and one in twenty is a
    no-instance.
    """
    if "no" not in _cache:
        rng = random.Random(0x5EED5)
        corpus = []
        for problem, lo, hi in ((Problem.ISR, 0.5, 0.75), (Problem.DSR, 0.3, 0.5)):
            found = 0
            while found < NO_CORPUS_SIZE:
                n, k, p = rng.randint(6, 11), rng.randint(2, 3), rng.uniform(lo, hi)
                pairs = itertools.combinations(range(n), 2)
                g = Graph(range(n), [e for e in pairs if rng.random() < p])
                sets = [
                    frozenset(c)
                    for c in itertools.combinations(range(n), k)
                    if feasible(g, problem, c)
                ]
                if len(sets) < 2:
                    continue
                inst = Instance(problem, g, k, *rng.sample(sets, 2))
                if fifo_bfs(inst).verdict is Verdict.NO:
                    corpus.append(inst)
                    found += 1
        _cache["no"] = corpus
    return _cache["no"]


def _blocked(base: Optional[Instance]) -> Optional[Instance]:
    """``base`` with every edge between S minus T and T minus S added, if its
    oracle witness then has more than |S Δ T| moves; else None.

    Every band state with tokens on both sides is then infeasible, so a
    witness must detour outside S Δ T.  With |S Δ T| = 2 the band still holds
    a path: remove the source token, then add the target one.
    """
    if base is None:
        return None
    edges = [*base.graph.edges()]
    edges += [(s, t) for s in base.source - base.target for t in base.target - base.source]
    graph = Graph(base.graph.vertices, edges)
    inst = Instance(Problem.ISR, graph, base.k, base.source, base.target)
    out = bfs_reconfig(inst)
    if out.verdict is Verdict.YES and out.sequence.length > len(inst.source ^ inst.target):
        return inst
    return None


def blocked_corpus() -> list[Instance]:
    """Planted instances whose band holds no path, so that the search must
    run its full pass and the kernels decide what it runs on.

    30 ISR instances on d = 2-3 graphs with n = 20-40 and k = 3-4 (witnesses
    of 6-14 moves against bands of 4-8), then the DSR gadgets of the blocked
    n = 6, k = 2 trees of seeds 0-29 (92-116 vertices, witnesses of 6 moves
    against bands of 4).
    """
    if "blocked" not in _cache:
        rng = random.Random(0x5EED8)
        corpus = []
        while len(corpus) < BLOCKED_CORPUS_SIZE:
            n, d, k = rng.randint(20, 40), rng.choice((2, 3)), rng.choice((3, 4))
            seed = rng.randrange(2**30)
            inst = _blocked(plant_isr_instance(gen_random_degenerate(n, d, seed), k, seed))
            if inst is not None:
                corpus.append(inst)
        for seed in range(30):
            inst = _blocked(plant_isr_instance(gen_random_degenerate(6, 1, seed), 2, seed))
            if inst is not None:
                corpus.append(isr_to_dsr(inst)[0])
        _cache["blocked"] = corpus
    return _cache["blocked"]


# -- exhaustive families --------------------------------------------------------


def _ahu(adj: list[list[int]], v: int, parent: int) -> str:
    """The AHU string of the subtree at ``v``: its children's strings, sorted, in brackets."""
    return "(" + "".join(sorted(_ahu(adj, w, v) for w in adj[v] if w != parent)) + ")"


def _tree_key(n: int, edges: list[tuple[int, int]]) -> str:
    """A canonical string of a tree: the least AHU string rooted at a centre.

    The centres, the vertices of least eccentricity, are one or two, and an
    isomorphism maps centres to centres, so the key names the tree's class.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    ecc = []
    for root in range(n):
        dist, queue = {root: 0}, deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        ecc.append(max(dist.values()))
    return min(_ahu(adj, c, -1) for c in range(n) if ecc[c] == min(ecc))


def free_trees(n: int) -> list[Graph]:
    """Every tree on vertices 0..n-1, one per isomorphism class (n >= 1).

    Each tree on n - 1 vertices gets a leaf n - 1 at each of its vertices in
    turn, and the first tree met of each canonical key is kept.  Every tree
    on n vertices arises so, by deleting one of its leaves and relabelling.
    """
    trees: list[list[tuple[int, int]]] = [[]]
    for size in range(2, n + 1):
        kept: dict[str, list[tuple[int, int]]] = {}
        for edges in trees:
            for v in range(size - 1):
                grown = edges + [(v, size - 1)]
                kept.setdefault(_tree_key(size, grown), grown)
        trees = list(kept.values())
    return [Graph(range(n), edges) for edges in trees]


def labelled_graphs(n: int) -> list[Graph]:
    """Every graph on vertices 0..n-1, one per edge set: 2^(n(n-1)/2) of them."""
    pairs = list(itertools.combinations(range(n), 2))
    return [
        Graph(range(n), [pair for j, pair in enumerate(pairs) if bits >> j & 1])
        for bits in range(1 << len(pairs))
    ]
