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
import random
from collections import deque

from tokenjump import (
    DegeneracyResult,
    Graph,
    InfeasibleInstanceError,
    Instance,
    Problem,
    ReductionLog,
    ReductionStep,
    ScatteredCertificate,
    SetFamily,
    Sunflower,
    bfs_reconfig,
    gen_random_degenerate,
    is_valid_sunflower,
    plant_isr_instance,
)

ISR_CORPUS_SIZE = 500
DSR_CORPUS_SIZE = 300
TINY_CORPUS_SIZE = 100


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
            assert len(centers) >= 2 * inst.k
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
        g = g.delete_vertex(step.vertex)
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


def degeneracy_order(g: Graph) -> DegeneracyResult:
    """Min-degree peeling by a full scan of the vertices left at every step."""
    degs = {v: g.degree(v) for v in g.vertices}
    alive = set(degs)
    order: list[int] = []
    d = 0
    while alive:
        v = min(alive, key=lambda u: (degs[u], u))
        d = max(d, degs[v])
        order.append(v)
        alive.remove(v)
        for w in g.neighbor_set(v):
            if w in alive:
                degs[w] -= 1
    return DegeneracyResult(d=d, order=tuple(order))


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
        g = g.delete_vertex(vs[1])
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


def scattered_valid(g: Graph, cert: ScatteredCertificate) -> bool:
    """Whether the radius-2 balls of the scattered set, minus B, are pairwise disjoint."""
    if cert.scattered & cert.deleted:
        return False
    balls = [ball2(g, v, cert.deleted) for v in cert.scattered]
    return not any(a & b for a, b in itertools.combinations(balls, 2))


def log_digest(runs) -> str:
    """sha256 over each run's steps (rule, vertex, certificate) and kernel vertices."""
    h = hashlib.sha256()
    for kernel, log in runs:
        steps = [[s.rule, s.vertex, s.certificate] for s in log]
        h.update(json.dumps([steps, kernel.graph.vertices], sort_keys=True).encode())
    return h.hexdigest()


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
