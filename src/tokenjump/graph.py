"""Immutable simple undirected graphs with stable integer vertex ids."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator


class Graph:
    """Simple undirected graph over integer vertex ids.

    Values are immutable: ``delete_vertex`` and ``induced_subgraph`` return new
    graphs, and surviving vertices keep their ids.  Ids are never recycled, so
    reduction logs can name deleted vertices unambiguously long after they are
    gone.  Neighborhood accessors that return tuples are sorted ascending to
    keep downstream output deterministic.
    """

    __slots__ = ("_adj",)

    def __init__(
        self,
        vertices: Iterable[int] = (),
        edges: Iterable[tuple[int, int]] = (),
    ) -> None:
        adj: dict[int, set[int]] = {}
        for v in vertices:
            adj.setdefault(int(v), set())
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
            adj[u].add(v)
            adj[v].add(u)
        self._adj: dict[int, frozenset[int]] = {
            v: frozenset(ns) for v, ns in sorted(adj.items())
        }

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._adj))

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def degree(self, v: int) -> int:
        return len(self.neighbor_set(v))

    def neighbor_set(self, v: int) -> frozenset[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise KeyError(f"vertex {v} not in graph") from None

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self.neighbor_set(v)))

    def closed_neighbor_set(self, v: int) -> frozenset[int]:
        return self.neighbor_set(v) | {v}

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in self.vertices:
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    def delete_vertex(self, v: int) -> "Graph":
        """New graph without v; all other ids and adjacencies unchanged."""
        if v not in self._adj:
            raise KeyError(f"vertex {v} not in graph")
        g = Graph.__new__(Graph)
        g._adj = {
            u: (ns - {v} if v in ns else ns)
            for u, ns in self._adj.items()
            if u != v
        }
        return g

    def induced_subgraph(self, keep: Iterable[int]) -> "Graph":
        kept = frozenset(keep)
        unknown = kept - self.vertex_set
        if unknown:
            raise KeyError(f"vertex {min(unknown)} not in graph")
        g = Graph.__new__(Graph)
        g._adj = {u: self._adj[u] & kept for u in sorted(kept)}
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DegeneracyResult:
    """Peeling order plus the largest minimum degree seen while peeling."""

    d: int
    order: tuple[int, ...]


def degeneracy_order(g: Graph) -> DegeneracyResult:
    """Min-degree peeling order; ties broken by smallest vertex id.

    The returned ``d`` is the maximum over peeling steps of the minimum degree
    at that step, so every vertex has at most ``d`` neighbors later in the
    order.  The empty graph yields ``d = 0`` with an empty order.  Peels
    smallest-last (Matula and Beck) from a heap of ``(degree, id)`` entries,
    skipping stale ones, in O(m log n).
    """
    degs = {v: len(ns) for v, ns in g._adj.items()}
    heap = [(deg, v) for v, deg in degs.items()]
    heapq.heapify(heap)
    order: list[int] = []
    d = 0
    while heap:
        deg, v = heapq.heappop(heap)
        if degs.get(v) != deg:
            continue
        del degs[v]
        d = max(d, deg)
        order.append(v)
        for w in g._adj[v]:
            if w in degs:
                degs[w] -= 1
                heapq.heappush(heap, (degs[w], w))
    return DegeneracyResult(d=d, order=tuple(order))


def bitset_index(g: Graph) -> tuple[tuple[int, ...], dict[int, int], list[int]]:
    """Ascending vertices, their bit positions, and open neighbor masks.

    ``nbr[i] | 1 << i`` is the closed neighborhood of ``vertices[i]``.
    """
    verts = g.vertices
    pos = {v: i for i, v in enumerate(verts)}
    nbr = []
    for v in verts:
        mask = 0
        for w in g._adj[v]:
            mask |= 1 << pos[w]
        nbr.append(mask)
    return verts, pos, nbr


def contains_biclique(g: Graph, d: int) -> bool:
    """Whether K_{d,d} occurs as a (not necessarily induced) subgraph.

    Plain exhaustive search over d-subsets of candidate left sides; intended
    for desk-scale diagnostics only.
    """
    if d < 1:
        raise ValueError("biclique order d must be >= 1")
    candidates = [v for v in g.vertices if g.degree(v) >= d]
    if len(candidates) < d:
        return False
    for left in itertools.combinations(candidates, d):
        common = g.neighbor_set(left[0])
        for v in left[1:]:
            common = common & g.neighbor_set(v)
            if len(common) < d:
                break
        else:
            if len(common - set(left)) >= d:
                return True
    return False
