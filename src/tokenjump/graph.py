"""Immutable simple undirected graphs with stable integer vertex ids.

Also the bitset helpers every layer shares, each the one place its fact is
computed: ``bitset_index`` numbers the vertices and builds neighbor masks,
``mask_of`` masks a set of ids, ``set_bits`` lists a mask's positions,
``union_of`` unites the masks at a mask's positions, ``closed_cells``
groups positions by their closed neighborhood within a mask, and
``degeneracy_core`` peels the degeneracy and its core from those masks.

Graphs of ISR instance text are born as their bitset index, and so are
their induced subgraphs, the ISR kernels: every ISR layer reads only that
index.  Graphs built from vertices and edges (the generators, the DSR
gadget), graphs of DSR instance text and their induced subgraphs are born
as adjacency sets, which DSR's degree-ordered core index and its core
cells read.  Either form answers every accessor.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Iterator


class Graph:
    """Simple undirected graph over integer vertex ids.

    Values are immutable: ``induced_subgraph`` returns a new graph, and
    surviving vertices keep their ids.  Ids are never recycled, so reduction
    logs can name deleted vertices unambiguously long after they are gone;
    ``instances.replay_reductions`` builds every kernel from its log.
    Neighborhood accessors that return tuples are sorted ascending to keep
    downstream output deterministic.

    A graph is born in one of two forms: adjacency sets (``_adj``), or its
    ascending bitset index (``_index``, see ``bitset_index``).  The other
    form is derived once, on first use, and kept.  The accessors answer from
    the sets when they are present, else from the index, and
    ``induced_subgraph`` keeps the form it reads.
    """

    __slots__ = ("_adj", "_index")

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
        self._adj: dict[int, frozenset[int]] | None = {
            v: frozenset(ns) for v, ns in sorted(adj.items())
        }
        self._index: tuple[tuple[int, ...], dict[int, int], list[int]] | None = None

    @classmethod
    def _of(cls, adj: dict[int, frozenset[int]]) -> "Graph":
        """The graph of an adjacency already checked: symmetric, loop-free, keys ascending."""
        g = cls.__new__(cls)
        g._adj = adj
        g._index = None
        return g

    @classmethod
    def _of_masks(cls, nbr: list[int]) -> "Graph":
        """The graph on ids 0..len(nbr)-1 whose open neighbor masks, bit w for
        id w, are ``nbr``, already checked symmetric and loop-free."""
        verts = tuple(range(len(nbr)))
        return cls._indexed(verts, dict(zip(verts, verts)), nbr)

    @classmethod
    def _indexed(cls, verts: tuple[int, ...], pos: dict[int, int], nbr: list[int]) -> "Graph":
        g = cls.__new__(cls)
        g._adj = None
        g._index = (verts, pos, nbr)
        return g

    def _sets(self) -> dict[int, frozenset[int]]:
        """The adjacency sets, derived from the index once if the graph has none."""
        if self._adj is None:
            verts, _, nbr = self._index
            self._adj = {
                v: frozenset(verts[i] for i in set_bits(mask)) for v, mask in zip(verts, nbr)
            }
        return self._adj

    def _ascending(self) -> tuple[tuple[int, ...], dict[int, int], list[int]]:
        """The bitset index in ascending order, built from the sets once."""
        if self._index is None:
            self._index = _build_index(self, self.vertices)
        return self._index

    def _mask(self, v: int) -> int:
        """The neighbor mask of v in the index."""
        _, pos, nbr = self._index
        try:
            return nbr[pos[v]]
        except KeyError:
            raise KeyError(f"vertex {v} not in graph") from None

    @property
    def n(self) -> int:
        adj = self._adj
        return len(adj) if adj is not None else len(self._index[0])

    @property
    def m(self) -> int:
        adj = self._adj
        if adj is not None:
            return sum(len(ns) for ns in adj.values()) // 2
        return sum(map(int.bit_count, self._index[2])) // 2

    @property
    def vertices(self) -> tuple[int, ...]:
        adj = self._adj
        return tuple(sorted(adj)) if adj is not None else self._index[0]

    @property
    def vertex_set(self) -> frozenset[int]:
        adj = self._adj
        return frozenset(adj if adj is not None else self._index[0])

    def degree(self, v: int) -> int:
        if self._adj is not None:
            return len(self.neighbor_set(v))
        return self._mask(v).bit_count()

    def neighbor_set(self, v: int) -> frozenset[int]:
        adj = self._adj
        if adj is None:
            verts = self._index[0]
            return frozenset(verts[i] for i in set_bits(self._mask(v)))
        try:
            return adj[v]
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

    def induced_subgraph(self, keep: Iterable[int]) -> "Graph":
        kept = frozenset(keep)
        unknown = kept - self.vertex_set
        if unknown:
            raise KeyError(f"vertex {min(unknown)} not in graph")
        order = sorted(kept)
        if self._adj is not None:
            return Graph._of({u: self._adj[u] & kept for u in order})
        verts, pos, nbr = self._index
        within = mask_of(pos, order)
        new_pos = {v: i for i, v in enumerate(order)}
        new_nbr = [
            mask_of(new_pos, (verts[i] for i in set_bits(nbr[pos[v]] & within))) for v in order
        ]
        return Graph._indexed(tuple(order), new_pos, new_nbr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self._adj is not None and other._adj is not None:
            return self._adj == other._adj
        mine, theirs = self._ascending(), other._ascending()
        return mine[0] == theirs[0] and mine[2] == theirs[2]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def bitset_index(
    g: Graph, order: Iterable[int] | None = None
) -> tuple[tuple[int, ...], dict[int, int], list[int]]:
    """Vertices in bit order, their bit positions, and open neighbor masks.

    Bits follow ascending ids unless ``order`` lists the vertices otherwise.
    ``nbr[i] | 1 << i`` is the closed neighborhood of ``vertices[i]``.

    The index in ascending order is built once per graph and kept on it, so
    the kernel's bound check, the search and a workspace that deletes
    nothing all read one index.  Each call returns a fresh ``nbr`` list that
    shares the int masks, so a caller may edit it in place; the vertex tuple
    and the position dict are shared and must not be changed.  An index in
    another ``order`` is built anew on every call.
    """
    if order is not None:
        return _build_index(g, tuple(order))
    verts, pos, nbr = g._ascending()
    return verts, pos, list(nbr)


def _build_index(
    g: Graph, verts: tuple[int, ...]
) -> tuple[tuple[int, ...], dict[int, int], list[int]]:
    pos = {v: i for i, v in enumerate(verts)}
    adj = g._sets()
    nbr = []
    for v in verts:
        mask = 0
        for w in adj[v]:
            mask |= 1 << pos[w]
        nbr.append(mask)
    return verts, pos, nbr


def degeneracy_core(nbr: list[int], alive: int) -> tuple[int, int]:
    """Degeneracy d of the graph on the ``alive`` positions, and its d-core.

    ``nbr`` holds open neighbor masks as ``bitset_index`` builds them; bits
    outside ``alive`` are ignored.  Peels as Batagelj and Zaversnik do, with
    one mask of positions per current degree: at each level every position
    of that degree leaves, and no degree drops below the level being peeled.
    d is the highest level reached, and the d-core, the largest set in
    which each position has d neighbors or more, is the mask left when it
    is reached.  No live position gives ``(0, 0)``.
    """
    deg = [0] * len(nbr)
    buckets = [0] * len(nbr)
    for i in set_bits(alive):
        deg[i] = k = (nbr[i] & alive).bit_count()
        buckets[k] |= 1 << i
    d, core, left, level = 0, alive, alive, 0
    while left:
        batch = buckets[level]
        if not batch:
            level += 1
            continue
        if level > d:
            d, core = level, left
        buckets[level] = 0
        left ^= batch
        for i in set_bits(batch):
            for w in set_bits(nbr[i] & left):
                k = deg[w]
                if k > level:
                    bit = 1 << w
                    buckets[k] ^= bit
                    buckets[k - 1] |= bit
                    deg[w] = k - 1
    return d, core


def mask_of(pos: dict[int, int], vertices: Iterable[int]) -> int:
    """The mask of the bit positions that ``pos`` gives ``vertices``."""
    mask = 0
    for v in vertices:
        mask |= 1 << pos[v]
    return mask


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_of(masks: list[int], mask: int) -> int:
    """The union of ``masks[i]`` over the set bits i of ``mask``."""
    union = 0
    while mask:
        low = mask & -mask
        union |= masks[low.bit_length() - 1]
        mask ^= low
    return union


def closed_cells(nbr: list[int], members: Iterable[int], within: int) -> dict[int, list[int]]:
    """The positions i of ``members`` grouped by ``(nbr[i] | 1 << i) & within``.

    Cells keep the order of ``members`` and come in order of their first
    member.  For members outside ``within`` the key is the open neighborhood
    in ``within``: an anchor class, or a cell of equal deletion-set neighbors.
    """
    cells: dict[int, list[int]] = {}
    for i in members:
        cells.setdefault((nbr[i] | 1 << i) & within, []).append(i)
    return cells


# Left sides past which ``contains_biclique`` gives up.
BICLIQUE_WORK_CAP = 200_000


def contains_biclique(g: Graph, d: int) -> bool | None:
    """Whether K_{d,d} occurs as a (not necessarily induced) subgraph.

    Plain exhaustive search over d-subsets of candidate left sides, the
    vertices of degree at least d; intended for desk-scale diagnostics only.
    None when there are more than ``BICLIQUE_WORK_CAP`` such subsets.
    """
    if d < 1:
        raise ValueError("biclique order d must be >= 1")
    candidates = [v for v in g.vertices if g.degree(v) >= d]
    if comb(len(candidates), d) > BICLIQUE_WORK_CAP:
        return None
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
