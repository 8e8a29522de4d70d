import itertools
import random

import pytest
from hypothesis import given, strategies as st

from tokenjump import (
    Graph,
    contains_biclique,
    gen_random_degenerate,
    kernelize_degenerate,
    plant_isr_instance,
)
from tokenjump.graph import (
    BICLIQUE_WORK_CAP,
    bitset_index,
    closed_cells,
    degeneracy_core,
    set_bits,
    union_of,
)

import reference


def path(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(range(n), itertools.combinations(range(n), 2))


def cycle(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    return Graph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    else:
        edges = set()
    return Graph(range(n), edges)


def test_construction_rejects_self_loops_and_unknown_endpoints():
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 0)])
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 2)])


def test_equality_and_repr():
    g = path(3)
    assert g == path(3) and g != cycle(3)
    assert g.__eq__(g.vertex_set) is NotImplemented and g != g.vertex_set
    assert repr(g) == "Graph(n=3, m=2)"


def peel(g, alive=None):
    """``degeneracy_core`` on g's bitset index, the core as vertex ids."""
    verts, _, nbr = bitset_index(g)
    if alive is None:
        alive = (1 << g.n) - 1
    d, core = degeneracy_core(nbr, alive)
    return d, {verts[i] for i in set_bits(core)}


def assert_peel_matches_reference(g, alive):
    """The peel of g's live vertices against the min-scan d and the d-core
    dropped vertex by vertex, on the induced subgraph.  The workspace's masks
    hold no dead bit, and the peel must also ignore dead bits it is given."""
    verts, _, nbr = bitset_index(g)
    live = g.induced_subgraph(verts[i] for i in set_bits(alive))
    d = reference.degeneracy(live)
    expected = (d, reference.d_core(live, d))
    assert peel(g, alive) == expected
    masked = [mask & alive if alive >> i & 1 else 0 for i, mask in enumerate(nbr)]
    d, core = degeneracy_core(masked, alive)
    assert (d, {verts[i] for i in set_bits(core)}) == expected


def test_degeneracy_examples():
    assert peel(path(4)) == (1, {0, 1, 2, 3})
    assert peel(complete(4)) == (3, {0, 1, 2, 3})
    assert peel(cycle(5)) == (2, set(range(5)))
    assert peel(Graph()) == (0, set())
    assert peel(Graph(range(4))) == (0, {0, 1, 2, 3})
    # a triangle with a pendant path: the 2-core is the triangle
    tail = Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    assert peel(tail) == (2, {0, 1, 2})
    assert peel(tail, 0b11011) == (1, {0, 1, 3, 4})
    assert peel(tail, 0) == (0, set())


@given(graphs(max_n=14), st.data())
def test_degeneracy_core_matches_reference(g, data):
    assert_peel_matches_reference(g, (1 << g.n) - 1)
    assert_peel_matches_reference(g, data.draw(st.integers(0, (1 << g.n) - 1)))


def test_degeneracy_core_matches_reference_on_corpora():
    rng = random.Random(0x5EED)
    graphs_ = [inst.graph for inst, _ in reference.isr_corpus()]
    graphs_ += [inst.graph for inst in reference.sparse_corpus()]
    graphs_ += [Graph(), Graph(range(7))]
    for g in graphs_:
        assert_peel_matches_reference(g, (1 << g.n) - 1)
        assert_peel_matches_reference(g, rng.getrandbits(g.n) if g.n else 0)


def test_bitset_index_examples():
    g = Graph([3, 7, 9], [(3, 9), (7, 9)])
    verts, pos, nbr = bitset_index(g)
    assert verts == (3, 7, 9)
    assert pos == {3: 0, 7: 1, 9: 2}
    assert nbr == [0b100, 0b100, 0b011]
    assert bitset_index(Graph()) == ((), {}, [])


@given(st.lists(st.integers(0, 2**16 - 1), max_size=16), st.data())
def test_union_of_matches_a_fold_over_set_bits(masks, data):
    mask = data.draw(st.integers(0, 2 ** len(masks) - 1))
    union = 0
    for i in set_bits(mask):
        union |= masks[i]
    assert union_of(masks, mask) == union


@given(graphs(max_n=12), st.data())
def test_closed_cells_match_a_grouping_by_closed_neighborhood(g, data):
    """Members grouped by N[v] ∩ within on vertex sets: the same cells, each
    in member order, and the cells in order of their first member."""
    verts, pos, nbr = bitset_index(g)
    members = data.draw(st.integers(0, (1 << g.n) - 1))
    within = data.draw(st.integers(0, (1 << g.n) - 1))
    inside = {verts[i] for i in set_bits(within)}
    expected: dict[frozenset[int], list[int]] = {}
    for v in (verts[i] for i in set_bits(members)):
        expected.setdefault(g.closed_neighbor_set(v) & inside, []).append(v)
    cells = closed_cells(nbr, set_bits(members), within)
    assert [
        (frozenset(verts[i] for i in set_bits(key)), [verts[i] for i in cell])
        for key, cell in cells.items()
    ] == list(expected.items())


def test_bitset_index_is_built_once_per_graph():
    """Default-order calls share the vertex tuple and position dict, and each
    returns its own ``nbr`` list, so editing one does not reach the next."""
    g = cycle(5)
    assert g._index is None
    verts, pos, nbr = bitset_index(g)
    again = bitset_index(g)
    assert again == (verts, pos, nbr)
    assert again[0] is verts and again[1] is pos and again[2] is not nbr
    nbr[0] = 0
    nbr.append(1)
    assert bitset_index(g)[2] == [0b10010, 0b00101, 0b01010, 0b10100, 0b01001]


def test_bitset_index_in_another_order_is_not_kept():
    g = path(3)
    first = bitset_index(g, [2, 1, 0])
    assert first == ((2, 1, 0), {2: 0, 1: 1, 0: 2}, [0b010, 0b101, 0b010])
    assert g._index is None
    assert bitset_index(g, [2, 1, 0])[1] is not first[1]
    assert bitset_index(g)[0] == (0, 1, 2)
    assert bitset_index(g, [2, 1, 0]) == first


def test_derived_graphs_start_without_an_index():
    g = star(3)
    bitset_index(g)
    assert g._index is not None
    h = g.induced_subgraph([0, 2, 3])
    assert h._index is None
    assert bitset_index(h) == ((0, 2, 3), {0: 0, 2: 1, 3: 2}, [0b110, 0b001, 0b001])


def test_kernelization_leaves_the_parsed_index_intact():
    """The workspace edits its copy of the masks; the graph's index stays as built."""
    inst = plant_isr_instance(gen_random_degenerate(600, 1, 1), 2, 1)
    kern = kernelize_degenerate(inst)
    assert kern.log.steps
    g = inst.graph
    assert bitset_index(g) == bitset_index(g, g.vertices)
    h = kern.kernel.graph
    assert bitset_index(h) == bitset_index(h, h.vertices)


def test_induced_subgraph_rejects_an_unknown_vertex():
    assert path(4).induced_subgraph([0, 1, 3]).neighbors(1) == (0,)
    with pytest.raises(KeyError, match="vertex 9 not in graph"):
        path(4).induced_subgraph([0, 9, 12])


def test_closed_neighborhood_examples():
    g = star(3)
    assert g.closed_neighbor_set(0) == {0, 1, 2, 3}
    assert Graph([7]).closed_neighbor_set(7) == {7}
    assert path(3).closed_neighbor_set(1) == {0, 1, 2}
    with pytest.raises(KeyError):
        path(3).closed_neighbor_set(9)


def test_neighbors_are_sorted_ascending():
    g = Graph(range(5), [(4, 2), (4, 0), (4, 3)])
    assert g.neighbors(4) == (0, 2, 3)


def test_induced_subgraph_examples():
    assert path(3).induced_subgraph([0, 1]) == path(2)
    hub_gone = star(3).induced_subgraph([1, 2, 3])
    assert hub_gone.m == 0 and hub_gone.vertices == (1, 2, 3)
    k3 = complete(4).induced_subgraph(range(3))
    assert k3.n == 3 and k3.m == 3


@given(graphs(), st.data())
def test_induced_subgraph_preserves_surviving_adjacency(g, data):
    keep = data.draw(st.sets(st.sampled_from(g.vertices))) if g.n else set()
    h = g.induced_subgraph(keep)
    assert h.vertex_set == keep
    for u in h.vertices:
        assert h.neighbor_set(u) == g.neighbor_set(u) & keep


@given(graphs())
def test_adjacency_is_symmetric_and_loop_free(g):
    for u in g.vertices:
        assert u not in g.neighbor_set(u)
        for v in g.neighbor_set(u):
            assert u in g.neighbor_set(v)


def test_contains_biclique_examples():
    assert contains_biclique(complete(4), 2)
    assert not contains_biclique(path(6), 2)
    assert contains_biclique(cycle(4), 2)
    assert contains_biclique(path(2), 1)
    assert not contains_biclique(Graph(range(3)), 1)
    with pytest.raises(ValueError):
        contains_biclique(path(2), 0)


def test_contains_biclique_gives_up_past_the_work_cap():
    """P_634 has 632 vertices of degree 2, so 199,396 left sides for
    K_{2,2}; P_635 has 633, so 200,028, past the cap.  Neither has a
    vertex of degree 3."""
    assert BICLIQUE_WORK_CAP == 200_000
    assert contains_biclique(path(634), 2) is False
    assert contains_biclique(path(635), 2) is None
    assert contains_biclique(path(635), 3) is False


@given(st.integers(1, 30), st.integers(1, 3), st.integers(0, 1000))
def test_generator_respects_degeneracy_and_edge_bounds(n, d, seed):
    g = gen_random_degenerate(n, d, seed)
    assert g.n == n
    assert g.m <= d * n
    assert reference.degeneracy(g) <= d


def test_generator_is_deterministic():
    a = gen_random_degenerate(30, 2, 7)
    b = gen_random_degenerate(30, 2, 7)
    assert a == b and list(a.edges()) == list(b.edges())


def test_generators_reject_sizes_below_one():
    with pytest.raises(ValueError, match="n must be >= 1"):
        gen_random_degenerate(0, 1, 0)
    with pytest.raises(ValueError, match="d must be >= 1"):
        gen_random_degenerate(5, 0, 0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        plant_isr_instance(path(5), 0, 0)
