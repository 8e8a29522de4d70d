import itertools

import pytest
from hypothesis import given, strategies as st

from tokenjump import Graph, contains_biclique, degeneracy_order, gen_random_degenerate
from tokenjump.graph import bitset_index

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


def test_degeneracy_examples():
    assert degeneracy_order(path(4)).d == 1
    assert degeneracy_order(complete(4)).d == 3
    assert degeneracy_order(cycle(5)).d == 2
    empty = degeneracy_order(Graph())
    assert empty.d == 0 and empty.order == ()


@given(graphs())
def test_degeneracy_order_is_a_valid_peeling(g):
    res = degeneracy_order(g)
    assert sorted(res.order) == list(g.vertices)
    later = set(g.vertices)
    for v in res.order:
        later.discard(v)
        assert len(g.neighbor_set(v) & later) <= res.d


@given(graphs(max_n=14))
def test_degeneracy_order_matches_min_scan_reference(g):
    assert degeneracy_order(g) == reference.degeneracy_order(g)


def test_degeneracy_order_matches_min_scan_reference_on_corpora():
    graphs_ = [inst.graph for inst, _ in reference.isr_corpus()]
    graphs_ += [inst.graph for inst in reference.sparse_corpus()]
    for g in graphs_:
        assert degeneracy_order(g) == reference.degeneracy_order(g)


def test_bitset_index_examples():
    g = Graph([3, 7, 9], [(3, 9), (7, 9)])
    verts, pos, nbr = bitset_index(g)
    assert verts == (3, 7, 9)
    assert pos == {3: 0, 7: 1, 9: 2}
    assert nbr == [0b100, 0b100, 0b011]
    assert bitset_index(Graph()) == ((), {}, [])


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


def test_delete_vertex_examples():
    assert path(3).delete_vertex(2) == path(2)
    hub_gone = star(3).delete_vertex(0)
    assert hub_gone.m == 0 and hub_gone.vertices == (1, 2, 3)
    k3 = complete(4).delete_vertex(3)
    assert k3.n == 3 and k3.m == 3
    with pytest.raises(KeyError):
        path(3).delete_vertex(5)


@given(graphs(), st.data())
def test_delete_vertex_preserves_surviving_adjacency(g, data):
    if g.n == 0:
        return
    v = data.draw(st.sampled_from(g.vertices))
    g2 = g.delete_vertex(v)
    assert g2.vertex_set == g.vertex_set - {v}
    for u in g2.vertices:
        assert g2.neighbor_set(u) == g.neighbor_set(u) - {v}


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


@given(st.integers(1, 30), st.integers(1, 3), st.integers(0, 1000))
def test_generator_respects_degeneracy_and_edge_bounds(n, d, seed):
    g = gen_random_degenerate(n, d, seed)
    assert g.n == n
    assert g.m <= d * n
    assert degeneracy_order(g).d <= d


def test_generator_is_deterministic():
    a = gen_random_degenerate(30, 2, 7)
    b = gen_random_degenerate(30, 2, 7)
    assert a == b and list(a.edges()) == list(b.edges())
