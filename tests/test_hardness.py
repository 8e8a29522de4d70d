import itertools
import json
import random

import pytest

from tokenjump import (
    GadgetShapeError,
    Graph,
    Instance,
    Problem,
    ReconfSequence,
    Verdict,
    bfs_reconfig,
    gadget_vertex_count,
    isr_to_dsr,
    lift_sequence,
    map_sequence_back,
    parse_instance,
    solve_dsr,
    verify_sequence,
)

import reference

P4 = parse_instance("p isr 4 3 2\ne 1 2\ne 2 3\ne 3 4\ns 1 3\nt 2 4\n")
P3 = parse_instance("p isr 3 2 2\ne 1 2\ne 2 3\ns 1 3\nt 1 3\n")
# No token of C4 can move, so {v1, v3} never reaches {v2, v4}.
C4_NO = parse_instance("p isr 4 4 2\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ns 1 3\nt 2 4\n")


def test_vertex_count_formula_on_p3():
    gadget, gm = isr_to_dsr(P3)
    assert gadget.graph.n == gadget_vertex_count(3, 2, 2) == 42
    # replay the construction blocks
    assert gadget.graph.n == (
        gm.k * gm.n
        + gm.k * (gm.k + 2)
        + len(gm.guard_sets) * (gm.k + 2)
    )
    assert len(gm.guard_sets) == 3 + 2 * 2  # p = q cases plus ordered edge pairs


def test_k1_has_no_guards():
    inst = Instance(
        Problem.ISR, Graph(range(3), [(0, 1)]), 1, frozenset({2}), frozenset({2})
    )
    gadget, gm = isr_to_dsr(inst)
    assert gm.guard_sets == ()
    assert len(gm.forcer_sets) == 1 and len(gm.forcer_sets[0]) == 3
    assert gadget.graph.n == 3 + 3


def test_edgeless_guards_are_diagonal_only():
    inst = Instance(Problem.ISR, Graph(range(2)), 2, frozenset({0, 1}), frozenset({0, 1}))
    _, gm = isr_to_dsr(inst)
    assert [(g.p, g.q) for g in gm.guard_sets] == [(1, 1), (2, 2)]


def test_gadget_structure_is_as_documented():
    gadget, gm = isr_to_dsr(P3)
    g = gadget.graph
    for i in range(1, gm.k + 1):
        clique = gm.clique(i)
        for u, v in itertools.combinations(clique, 2):
            assert v in g.neighbor_set(u)
        for f in gm.forcer_sets[i - 1]:
            assert set(clique) <= g.neighbor_set(f)
    for guard in gm.guard_sets:
        excluded = {
            gm.clique_vertex[(guard.i, guard.p)],
            gm.clique_vertex[(guard.j, guard.q)],
        }
        expected = (set(gm.clique(guard.i)) | set(gm.clique(guard.j))) - excluded
        for v in guard.vertices:
            assert g.neighbor_set(v) == frozenset(expected)


def test_endpoints_follow_sorted_order():
    # The shortest ISR witness moves v2's token to v3 and v0's to v1, so the
    # labelling it carries to the target keeps sorted order here.
    gadget, gm = isr_to_dsr(P4)
    assert gadget.source == {
        gm.clique_vertex[(1, 1)],
        gm.clique_vertex[(2, 3)],
    }
    assert gadget.target == {
        gm.clique_vertex[(1, 2)],
        gm.clique_vertex[(2, 4)],
    }


def dominating_sets_of_size(g, size):
    masks = {v: g.closed_neighbor_set(v) for v in g.vertices}
    full = set(g.vertex_set)
    out = []
    for combo in itertools.combinations(g.vertices, size):
        covered = set()
        for v in combo:
            covered |= masks[v]
        if covered == full:
            out.append(frozenset(combo))
    return out


def test_structural_claims_on_tiny_gadgets():
    for inst in reference.tiny_isr_corpus()[:12]:
        gadget, gm = isr_to_dsr(inst)
        g = gadget.graph
        assert g.n == gadget_vertex_count(inst.graph.n, inst.graph.m, inst.k)
        assert dominating_sets_of_size(g, inst.k - 1) == []
        position = gm.position_of
        for dom in dominating_sets_of_size(g, inst.k):
            cliques = sorted(position[v][0] for v in dom)
            assert cliques == list(range(1, inst.k + 1))
            projected = frozenset(position[v][1] - 1 for v in dom)
            assert len(projected) == inst.k
            assert reference.independent(inst.graph, projected)


def small_isr_no_instances(count):
    """``count`` k = 2 ISR no-instances on 4-6 vertices, from a seeded sweep."""
    rng = random.Random(0x5EED6)
    found = []
    while len(found) < count:
        n = rng.randint(4, 6)
        pairs = itertools.combinations(range(n), 2)
        g = Graph(range(n), [e for e in pairs if rng.random() < 0.5])
        sets = [
            frozenset(c)
            for c in itertools.combinations(range(n), 2)
            if reference.independent(g, c)
        ]
        if len(sets) < 2:
            continue
        inst = Instance(Problem.ISR, g, 2, *rng.sample(sets, 2))
        if reference.fifo_bfs(inst).verdict is Verdict.NO:
            found.append(inst)
    return found


def test_projection_direction_is_sound():
    # A gadget witness always projects to an original witness of equal length,
    # so gadget-yes implies original-yes and original-no implies gadget-no.
    # The tiny corpus holds only yes-instances, so no-instances are added.
    no_checked = 0
    for inst in reference.tiny_isr_corpus()[:25] + [C4_NO] + small_isr_no_instances(5):
        gadget, gm = isr_to_dsr(inst)
        ours = bfs_reconfig(inst)
        theirs = bfs_reconfig(gadget)
        if theirs.verdict is Verdict.YES:
            assert ours.verdict is Verdict.YES
            mapped = map_sequence_back(gm, theirs.sequence)
            assert verify_sequence(inst, mapped) is None
            assert mapped.length == theirs.sequence.length
            assert ours.sequence.length <= mapped.length
        if ours.verdict is Verdict.NO:
            assert theirs.verdict is Verdict.NO
            # with no ISR witness to lift, the target is embedded in sorted order
            sorted_target = frozenset(
                gm.clique_vertex[(i, v + 1)] for i, v in enumerate(sorted(inst.target), 1)
            )
            assert gadget.target == sorted_target
            no_checked += 1
    assert no_checked >= 6


def test_sorted_embedding_can_lose_reachability():
    # A gadget state fixes which clique holds each solution vertex, and those
    # assignments cannot be permuted without leaving the dominating-set space.
    # Here {v2,v3} -> {v1,v2} needs the token that sits in clique 2 to end on
    # v1, so embedding the target in sorted order (v1 in clique 1) gives a
    # no-instance while the original is a yes.  isr_to_dsr embeds the target
    # with the labelling of an ISR witness instead, which keeps the yes.
    g = Graph(range(3), [(0, 2)])
    inst = Instance(Problem.ISR, g, 2, frozenset({1, 2}), frozenset({0, 1}))
    gadget, gm = isr_to_dsr(inst)
    sorted_target = frozenset({gm.clique_vertex[(1, 1)], gm.clique_vertex[(2, 2)]})
    sorted_gadget = Instance(
        Problem.DSR, gadget.graph, gadget.k, gadget.source, sorted_target
    )
    assert bfs_reconfig(inst).verdict is Verdict.YES
    assert bfs_reconfig(sorted_gadget).verdict is Verdict.NO
    assert gadget.target != sorted_target
    assert bfs_reconfig(gadget).verdict is Verdict.YES


def test_lift_sequence_round_trips_isr_witnesses():
    lifted_any = False
    for inst in reference.tiny_isr_corpus():
        ours = bfs_reconfig(inst)
        if ours.verdict is not Verdict.YES:
            continue
        gadget, gm = isr_to_dsr(inst)
        lifted = lift_sequence(gm, ours.sequence)
        assert verify_sequence(gadget, lifted) is None
        assert lifted.length == ours.sequence.length
        assert map_sequence_back(gm, lifted) == ours.sequence
        theirs = bfs_reconfig(gadget)
        assert theirs.verdict is Verdict.YES
        assert theirs.sequence.length == ours.sequence.length
        lifted_any = lifted_any or lifted.length > 0
    assert lifted_any


def test_lift_sequence_swap_and_malformed_shapes():
    _, gm = isr_to_dsr(P4)
    c = gm.clique_vertex
    # remove v0 (clique 1) and add v1: the token of clique 1 moves to v1
    seq = ReconfSequence((frozenset({0, 2}), frozenset({2}), frozenset({1, 2})))
    lifted = lift_sequence(gm, seq)
    assert lifted.sets == (
        frozenset({c[(1, 1)], c[(2, 3)]}),
        frozenset({c[(1, 1)], c[(1, 2)], c[(2, 3)]}),
        frozenset({c[(1, 2)], c[(2, 3)]}),
    )
    for bad in (
        (),
        (frozenset({0}),),
        (frozenset({0, 2}), frozenset({2})),
        (frozenset({0, 2}), frozenset({0, 2}), frozenset({0, 2})),
        (frozenset({0, 2}), frozenset({2}), frozenset({0, 2})),
    ):
        with pytest.raises(ValueError):
            lift_sequence(gm, ReconfSequence(bad))


def test_map_sequence_back_round_trip_on_p4():
    gadget, gm = isr_to_dsr(P4)
    result = solve_dsr(gadget)
    assert result.outcome.verdict is Verdict.YES
    mapped = map_sequence_back(gm, result.outcome.sequence)
    assert verify_sequence(P4, mapped) is None
    assert mapped.length == result.outcome.sequence.length
    assert mapped.length == bfs_reconfig(P4).sequence.length


def test_map_sequence_back_trivial_and_swap():
    gadget, gm = isr_to_dsr(P4)
    single = ReconfSequence((gadget.source,))
    assert map_sequence_back(gm, single).sets == (P4.source,)
    # add c^i_q then remove c^i_p maps to remove v_p then add v_q
    c1 = {p: gm.clique_vertex[(1, p)] for p in range(1, 5)}
    c2 = {p: gm.clique_vertex[(2, p)] for p in range(1, 5)}
    start = frozenset({c1[1], c2[3]})
    seq = ReconfSequence(
        (start, start | {c2[4]}, (start | {c2[4]}) - {c2[3]})
    )
    mapped = map_sequence_back(gm, seq)
    assert [sorted(s) for s in mapped.sets] == [[0, 2], [0], [0, 3]]
    # valid steps throughout; only the target endpoint differs from P4's
    assert verify_sequence(P4, mapped).condition == 1


def test_map_sequence_back_rejects_malformed_shapes():
    gadget, gm = isr_to_dsr(P4)
    with pytest.raises(GadgetShapeError):
        map_sequence_back(gm, ReconfSequence(()))
    forcer_vertex = gm.forcer_sets[0][0]
    bad_vertex = ReconfSequence((frozenset({forcer_vertex, gm.clique_vertex[(2, 3)]}),))
    with pytest.raises(GadgetShapeError):
        map_sequence_back(gm, bad_vertex)
    start = gadget.source
    dangling = ReconfSequence((start, start | {gm.clique_vertex[(1, 2)]}))
    with pytest.raises(GadgetShapeError):
        map_sequence_back(gm, dangling)
    cross = ReconfSequence(
        (
            start,
            start | {gm.clique_vertex[(1, 2)]},
            (start | {gm.clique_vertex[(1, 2)]}) - {gm.clique_vertex[(2, 3)]},
        )
    )
    with pytest.raises(GadgetShapeError, match="different cliques"):
        map_sequence_back(gm, cross)


def _p4_shapes():
    """Malformed gadget sequences on P4's gadget, each with the error it must raise."""
    gadget, gm = isr_to_dsr(P4)
    c = gm.clique_vertex
    start = gadget.source  # c(1, 1) and c(2, 3)
    up = start | {c[(1, 2)]}
    guard = gm.guard_sets[0].vertices[0]
    return gm, [
        ((frozenset({c[(1, 1)], c[(1, 2)]}),), "set picks two vertices from clique 1"),
        ((frozenset({c[(1, 1)]}),), "set does not pick one vertex from every clique"),
        ((start, up | {c[(2, 4)]}, start), "step 1 is not a single addition"),
        ((start, up, up), "step 2 is not a single removal"),
        ((start, start | {guard}, start), "intermediate set touches a non-clique vertex"),
        # adding and removing c(1, 2) projects to {v1, v2, v3}, not to the start
        ((start, up, start), "projection mismatch at step 2"),
    ]


@pytest.mark.parametrize("case", range(6))
def test_map_sequence_back_names_each_shape_fault(case):
    gm, shapes = _p4_shapes()
    sets, message = shapes[case]
    with pytest.raises(GadgetShapeError, match=f"^{message}$"):
        map_sequence_back(gm, ReconfSequence(sets))


def test_gadget_map_json_uses_file_coordinates():
    _, gm = isr_to_dsr(P3)
    payload = gm.to_json_dict()
    assert payload["k"] == 2 and payload["n"] == 3
    assert payload["cliques"][0] == [1, 2, 3]
    assert min(min(f) for f in payload["forcers"]) == 7
    assert json.dumps(payload)  # serializable
    seen = [v for guard in payload["guards"] for v in guard["vertices"]]
    assert len(seen) == len(set(seen))


def test_isr_to_dsr_rejects_wrong_inputs():
    dsr = parse_instance("p dsr 3 2 1\ne 1 2\ne 2 3\ns 2\nt 2\n")
    with pytest.raises(ValueError):
        isr_to_dsr(dsr)
    sparse_ids = Instance(
        Problem.ISR, Graph([0, 2]), 1, frozenset({0}), frozenset({2})
    )
    with pytest.raises(ValueError, match="contiguously"):
        isr_to_dsr(sparse_ids)
