import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tokenjump import (
    Graph,
    Instance,
    Problem,
    ReconfSequence,
    Verdict,
    bfs_reconfig,
    gen_random_degenerate,
    parse_instance,
    plant_isr_instance,
    verify_sequence,
)
from tokenjump.instances import infeasibility

import reference

P4 = parse_instance("p isr 4 3 2\ne 1 2\ne 2 3\ne 3 4\ns 1 3\nt 2 4\n")
C4 = parse_instance("p isr 4 4 2\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ns 1 3\nt 2 4\n")


def seq(*sets):
    return ReconfSequence(tuple(frozenset(s) for s in sets))


def test_is_feasible_edge_cases():
    g = Graph(range(3), [(0, 1), (1, 2)])
    assert infeasibility(g, Problem.ISR, frozenset()) == ()
    assert infeasibility(g, Problem.DSR, frozenset()) == (0,)
    assert infeasibility(g, Problem.DSR, frozenset({1})) == ()
    assert infeasibility(g, Problem.ISR, frozenset({0, 1})) == (0, 1)


def test_p4_shortest_witness_matches_brute_force():
    out = bfs_reconfig(P4)
    assert out.verdict is Verdict.YES
    assert out.sequence.length == reference.materialized_distance(P4) == 4
    # deterministic witness: removals then additions, ascending ids
    assert [sorted(s) for s in out.sequence.sets] == [
        [0, 2],
        [0],
        [0, 3],
        [3],
        [1, 3],
    ]
    assert verify_sequence(P4, out.sequence) is None


def test_c4_is_a_no_instance():
    assert bfs_reconfig(C4).verdict is Verdict.NO
    assert reference.materialized_distance(C4) is None


def test_source_equals_target():
    g = Graph(range(3), [(0, 1)])
    inst = Instance(Problem.ISR, g, 1, frozenset({2}), frozenset({2}))
    out = bfs_reconfig(inst)
    assert out.verdict is Verdict.YES
    assert out.sequence.length == 0
    assert out.sequence.sets == (frozenset({2}),)


def test_budget_semantics_are_monotone():
    verdicts = []
    for budget in range(1, 24):
        verdicts.append(bfs_reconfig(P4, state_budget=budget).verdict)
    assert verdicts[0] is Verdict.EXHAUSTED
    resolved = next(i for i, v in enumerate(verdicts) if v is not Verdict.EXHAUSTED)
    assert all(v is verdicts[resolved] for v in verdicts[resolved:])
    assert verdicts[resolved] is Verdict.YES


def test_state_budget_below_one_is_rejected():
    with pytest.raises(ValueError, match="state_budget must be >= 1"):
        bfs_reconfig(P4, state_budget=0)


def test_exhausted_reports_budget_states():
    out = bfs_reconfig(P4, state_budget=2)
    assert out.verdict is Verdict.EXHAUSTED
    assert out.states_explored == 2
    assert out.sequence is None


@st.composite
def small_instances(draw):
    n = draw(st.integers(2, 10))
    d = draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 5000))
    g = gen_random_degenerate(n, d, seed)
    inst = plant_isr_instance(g, k, seed)
    if inst is None:
        inst = plant_isr_instance(g, 1, seed)
    return inst


@settings(deadline=None, max_examples=60)
@given(small_instances())
def test_bfs_is_symmetric_in_the_endpoints(inst):
    import dataclasses

    fwd = bfs_reconfig(inst)
    back = bfs_reconfig(
        dataclasses.replace(inst, source=inst.target, target=inst.source)
    )
    assert fwd.verdict == back.verdict
    if fwd.verdict is Verdict.YES:
        assert fwd.sequence.length == back.sequence.length


@settings(deadline=None, max_examples=60)
@given(small_instances())
def test_bfs_length_matches_materialized_graph(inst):
    out = bfs_reconfig(inst)
    dist = reference.materialized_distance(inst)
    if out.verdict is Verdict.YES:
        assert out.sequence.length == dist
        assert verify_sequence(inst, out.sequence) is None
    else:
        assert dist is None


def test_verify_rejects_double_jump():
    violation = verify_sequence(P4, seq({0, 2}, {0, 3}))
    assert violation is not None
    assert violation.condition == 3 and violation.index == 1


def test_verify_reports_broken_domination_first():
    inst = parse_instance("p dsr 3 2 1\ne 1 2\ne 2 3\ns 2\nt 2\n")
    violation = verify_sequence(inst, seq({1}, {0}))
    assert violation is not None
    assert violation.condition == 2 and violation.index == 1
    assert violation.vertices == (2,)  # vertex 3 in file coordinates


def test_verify_endpoint_and_size_conditions():
    assert verify_sequence(P4, seq({0, 3}, {3}, {1, 3})).condition == 1
    wrong_end = verify_sequence(P4, seq({0, 2}, {0}, {0, 3}))
    assert wrong_end.condition == 1 and wrong_end.index == 2
    empty = verify_sequence(P4, ReconfSequence(()))
    assert empty.condition == 1
    too_small = verify_sequence(P4, seq({0, 2}, {0}, set(), {1}, {1, 3}))
    assert too_small.condition == 4 and too_small.index == 2


def test_verify_rejects_infeasible_set():
    violation = verify_sequence(P4, seq({0, 2}, {0}, {0, 1}))
    assert violation.condition == 2 and violation.index == 2
    assert violation.vertices == (0, 1)


def test_verify_names_the_least_adjacent_pair():
    # {1, 2, 3, 4, 5, 6} holds the edges 2-6, 2-5 and 3-4: the least vertex
    # with a neighbour in the set is 2, and its least such neighbour is 5,
    # though the pair 3-4 has the smaller second vertex.
    g = Graph(range(8), [(0, 1), (2, 6), (2, 5), (3, 4), (6, 7)])
    inst = Instance(Problem.ISR, g, 2, frozenset({0, 2}), frozenset({0, 3}))
    violation = verify_sequence(inst, seq({0, 2}, {1, 2, 3, 4, 5, 6}))
    assert violation.condition == 2 and violation.index == 1
    assert violation.message == "vertices 2 and 5 are adjacent"
    assert violation.vertices == (2, 5)


def test_verify_names_the_least_undominated_vertex():
    # On the path 0-...-6, {0, 5, 6} misses 2 and 3, and {4, 5, 6} misses 0, 1 and 2.
    g = Graph(range(7), [(v, v + 1) for v in range(6)])
    inst = Instance(Problem.DSR, g, 3, frozenset({1, 4, 6}), frozenset({1, 4, 5}))
    violation = verify_sequence(inst, seq({1, 4, 6}, {0, 5, 6}))
    assert violation.condition == 2 and violation.index == 1
    assert violation.message == "vertex 2 is not dominated"
    assert violation.vertices == (2,)
    violation = verify_sequence(inst, seq({1, 4, 6}, {1, 4, 5, 6}, {4, 5, 6}))
    assert violation.condition == 2 and violation.index == 2
    assert violation.message == "vertex 0 is not dominated"
    assert violation.vertices == (0,)


def test_is_feasible_matches_pairwise_and_cover_checks():
    """The ISR pair is the least vertex of s with a neighbor in s and its
    least such neighbor, on a set-born graph, on the same graph parsed from
    text (index-born) and on an index-born subgraph whose ids are not dense
    (vertex v at id 2v, the odd ids dropped with their edges)."""
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 12)
        p = rng.choice((0.1, 0.25, 0.5))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = Graph(range(n), edges)
        s = frozenset(v for v in range(n) if rng.random() < 0.4)
        pair = min((e for e in itertools.combinations(sorted(s), 2) if e in edges), default=())
        covered = all(
            v in s or any((min(u, v), max(u, v)) in edges for u in s) for v in range(n)
        )
        assert infeasibility(g, Problem.ISR, s) == pair
        assert g._index is None  # a set-born graph builds no index for the check
        assert (infeasibility(g, Problem.DSR, s) == ()) is covered

        lines = [f"e {u + 1} {v + 1}" for u, v in edges]
        parsed = parse_instance("\n".join([f"p isr {n} {len(edges)} 1", *lines, "s 1", "t 1"]))
        assert parsed.graph._adj is None
        assert infeasibility(parsed.graph, Problem.ISR, s) == pair

        spread = [(2 * u, 2 * v) for u, v in edges] + [(2 * v, 2 * v + 1) for v in range(n)]
        lines = [f"e {u + 1} {v + 1}" for u, v in sorted(spread)]
        text = "\n".join([f"p isr {2 * n} {len(spread)} 1", *lines, "s 2", "t 2"])
        sub = parse_instance(text).graph.induced_subgraph(range(0, 2 * n, 2))
        assert sub._adj is None and sub.vertices == tuple(range(0, 2 * n, 2))
        doubled = tuple(2 * v for v in pair)
        assert infeasibility(sub, Problem.ISR, frozenset(2 * v for v in s)) == doubled


def test_verify_rejects_unknown_vertex():
    violation = verify_sequence(P4, seq({0, 2}, {0}, {0, 9}))
    assert violation.condition == 2 and violation.vertices == (9,)


def test_verify_accepts_dsr_witness():
    inst = parse_instance("p dsr 3 2 2\ne 1 2\ne 2 3\ns 1 3\nt 1 2\n")
    out = bfs_reconfig(inst)
    assert out.verdict is Verdict.YES
    assert out.sequence.length == 2
    assert [sorted(s) for s in out.sequence.sets] == [[0, 2], [0, 1, 2], [0, 1]]
    assert verify_sequence(inst, out.sequence) is None
