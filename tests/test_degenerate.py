import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tokenjump import (
    Graph,
    Instance,
    Problem,
    Verdict,
    bfs_reconfig,
    degeneracy_order,
    kernel_vertex_bound,
    kernelize_degenerate,
    low_degree_threshold,
    parse_instance,
    reduce_low_degree_once,
    remove_closed_twins,
    replay_reductions,
    solve_isr_degenerate,
    verify_sequence,
)

import reference

P4 = parse_instance("p isr 4 3 2\ne 1 2\ne 2 3\ne 3 4\ns 1 3\nt 2 4\n")

# Digest (reference.log_digest) of kernelize_degenerate's logs and kernels on
# the ISR corpus followed by the sparse corpus, recorded with the rescanning
# twin removal and min-scan degeneracy order that reference.py keeps.
KERNEL_LOGS_DIGEST = "b21dba6d2053d93fb4cffa5d558aed5af3ea30c18897fd6cffd131c605f4c6d2"


def isolated_instance(total, k=2):
    g = Graph(range(total))
    return Instance(
        Problem.ISR, g, k, frozenset(range(k)), frozenset(range(k, 2 * k))
    )


def test_threshold_formulas():
    assert low_degree_threshold(1, 2) == 162
    assert kernel_vertex_bound(1, 2) == 490


def test_twin_removal_in_triangle():
    g = Graph(range(3), [(0, 1), (0, 2), (1, 2)])
    inst = Instance(Problem.ISR, g, 1, frozenset({0}), frozenset({0}))
    reduced, log = remove_closed_twins(inst)
    assert reduced.graph.n == 2
    assert len(log) == 1
    step = log.steps[0]
    assert step.rule == "twin" and step.vertex == 2
    assert step.certificate == {"survivor": 1}
    reference.check_reduction_log(inst, log, reduced.graph)


def test_twin_removal_adjacent_pair_with_shared_neighbors():
    # 0 and 1 adjacent, both adjacent to 2 and 3: N[0] = N[1]
    g = Graph(range(5), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)])
    inst = Instance(Problem.ISR, g, 1, frozenset({4}), frozenset({3}))
    reduced, log = remove_closed_twins(inst)
    assert [s.vertex for s in log.steps] == [1]
    assert reduced.graph.vertex_set == {0, 2, 3, 4}


def test_twin_removal_leaves_p4_alone():
    reduced, log = remove_closed_twins(P4)
    assert len(log) == 0 and reduced.graph == P4.graph


@st.composite
def small_instances(draw):
    """Graphs on up to 9 vertices, where closed twins are common; k = 1."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    source, target = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return Instance(
        Problem.ISR, Graph(range(n), edges), 1, frozenset({source}), frozenset({target})
    )


@settings(deadline=None, max_examples=200)
@given(small_instances())
def test_twin_removal_matches_rescan_reference(inst):
    assert remove_closed_twins(inst) == reference.remove_closed_twins(inst)


def test_twin_removal_matches_rescan_reference_on_corpora():
    insts = [inst for inst, _ in reference.isr_corpus()] + reference.sparse_corpus()
    for inst in insts:
        assert remove_closed_twins(inst) == reference.remove_closed_twins(inst)


def test_kernel_logs_match_stored_run():
    runs = []
    for inst in [inst for inst, _ in reference.isr_corpus()] + reference.sparse_corpus():
        kern = kernelize_degenerate(inst)
        runs.append((kern.kernel, kern.log))
    assert reference.log_digest(runs) == KERNEL_LOGS_DIGEST


def test_low_degree_rule_fires_above_threshold():
    inst = isolated_instance(200)
    result = reduce_low_degree_once(inst, 1)
    assert result is not None
    reduced, step = result
    assert step.rule == "sunflower-degenerate"
    assert step.vertex == 4  # smallest non-anchor vertex
    assert step.certificate["core"] == []
    assert len(step.certificate["petal_centers"]) >= 4
    assert reduced.graph.n == 199


def test_low_degree_rule_needs_strict_inequality():
    inst = isolated_instance(162 + 4)  # exactly 162 non-anchor vertices
    assert reduce_low_degree_once(inst, 1) is None


def test_low_degree_rule_with_empty_low_set():
    # all non-anchor vertices of P4 would need degree > 2; anchor everything
    assert reduce_low_degree_once(P4, 1) is None


def test_kernelize_is_identity_below_thresholds():
    kern = kernelize_degenerate(P4)
    assert kern.kernel == P4
    assert len(kern.log) == 0
    assert kern.d == 1
    assert kern.low_degree_bound == 162
    assert kern.kernel_bound == 490


def test_kernelize_path_of_ten():
    inst = parse_instance(
        "p isr 10 9 2\n"
        + "".join(f"e {i} {i + 1}\n" for i in range(1, 10))
        + "s 1 5\nt 2 10\n"
    )
    kern = kernelize_degenerate(inst)
    assert kern.kernel == inst and len(kern.log) == 0


def test_kernelize_shrinks_isolated_blowup():
    inst = isolated_instance(200)
    kern = kernelize_degenerate(inst)
    # edgeless graphs have degeneracy 0, so the threshold drops to 2k-1 = 3
    assert kern.d == 0
    assert kern.low_degree_bound == 3
    anchors = inst.source | inst.target
    g = kern.kernel.graph
    non_anchor = g.n - len(anchors & g.vertex_set)
    assert non_anchor <= (2 * kern.d + 1) * kern.low_degree_bound
    assert g.n <= kern.kernel_bound
    reference.check_reduction_log(inst, kern.log, g)
    assert replay_reductions(inst.graph, kern.log) == g


def test_solve_agrees_with_oracle_when_rule_fires():
    inst = isolated_instance(200)
    result = solve_isr_degenerate(inst)
    assert len(result.log) > 0
    oracle = bfs_reconfig(inst)
    assert result.outcome.verdict == oracle.verdict == Verdict.YES
    deleted = set(result.log.deleted_vertices())
    for s in result.outcome.sequence.sets:
        assert not (s & deleted)
    assert verify_sequence(inst, result.outcome.sequence) is None


def test_solve_examples():
    assert solve_isr_degenerate(P4).outcome.verdict is Verdict.YES
    c4 = parse_instance("p isr 4 4 2\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ns 1 3\nt 2 4\n")
    assert solve_isr_degenerate(c4).outcome.verdict is Verdict.NO
    same = Instance(Problem.ISR, P4.graph, 2, P4.source, P4.source)
    out = solve_isr_degenerate(same).outcome
    assert out.verdict is Verdict.YES and out.sequence.length == 0


def test_twin_plus_sunflower_interleaving_is_audited():
    # isolated blowup plus a triangle of mutual closed twins
    edges = [(200, 201), (200, 202), (201, 202)]
    g = Graph(range(203), edges)
    inst = Instance(Problem.ISR, g, 2, frozenset({0, 1}), frozenset({2, 3}))
    kern = kernelize_degenerate(inst)
    rules = {step.rule for step in kern.log}
    assert "twin" in rules and "sunflower-degenerate" in rules
    reference.check_reduction_log(inst, kern.log, kern.kernel.graph)
    assert bfs_reconfig(inst).verdict == solve_isr_degenerate(inst).outcome.verdict


def test_non_isr_instances_are_rejected():
    dsr = parse_instance("p dsr 3 2 1\ne 1 2\ne 2 3\ns 2\nt 2\n")
    with pytest.raises(ValueError):
        remove_closed_twins(dsr)
    with pytest.raises(ValueError):
        kernelize_degenerate(dsr)
