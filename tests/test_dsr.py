import itertools

import pytest

from tokenjump import (
    Graph,
    InfeasibleInstanceError,
    Instance,
    Problem,
    Verdict,
    bfs_reconfig,
    compute_bounded_core,
    isr_to_dsr,
    kernelize_dsr,
    parse_instance,
    remove_core_twins,
    solve_dsr,
    verify_sequence,
)

import reference


def star(leaves):
    return Graph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def closed_union(g, s):
    covered = set(s)
    for v in s:
        covered |= g.neighbor_set(v)
    return covered


def core_property_holds(g, core, k):
    """Enumerate every D with |D| <= k+1: D dominates core iff D dominates V."""
    for size in range(k + 2):
        for combo in itertools.combinations(g.vertices, size):
            covered = closed_union(g, combo)
            if (core <= covered) != (covered == set(g.vertex_set)):
                return False
    return True


def test_core_of_star_is_three_leaves():
    g = star(4)
    core = compute_bounded_core(g, 1)
    assert core.core == {2, 3, 4}
    assert core_property_holds(g, core.core, 1)


def test_core_of_complete_graph_is_a_single_vertex():
    g = Graph(range(5), itertools.combinations(range(5), 2))
    core = compute_bounded_core(g, 1)
    assert len(core.core) == 1
    assert core_property_holds(g, core.core, 1)


def test_core_of_p3_is_the_endpoints():
    g = Graph(range(3), [(0, 1), (1, 2)])
    core = compute_bounded_core(g, 1)
    assert core.core == {0, 2}
    assert core_property_holds(g, core.core, 1)


def test_core_requires_feasible_k():
    with pytest.raises(InfeasibleInstanceError):
        compute_bounded_core(Graph(range(5)), 1)


def test_core_property_on_random_graphs():
    for inst in reference.dsr_corpus()[:40]:
        core = compute_bounded_core(inst.graph, inst.k)
        assert core_property_holds(inst.graph, core.core, inst.k)


def test_core_equals_brute_force_oracle():
    graphs = [(inst.graph, inst.k) for inst in reference.dsr_corpus()]
    gadgets = [isr_to_dsr(inst)[0] for inst in reference.tiny_isr_corpus()]
    small = [(gad.graph, gad.k) for gad in gadgets if gad.graph.n <= 56]
    assert len(small) == 70
    for g, k in graphs + small:
        assert compute_bounded_core(g, k).core == reference.bounded_core(g, k)


@pytest.mark.parametrize(
    "g, k",
    [
        (Graph(range(5)), 1),
        (Graph(range(7), [(i, i + 1) for i in range(6)]), 2),  # P7 needs 3
        (Graph(range(6), [(0, 1), (2, 3), (4, 5)]), 2),
    ],
)
def test_core_and_oracle_agree_on_infeasible_graphs(g, k):
    with pytest.raises(InfeasibleInstanceError):
        reference.bounded_core(g, k)
    with pytest.raises(InfeasibleInstanceError):
        compute_bounded_core(g, k)


def test_core_twins_nothing_to_delete_in_star():
    g = star(4)
    core = compute_bounded_core(g, 1)
    inst = Instance(Problem.DSR, g, 1, frozenset({0}), frozenset({0}))
    kernel, log = remove_core_twins(inst, core)
    assert len(log) == 0 and kernel.graph == g


def test_core_twins_collapse_equal_cells():
    g = star(5)
    core = compute_bounded_core(g, 1)
    assert core.core == {3, 4, 5}
    inst = Instance(Problem.DSR, g, 1, frozenset({0}), frozenset({0}))
    kernel, log = remove_core_twins(inst, core)
    # leaves 1 and 2 sit outside the core with the same core-neighborhood
    assert [step.vertex for step in log] == [2]
    assert log.steps[0].certificate == {
        "survivor": 1,
        "shared_core_neighborhood": [],
    }
    cells = set()
    for v in kernel.graph.vertices:
        if v in core.core | inst.anchors:
            continue
        key = kernel.graph.neighbor_set(v) & core.core
        assert key not in cells  # twinless after removal
        cells.add(key)
    reference.check_reduction_log(inst, log, kernel.graph)


def test_core_twins_skip_protected_vertices():
    g = Graph(range(3), [(0, 1), (0, 2)])
    core = compute_bounded_core(g, 1)
    protected = core.core
    source = frozenset({0})
    inst = Instance(Problem.DSR, g, 1, source, source)
    kernel, log = remove_core_twins(inst, core)
    for step in log:
        assert step.vertex not in protected | source


def test_solve_p3_shortest_witness():
    inst = parse_instance("p dsr 3 2 2\ne 1 2\ne 2 3\ns 1 3\nt 1 2\n")
    result = solve_dsr(inst)
    assert result.outcome.verdict is Verdict.YES
    assert result.outcome.sequence.length == 2
    assert [sorted(s) for s in result.outcome.sequence.sets] == [
        [0, 2],
        [0, 1, 2],
        [0, 1],
    ]
    assert verify_sequence(inst, result.outcome.sequence) is None


def test_solve_source_equals_target():
    inst = parse_instance("p dsr 3 2 1\ne 1 2\ne 2 3\ns 2\nt 2\n")
    out = solve_dsr(inst).outcome
    assert out.verdict is Verdict.YES and out.sequence.length == 0


def test_distance_preservation_when_twins_fire():
    # K_{1,6} with k=2: two leaves fall outside the core and collapse to one
    g = star(6)
    inst = Instance(Problem.DSR, g, 2, frozenset({0, 5}), frozenset({0, 6}))
    result = solve_dsr(inst)
    assert len(result.log) > 0
    assert result.kernel.graph.n < g.n
    direct = bfs_reconfig(inst)
    assert result.outcome.verdict == direct.verdict is Verdict.YES
    assert result.outcome.sequence.length == direct.sequence.length == 2
    assert verify_sequence(inst, result.outcome.sequence) is None
    reference.check_reduction_log(inst, result.log, result.kernel.graph)


def test_kernelize_returns_core_and_audit_passes():
    for inst in reference.dsr_corpus()[:30]:
        kernel, log, core = kernelize_dsr(inst)
        assert core.core <= inst.graph.vertex_set
        reference.check_reduction_log(inst, log, kernel.graph)
        seen = set()
        for v in kernel.graph.vertices:
            if v in core.core | inst.anchors:
                continue
            key = kernel.graph.neighbor_set(v) & core.core
            assert key not in seen  # core-neighborhood map is injective
            seen.add(key)


def test_solve_rejects_isr_input():
    isr = parse_instance("p isr 4 3 2\ne 1 2\ne 2 3\ne 3 4\ns 1 3\nt 2 4\n")
    with pytest.raises(ValueError):
        solve_dsr(isr)
