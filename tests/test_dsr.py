import itertools
import random

import pytest

from tokenjump import (
    Graph,
    InfeasibleInstanceError,
    Instance,
    Problem,
    Verdict,
    bfs_reconfig,
    compute_bounded_core,
    gen_random_degenerate,
    isr_to_dsr,
    kernelize_dsr,
    parse_instance,
    plant_isr_instance,
    remove_core_twins,
    solve_dsr,
    verify_sequence,
)
from tokenjump import dsr

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
    with pytest.raises(ValueError, match="k must be >= 1"):
        compute_bounded_core(Graph(range(5)), 0)


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


def k3_gadgets():
    """The nine k = 3 gadgets of 5- to 7-vertex ISR trees (225-321 vertices)."""
    gadgets = []
    for n in (5, 6, 7):
        for seed in (1, 2, 3):
            inst = plant_isr_instance(gen_random_degenerate(n, 1, seed), 3, seed)
            gadgets.append(isr_to_dsr(inst)[0])
    return gadgets


def pendant_heavy_graphs():
    """n = 40-160 with k = 2-3; seed 1 needs more than 2 dominators."""
    return [
        (reference._pendant_heavy_graph(n, random.Random(seed)), k)
        for n in (40, 80, 120, 160)
        for k in (2, 3)
        for seed in (1, 2)
    ]


def core_or_infeasible(core_fn, g, k):
    try:
        return core_fn(g, k)
    except InfeasibleInstanceError:
        return None


def test_core_equals_search_oracle_beyond_brute_force():
    gadgets = k3_gadgets()
    assert sorted(gad.graph.n for gad in gadgets) == [225] * 3 + [273] * 3 + [321] * 3
    graphs = [(gad.graph, gad.k) for gad in gadgets] + pendant_heavy_graphs()
    infeasible = 0
    for g, k in graphs:
        core = core_or_infeasible(lambda g, k: compute_bounded_core(g, k).core, g, k)
        assert core == core_or_infeasible(reference.search_core, g, k)
        infeasible += core is None
    assert infeasible == 4


class _CountedReads(list):
    """A mask list that counts how often the core search reads it."""

    reads = 0

    def __getitem__(self, i):
        _CountedReads.reads += 1
        return list.__getitem__(self, i)


@pytest.mark.parametrize(
    "g, k, bound",
    [
        # A 56-vertex gadget: 819 mask reads here, 4569 when every node
        # scanned all needed vertices for the fewest dominators.
        (isr_to_dsr(plant_isr_instance(gen_random_degenerate(4, 1, 1), 2, 1))[0].graph, 2, 2000),
        # Pendant-heavy, n = 160, k = 3: 3359 here, 49190 with that scan.
        (reference._pendant_heavy_graph(160, random.Random(1)), 3, 12000),
    ],
    ids=["gadget", "pendant-heavy"],
)
def test_core_search_reads_few_masks(monkeypatch, g, k, bound):
    """The branching rule keeps the core search's closed-mask reads low."""
    search = dsr._dominated

    def counted(closed, *rest):
        if not isinstance(closed, _CountedReads):
            closed = _CountedReads(closed)
        return search(closed, *rest)

    _CountedReads.reads = 0
    monkeypatch.setattr(dsr, "_dominated", counted)
    assert compute_bounded_core(g, k).core == reference.search_core(g, k)
    assert 0 < _CountedReads.reads <= bound


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
        reference.search_core(g, k)
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
    with pytest.raises(ValueError, match="DSR instances only"):
        remove_core_twins(isr, compute_bounded_core(isr.graph, 2))
