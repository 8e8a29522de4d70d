import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tokenjump import (
    Graph,
    Instance,
    Problem,
    ReductionStep,
    Verdict,
    bfs_reconfig,
    gen_random_degenerate,
    kernel_vertex_bound,
    kernelize_degenerate,
    low_degree_threshold,
    parse_instance,
    plant_isr_instance,
    replay_reductions,
    serialize_instance,
    solve_isr_degenerate,
    verify_sequence,
)
from tokenjump import cli, degenerate
from tokenjump.degenerate import Workspace, _LowDegreeWorkspace

import reference

P4 = parse_instance("p isr 4 3 2\ne 1 2\ne 2 3\ne 3 4\ns 1 3\nt 2 4\n")

# Digest (reference.log_digest) of kernelize_degenerate's logs and kernels on
# the ISR corpus followed by the sparse corpus, recorded with the rescanning
# twin removal and min-scan degeneracy order that reference.py keeps, and the
# set-based sunflower extraction, each log cut by reference.two_k_petals.
KERNEL_LOGS_DIGEST = "f6301fc0af1dcc3dfa5298a47fda285d59722bcd268cb0f579aeab0edf2a3a9e"


def isolated_instance(total, k=2):
    g = Graph(range(total))
    return Instance(
        Problem.ISR, g, k, frozenset(range(k)), frozenset(range(k, 2 * k))
    )


def paths_instance(low, k=2):
    """2k isolated anchors, then ``low`` vertices on paths of three vertices
    (the last path shorter when 3 does not divide ``low``; keep it off two
    vertices, which would be closed twins).  d = 1."""
    edges = [(v, v + 1) for v in range(2 * k, 2 * k + low - 1) if (v - 2 * k) % 3 != 2]
    g = Graph(range(2 * k + low), edges)
    return Instance(Problem.ISR, g, k, frozenset(range(k)), frozenset(range(k, 2 * k)))


def remove_twins(inst):
    """Twin removal as both kernels run it first, on a fresh workspace."""
    ws = Workspace(inst.graph, inst.anchors)
    ws.remove_twins()
    return ws.reduced(inst), ws.log


def low_degree_once(inst):
    """One low-degree deletion at the degeneracy the workspace maintains."""
    ws = _LowDegreeWorkspace(inst)
    step = ws.low_degree_once()
    return ws.d, None if step is None else (ws.reduced(inst), step)


def test_threshold_formulas():
    assert low_degree_threshold(1, 2) == 162
    assert kernel_vertex_bound(1, 2) == 490


def test_twin_removal_in_triangle():
    g = Graph(range(3), [(0, 1), (0, 2), (1, 2)])
    inst = Instance(Problem.ISR, g, 1, frozenset({0}), frozenset({0}))
    reduced, log = remove_twins(inst)
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
    reduced, log = remove_twins(inst)
    assert [s.vertex for s in log.steps] == [1]
    assert reduced.graph.vertex_set == {0, 2, 3, 4}


def test_twin_removal_leaves_p4_alone():
    reduced, log = remove_twins(P4)
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
    assert remove_twins(inst) == reference.remove_closed_twins(inst)


def test_twin_removal_matches_rescan_reference_on_corpora():
    insts = [inst for inst, _ in reference.isr_corpus()] + reference.sparse_corpus()
    for inst in insts:
        assert remove_twins(inst) == reference.remove_closed_twins(inst)


@pytest.mark.parametrize(
    "edges",
    [
        # Deleting 0 makes 1 the twin of 3, which 0 does not see; 3 lies in
        # the closed neighborhood of 1's least neighbor, 2.
        [(0, 1), (0, 5), (1, 2), (1, 3), (2, 3), (2, 4)],
        # Deleting 0 leaves the edge 1-2 isolated: 1's least neighbor is its twin.
        [(0, 1), (0, 3), (1, 2)],
    ],
)
def test_twin_removal_after_a_deletion_matches_rescan_reference(edges):
    """A deletion re-keys the deleted vertex's neighbors, and the next twin
    removal finds their new twins, as a rescan of the whole graph does."""
    n = 1 + max(map(max, edges))
    g = Graph(range(n + 1), edges)  # n: an isolated anchor
    inst = Instance(Problem.ISR, g, 1, frozenset({n}), frozenset({n}))
    ws = Workspace(g, inst.anchors)
    ws.remove_twins()
    assert not ws.log
    ws.delete(ws.pos[0], ReductionStep("sunflower-degenerate", 0, {}))
    ws.remove_twins()
    _, want = reference.remove_closed_twins(inst.with_graph(g.induced_subgraph(range(1, n + 1))))
    assert want.steps and ws.log.steps[1:] == want.steps


def test_twin_removal_reads_two_positions_per_rekeyed_one_on_a_star(monkeypatch):
    """On K_{1,400} each leaf deletion re-keys the hub alone, and the next
    twin removal groups the hub and its least leaf, not all of its leaves."""
    g = Graph(range(401), [(0, v) for v in range(1, 401)])
    inst = Instance(Problem.ISR, g, 2, frozenset({397, 398}), frozenset({399, 400}))
    calls = []
    remove_twins, closed_cells = Workspace.remove_twins, degenerate.closed_cells

    def recorded_remove_twins(self):
        calls.append([(self._rekeyed & self.alive).bit_count()])
        remove_twins(self)

    def recorded_closed_cells(nbr, members, within):
        members = list(members)
        calls[-1].append(len(members))
        return closed_cells(nbr, members, within)

    monkeypatch.setattr(Workspace, "remove_twins", recorded_remove_twins)
    monkeypatch.setattr(degenerate, "closed_cells", recorded_closed_cells)
    assert kernelize_degenerate(inst).log
    assert calls[0] == [397, 397] and len(calls) > 200
    assert all(len(call) == 2 and call[1] <= 2 * call[0] for call in calls[1:]), calls


def test_kernel_logs_match_stored_run():
    runs = []
    for inst in [inst for inst, _ in reference.isr_corpus()] + reference.sparse_corpus():
        kern = kernelize_degenerate(inst)
        runs.append((kern.kernel, kern.log))
    assert reference.log_digest(runs) == KERNEL_LOGS_DIGEST


def test_low_degree_rule_fires_above_threshold():
    inst = isolated_instance(200)
    d, result = low_degree_once(inst)
    assert d == 0 and result is not None
    reduced, step = result
    assert step.rule == "sunflower-degenerate"
    assert step.vertex == 4  # smallest non-anchor vertex
    assert step.certificate["core"] == []
    assert len(step.certificate["petal_centers"]) >= 4
    assert reduced.graph.n == 199


def test_low_degree_rule_needs_strict_inequality():
    # edgeless: d = 0 and the threshold is 3 non-anchor vertices
    assert low_degree_threshold(0, 2) == 3
    assert low_degree_once(isolated_instance(3 + 4)) == (0, None)
    d, result = low_degree_once(isolated_instance(4 + 4))
    assert d == 0 and result is not None and result[1].vertex == 4
    # a forest of paths: d = 1 and the threshold is 162
    assert low_degree_once(paths_instance(162)) == (1, None)
    assert kernelize_degenerate(paths_instance(162)).log.steps == []
    d, result = low_degree_once(paths_instance(163))
    assert d == 1 and result is not None
    reduced, step = result
    assert step.rule == "sunflower-degenerate" and step.vertex == 4
    assert reduced.graph.n == 166


def test_low_degree_rule_with_empty_low_set():
    # every vertex of P4 is an anchor, so no vertex is low-degree
    assert low_degree_once(P4) == (1, None)


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
        kernelize_degenerate(dsr)
    with pytest.raises(ValueError):
        solve_isr_degenerate(dsr)


@pytest.mark.parametrize(
    "name, broken, message",
    [
        (  # the check sees one petal of the found sunflower
            "_sunflower_core",
            lambda real: lambda nbr, petals, *rest: real(nbr, petals[:1], *rest),
            "sunflower failed validation",
        ),
        (  # the extraction finds nothing
            "extract_sunflower",
            lambda real: lambda masks, want: None,
            "sunflower extraction failed above the guarantee threshold",
        ),
    ],
)
def test_a_failed_low_degree_certificate_is_an_internal_error(
    monkeypatch, tmp_path, capsys, name, broken, message
):
    """The forest of ``gen --n 600 --d 1 --k 2 --seed 1``, past the
    low-degree threshold, with a broken sunflower step."""
    inst = plant_isr_instance(gen_random_degenerate(600, 1, 1), 2, 1)
    monkeypatch.setattr(degenerate, name, broken(getattr(degenerate, name)))
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        kernelize_degenerate(inst)
    path = tmp_path / "forest.isr"
    path.write_text(serialize_instance(inst))
    assert cli.main(["solve", str(path)]) == 70
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"tokenjump: internal error: RuntimeError: {message}\n"


ISR_CORPORA = (
    lambda: [inst for inst, _ in reference.isr_corpus()],
    reference.tiny_isr_corpus,
    reference.sparse_corpus,
    reference.deletion_corpus,
    reference.hub_corpus,
    reference.no_instance_corpus,
    reference.blocked_corpus,
)


def test_solve_searches_the_input_only_where_the_kernel_is_the_input():
    """Every ISR instance of the reference corpora: where the shortcut
    predicate holds, the kernel (bound check included) is the instance
    itself, and ``solve_isr_degenerate`` answers as the plain search does."""
    insts = [
        inst for corpus in ISR_CORPORA for inst in corpus() if inst.problem is Problem.ISR
    ]
    accepted = 0
    for inst in insts:
        if not degenerate._kernel_is_identity(inst):
            continue
        accepted += 1
        kern = kernelize_degenerate(inst)
        assert kern.kernel is inst and kern.log.steps == []
        result, oracle = solve_isr_degenerate(inst), bfs_reconfig(inst)
        assert result.kernel is inst and result.log.steps == []
        assert result.outcome.verdict is oracle.verdict
        assert result.outcome.sequence == oracle.sequence
        assert result.outcome.states_explored == oracle.states_explored
    assert len(insts) // 2 < accepted < len(insts)


@pytest.mark.parametrize(
    "inst, deleted",
    [
        # edgeless: d = 0, so 6 non-anchors pass the threshold 3, not 162
        (isolated_instance(10), 3),
        # 4 and 5 are closed twins, far below the threshold
        (Instance(Problem.ISR, Graph(range(6), [(4, 5)]), 2, {0, 1}, {2, 3}), 1),
    ],
)
def test_solve_kernelizes_where_a_rule_fires(inst, deleted):
    assert not degenerate._kernel_is_identity(inst)
    assert len(kernelize_degenerate(inst).log) == deleted
    result = solve_isr_degenerate(inst)
    assert len(result.log) == deleted
    assert result.outcome.verdict is bfs_reconfig(inst).verdict


def test_solve_takes_both_paths(monkeypatch, tmp_path, capsys):
    """With the kernel broken, ``solve`` still answers P4 and the n = 30
    instance of ``gen --n 30 --d 2 --k 2 --seed 1``, which it searches
    directly, and fails on the forest of ``gen --n 250 --d 1 --k 2 --seed 1``,
    whose 246 non-anchors pass the low-degree threshold of 162."""

    def broken(inst):
        raise RuntimeError("kernel ran")

    monkeypatch.setattr(degenerate, "kernelize_degenerate", broken)
    cases = [
        (P4, 0),
        (plant_isr_instance(gen_random_degenerate(30, 2, 1), 2, 1), 0),
        (plant_isr_instance(gen_random_degenerate(250, 1, 1), 2, 1), 70),
    ]
    for i, (inst, code) in enumerate(cases):
        path = tmp_path / f"{i}.isr"
        path.write_text(serialize_instance(inst))
        assert cli.main(["solve", str(path)]) == code
    assert capsys.readouterr().err.count("RuntimeError: kernel ran") == 1
