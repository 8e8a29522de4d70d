import itertools
import json

import pytest
from hypothesis import given, strategies as st

from tokenjump import (
    Graph,
    Instance,
    InstanceFormatError,
    Problem,
    ReductionLog,
    ReductionStep,
    ReportFormatError,
    Verdict,
    bfs_reconfig,
    gen_random_degenerate,
    is_feasible,
    parse_instance,
    parse_report,
    plant_dsr_instance,
    plant_isr_instance,
    replay_reductions,
    serialize_instance,
    serialize_report,
)

import reference

P4_TEXT = "p isr 4 3 2\ne 1 2\ne 2 3\ne 3 4\ns 1 3\nt 2 4\n"


def test_parse_p4_example():
    inst = parse_instance(P4_TEXT)
    assert inst.problem is Problem.ISR
    assert inst.k == 2
    assert inst.graph.vertices == (0, 1, 2, 3)
    assert list(inst.graph.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert inst.source == {0, 2} and inst.target == {1, 3}


def test_parse_rejects_dependent_source():
    bad = P4_TEXT.replace("s 1 3", "s 1 2")
    with pytest.raises(InstanceFormatError, match="source set is not independent"):
        parse_instance(bad)


def test_parse_dsr_example():
    inst = parse_instance("p dsr 3 2 1\ne 1 2\ne 2 3\ns 2\nt 2\n")
    assert inst.problem is Problem.DSR
    assert inst.source == inst.target == {1}


def test_parse_accepts_comments_and_bytes():
    text = "# comment\nc another\n" + P4_TEXT
    assert parse_instance(text.encode()) == parse_instance(P4_TEXT)


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace("p isr 4 3 2", "p foo 4 3 2"), "unknown problem tag"),
        (lambda t: t.replace("p isr 4 3 2", "p isr 4 3"), "problem line"),
        (lambda t: t.replace("e 1 2", "e 2 1"), "1 <= u < v"),
        (lambda t: t.replace("e 1 2", "e 1 9"), "1 <= u < v"),
        (lambda t: t.replace("e 2 3", "e 1 2"), "duplicate edge"),
        (lambda t: t.replace("e 3 4\n", ""), "expected 3 edge lines"),
        (lambda t: t.replace("s 1 3", "s 1"), "expected k=2"),
        (lambda t: t.replace("s 1 3\n", ""), "missing source"),
        (lambda t: t.replace("t 2 4\n", ""), "missing target"),
        (lambda t: t.replace("t 2 4", "t 2 4\nt 2 4"), "duplicate 't'"),
        (lambda t: t.replace("e 1 2", "x 1 2"), "unknown line tag"),
        (lambda t: t.replace("e 1 2", "e 1 two"), "expected an integer"),
        (lambda t: "e 1 2\n" + t, "before the problem line"),
    ],
)
def test_parse_errors(mangle, fragment):
    with pytest.raises(InstanceFormatError, match=fragment):
        parse_instance(mangle(P4_TEXT))


def test_parse_error_carries_line_number():
    try:
        parse_instance(P4_TEXT.replace("e 2 3", "e 9 9"))
    except InstanceFormatError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a parse error")


def test_instance_validation_messages():
    g = Graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="not dominating"):
        Instance(Problem.DSR, g, 1, frozenset({0}), frozenset({1}))
    with pytest.raises(ValueError, match="unknown vertex"):
        Instance(Problem.ISR, g, 1, frozenset({5}), frozenset({0}))
    with pytest.raises(ValueError, match="k must be >= 1"):
        Instance(Problem.ISR, g, 0, frozenset(), frozenset())


@st.composite
def planted_instances(draw):
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    g = gen_random_degenerate(n, d, seed)
    inst = plant_isr_instance(g, k, seed)
    if inst is None:
        inst = plant_isr_instance(g, 1, seed)
    return inst


@given(planted_instances())
def test_serialize_parse_round_trip(inst):
    assert inst is not None
    again = parse_instance(serialize_instance(inst))
    assert again == inst


def test_serialize_renumbers_sparse_ids_with_map_comments():
    g = Graph([0, 2, 5], [(0, 2), (2, 5)])
    inst = Instance(Problem.ISR, g, 1, frozenset({0}), frozenset({5}))
    text = serialize_instance(inst)
    assert "c map 2 3" in text  # old internal id 2 is file id 3
    again = parse_instance(text)
    assert again.graph.n == 3 and again.graph.m == 2


def test_gen_random_degenerate_examples():
    assert gen_random_degenerate(1, 3, 0).n == 1
    forest = gen_random_degenerate(10, 1, 4)
    assert forest.m <= 10
    g = gen_random_degenerate(50, 2, 7)
    assert g.m <= 100


def test_plant_isr_edge_cases():
    k2 = Graph(range(2), [(0, 1)])
    assert plant_isr_instance(k2, 2, 0) is None
    edgeless = Graph(range(5))
    inst = plant_isr_instance(edgeless, 2, 0)
    assert inst is not None and inst.k == 2


@pytest.mark.parametrize("seed", range(8))
def test_plant_isr_on_p4_yields_independent_pairs(seed):
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    expected = {
        frozenset(c)
        for c in itertools.combinations(range(4), 2)
        if reference.independent(g, c)
    }
    assert expected == {frozenset({0, 2}), frozenset({0, 3}), frozenset({1, 3})}
    inst = plant_isr_instance(g, 2, seed)
    assert inst is not None
    assert inst.source in expected and inst.target in expected


def test_plant_dsr_produces_valid_instances():
    g = gen_random_degenerate(12, 2, 3)
    inst = plant_dsr_instance(g, 3, 5)
    assert inst is not None
    assert is_feasible(g, Problem.DSR, inst.source)
    assert is_feasible(g, Problem.DSR, inst.target)


def test_reduction_log_replay():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    log = ReductionLog()
    log.append(ReductionStep("twin", 3, {"survivor": 1}))
    log.append(ReductionStep("twin", 0, {"survivor": 1}))
    assert replay_reductions(g, log) == g.delete_vertex(3).delete_vertex(0)
    assert log.deleted_vertices() == [3, 0]


def test_serialize_report_yes_round_trips():
    inst = parse_instance(P4_TEXT)
    outcome = bfs_reconfig(inst)
    text = serialize_report(outcome, ReductionLog(), inst.graph, ms=12)
    report = parse_report(text)
    assert report["answer"] == "yes"
    assert report["sequence"][0] == [1, 3] and report["sequence"][-1] == [2, 4]
    assert len(report["sequence"]) == 5
    assert report["kernel"] == {"n": 4, "m": 3, "deleted": []}
    assert report["stats"]["ms"] == 12


def test_serialize_report_no_and_unknown():
    c4 = parse_instance("p isr 4 4 2\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ns 1 3\nt 2 4\n")
    no = parse_report(serialize_report(bfs_reconfig(c4), ReductionLog(), c4.graph))
    assert no["answer"] == "no" and "sequence" not in no
    exhausted = bfs_reconfig(c4, state_budget=1)
    assert exhausted.verdict is Verdict.EXHAUSTED
    unknown = parse_report(serialize_report(exhausted, ReductionLog(), c4.graph))
    assert unknown["answer"] == "unknown"
    assert unknown["reason"] == "state budget exceeded"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r.update(answer="maybe"),
        lambda r: r.pop("sequence"),
        lambda r: r.pop("kernel"),
        lambda r: r.pop("stats"),
        lambda r: r.update(rules=[{"rule": "bogus", "vertex": 1, "certificate": {}}]),
        lambda r: r.update(sequence="nope"),
    ],
)
def test_parse_report_rejects_corruption(corrupt):
    inst = parse_instance(P4_TEXT)
    report = json.loads(serialize_report(bfs_reconfig(inst), ReductionLog(), inst.graph))
    corrupt(report)
    with pytest.raises(ReportFormatError):
        parse_report(json.dumps(report))


def test_parse_report_rejects_non_json():
    with pytest.raises(ReportFormatError):
        parse_report("not json at all")


def test_parse_instance_rejects_non_utf8_bytes_with_offset():
    with pytest.raises(InstanceFormatError, match="offset 12"):
        parse_instance(b"p isr 2 0 1\n\xff\n")


def test_parse_report_rejects_non_utf8_bytes_with_offset():
    with pytest.raises(ReportFormatError, match="offset 1"):
        parse_report(b"{\xff}")
