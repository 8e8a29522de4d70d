import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from tokenjump import (
    Graph,
    Instance,
    InstanceFormatError,
    Problem,
    QuasiWideParams,
    ReductionLog,
    ReductionStep,
    ReportFormatError,
    Verdict,
    bfs_reconfig,
    gen_random_degenerate,
    kernelize_degenerate,
    kernelize_dsr,
    kernelize_quasiwide,
    parse_instance,
    parse_report,
    plant_dsr_instance,
    plant_isr_instance,
    replay_reductions,
    serialize_instance,
    serialize_report,
)
from tokenjump.cli import main
from tokenjump.graph import bitset_index
from tokenjump.instances import KNOWN_RULES, infeasibility

import reference
from reference import rules_to_json

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


def assert_same_graph(g, h):
    """Every accessor of the two graphs answers alike."""
    assert g == h and h == g and not g != h
    assert (g.n, g.m, g.vertices, g.vertex_set) == (h.n, h.m, h.vertices, h.vertex_set)
    for v in h.vertices:
        assert (g.degree(v), g.neighbors(v)) == (h.degree(v), h.neighbors(v))
        assert g.neighbor_set(v) == h.neighbor_set(v)
    assert list(g.edges()) == list(h.edges())
    assert repr(g) == repr(h)


@settings(max_examples=200)
@given(st.data())
def test_parsed_graph_equals_the_graph_of_its_edges(data):
    """An ISR-parsed graph, born as its bitset index, answers as the graph of
    the same edges built as adjacency sets, and so do their induced subgraphs."""
    n = data.draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [f"e {u + 1} {v + 1}\n" for u, v in edges]
    text = f"p isr {n} {len(edges)} 1\n" + "".join(lines) + "s 1\nt 1\n"
    graph = parse_instance(text).graph
    expected = Graph(range(n), edges)
    assert graph._adj is None
    assert_same_graph(graph, expected)
    assert bitset_index(graph) == bitset_index(expected)
    if pairs:
        other = Graph(range(n), set(edges) ^ {data.draw(st.sampled_from(pairs))})
        assert graph != other and other != graph
    for v in (-1, n):
        with pytest.raises(KeyError, match=f"vertex {v} not in graph"):
            graph.degree(v)
        with pytest.raises(KeyError, match=f"vertex {v} not in graph"):
            graph.neighbor_set(v)
    for _ in range(3):
        keep = data.draw(st.sets(st.integers(0, n - 1)))
        sub, want = graph.induced_subgraph(keep), expected.induced_subgraph(keep)
        assert sub._adj is None
        assert_same_graph(sub, want)
        assert bitset_index(sub) == bitset_index(want)
    assert graph._adj is None
    order = data.draw(st.permutations(range(n)))
    assert bitset_index(graph, order) == bitset_index(expected, order)
    assert graph._adj is None
    assert_same_graph(graph, expected)


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
        (lambda t: t.replace("e 1 2", "e 1"), "edge line must be 'e <u> <v>'"),
        (lambda t: t.replace("e 1 2", "e 1 2 3"), "edge line must be 'e <u> <v>'"),
        (lambda t: t.replace("s 1 3", "s 1 9"), r"vertex 9 out of range 1\.\.4"),
        # k = 2: "s 1 1 3" must not be read as the set {1, 3}
        (lambda t: t.replace("s 1 3", "s 1 1 3"), "line 5: duplicate vertex 1 in 's' line"),
        (lambda t: t.replace("t 2 4", "t 4 2 4"), "line 6: duplicate vertex 4 in 't' line"),
        (lambda t: t.replace("s 1 3", "p isr 4 3 2\ns 1 3"), "duplicate problem line"),
        (lambda t: t.replace("p isr 4 3 2", "p isr 0 3 2"), "n must be >= 1"),
        (lambda t: t.replace("p isr 4 3 2", "p isr 100001 3 2"), "line 1: n must be <= 100000"),
        (lambda t: t.replace("p isr 4 3 2", "p isr 4 -1 2"), "m must be >= 0"),
        (lambda t: t.replace("p isr 4 3 2", "p isr 4 3 0"), "line 1: k must be >= 1"),
        (lambda t: t.replace("s 1 3", "s 1 x"), "line 5: expected an integer, got 'x'"),
        (lambda t: t.replace("t 2 4", "t 2.5 4"), "line 6: expected an integer, got '2.5'"),
    ],
)
def test_parse_errors(mangle, fragment):
    with pytest.raises(InstanceFormatError, match=fragment):
        parse_instance(mangle(P4_TEXT))


@pytest.mark.parametrize(
    "text, message, line",
    [
        (P4_TEXT.replace("e 3 4", "e 1 2"), "duplicate edge (1, 2), first seen on line 2", 4),
        (
            "p dsr 3 3 1\nc a star\ne 1 2\ne 1 3\ne 1 2\ns 1\nt 1\n",
            "duplicate edge (1, 2), first seen on line 3",
            5,
        ),
        (
            "p isr 4 3 2\r\n\te\t2 \t3\r\ne 1 2\r\n e 2 3\r\ns 1 3\r\nt 2 4\r\n",
            "duplicate edge (2, 3), first seen on line 2",
            4,
        ),
    ],
    ids=["isr", "dsr", "tabs-crlf"],
)
def test_duplicate_edge_names_the_line_it_was_first_seen_on(text, message, line):
    with pytest.raises(InstanceFormatError) as info:
        parse_instance(text)
    assert str(info.value) == f"line {line}: {message}"
    assert info.value.line == line


def test_parse_error_carries_line_number():
    try:
        parse_instance(P4_TEXT.replace("e 2 3", "e 9 9"))
    except InstanceFormatError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a parse error")


@st.composite
def mutated_instance_texts(draw):
    """A planted ISR or DSR instance's text with a few lines dropped,
    duplicated, swapped or repeated, tokens swapped for bad or out-of-range
    integers, comments and blank lines put in, and mixed line breaks and
    whitespace."""
    problem = draw(st.sampled_from([Problem.ISR, Problem.DSR]))
    n = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 10_000))
    g = gen_random_degenerate(n, draw(st.integers(1, 2)), seed)
    if problem is Problem.ISR:
        inst = plant_isr_instance(g, draw(st.integers(1, 3)), seed)
        inst = inst or plant_isr_instance(g, 1, seed)
    else:
        inst = plant_dsr_instance(g, draw(st.integers(1, 3)), seed)
        inst = inst or plant_dsr_instance(g, n, seed)
    lines = serialize_instance(inst).splitlines()
    junk = st.sampled_from(
        ["x", "2.5", "", "0", "-1", str(n), str(n + 1), "99999999999", "١", "01", "+1", "1_0"]
    )
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1)) if lines else 0
        kind = draw(st.sampled_from(["drop", "twice", "swap", "edge", "token", "comment"]))
        if not lines and kind != "comment":
            continue
        if kind == "drop":
            del lines[at]
        elif kind == "twice":
            lines.insert(at, lines[at])
        elif kind == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif kind == "edge":
            # a "token" mutation may have blanked one of an edge line's tokens
            edges = [line for line in lines if line.startswith("e ") and len(line.split()) == 3]
            if edges:
                u, v = draw(st.sampled_from(edges)).split()[1:]
                lines.insert(at, draw(st.sampled_from([f"e {u} {v}", f"e {v} {u}"])))
        elif kind == "token":
            parts = lines[at].split()
            if parts:
                parts[draw(st.integers(0, len(parts) - 1))] = draw(junk)
                lines[at] = " ".join(parts)
        else:
            lines.insert(at, draw(st.sampled_from(["c note", "# 1 2", "", "  \t", "cx"])))
    space = draw(st.sampled_from([" ", "  ", "\t", " \t", "\xa0"]))
    lines = [draw(st.sampled_from(["", " ", "\t"])) + line.replace(" ", space) for line in lines]
    text = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0c"])).join(lines)
    text += draw(st.sampled_from(["", "\n"]))
    return text.encode() if draw(st.booleans()) else text


def parsed_or_error(parse, text):
    try:
        return parse(text), None
    except InstanceFormatError as exc:
        return None, (str(exc), exc.line)


@settings(max_examples=400)
@given(mutated_instance_texts())
def test_parser_agrees_with_the_adjacency_set_parser(text):
    """Against ``reference.parse_instance``, the parser before ISR graphs were
    born as their bitset index: the same instance or the same error."""
    ours, our_error = parsed_or_error(parse_instance, text)
    theirs, their_error = parsed_or_error(reference.parse_instance, text)
    assert our_error == their_error
    if ours is not None:
        assert (ours.graph._adj is None) == (ours.problem is Problem.ISR)  # DSR is set-born
        assert ours == theirs
        assert list(ours.graph.edges()) == list(theirs.graph.edges())
        assert bitset_index(ours.graph) == bitset_index(theirs.graph)


def test_instance_validation_messages():
    g = Graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="not dominating"):
        Instance(Problem.DSR, g, 1, frozenset({0}), frozenset({1}))
    with pytest.raises(ValueError, match="unknown vertex"):
        Instance(Problem.ISR, g, 1, frozenset({5}), frozenset({0}))
    with pytest.raises(ValueError, match="k must be >= 1"):
        Instance(Problem.ISR, g, 0, frozenset(), frozenset())


def test_endpoint_and_subgraph_checks_build_no_vertex_set(monkeypatch):
    """``Instance`` and ``induced_subgraph`` ask the graph whether it holds
    each vertex, and build no frozenset of all its vertices for that."""

    def no_vertex_set(graph):
        raise AssertionError("vertex_set was built")

    monkeypatch.setattr(Graph, "vertex_set", property(no_vertex_set))
    g = parse_instance(P4_TEXT).graph
    assert Instance(Problem.ISR, g, 2, frozenset({0, 3}), frozenset({1, 3})).graph is g
    assert g.induced_subgraph({0, 2, 3}).vertices == (0, 2, 3)
    with pytest.raises(ValueError, match="source set names unknown vertex 7"):
        Instance(Problem.ISR, g, 2, frozenset({7, 9}), frozenset({1, 3}))
    with pytest.raises(KeyError, match="vertex 7 not in graph"):
        g.induced_subgraph({0, 9, 7})
    for graph in (g, Graph(range(4))):
        assert [v in graph for v in (-1, 0, 3, 4)] == [False, True, True, False]


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
    assert serialize_instance(again) == serialize_instance(inst)


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
    assert infeasibility(g, Problem.DSR, inst.source) == ()
    assert infeasibility(g, Problem.DSR, inst.target) == ()


def test_reduction_log_replay():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    log = ReductionLog()
    log.append(ReductionStep("twin", 3, {"survivor": 1}))
    log.append(ReductionStep("twin", 0, {"survivor": 1}))
    assert replay_reductions(g, log) == g.induced_subgraph([1, 2])
    assert log.deleted_vertices() == [3, 0]


@pytest.mark.parametrize(
    "deleted, bad", [([3, 7, 9], 7), ([3, 0, 3, 8], 3)], ids=["unknown vertex", "repeated vertex"]
)
def test_replay_names_the_first_vertex_it_cannot_delete(deleted, bad):
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    log = ReductionLog([ReductionStep("twin", v, {"survivor": 1}) for v in deleted])
    with pytest.raises(KeyError, match=f"^'vertex {bad} not in graph'$"):
        replay_reductions(g, log)


def test_replay_matches_deleting_step_by_step():
    """The 1,834-step log of ``gen --n 2000 --d 1 --k 2 --seed 1``."""
    inst = plant_isr_instance(gen_random_degenerate(2000, 1, 1), 2, 1)
    kern = kernelize_degenerate(inst)
    g = inst.graph
    for step in kern.log:
        g = g.induced_subgraph(g.vertex_set - {step.vertex})
    assert len(kern.log) == 1834
    assert replay_reductions(inst.graph, kern.log) == g == kern.kernel.graph


def written_rules(text: str) -> list[str]:
    """The ``rules`` entries of a written report or payload, one line each."""
    count = len(json.loads(text)["rules"])
    if not count:
        return []
    lines = text.splitlines()
    start = lines.index('  "rules": [') + 1
    assert lines[start + count].startswith("  ]")
    return [line.removeprefix("    ").removesuffix(",") for line in lines[start : start + count]]


def test_rules_to_json_shifts_every_certificate_to_file_coordinates(capsys, tmp_path):
    """The oracle's dicts shift every certificate, and each rule line that
    ``serialize_report`` and ``kernelize`` write is the compact JSON of its dict."""
    forest = plant_isr_instance(gen_random_degenerate(250, 1, 1), 2, 1)
    star = Graph(range(41), [(0, v) for v in range(1, 41)])
    hub = Instance(Problem.ISR, star, 2, {1, 2}, {3, 4})
    dsr = reference.dsr_corpus()[:40]
    steps = kernelize_degenerate(forest).log.steps
    steps += kernelize_quasiwide(hub, QuasiWideParams())[1].steps  # each round deletes B = {0}
    steps += [s for inst in dsr for s in kernelize_dsr(inst)[1].steps]
    assert {step.rule for step in steps} == set(KNOWN_RULES)
    assert any(step.rule == "quasi-wide" and step.certificate["deletions"] for step in steps)
    log = ReductionLog(steps)
    for step, rendered in zip(steps, rules_to_json(log), strict=True):
        assert rendered["rule"] == step.rule and rendered["vertex"] == step.vertex + 1
        assert rendered["certificate"].keys() == step.certificate.keys()
        for key, value in step.certificate.items():
            shifted = value + 1 if isinstance(value, int) else [v + 1 for v in value]
            assert rendered["certificate"][key] == shifted
    expected = [json.dumps(rule, separators=(",", ":")) for rule in rules_to_json(log)]
    assert written_rules(serialize_report(bfs_reconfig(forest), log, forest.graph)) == expected
    written = []
    path = tmp_path / "instance.txt"
    for inst, strategy in [(forest, "auto"), (hub, "quasiwide")] + [(d, "auto") for d in dsr]:
        path.write_text(serialize_instance(inst))
        assert main(["kernelize", str(path), "--strategy", strategy]) == 0
        written += written_rules(capsys.readouterr().out)
    assert written == expected


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


def test_report_answers_are_the_verdict_values():
    from tokenjump import engine, instances

    assert engine.Verdict is instances.Verdict is Verdict
    assert [v.name for v in Verdict] == ["YES", "NO", "EXHAUSTED"]
    inst = parse_instance(P4_TEXT)
    yes = json.loads(serialize_report(bfs_reconfig(inst), ReductionLog(), inst.graph))
    accepted = set()
    for answer in ("yes", "no", "unknown", "exhausted", "maybe"):
        report = dict(yes, answer=answer)
        if answer != "yes":
            del report["sequence"]
        try:
            parse_report(json.dumps(report))
        except ReportFormatError:
            continue
        accepted.add(answer)
    assert accepted == {v.value for v in Verdict}


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r.update(answer="maybe"),
        lambda r: r.pop("sequence"),
        lambda r: r.pop("kernel"),
        lambda r: r.pop("stats"),
        lambda r: r.update(rules=[{"rule": "bogus", "vertex": 1, "certificate": {}}]),
        lambda r: r.update(sequence="nope"),
        # JSON booleans are not vertex ids or counts, and sizes are not negative
        lambda r: r["sequence"][0].__setitem__(0, True),
        lambda r: r["kernel"].update(deleted=[True]),
        lambda r: r.update(rules=[{"rule": "twin", "vertex": True, "certificate": {}}]),
        lambda r: r.update(rules=[{"rule": "twin", "vertex": 1, "certificate": []}]),
        lambda r: r["kernel"].update(n=True),
        lambda r: r["kernel"].update(n=-5),
        lambda r: r["kernel"].update(m=-1),
        lambda r: r["stats"].update(states_explored=True),
        lambda r: r["stats"].update(ms=False),
        lambda r: r["stats"].update(ms=float("nan")),
        # a vertex named twice in one entry is not a set of k tokens
        lambda r: r["sequence"][-1].append(r["sequence"][-1][0]),
        lambda r: r.update(rules={}),
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
    with pytest.raises(ReportFormatError, match="must be a JSON object"):
        parse_report("[]")


def test_parse_instance_rejects_non_utf8_bytes_with_offset():
    with pytest.raises(InstanceFormatError, match="offset 12"):
        parse_instance(b"p isr 2 0 1\n\xff\n")


def test_parse_report_rejects_non_utf8_bytes_with_offset():
    with pytest.raises(ReportFormatError, match="offset 1"):
        parse_report(b"{\xff}")
