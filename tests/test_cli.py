import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tokenjump import parse_instance, parse_report
from tokenjump import cli
from tokenjump.cli import main

P4_TEXT = "p isr 4 3 2\ne 1 2\ne 2 3\ne 3 4\ns 1 3\nt 2 4\n"
C4_TEXT = "p isr 4 4 2\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ns 1 3\nt 2 4\n"
DSR_TEXT = "p dsr 3 2 2\ne 1 2\ne 2 3\ns 1 3\nt 1 2\n"


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.isr"
    path.write_text(P4_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_yes_exit_zero(capsys, p4_file):
    code, out, _ = run(capsys, "solve", p4_file)
    report = parse_report(out)
    assert code == 0
    assert report["answer"] == "yes"
    assert report["sequence"][0] == [1, 3]


def test_solve_no_exit_one(capsys, tmp_path):
    path = tmp_path / "c4.isr"
    path.write_text(C4_TEXT)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 1
    assert parse_report(out)["answer"] == "no"


def test_solve_exhausted_exit_two(capsys, p4_file):
    code, out, _ = run(capsys, "solve", p4_file, "--state-budget", "2")
    assert code == 2
    report = parse_report(out)
    assert report["answer"] == "unknown"
    assert report["reason"] == "state budget exceeded"


def test_solve_dsr_and_strategy_guard(capsys, tmp_path):
    path = tmp_path / "p3.dsr"
    path.write_text(DSR_TEXT)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0 and parse_report(out)["answer"] == "yes"
    for command in ("solve", "kernelize"):
        code, _, err = run(capsys, command, str(path), "--strategy", "quasiwide")
        assert code == 64 and "requires an ISR instance" in err


def test_solve_strategies_agree(capsys, p4_file):
    answers = set()
    for strategy in ("auto", "quasiwide", "oracle"):
        code, out, _ = run(capsys, "solve", p4_file, "--strategy", strategy)
        answers.add((code, parse_report(out)["answer"]))
    assert answers == {(0, "yes")}


def test_verify_accepts_solver_output(capsys, tmp_path, p4_file):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", p4_file, "--out", str(report_path))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "verify", p4_file, str(report_path))
    assert code == 0
    assert json.loads(out) == {"ok": True, "checked": True}


def test_verify_flags_tampered_sequence(capsys, tmp_path, p4_file):
    code, out, _ = run(capsys, "solve", p4_file)
    report = json.loads(out)
    report["sequence"][1] = [1, 4]  # double jump from [1, 3]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, out, _ = run(capsys, "verify", p4_file, str(tampered))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["condition"] == 3
    assert payload["index"] == 1


def test_verify_without_sequence_is_vacuous(capsys, tmp_path):
    path = tmp_path / "c4.isr"
    path.write_text(C4_TEXT)
    report_path = tmp_path / "no.json"
    run(capsys, "solve", str(path), "--out", str(report_path))
    code, out, _ = run(capsys, "verify", str(path), str(report_path))
    assert code == 0 and json.loads(out)["checked"] is False


def test_gen_is_byte_identical(capsys):
    argv = ("gen", "--n", "20", "--d", "2", "--k", "3", "--seed", "1")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    inst = parse_instance(first)
    assert inst.graph.n == 20 and inst.k == 3


def test_gen_dsr_and_failure(capsys):
    code, out, _ = run(capsys, "gen", "--n", "10", "--d", "1", "--k", "3",
                       "--seed", "2", "--problem", "dsr")
    assert code == 0
    assert parse_instance(out).problem.value == "dsr"
    code, _, err = run(capsys, "gen", "--n", "2", "--d", "1", "--k", "2")
    assert code == 2 and "could not plant" in err


def test_kernelize_outputs_kernel_and_rules(capsys, tmp_path):
    big = tmp_path / "big.isr"
    n = 170
    lines = [f"p isr {n} 0 2", "s 1 2", f"t 3 4"]
    big.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "kernelize", str(big))
    assert code == 0
    payload = json.loads(out)
    kernel = parse_instance(payload["instance"])
    assert kernel.graph.n < n
    assert payload["kernel"]["n"] == kernel.graph.n
    assert len(payload["rules"]) == len(payload["kernel"]["deleted"]) > 0
    assert all(rule["rule"] == "sunflower-degenerate" for rule in payload["rules"])


def test_kernelize_dsr(capsys, tmp_path):
    path = tmp_path / "p3.dsr"
    path.write_text(DSR_TEXT)
    code, out, _ = run(capsys, "kernelize", str(path))
    assert code == 0
    assert parse_instance(json.loads(out)["instance"]).problem.value == "dsr"


def test_convert_emits_instance_and_gadget_map(capsys, tmp_path):
    path = tmp_path / "p3.isr"
    path.write_text("p isr 3 2 2\ne 1 2\ne 2 3\ns 1 3\nt 1 3\n")
    code, out, _ = run(capsys, "convert", str(path))
    assert code == 0
    payload = json.loads(out)
    gadget = parse_instance(payload["instance"])
    assert gadget.problem.value == "dsr" and gadget.graph.n == 42
    assert payload["gadget_map"]["cliques"][0] == [1, 2, 3]


def test_convert_rejects_dsr_input(capsys, tmp_path):
    path = tmp_path / "p3.dsr"
    path.write_text(DSR_TEXT)
    code, _, err = run(capsys, "convert", str(path))
    assert code == 65 and "requires an ISR instance" in err


def test_stats_fields(capsys, p4_file):
    code, out, _ = run(capsys, "stats", p4_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4 and payload["m"] == 3
    assert payload["degeneracy"] == 1
    assert payload["contains_biclique"]["2"] is False
    assert payload["class_sizes"] == []  # every vertex is an endpoint


def test_strategies_agree_and_verify_accepts_solve_on_corpus(capsys, tmp_path):
    for seed in range(10):
        code, text, _ = run(capsys, "gen", "--n", "12", "--d", "2", "--k", "2",
                            "--seed", str(seed))
        assert code == 0
        inst_path = tmp_path / f"inst{seed}.isr"
        inst_path.write_text(text)
        exits = {}
        for strategy in ("oracle", "auto", "quasiwide"):
            report_path = tmp_path / f"report{seed}-{strategy}.json"
            exits[strategy], _, _ = run(
                capsys, "solve", str(inst_path), "--strategy", strategy,
                "--out", str(report_path),
            )
            verify_code, out, _ = run(
                capsys, "verify", str(inst_path), str(report_path)
            )
            assert verify_code == 0, out
        assert len(set(exits.values())) == 1


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(P4_TEXT))
    code, out, _ = run(capsys, "solve")
    assert code == 0 and parse_report(out)["answer"] == "yes"


def test_malformed_input_exits_65(capsys, tmp_path):
    path = tmp_path / "bad.isr"
    path.write_text("p isr 4 3 2\ne 1 2\ne 2 3\ne 3 4\ns 1 2\nt 2 4\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 65 and "not independent" in err


def test_unknown_flag_exits_64(capsys, p4_file):
    code, _, err = run(capsys, "solve", p4_file, "--bogus")
    assert code == 64


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["solve", "--state-budget", "0"], "--state-budget"),
        (["solve", "--strategy", "quasiwide", "--search-budget", "0"], "--search-budget"),
        (["solve", "--strategy", "quasiwide", "--max-deletions", "-1"], "--max-deletions"),
        (["solve", "--strategy", "quasiwide", "--class-threshold", "0"], "--class-threshold"),
        (["gen", "--n", "-3", "--d", "1", "--k", "2"], "--n"),
        (["gen", "--n", "8", "--d", "0", "--k", "2"], "--d"),
        (["gen", "--n", "8", "--d", "1", "--k", "0"], "--k"),
    ],
)
def test_out_of_range_numeric_flag_exits_64(capsys, p4_file, argv, flag):
    if argv[0] == "solve":
        argv = [argv[0], p4_file, *argv[1:]]
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == "" and f"argument {flag}: must be >=" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--strategy", "degenerate"],
        ["kernelize", "--strategy", "degenerate"],
        ["solve", "--verbose"],
        ["--verbose", "solve"],
    ],
)
def test_removed_options_exit_64(capsys, p4_file, argv):
    code, out, err = run(capsys, *argv, p4_file)
    assert code == 64 and out == ""
    assert err.startswith("tokenjump: error: ")


def test_non_utf8_files_exit_65(capsys, tmp_path, p4_file):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"p isr 2 0 1\n\xff\n")
    for argv in (["solve", str(bad)], ["verify", p4_file, str(bad)]):
        code, out, err = run(capsys, *argv)
        assert code == 65 and out == ""
        assert err.startswith("tokenjump: error: 'utf-8' codec can't decode")


def test_deeply_nested_report_exits_65(capsys, tmp_path, p4_file):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run(capsys, "verify", p4_file, str(deep))
    assert code == 65 and out == ""
    assert err.startswith("tokenjump: error: report is not valid JSON")


def test_missing_file_exits_65(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/path.isr")
    assert code == 65


@pytest.mark.parametrize(
    "pipeline, exc",
    [
        ("solve_isr_degenerate", RuntimeError("kernel bound violated")),
        ("solve_isr_degenerate", MemoryError()),
        ("solve_isr_quasiwide", RuntimeError("sunflower extraction failed")),
    ],
)
def test_internal_error_exits_70(capsys, monkeypatch, p4_file, pipeline, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, pipeline, fail)
    strategy = "quasiwide" if "quasiwide" in pipeline else "auto"
    code, out, err = run(capsys, "solve", p4_file, "--strategy", strategy)
    assert code == 70
    assert out == ""
    assert err == f"tokenjump: internal error: {type(exc).__name__}: {exc}\n"


SMALL_INT = st.integers(-1, 6)


@st.composite
def instance_texts(draw):
    """Instance text from the line grammar, every int in -1..6.

    In about half the draws every count and vertex fits the header, so that
    many instances parse and reach the solvers; the rest test the parser.
    """
    fits = draw(st.booleans())

    def fitting(values):
        return values if fits else values | SMALL_INT

    problem = draw(st.sampled_from(["isr", "dsr"]))
    n = draw(fitting(st.integers(1, 6)))
    vertex = fitting(st.integers(1, max(n, 1)))
    pairs = st.tuples(vertex, vertex).map(sorted).filter(lambda e: e[0] < e[1])
    edges = sorted(draw(st.sets(pairs.map(tuple), max_size=6)))
    ends = [sorted(draw(st.sets(vertex, min_size=1, max_size=3))) for _ in "st"]
    m, k = draw(fitting(st.just(len(edges)))), draw(fitting(st.just(len(ends[0]))))
    lines = [f"p {problem} {n} {m} {k}"]
    lines += [f"e {u} {v}" for u, v in edges]
    lines += [" ".join(map(str, [tag, *vs])) for tag, vs in zip("st", ends)]
    return "\n".join(lines).encode()


INSTANCES = st.binary(max_size=80) | instance_texts()
REPORTS = st.binary(max_size=80) | st.fixed_dictionaries(
    {
        "answer": st.sampled_from(["yes", "no", "unknown"]),
        "kernel": st.just({"n": 1, "m": 0, "deleted": []}),
        "rules": st.just([]),
        "stats": st.just({"states_explored": 0, "ms": 0}),
    },
    optional={"sequence": st.lists(st.lists(SMALL_INT, max_size=4), max_size=4)},
).map(lambda report: json.dumps(report).encode())


def run_on_files(argv, *contents):
    """Run the CLI with each content written to a file; returns (code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(contents):
            paths.append(os.path.join(tmp, f"input{i}"))
            with open(paths[-1], "wb") as handle:
                handle.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], *paths, *argv[1:]])
    return code, err.getvalue()


def assert_contract(code, err):
    assert code in (0, 1, 2, 65), err
    assert "Traceback" not in err and "internal error" not in err


@settings(deadline=None, max_examples=300)
@given(INSTANCES)
def test_fuzzed_instance_keeps_exit_code_contract(data):
    assert_contract(*run_on_files(["solve", "--state-budget", "1000"], data))


@settings(deadline=None, max_examples=300)
@given(INSTANCES, REPORTS)
def test_fuzzed_verify_keeps_exit_code_contract(instance, report):
    assert_contract(*run_on_files(["verify"], instance, report))
