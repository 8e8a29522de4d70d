import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tokenjump import (
    QuasiWideParams,
    ReductionLog,
    gen_random_degenerate,
    kernelize_degenerate,
    kernelize_quasiwide,
    parse_instance,
    parse_report,
    plant_isr_instance,
    serialize_instance,
    solve_dsr,
    solve_isr_degenerate,
    solve_isr_quasiwide,
)
import tokenjump
from tokenjump import cli, degenerate, dsr
from tokenjump.instances import kernel_to_json, rules_to_json
from tokenjump.cli import main

import reference

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


def test_verify_rejects_booleans_and_negative_sizes_with_65(capsys, tmp_path, p4_file):
    _, out, _ = run(capsys, "solve", p4_file)
    for corrupt in (
        lambda r: r["sequence"][0].__setitem__(0, True),  # reads as vertex 1
        lambda r: (r["kernel"].update(n=-5), r["stats"].update(states_explored=True)),
    ):
        report = json.loads(out)
        corrupt(report)
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(report))
        code, printed, err = run(capsys, "verify", p4_file, str(path))
        assert code == 65 and printed == ""
        assert err.startswith("tokenjump: error: ")


def test_sets_naming_a_vertex_twice_exit_65(capsys, tmp_path):
    """On P3 with k = 1, a source line "s 1 1" and a report step [3, 3] name
    a vertex twice; neither may be read as the set of its distinct vertices."""
    instance = tmp_path / "p3.isr"
    instance.write_text("p isr 3 2 1\ne 1 2\ne 2 3\ns 1 1\nt 3\n")
    code, out, err = run(capsys, "solve", str(instance))
    assert code == 65 and out == ""
    assert err == "tokenjump: error: line 4: duplicate vertex 1 in 's' line\n"
    instance.write_text("p isr 3 2 1\ne 1 2\ne 2 3\ns 1\nt 3\n")
    report = json.loads(run(capsys, "solve", str(instance))[1])
    report["sequence"] = [[1], [], [3, 3]]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(report))
    code, out, err = run(capsys, "verify", str(instance), str(path))
    assert code == 65 and out == ""
    assert err == "tokenjump: error: a sequence entry names a vertex twice\n"


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


@pytest.mark.parametrize("problem", ["isr", "dsr"])
def test_gen_gives_up_at_once_when_k_exceeds_n(monkeypatch, capsys, problem):
    """No k-subset of n < k vertices exists, so no set is sampled at all
    (each sampler used to make 100 * n attempts of O(n) before exit 2)."""

    def sampled(*args):
        raise AssertionError("sampled a set")

    monkeypatch.setattr(tokenjump.instances, "_sample_independent", sampled)
    monkeypatch.setattr(tokenjump.instances, "_sample_dominating", sampled)
    argv = ("gen", "--n", "1000", "--d", "1", "--k", "1001", "--problem", problem)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"could not plant a {problem} instance with k=1001\n"


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


def assert_one_rule_per_line(text, written):
    """``text`` parses to ``written``: one line per top-level key and per rule."""
    assert json.loads(text) == written
    lines = text.splitlines()
    rules = written["rules"]
    assert len(lines) == len(written) + 2 + (len(rules) + 1 if rules else 0)
    start = lines.index('  "rules": [') + 1
    for line, rule in zip(lines[start:], rules):
        assert json.loads(line.rstrip(",")) == rule


def test_solve_and_kernelize_write_one_rule_per_line(capsys, tmp_path):
    inst = plant_isr_instance(gen_random_degenerate(250, 1, 1), 2, 1)
    path = tmp_path / "forest.isr"
    path.write_text(serialize_instance(inst))

    result = solve_isr_degenerate(inst)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0 and len(result.log) > 30
    assert_one_rule_per_line(
        out,
        {
            "answer": "yes",
            "sequence": [sorted(v + 1 for v in s) for s in result.outcome.sequence.sets],
            "kernel": kernel_to_json(result.kernel.graph, result.log),
            "rules": rules_to_json(result.log),
            "stats": {
                "states_explored": result.outcome.states_explored,
                "ms": json.loads(out)["stats"]["ms"],
            },
        },
    )

    kern = kernelize_degenerate(inst)
    code, out, _ = run(capsys, "kernelize", str(path))
    assert code == 0
    assert_one_rule_per_line(
        out,
        {
            "instance": serialize_instance(kern.kernel),
            "kernel": kernel_to_json(kern.kernel.graph, kern.log),
            "rules": rules_to_json(kern.log),
        },
    )

    kernel, log = kernelize_quasiwide(inst, QuasiWideParams())
    code, out, _ = run(capsys, "kernelize", str(path), "--strategy", "quasiwide")
    assert code == 0 and log.steps
    assert_one_rule_per_line(
        out,
        {
            "instance": serialize_instance(kernel),
            "kernel": kernel_to_json(kernel.graph, log),
            "rules": rules_to_json(log),
        },
    )


@pytest.mark.parametrize(
    "strategy, corpus, solver",
    [
        (
            "auto",
            lambda: [plant_isr_instance(gen_random_degenerate(250, 1, 1), 2, 1)],
            solve_isr_degenerate,
        ),
        ("quasiwide", reference.hub_corpus, lambda inst: solve_isr_quasiwide(inst, QuasiWideParams())),
        ("auto", reference.dsr_corpus, solve_dsr),
    ],
    ids=["isr-auto", "isr-quasiwide", "dsr-auto"],
)
def test_named_solvers_equal_the_cli(capsys, tmp_path, strategy, corpus, solver):
    """Each named solver is ``solve``'s pipeline: its kernel, rules, verdict
    and witness are those of ``solve``'s report, and its kernel and rules
    those ``kernelize`` writes, on a corpus where that kernel deletes."""
    path = tmp_path / "instance.txt"
    deleting = 0
    for inst in corpus():
        result = solver(inst)
        deleting += bool(result.log.steps)
        kernel = kernel_to_json(result.kernel.graph, result.log)
        rules = rules_to_json(result.log)
        path.write_text(serialize_instance(inst))
        code, out, _ = run(capsys, "solve", str(path), "--strategy", strategy)
        report = json.loads(out)
        assert code == cli._EXIT_CODES[result.outcome.verdict]
        assert report["answer"] == result.outcome.verdict.value
        assert report["kernel"] == kernel and report["rules"] == rules
        sequence = result.outcome.sequence
        assert report.get("sequence") == (
            sequence and [sorted(v + 1 for v in s) for s in sequence.sets]
        )
        code, out, _ = run(capsys, "kernelize", str(path), "--strategy", strategy)
        payload = json.loads(out)
        assert code == 0 and payload["kernel"] == kernel and payload["rules"] == rules
    assert deleting > 0


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


def test_stats_skips_bicliques_past_the_work_cap(capsys, tmp_path):
    """The n = 2000 forest has 1,015 vertices of degree 2 or more and 500 of
    degree 3 or more, so both exhaustive checks would try more left sides
    than ``graph.BICLIQUE_WORK_CAP`` allows."""
    path = tmp_path / "forest2000.isr"
    code, _, _ = run(capsys, "gen", "--n", "2000", "--d", "1", "--k", "2", "--seed", "1",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "stats", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["degeneracy"] == 1
    assert payload["contains_biclique"] == {"2": None, "3": None}


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


def test_class_threshold_below_2k_acts_as_2k(capsys, tmp_path):
    code, text, _ = run(capsys, "gen", "--n", "250", "--d", "1", "--k", "2", "--seed", "1")
    assert code == 0
    path = tmp_path / "forest.isr"
    path.write_text(text)
    reports = []
    for threshold in ("1", "4"):
        code, out, _ = run(
            capsys, "solve", str(path), "--strategy", "quasiwide", "--class-threshold", threshold
        )
        assert code == 0
        report = json.loads(out)
        del report["stats"]
        reports.append(report)
    assert reports[0]["rules"] and reports[0] == reports[1]


@pytest.mark.parametrize("command", ["solve", "kernelize"])
def test_quasiwide_flag_defaults_are_the_params_defaults(command):
    args = cli.build_parser().parse_args([command, "--strategy", "quasiwide"])
    params = tokenjump.QuasiWideParams(
        args.class_threshold, args.max_deletions, args.search_budget
    )
    assert params == tokenjump.QuasiWideParams()


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
    path.write_text(P4_TEXT.replace("s 1 3", "s 1 x"))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 65 and "line 5: expected an integer, got 'x'" in err


def test_unknown_flag_exits_64(capsys, p4_file):
    code, _, err = run(capsys, "solve", p4_file, "--bogus")
    assert code == 64


COMMANDS = ("solve", "kernelize", "verify", "gen", "convert", "stats")
# Newer Pythons list argparse choices without quotes.
INVALID_COMMAND = (
    r"tokenjump: error: argument command: invalid choice: 'bogus' \(choose from "
    + ", ".join(f"'?{name}'?" for name in COMMANDS)
    + r"\)\n"
)


@pytest.mark.parametrize(
    "argv, err",
    [
        ([], "tokenjump: error: the following arguments are required: command\n"),
        (["bogus"], INVALID_COMMAND),
        (["--verbose", "solve", "P4"], "tokenjump: error: unrecognized arguments: --verbose\n"),
        (["solve", "P4", "--bogus"], "tokenjump: error: unrecognized arguments: --bogus\n"),
    ],
)
def test_top_level_usage_errors(capsys, p4_file, argv, err):
    code, out, got = run(capsys, *[p4_file if a == "P4" else a for a in argv])
    assert (code, out) == (64, "")
    assert re.fullmatch(err, got) if argv == ["bogus"] else got == err


@pytest.mark.parametrize("argv", [["-h"], ["solve", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tokenjump" + (" solve" if argv[0] == "solve" else ""))
    if argv == ["-h"]:
        assert all(f"    {name} " in out for name in COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["solve", "-", "--strategy", "oracle", "--state-budget", "5", "--out", "-"],
        ["solve", "x.isr", "--class-threshold", "7", "--max-deletions", "0"],
        ["solve", "--", "-x"],
        ["kernelize", "x.isr", "--strategy", "quasiwide", "--search-budget", "3"],
        ["verify", "x.isr", "r.json", "--out", "v.json"],
        ["gen", "--n", "5", "--d", "1", "--k", "2", "--seed", "-4", "--problem", "dsr"],
        ["convert", "-"],
        ["stats", "x.isr", "--out", "s.json"],
        ["solve", "x.isr", "--strategy", "bogus"],
        ["solve", "x.isr", "--state-budget", "0"],
        ["solve", "a", "b"],
        ["verify"],
        ["gen", "--n", "5"],
        ["gen", "--n", "100001", "--d", "1", "--k", "2"],
        ["stats", "--strategy", "auto"],
    ],
)
def test_a_command_parses_as_the_top_level_parser_parses_it(argv):
    """``main`` hands a known command to that command's own parser."""

    def parse(parser):
        try:
            return parser(argv)
        except cli._UsageError as exc:
            return str(exc)

    assert parse(cli._parse_args) == parse(cli._PARSER.parse_args)


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


def test_gen_n_above_the_vertex_cap_exits_64(capsys):
    code, out, err = run(capsys, "gen", "--n", "100001", "--d", "1", "--k", "2")
    assert code == 64
    assert out == "" and "argument --n: must be <= 100000, got 100001" in err


def test_huge_header_exits_65_under_a_small_address_space(tmp_path):
    """The header is refused before any vertex is built: a child process
    with 256 MiB of address space exits 65, not 70 for exhausted memory."""
    path = tmp_path / "huge.isr"
    path.write_text("p isr 10000000000 0 1\ns 1\nt 1\n")
    limit = 256 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(tokenjump.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "tokenjump", "solve", str(path)],
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=cap,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 65, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "tokenjump: error: line 1: n must be <= 100000\n"


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
    "target, exc",
    [  # what the solve pipeline calls: the search under auto, the kernel under quasiwide
        ("tokenjump.cli.bfs_reconfig", RuntimeError("kernel bound violated")),
        ("tokenjump.cli.bfs_reconfig", MemoryError()),
        ("tokenjump.quasiwide.kernelize_quasiwide", RuntimeError("sunflower extraction failed")),
    ],
)
def test_internal_error_exits_70(capsys, monkeypatch, p4_file, target, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(target, fail)
    strategy = "quasiwide" if "quasiwide" in target else "auto"
    code, out, err = run(capsys, "solve", p4_file, "--strategy", strategy)
    assert code == 70
    assert out == ""
    assert err == f"tokenjump: internal error: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize(
    "argv", [["kernelize"], ["kernelize", "--strategy", "quasiwide"], ["solve"]]
)
def test_a_workspace_log_that_deletes_a_vertex_twice_exits_70(
    capsys, monkeypatch, tmp_path, argv
):
    """Each ISR kernel is the replay of its log, so a log that names its
    first vertex twice cannot ship with a kernel that deletes it once."""
    path = str(tmp_path / "forest.isr")
    assert main(["gen", "--n", "250", "--d", "1", "--k", "2", "--seed", "1", "--out", path]) == 0
    delete = degenerate.Workspace.delete

    def delete_first_twice(self, i, step):
        nb = delete(self, i, step)
        if len(self.log) == 1:
            self.log.append(step)
        return nb

    monkeypatch.setattr(degenerate.Workspace, "delete", delete_first_twice)
    code, out, err = run(capsys, *argv, path)
    assert code == 70 and out == ""
    assert err.startswith("tokenjump: internal error: KeyError: ")
    assert "not in graph" in err


def test_a_core_twin_log_that_deletes_each_vertex_twice_exits_70(
    capsys, monkeypatch, tmp_path
):
    """The DSR kernel is the replay of its log as well."""
    tree, gadget = str(tmp_path / "tree.isr"), tmp_path / "gadget.dsr"
    assert main(["gen", "--n", "4", "--d", "1", "--k", "2", "--seed", "1", "--out", tree]) == 0
    code, out, _ = run(capsys, "convert", tree)
    gadget.write_text(json.loads(out)["instance"])
    code, out, _ = run(capsys, "kernelize", str(gadget))
    assert code == 0 and json.loads(out)["rules"]

    class DoubledLog(ReductionLog):
        def append(self, step):
            super().append(step)
            super().append(step)

    monkeypatch.setattr(dsr, "ReductionLog", DoubledLog)
    code, out, err = run(capsys, "kernelize", str(gadget))
    assert code == 70 and out == ""
    assert "not in graph" in err


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


@pytest.mark.parametrize("command", ["solve", "kernelize", "verify"])
def test_out_into_missing_directory_exits_73_before_work(
    capsys, monkeypatch, tmp_path, p4_file, command
):
    report = tmp_path / "r.json"
    assert main(["solve", p4_file, "--out", str(report)]) == 0
    argv = [command, p4_file] + ([str(report)] if command == "verify" else [])

    def no_work(*args, **kwargs):
        raise AssertionError("the instance was read before --out was checked")

    monkeypatch.setattr(cli, "parse_instance", no_work)
    out_path = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 73 and out == ""
    assert err.startswith("tokenjump: error: ") and err.count("\n") == 1
    assert not out_path.parent.exists()


def test_out_that_is_a_directory_exits_73(capsys, tmp_path, p4_file):
    code, out, err = run(capsys, "solve", p4_file, "--out", str(tmp_path))
    assert code == 73 and out == ""
    assert err.startswith("tokenjump: error: ")


def test_write_failure_after_the_check_exits_73(capsys, monkeypatch, tmp_path, p4_file):
    monkeypatch.setattr(cli, "_check_out", lambda out: None)
    out_path = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "solve", p4_file, "--out", str(out_path))
    assert code == 73 and out == ""
    assert err.startswith("tokenjump: error: cannot write ")


def test_out_is_not_created_when_the_input_is_bad(capsys, tmp_path):
    bad = tmp_path / "bad.isr"
    bad.write_text("p isr 2 1 1\n")
    out_path = tmp_path / "r.json"
    code, _, _ = run(capsys, "solve", str(bad), "--out", str(out_path))
    assert code == 65
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["kernelize", "convert", "stats"])
def test_out_dash_writes_to_stdout(capsys, monkeypatch, tmp_path, p4_file, command):
    """``--out -`` names stdout, as ``-`` names stdin for an input."""
    monkeypatch.chdir(tmp_path)
    code, plain, _ = run(capsys, command, p4_file)
    assert code == 0 and plain
    assert run(capsys, command, p4_file, "--out", "-") == (0, plain, "")
    assert os.listdir(tmp_path) == ["p4.isr"]
