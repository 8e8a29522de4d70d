"""Benchmark for the tokenjump solvers: one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload isr-sparse --seed 1 --seconds 35 --trace 0

The workload runs in a child process under an address-space limit, so a
runaway request becomes a counted failure and ``peak_rss_mb`` belongs to
that workload alone.  Load is one client in a closed loop: the next request
is sent when the previous one has returned and been checked.  End-to-end
times are scaled to a reference host speed measured by a fixed probe run
between requests (see calibrate.py); the raw wall times are printed on the
``#`` lines.  The last stdout line is the JSON result: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import HostSpeed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "answers.json"
ANSWER_SEEDS = range(11)  # seeds whose oracle answers are stored
MEMORY_LIMIT = 2 << 30  # bytes of address space for the workload process
SETUP_REPEATS = 3  # set-ups per run at least; setup_s is their median
SETUP_MIN_S = 4.0  # cheap set-ups repeat until they have taken this long
MIN_PASSES = 2
MIN_CASES = 100  # so that at least 10 samples lie beyond the 90th percentile
CHILD_TIMEOUT_S = 170


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program() -> None:
    """Import tokenjump from this checkout's src/, never from an installed copy."""
    if not (SRC / "tokenjump" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tokenjump sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tokenjump

    if Path(tokenjump.__file__).resolve().parent != SRC / "tokenjump":
        sys.exit(f"perfbench: imported tokenjump from {tokenjump.__file__}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tokenjump").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def pool_digest(cases) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(f"{case.strategy}\n{case.text}\0".encode())
    return h.hexdigest()[:16]


def answers(cases) -> str:
    """One token per case: the oracle's answer and witness length, then, for a
    gadget, the answer of the ISR instance it came from (``y4y``, ``n``)."""
    return " ".join(
        c.expected.answer[0]
        + ("" if c.expected.length is None else str(c.expected.length))
        + (c.source_answer[0] if c.strategy == "gadget" else "")
        for c in cases
    )


# -- the workload process -------------------------------------------------------


def _setup(workload: str, seed: int):
    """Instance generation, oracle answers and warm-up: what ``setup_s`` times."""
    from workloads import build_cases, run_request

    start = time.perf_counter()
    cases = build_cases(workload, seed)
    for strategy in sorted({c.strategy for c in cases}):
        run_request(next(c for c in cases if c.strategy == strategy))
    return cases, time.perf_counter() - start


def _self_test() -> list[str]:
    import random

    from check import self_test
    from workloads import Case, _pendant_dsr, oracle, run_request, serialize_instance

    inst = _pendant_dsr(random.Random("self-test"), 14, 3)
    text = serialize_instance(inst)
    case = Case(text, "auto", inst, oracle(inst), inst, "yes")
    return self_test(case, run_request(case))


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def _stored_answers_problem(workload: str, seed: int, cases) -> str | None:
    if seed not in ANSWER_SEEDS or not ANSWERS.is_file():
        return None
    stored = json.loads(ANSWERS.read_text())[workload].get(str(seed))
    if stored is None:
        return None
    if stored["pool"] != pool_digest(cases):
        return "generated pool differs from the one the stored answers describe"
    if stored["answers"] != answers(cases):
        return "oracle answers differ from the stored answers"
    return None


def run_workload(args) -> dict:
    from check import Tally, judge
    from spans import Tracer
    from workloads import run_request

    problems = [f"self-test: {p}" for p in _self_test()]
    tracer = Tracer()
    if args.trace:
        tracer.install()
    # Only the first pool is kept, so peak_rss_mb does not grow with the
    # number of set-ups; the others are compared with it and dropped.
    cases, setup_s = _setup(args.workload, args.seed)
    setup_times = [setup_s]
    oracle_ms = [c.expected.oracle_ms for c in cases]
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < 3 * SETUP_REPEATS
    ):
        again, setup_s = _setup(args.workload, args.seed)
        setup_times.append(setup_s)
        if answers(again) != answers(cases) or pool_digest(again) != pool_digest(cases):
            problems.append("set-up is not deterministic")
        oracle_ms = [min(t, c.expected.oracle_ms) for t, c in zip(oracle_ms, again)]
        del again
    stored = _stored_answers_problem(args.workload, args.seed, cases)
    if stored:
        problems.append(stored)

    if len(cases) < MIN_CASES:
        problems.append(f"pool has {len(cases)} cases, fewer than {MIN_CASES}")

    tally = Tally()
    speed = HostSpeed()
    gc.collect()
    gc.freeze()  # the pool and set-up objects stay out of every collection
    # Wall times of each case's sends, untraced and traced.  The shared host
    # runs everything up to twice as slow for tens of seconds at a time, so
    # each case is sent again and again over the whole run, its time is the
    # median of its sends, and every untraced send is scaled afterwards by
    # the host-speed probes taken around it.
    times = {False: [[] for _ in cases], True: [[] for _ in cases]}
    untraced = []  # (case, midpoint, wall time) of each untraced send
    ok = [True] * len(cases)
    sent = [0] * len(cases)  # traced sends per case
    traced_s = 0.0  # total time of the traced sends
    kernel_n_sum = 0  # over the first pass, so it does not depend on timing
    deadline = time.perf_counter() + args.seconds
    step = 0
    # At least MIN_PASSES whole passes over the pool, then on to the deadline.
    while step < MIN_PASSES * len(cases) or time.perf_counter() < deadline:
        i = step % len(cases)
        case = cases[i]
        # The traced run sends every request twice, untraced and traced,
        # in alternating order; the paired difference is the overhead.
        modes = [False] if not args.trace else [i % 2 == 0, i % 2 == 1]
        for traced in modes:
            speed.tick()
            tracer.enabled = traced
            result = error = None
            start = time.perf_counter()
            try:
                result = run_request(case)
            except Exception as exc:  # a crash is a counted failure
                error = exc
            elapsed = time.perf_counter() - start
            tracer.enabled = False
            times[traced][i].append(elapsed)
            if not traced:
                untraced.append((i, start + elapsed / 2, elapsed))
            else:
                traced_s += elapsed
                sent[i] += 1
            passed = judge(tally, case, result, error)
            ok[i] = ok[i] and passed
            if passed and step < len(cases) and not traced:
                kernel_n_sum += json.loads(result.report)["kernel"]["n"]
        step += 1
    speed.tick()
    passes = step / len(cases)
    scaled = [[] for _ in cases]
    for i, mid, elapsed in untraced:
        scaled[i].append(elapsed * speed.scale(mid))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    mismatches = sum(c.source_answer != c.expected.answer for c in cases)
    info = {
        "workload": args.workload, "seed": args.seed, "cases": len(cases),
        "passes": round(passes, 2), "pool_digest": pool_digest(cases),
        "source_sha256": source_digest(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "failures": dict(tally.reasons),
        "gadget_verdict_mismatches": mismatches, "missing_spans": tracer.missing,
        "probe_ms_median": round(statistics.median(speed.took) * 1000, 3),
        "wall_solve_ms_p50": round(statistics.median(_medians(times[False])) * 1000, 3),
        "wall_setup_s": round(statistics.median(setup_times), 3),
        "problems": problems,
    }
    if args.trace:
        oracle_s = sum(ms / 1000 * n for ms, n in zip(oracle_ms, sent))
        metrics = per_layer(tracer, _medians(times[True]), _medians(times[False]),
                            sum(sent), traced_s, oracle_s)
        metrics["hardness.verdict_mismatches"] = (mismatches, "count")
    else:
        case_s = sorted(_medians(scaled))
        metrics = {
            "solves_per_s": (sum(ok) / sum(case_s), "1/s"),
            "solve_ms_p50": (statistics.median(case_s) * 1000, "ms"),
            "solve_ms_p90": (_percentile(case_s, 0.9) * 1000, "ms"),
            "ok_share": ((tally.attempted - tally.failed) / tally.attempted, "share"),
            "kernel_n_sum": (kernel_n_sum, "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            # Set-up ran just before the loop; the whole run's probe median
            # scales it, as single probes around a set-up scatter too much.
            "setup_s": (statistics.median(setup_times) * speed.run_scale(), "s"),
        }
    return {
        "info": info,
        "result": {
            "correct": not problems and tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def _medians(sends: list[list[float]]) -> list[float]:
    return [statistics.median(s) for s in sends]


def per_layer(tracer, traced_case_s, untraced_case_s, requests: int, request_s: float,
              oracle_s: float) -> dict:
    """Per-layer figures of the traced sends, per request unless named a mean."""
    spans = tracer.spans

    def ms(name, inclusive=False):
        s = spans.get(name)
        if s is None:
            return 0.0
        return (s.total if inclusive else s.self_time) * 1000 / requests

    def calls(name):
        s = spans.get(name)
        return s.calls / requests if s else 0.0

    def mean(name, counter):
        s = spans.get(name)
        return s.counts[counter] / s.calls if s and s.calls else 0.0

    def count(name, counter):
        s = spans.get(name)
        return s.counts[counter] / requests if s else 0.0

    reduce_s = sum(
        spans[n].total for n in ("degenerate.kernelize", "quasiwide.kernelize", "dsr.kernelize")
        if n in spans
    )
    bfs = spans.get("engine.bfs")
    overhead = statistics.median(t - u for t, u in zip(traced_case_s, untraced_case_s))
    return {
        "instances.parse_ms": (ms("instances.parse"), "ms"),
        "instances.report_ms": (ms("instances.report"), "ms"),
        "graph.delete_vertex_calls": (calls("graph.delete_vertex"), "count"),
        "graph.delete_vertex_ms": (ms("graph.delete_vertex"), "ms"),
        "graph.degeneracy_calls": (calls("graph.degeneracy"), "count"),
        "graph.degeneracy_ms": (ms("graph.degeneracy"), "ms"),
        "degenerate.kernelize_ms": (ms("degenerate.kernelize", inclusive=True), "ms"),
        "degenerate.twin_ms": (ms("degenerate.twin"), "ms"),
        "degenerate.lowdeg_ms": (ms("degenerate.lowdeg"), "ms"),
        "degenerate.deletions": (mean("degenerate.kernelize", "deletions"), "count"),
        "degenerate.kernel_n": (mean("degenerate.kernelize", "kernel_n"), "count"),
        "sunflower.find_calls": (calls("sunflower.find"), "count"),
        "sunflower.find_ms": (ms("sunflower.find"), "ms"),
        "sunflower.family_size_mean": (mean("sunflower.find", "family"), "count"),
        "sunflower.validate_ms": (ms("sunflower.validate"), "ms"),
        "quasiwide.kernelize_ms": (ms("quasiwide.kernelize", inclusive=True), "ms"),
        "quasiwide.deletions": (mean("quasiwide.kernelize", "deletions"), "count"),
        "quasiwide.wasted_ms": (count("quasiwide.once", "wasted") * 1000, "ms"),
        "quasiwide.kernel_n": (mean("quasiwide.kernelize", "kernel_n"), "count"),
        "dsr.core_ms": (ms("dsr.core"), "ms"),
        "dsr.core_n": (mean("dsr.core", "core_n"), "count"),
        "dsr.core_twin_ms": (ms("dsr.core_twin"), "ms"),
        "dsr.core_twin_deletions": (mean("dsr.core_twin", "deletions"), "count"),
        "engine.bfs_calls": (calls("engine.bfs"), "count"),
        "engine.bfs_ms": (ms("engine.bfs"), "ms"),
        "engine.bfs_states": (count("engine.bfs", "states"), "count"),
        "engine.states_per_s": (
            bfs.counts["states"] / bfs.total if bfs and bfs.total else 0.0, "1/s"),
        "hardness.convert_ms": (ms("hardness.convert"), "ms"),
        "hardness.gadget_n": (mean("hardness.convert", "gadget_n"), "count"),
        "hardness.map_back_ms": (ms("hardness.map_back"), "ms"),
        "pipeline.reduce_share": (reduce_s / request_s, "share"),
        "pipeline.reduce_vs_oracle": (reduce_s / oracle_s if oracle_s else 0.0, "ratio"),
        "trace.overhead_ms": (overhead * 1000, "ms"),
    }


def _child_main(args) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    sys.path.insert(0, str(HERE))
    out = run_workload(args)
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_program()
    if args.child:
        return _child_main(args)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: workload {args.workload} ran past {CHILD_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"perfbench: workload process exited with {proc.returncode}")
    info, result = json.loads(lines[-2]), lines[-1]
    for key, value in info.items():
        print(f"# {key}: {value}")
    print(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
