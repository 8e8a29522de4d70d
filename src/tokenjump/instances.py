"""Problem instances: parsing, serialization, reports, generators, logs.

File format (line-oriented, ``#`` or ``c`` prefixes comments)::

    p <isr|dsr> <n> <m> <k>
    e <u> <v>          (m lines, 1 <= u < v <= n)
    s <v1> ... <vk>
    t <v1> ... <vk>

Vertices are 1-indexed in files and mapped to 0-indexed ids internally.
Reports are JSON objects with fields ``answer``, ``sequence`` (present iff
yes), ``kernel`` {n, m, deleted}, ``rules`` and ``stats``; all vertex ids in
reports use the 1-indexed file coordinates.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .graph import Graph

REASON_BUDGET = "state budget exceeded"

RULE_TWIN = "twin"
RULE_SUNFLOWER = "sunflower-degenerate"
RULE_QUASIWIDE = "quasi-wide"
RULE_CORE_TWIN = "core-twin"
KNOWN_RULES = (RULE_TWIN, RULE_SUNFLOWER, RULE_QUASIWIDE, RULE_CORE_TWIN)


class Problem(str, Enum):
    ISR = "isr"
    DSR = "dsr"


class InstanceFormatError(ValueError):
    """Problem-instance text that cannot be parsed or violates an invariant."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ReportFormatError(ValueError):
    """Report JSON that does not match the expected schema."""


def is_feasible(graph: Graph, problem: Problem, subset: Iterable[int]) -> bool:
    """ISR: no edge inside the set.  DSR: closed neighborhood covers V."""
    s = frozenset(subset)
    if problem is Problem.ISR:
        return all(not (graph.neighbor_set(v) & s) for v in s)
    covered: set[int] = set()
    for v in s:
        covered.add(v)
        covered.update(graph.neighbor_set(v))
    return covered == set(graph.vertex_set)


@dataclass(frozen=True)
class Instance:
    """A reconfiguration instance; invariants are enforced at construction."""

    problem: Problem
    graph: Graph
    k: int
    source: frozenset[int]
    target: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", frozenset(self.source))
        object.__setattr__(self, "target", frozenset(self.target))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for name, s in (("source", self.source), ("target", self.target)):
            if len(s) != self.k:
                raise ValueError(
                    f"{name} set has {len(s)} vertices, expected k={self.k}"
                )
            unknown = s - self.graph.vertex_set
            if unknown:
                raise ValueError(f"{name} set names unknown vertex {min(unknown)}")
            if not is_feasible(self.graph, self.problem, s):
                kind = "independent" if self.problem is Problem.ISR else "dominating"
                raise ValueError(f"{name} set is not {kind}")

    @property
    def anchors(self) -> frozenset[int]:
        return self.source | self.target

    def with_graph(self, graph: Graph) -> "Instance":
        return dataclasses.replace(self, graph=graph)


@dataclass(frozen=True)
class ReductionStep:
    """One fired rule: which vertex was deleted and the certificate for it.

    Certificate payloads by rule:
      twin                  {"survivor": v}
      sunflower-degenerate  {"core": [...], "petal_centers": [...]}
      quasi-wide            {"core": [...], "petal_centers": [...], "deletions": [...]}
      core-twin             {"survivor": v, "shared_core_neighborhood": [...]}
    """

    rule: str
    vertex: int
    certificate: dict


@dataclass
class ReductionLog:
    steps: list[ReductionStep] = field(default_factory=list)

    def append(self, step: ReductionStep) -> None:
        self.steps.append(step)

    def extend(self, steps: Iterable[ReductionStep]) -> None:
        self.steps.extend(steps)

    def deleted_vertices(self) -> list[int]:
        return [s.vertex for s in self.steps]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def replay_reductions(graph: Graph, log: ReductionLog) -> Graph:
    """Re-apply the log's deletions in order against ``graph``."""
    for step in log:
        graph = graph.delete_vertex(step.vertex)
    return graph


# -- instance text -----------------------------------------------------------


def _decode(data: str | bytes, error: type[ValueError]) -> str:
    """Text as given, or UTF-8 bytes decoded; ``error`` names a bad byte's offset."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"input is not UTF-8: invalid byte at offset {exc.start}") from None


def parse_instance(data: str | bytes) -> Instance:
    data = _decode(data, InstanceFormatError)
    header: tuple[Problem, int, int, int] | None = None
    edges: list[tuple[int, int]] = []
    edge_lines: dict[tuple[int, int], int] = {}
    source: list[int] | None = None
    target: list[int] | None = None

    def fail(msg: str, line_no: int) -> InstanceFormatError:
        return InstanceFormatError(msg, line=line_no)

    def ints(parts: list[str], line_no: int) -> list[int]:
        out = []
        for p in parts:
            try:
                out.append(int(p))
            except ValueError:
                raise fail(f"expected an integer, got {p!r}", line_no) from None
        return out

    for line_no, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if header is not None:
                raise fail("duplicate problem line", line_no)
            if len(parts) != 5:
                raise fail("problem line must be 'p <isr|dsr> <n> <m> <k>'", line_no)
            if parts[1] not in (Problem.ISR.value, Problem.DSR.value):
                raise fail(f"unknown problem tag {parts[1]!r}", line_no)
            n, m, k = ints(parts[2:], line_no)
            if n < 1:
                raise fail("n must be >= 1", line_no)
            if m < 0:
                raise fail("m must be >= 0", line_no)
            if k < 1:
                raise fail("k must be >= 1", line_no)
            header = (Problem(parts[1]), n, m, k)
            continue
        if header is None:
            raise fail(f"{tag!r} line before the problem line", line_no)
        problem, n, m, k = header
        if tag == "e":
            if len(parts) != 3:
                raise fail("edge line must be 'e <u> <v>'", line_no)
            u, v = ints(parts[1:], line_no)
            if not (1 <= u < v <= n):
                raise fail(f"edge ({u}, {v}) must satisfy 1 <= u < v <= n", line_no)
            if (u, v) in edge_lines:
                raise fail(
                    f"duplicate edge ({u}, {v}), first seen on line {edge_lines[(u, v)]}",
                    line_no,
                )
            edge_lines[(u, v)] = line_no
            edges.append((u - 1, v - 1))
        elif tag in ("s", "t"):
            if (source if tag == "s" else target) is not None:
                raise fail(f"duplicate {tag!r} line", line_no)
            vs = ints(parts[1:], line_no)
            for v in vs:
                if not (1 <= v <= n):
                    raise fail(f"vertex {v} out of range 1..{n}", line_no)
            if tag == "s":
                source = [v - 1 for v in vs]
            else:
                target = [v - 1 for v in vs]
        else:
            raise fail(f"unknown line tag {tag!r}", line_no)

    if header is None:
        raise InstanceFormatError("missing problem line")
    problem, n, m, k = header
    if len(edges) != m:
        raise InstanceFormatError(f"expected {m} edge lines, found {len(edges)}")
    if source is None:
        raise InstanceFormatError("missing source line")
    if target is None:
        raise InstanceFormatError("missing target line")
    graph = Graph(range(n), edges)
    try:
        return Instance(problem, graph, k, frozenset(source), frozenset(target))
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def serialize_instance(inst: Instance) -> str:
    """Inverse of ``parse_instance`` for graphs with dense 0-based ids.

    Graphs whose ids are not dense (kernels after deletions) are renumbered in
    ascending id order; the old ids are recorded in ``c map <new> <old>``
    comment lines, both in 1-indexed file coordinates.
    """
    g = inst.graph
    old_ids = g.vertices
    new_of = {old: i + 1 for i, old in enumerate(old_ids)}
    dense = all(old + 1 == new for old, new in new_of.items())
    lines = []
    if not dense:
        for old in old_ids:
            lines.append(f"c map {new_of[old]} {old + 1}")
    lines.append(f"p {inst.problem.value} {g.n} {g.m} {inst.k}")
    for u, v in g.edges():
        a, b = sorted((new_of[u], new_of[v]))
        lines.append(f"e {a} {b}")
    lines.append("s " + " ".join(str(new_of[v]) for v in sorted(inst.source)))
    lines.append("t " + " ".join(str(new_of[v]) for v in sorted(inst.target)))
    return "\n".join(lines) + "\n"


# -- reports -----------------------------------------------------------------


def rules_to_json(log: ReductionLog) -> list[dict]:
    """Render a reduction log in 1-indexed file coordinates."""
    return [
        {
            "rule": step.rule,
            "vertex": step.vertex + 1,
            "certificate": _shift_coords(step.certificate),
        }
        for step in log
    ]


def _shift_coords(value):
    if isinstance(value, dict):
        return {k: _shift_coords(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_shift_coords(v) for v in value]
    if isinstance(value, int):
        return value + 1
    return value


def serialize_report(outcome, log: ReductionLog, kernel: Graph, *, ms: int = 0) -> str:
    """Emit the JSON report for a solver outcome.

    ``outcome`` is an ``engine.SearchOutcome``; ``kernel`` is the graph the
    search ran on (the input graph when no reduction was applied).
    """
    from .engine import Verdict  # local import: engine depends on this module

    answer = {
        Verdict.YES: "yes",
        Verdict.NO: "no",
        Verdict.EXHAUSTED: "unknown",
    }[outcome.verdict]
    report: dict = {"answer": answer}
    if answer == "unknown":
        report["reason"] = REASON_BUDGET
    if answer == "yes":
        report["sequence"] = [
            sorted(v + 1 for v in s) for s in outcome.sequence.sets
        ]
    report["kernel"] = {
        "n": kernel.n,
        "m": kernel.m,
        "deleted": [v + 1 for v in log.deleted_vertices()],
    }
    report["rules"] = rules_to_json(log)
    report["stats"] = {"states_explored": outcome.states_explored, "ms": int(ms)}
    return json.dumps(report, indent=2) + "\n"


def parse_report(data: str | bytes) -> dict:
    """Parse and validate a report; returns the JSON object (file coordinates)."""
    data = _decode(data, ReportFormatError)
    try:
        report = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        raise ReportFormatError(f"report is not valid JSON: {exc}") from None
    if not isinstance(report, dict):
        raise ReportFormatError("report must be a JSON object")
    answer = report.get("answer")
    if answer not in ("yes", "no", "unknown"):
        raise ReportFormatError(f"invalid answer {answer!r}")
    if (answer == "yes") != ("sequence" in report):
        raise ReportFormatError("sequence must be present iff the answer is yes")
    if "sequence" in report:
        seq = report["sequence"]
        if not isinstance(seq, list) or not seq:
            raise ReportFormatError("sequence must be a non-empty array of arrays")
        for entry in seq:
            if not isinstance(entry, list) or not all(
                isinstance(v, int) and v >= 1 for v in entry
            ):
                raise ReportFormatError("sequence entries must be arrays of 1-indexed vertices")
    kernel = report.get("kernel")
    if (
        not isinstance(kernel, dict)
        or not isinstance(kernel.get("n"), int)
        or not isinstance(kernel.get("m"), int)
        or not isinstance(kernel.get("deleted"), list)
        or not all(isinstance(v, int) and v >= 1 for v in kernel["deleted"])
    ):
        raise ReportFormatError("kernel must be {n, m, deleted}")
    rules = report.get("rules")
    if not isinstance(rules, list):
        raise ReportFormatError("rules must be an array")
    for rule in rules:
        if (
            not isinstance(rule, dict)
            or rule.get("rule") not in KNOWN_RULES
            or not isinstance(rule.get("vertex"), int)
            or not isinstance(rule.get("certificate"), dict)
        ):
            raise ReportFormatError("each rule must be {rule, vertex, certificate}")
    stats = report.get("stats")
    if (
        not isinstance(stats, dict)
        or not isinstance(stats.get("states_explored"), int)
        or stats["states_explored"] < 0
        or not isinstance(stats.get("ms"), (int, float))
        or stats["ms"] < 0
    ):
        raise ReportFormatError("stats must be {states_explored, ms}")
    return report


# -- generators ---------------------------------------------------------------


def gen_random_degenerate(n: int, d: int, seed: int) -> Graph:
    """Random graph with degeneracy <= d via iterative vertex addition.

    Vertex i attaches to exactly min(d, i) uniformly chosen earlier vertices,
    so m <= d*n by construction.  Deterministic in ``seed``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    for i in range(1, n):
        for j in rng.sample(range(i), min(d, i)):
            edges.append((j, i))
    return Graph(range(n), edges)


def _sample_independent(g: Graph, k: int, rng: random.Random) -> Optional[frozenset[int]]:
    pool = list(g.vertices)
    rng.shuffle(pool)
    chosen: set[int] = set()
    for v in pool:
        if len(chosen) == k:
            break
        if not (g.neighbor_set(v) & chosen):
            chosen.add(v)
    return frozenset(chosen) if len(chosen) == k else None


def plant_isr_instance(g: Graph, k: int, seed: int) -> Optional[Instance]:
    """Sample source and target independent sets of size k by randomized greedy.

    Returns None when sampling fails within 100*n attempts.  No claim is made
    about reconfigurability; the planted instance may be a yes or a no.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = random.Random(seed)
    source: Optional[frozenset[int]] = None
    for _ in range(100 * g.n):
        s = _sample_independent(g, k, rng)
        if s is None:
            continue
        if source is None:
            source = s
            continue
        return Instance(Problem.ISR, g, k, source, s)
    return None


def _sample_dominating(g: Graph, k: int, rng: random.Random) -> Optional[frozenset[int]]:
    chosen: set[int] = set()
    uncovered = set(g.vertex_set)
    while uncovered and len(chosen) < k:
        u = rng.choice(sorted(uncovered))
        v = rng.choice(sorted(g.closed_neighbor_set(u)))
        chosen.add(v)
        uncovered -= g.closed_neighbor_set(v)
    if uncovered:
        return None
    pool = [v for v in g.vertices if v not in chosen]
    rng.shuffle(pool)
    while len(chosen) < k and pool:
        chosen.add(pool.pop())
    return frozenset(chosen) if len(chosen) == k else None


def plant_dsr_instance(g: Graph, k: int, seed: int) -> Optional[Instance]:
    """Sample source and target dominating sets of size k by randomized greedy."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = random.Random(seed)
    source: Optional[frozenset[int]] = None
    for _ in range(100 * g.n):
        s = _sample_dominating(g, k, rng)
        if s is None:
            continue
        if source is None:
            source = s
            continue
        return Instance(Problem.DSR, g, k, source, s)
    return None
