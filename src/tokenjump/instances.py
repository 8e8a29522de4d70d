"""Problem instances: parsing, serialization, reports, generators, logs.

File format (line-oriented, ``#`` or ``c`` prefixes comments)::

    p <isr|dsr> <n> <m> <k>
    e <u> <v>          (m lines, 1 <= u < v <= n)
    s <v1> ... <vk>
    t <v1> ... <vk>

Vertices are 1-indexed in files and mapped to 0-indexed ids internally.
The header's n may be at most ``MAX_VERTICES``.
Reports are JSON objects with fields ``answer``, ``sequence`` (present iff
yes), ``kernel`` {n, m, deleted}, ``rules`` and ``stats``; all vertex ids in
reports use the 1-indexed file coordinates.  ``layout_json`` writes them, and
the CLI's other payloads, one top-level field and one rule per line.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .graph import Graph

REASON_BUDGET = "state budget exceeded"

# The parser builds all n vertices of the header, with or without edges.  An
# isolated vertex costs about 0.1 kB (0.16 kB at peak) and 0.2 us in an ISR
# graph's bitset index, and 0.3 kB (0.4 kB at peak) and 0.6 us in a DSR
# graph's adjacency sets (n = 100,000, Python 3.11.7), so a header alone
# could exhaust memory.
MAX_VERTICES = 100_000

RULE_TWIN = "twin"
RULE_SUNFLOWER = "sunflower-degenerate"
RULE_QUASIWIDE = "quasi-wide"
RULE_CORE_TWIN = "core-twin"
KNOWN_RULES = (RULE_TWIN, RULE_SUNFLOWER, RULE_QUASIWIDE, RULE_CORE_TWIN)


class Problem(str, Enum):
    ISR = "isr"
    DSR = "dsr"


class Verdict(str, Enum):
    """A search's answer, valued as the report's ``answer`` field."""

    YES = "yes"
    NO = "no"
    EXHAUSTED = "unknown"


class InstanceFormatError(ValueError):
    """Problem-instance text that cannot be parsed or violates an invariant."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ReportFormatError(ValueError):
    """Report JSON that does not match the expected schema."""


def infeasibility(graph: Graph, problem: Problem, s: frozenset[int]) -> tuple[int, ...]:
    """Why the set ``s`` of vertices of ``graph`` is infeasible; () when it is feasible.

    ISR: the least vertex of ``s`` with a neighbor in ``s``, and its least
    such neighbor.  DSR: the least vertex that the closed neighborhoods of
    ``s`` miss.
    """
    if problem is Problem.ISR:
        for u in sorted(s):
            inside = graph.neighbor_set(u) & s
            if inside:
                return u, min(inside)
        return ()
    missing = graph.vertex_set.difference(s, *map(graph.neighbor_set, s))
    return (min(missing),) if missing else ()


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
            if infeasibility(self.graph, self.problem, s):
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

    Both sunflower rules list the 2k petal centers the rule needs, in
    ascending id; their closed neighborhoods meet pairwise in exactly the
    core, and the first center is the deleted vertex.
    """

    rule: str
    vertex: int
    certificate: dict


@dataclass
class ReductionLog:
    steps: list[ReductionStep] = field(default_factory=list)

    def append(self, step: ReductionStep) -> None:
        self.steps.append(step)

    def deleted_vertices(self) -> list[int]:
        return [s.vertex for s in self.steps]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def replay_reductions(graph: Graph, log: ReductionLog) -> Graph:
    """``graph`` less the log's deletions; KeyError at a vertex absent or deleted twice."""
    left = set(graph.vertex_set)
    for step in log:
        if step.vertex not in left:
            raise KeyError(f"vertex {step.vertex} not in graph")
        left.remove(step.vertex)
    return graph if len(left) == graph.n else graph.induced_subgraph(left)


# -- instance text -----------------------------------------------------------


def _decode(data: str | bytes, error: type[ValueError]) -> str:
    """Text as given, or UTF-8 bytes decoded; ``error`` names a bad byte's offset."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"input is not UTF-8: invalid byte at offset {exc.start}") from None


def _int_error(parts: list[str], line_no: int) -> InstanceFormatError:
    """The error for the first of ``parts`` that ``int`` rejects (one must)."""
    for p in parts:
        try:
            int(p)
        except ValueError:
            break
    return InstanceFormatError(f"expected an integer, got {p!r}", line_no)


def _ints(parts: list[str], line_no: int) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise _int_error(parts, line_no) from None


def parse_instance(data: str | bytes) -> Instance:
    """The instance in ``data``; ``InstanceFormatError`` names the first fault.

    An ISR graph is built as its bitset index, a DSR graph as adjacency sets
    (see ``graph``).
    """
    data = _decode(data, InstanceFormatError)
    header: tuple[Problem, int, int, int] | None = None
    edge_lines: dict[tuple[int, int], int] = {}  # file edge -> its line
    source: list[int] | None = None
    target: list[int] | None = None

    for line_no, raw in enumerate(data.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] in "#c":
            continue
        tag = parts[0]
        if tag == "e" and header is not None:
            if len(parts) != 3:
                raise InstanceFormatError("edge line must be 'e <u> <v>'", line_no)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise _int_error(parts[1:], line_no) from None
            if not 1 <= u < v <= n:
                raise InstanceFormatError(
                    f"edge ({u}, {v}) must satisfy 1 <= u < v <= n", line_no
                )
            first = edge_lines.setdefault((u, v), line_no)
            if first != line_no:
                raise InstanceFormatError(
                    f"duplicate edge ({u}, {v}), first seen on line {first}", line_no
                )
            continue
        if tag == "p":
            if header is not None:
                raise InstanceFormatError("duplicate problem line", line_no)
            if len(parts) != 5:
                raise InstanceFormatError(
                    "problem line must be 'p <isr|dsr> <n> <m> <k>'", line_no
                )
            if parts[1] not in (Problem.ISR.value, Problem.DSR.value):
                raise InstanceFormatError(f"unknown problem tag {parts[1]!r}", line_no)
            n, m, k = _ints(parts[2:], line_no)
            if n < 1:
                raise InstanceFormatError("n must be >= 1", line_no)
            if n > MAX_VERTICES:
                raise InstanceFormatError(f"n must be <= {MAX_VERTICES}", line_no)
            if m < 0:
                raise InstanceFormatError("m must be >= 0", line_no)
            if k < 1:
                raise InstanceFormatError("k must be >= 1", line_no)
            header = (Problem(parts[1]), n, m, k)
        elif header is None:
            raise InstanceFormatError(f"{tag!r} line before the problem line", line_no)
        elif tag in ("s", "t"):
            if (source if tag == "s" else target) is not None:
                raise InstanceFormatError(f"duplicate {tag!r} line", line_no)
            vs = _ints(parts[1:], line_no)
            seen: set[int] = set()
            for v in vs:
                if not 1 <= v <= n:
                    raise InstanceFormatError(f"vertex {v} out of range 1..{n}", line_no)
                if v in seen:
                    raise InstanceFormatError(f"duplicate vertex {v} in {tag!r} line", line_no)
                seen.add(v)
            if tag == "s":
                source = [v - 1 for v in vs]
            else:
                target = [v - 1 for v in vs]
        else:
            raise InstanceFormatError(f"unknown line tag {tag!r}", line_no)

    if header is None:
        raise InstanceFormatError("missing problem line")
    problem, n, m, k = header
    if len(edge_lines) != m:
        raise InstanceFormatError(f"expected {m} edge lines, found {len(edge_lines)}")
    if source is None:
        raise InstanceFormatError("missing source line")
    if target is None:
        raise InstanceFormatError("missing target line")
    if problem is Problem.ISR:  # every ISR layer reads the bitset index only
        nbr = [0] * n
        for u, v in edge_lines:
            nbr[u - 1] |= 1 << v - 1
            nbr[v - 1] |= 1 << u - 1
        graph = Graph._of_masks(nbr)
    else:
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_lines:
            adj[u - 1].append(v - 1)
            adj[v - 1].append(u - 1)
        graph = Graph._of({v: frozenset(ns) for v, ns in enumerate(adj)})
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
    name = {old: str(i + 1) for i, old in enumerate(old_ids)}
    lines = []
    if old_ids != tuple(range(len(old_ids))):
        lines = [f"c map {name[old]} {old + 1}" for old in old_ids]
    lines.append(f"p {inst.problem.value} {g.n} {g.m} {inst.k}")
    for u in old_ids:
        lines += [f"e {name[u]} {name[w]}" for w in g.neighbors(u) if w > u]
    lines.append("s " + " ".join(name[v] for v in sorted(inst.source)))
    lines.append("t " + " ".join(name[v] for v in sorted(inst.target)))
    return "\n".join(lines) + "\n"


# -- reports -----------------------------------------------------------------


def rules_to_json(log: ReductionLog) -> list[dict]:
    """Render a reduction log in 1-indexed file coordinates.

    Every certificate value is a vertex or a list of vertices (see
    ``ReductionStep``), shifted by its shape.
    """
    return [
        {
            "rule": step.rule,
            "vertex": step.vertex + 1,
            "certificate": {
                key: value + 1 if isinstance(value, int) else [v + 1 for v in value]
                for key, value in step.certificate.items()
            },
        }
        for step in log
    ]


def kernel_to_json(kernel: Graph, log: ReductionLog) -> dict:
    """The ``kernel`` field of reports: size of the reduced graph, deletions."""
    return {
        "n": kernel.n,
        "m": kernel.m,
        "deleted": [v + 1 for v in log.deleted_vertices()],
    }


_compact = json.JSONEncoder(separators=(",", ":")).encode


def layout_json(payload: dict) -> str:
    """A JSON object with one top-level key per line and one ``rules`` entry per line.

    Each value is written compactly by the C encoder, so the text costs about
    what its ids cost, and a rule can be read (or diffed) as one line.
    """
    lines = []
    for key, value in payload.items():
        if key == "rules" and value:
            entries = ",\n".join("    " + _compact(rule) for rule in value)
            text = "[\n" + entries + "\n  ]"
        else:
            text = _compact(value)
        lines.append(f"  {_compact(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def serialize_report(outcome, log: ReductionLog, kernel: Graph, *, ms: int = 0) -> str:
    """Emit the JSON report for a solver outcome.

    ``outcome`` is an ``engine.SearchOutcome``, whose verdict's value is the
    report's ``answer``; ``kernel`` is the graph the search ran on (the
    input graph when no reduction was applied).
    """
    report: dict = {"answer": outcome.verdict.value}
    if outcome.verdict is Verdict.EXHAUSTED:
        report["reason"] = REASON_BUDGET
    if outcome.verdict is Verdict.YES:
        report["sequence"] = [
            sorted(v + 1 for v in s) for s in outcome.sequence.sets
        ]
    report["kernel"] = kernel_to_json(kernel, log)
    report["rules"] = rules_to_json(log)
    report["stats"] = {"states_explored": outcome.states_explored, "ms": int(ms)}
    return layout_json(report)


def _is_vertex(value) -> bool:
    """A 1-indexed vertex id; JSON ``true`` and ``false`` are not integers here."""
    return type(value) is int and value >= 1


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


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
    if answer not in [v.value for v in Verdict]:  # a list: the answer may be unhashable
        raise ReportFormatError(f"invalid answer {answer!r}")
    if (answer == "yes") != ("sequence" in report):
        raise ReportFormatError("sequence must be present iff the answer is yes")
    if "sequence" in report:
        seq = report["sequence"]
        if not isinstance(seq, list) or not seq:
            raise ReportFormatError("sequence must be a non-empty array of arrays")
        for entry in seq:
            if not isinstance(entry, list) or not all(_is_vertex(v) for v in entry):
                raise ReportFormatError("sequence entries must be arrays of 1-indexed vertices")
            if len(set(entry)) != len(entry):
                raise ReportFormatError("a sequence entry names a vertex twice")
    kernel = report.get("kernel")
    if (
        not isinstance(kernel, dict)
        or not _is_count(kernel.get("n"))
        or not _is_count(kernel.get("m"))
        or not isinstance(kernel.get("deleted"), list)
        or not all(_is_vertex(v) for v in kernel["deleted"])
    ):
        raise ReportFormatError("kernel must be {n, m, deleted}")
    rules = report.get("rules")
    if not isinstance(rules, list):
        raise ReportFormatError("rules must be an array")
    for rule in rules:
        if (
            not isinstance(rule, dict)
            or rule.get("rule") not in KNOWN_RULES
            or not _is_vertex(rule.get("vertex"))
            or not isinstance(rule.get("certificate"), dict)
        ):
            raise ReportFormatError("each rule must be {rule, vertex, certificate}")
    stats = report.get("stats")
    if (
        not isinstance(stats, dict)
        or not _is_count(stats.get("states_explored"))
        or type(stats.get("ms")) not in (int, float)
        or not 0 <= stats["ms"] < math.inf  # NaN fails both comparisons
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

    Returns None when sampling fails within 100*n attempts, and at once when
    k > n.  No claim is made about reconfigurability; the planted instance
    may be a yes or a no.
    """
    return _plant(Problem.ISR, _sample_independent, g, k, seed)


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
    return _plant(Problem.DSR, _sample_dominating, g, k, seed)


def _plant(
    problem: Problem, sample: Callable[..., Optional[frozenset[int]]], g: Graph, k: int, seed: int
) -> Optional[Instance]:
    """The first two sets ``sample`` draws in 100*n attempts, as source and
    target; None when it falls short, or at once when no k-subset exists."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > g.n:
        return None
    rng = random.Random(seed)
    source: Optional[frozenset[int]] = None
    for _ in range(100 * g.n):
        s = sample(g, k, rng)
        if s is None:
            continue
        if source is None:
            source = s
            continue
        return Instance(problem, g, k, source, s)
    return None
