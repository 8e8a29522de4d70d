"""Spans around calls into each layer, recorded from outside ``src/``.

The tracer replaces the module bindings the pipelines call with timing
wrappers.  Spans nest on one stack, so a span's self time is its duration
minus the time its child spans cover.  Only totals per span name are kept.
A binding that no longer exists is reported as missing; the rest still run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Optional

from tokenjump import cli, degenerate, dsr, hardness, quasiwide
from tokenjump.graph import Graph

# Maps a call's arguments, result and duration to counters added to its span.
Hook = Optional[Callable[[tuple, Any, float], dict]]


class Span:
    __slots__ = ("calls", "total", "self_time", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0  # seconds, children included
        self.self_time = 0.0  # seconds, children excluded
        self.counts: dict[str, float] = defaultdict(float)


def _states(args, out, dur) -> dict:
    return {"states": out.states_explored}


def _bindings() -> list[tuple[Any, str, str, Hook]]:
    """(owner, attribute, span name, hook) for every wrapped binding."""
    return [
        (cli, "parse_instance", "instances.parse", None),
        (cli, "serialize_report", "instances.report", None),
        (Graph, "delete_vertex", "graph.delete_vertex", None),
        (Graph, "induced_subgraph", "graph.induced_subgraph", None),
        (degenerate, "degeneracy_order", "graph.degeneracy", None),
        (degenerate, "kernelize_degenerate", "degenerate.kernelize",
         lambda a, out, dur: {"deletions": len(out.log), "kernel_n": out.kernel.graph.n}),
        (degenerate, "remove_closed_twins", "degenerate.twin", None),
        (degenerate, "reduce_low_degree_once", "degenerate.lowdeg", None),
        (degenerate, "find_sunflower", "sunflower.find",
         lambda a, out, dur: {"family": len(a[0])}),
        (quasiwide, "remove_closed_twins", "degenerate.twin", None),
        (quasiwide, "kernelize_quasiwide", "quasiwide.kernelize",
         lambda a, out, dur: {"deletions": len(out[1]), "kernel_n": out[0].graph.n}),
        (quasiwide, "reduce_quasiwide_once", "quasiwide.once",
         lambda a, out, dur: {"wasted": dur if out is None else 0.0}),
        (quasiwide, "is_valid_sunflower", "sunflower.validate", None),
        (dsr, "kernelize_dsr", "dsr.kernelize", None),
        (dsr, "compute_bounded_core", "dsr.core",
         lambda a, out, dur: {"core_n": len(out.core)}),
        (dsr, "remove_core_twins", "dsr.core_twin",
         lambda a, out, dur: {"deletions": len(out[1])}),
        (cli, "bfs_reconfig", "engine.bfs", _states),
        (degenerate, "bfs_reconfig", "engine.bfs", _states),
        (quasiwide, "bfs_reconfig", "engine.bfs", _states),
        (dsr, "bfs_reconfig", "engine.bfs", _states),
        (hardness, "isr_to_dsr", "hardness.convert",
         lambda a, out, dur: {"gadget_n": out[0].graph.n}),
        (hardness, "map_sequence_back", "hardness.map_back", None),
    ]


class Tracer:
    """Installs the wrappers; records spans only while ``enabled`` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: dict[str, Span] = defaultdict(Span)
        self.missing: list[str] = []
        self._stack: list[float] = []

    def install(self) -> None:
        for owner, attr, name, hook in _bindings():
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, hook))

    def _wrap(self, original, name: str, hook: Hook):
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dur
                span = self.spans[name]
                span.calls += 1
                span.total += dur
                span.self_time += dur - children
            if hook is not None:
                for key, value in hook(args, out, dur).items():
                    span.counts[key] += value
            return out

        return traced
