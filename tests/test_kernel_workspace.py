"""The workspace kernels against the per-deletion loop they replaced.

``reference.kernelize_degenerate`` and ``reference.kernelize_quasiwide``
restart every rule from scratch after each deletion; the kernels must give
the same logs, kernels and d on inputs where the rules delete most vertices.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tokenjump import (
    Graph,
    Instance,
    Problem,
    QuasiWideParams,
    degeneracy_order,
    gen_random_degenerate,
    kernelize_degenerate,
    kernelize_quasiwide,
    plant_isr_instance,
)
from tokenjump import degenerate, graph, quasiwide

import reference


def degenerate_run(inst):
    kern = kernelize_degenerate(inst)
    return kern.kernel, kern.log, kern.d


def twins_follow_rule_deletions(log) -> bool:
    steps = log.steps
    return any(a.rule != "twin" and b.rule == "twin" for a, b in zip(steps, steps[1:]))


def test_degenerate_kernel_matches_per_deletion_loop():
    for inst in reference.deletion_corpus():
        ours = degenerate_run(inst)
        assert ours == reference.kernelize_degenerate(inst)
        assert twins_follow_rule_deletions(ours[1])


def test_degeneracy_falls_while_the_rule_deletes():
    falls = [
        inst
        for inst in reference.deletion_corpus()
        if kernelize_degenerate(inst).d < degeneracy_order(inst.graph).d
    ]
    assert len(falls) == 2
    for inst in falls:
        assert degeneracy_order(inst.graph).d == 2
        assert kernelize_degenerate(inst).d == 0


def test_quasiwide_kernel_matches_per_deletion_loop():
    for inst in reference.deletion_corpus():
        # forests under the default search, the k = 1 graphs at threshold 2k
        params = QuasiWideParams() if inst.k == 2 else QuasiWideParams(class_threshold=2)
        ours = kernelize_quasiwide(inst, params)
        assert ours == reference.kernelize_quasiwide(inst, params)
        assert twins_follow_rule_deletions(ours[1])


@st.composite
def sparse_instances(draw):
    """k = 1 graphs on up to 24 vertices with at most n edges."""
    n = draw(st.integers(2, 24))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=n))
    source, target = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return Instance(Problem.ISR, Graph(range(n), edges), 1, {source}, {target})


@settings(deadline=None, max_examples=80)
@given(
    sparse_instances(),
    st.builds(
        QuasiWideParams,
        class_threshold=st.integers(2, 4),
        max_deletions=st.integers(0, 2),
        search_budget=st.integers(1, 40),
    ),
)
def test_kernels_match_per_deletion_loop_on_small_graphs(inst, params):
    assert degenerate_run(inst) == reference.kernelize_degenerate(inst)
    assert kernelize_quasiwide(inst, params) == reference.kernelize_quasiwide(inst, params)


def test_kernels_rebuild_nothing_per_deletion(monkeypatch):
    """Graph copies, bitset indexes and degeneracy orders do not grow with deletions."""
    inst = plant_isr_instance(gen_random_degenerate(1000, 1, 1), 2, 1)
    calls: Counter[str] = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("delete_vertex", "induced_subgraph"):
        monkeypatch.setattr(Graph, name, counted(name, getattr(Graph, name)))
    for module in (graph, degenerate, quasiwide):
        for name in ("bitset_index", "degeneracy_order"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    kernels = [
        (lambda: len(kernelize_degenerate(inst).log), 833),
        (lambda: len(kernelize_quasiwide(inst, QuasiWideParams())[1]), 950),
    ]
    for run, deletions in kernels:
        calls.clear()
        assert run() == deletions
        assert calls["bitset_index"] >= 1
        assert max(calls.values()) <= 2, dict(calls)


def test_hopeless_scattered_search_computes_few_balls(monkeypatch):
    """A search that fails at every level rules most deletion sets out unswept."""
    inst = plant_isr_instance(gen_random_degenerate(60, 3, 1), 2, 1)
    calls = 0
    ball2_mask = quasiwide._ball2_mask

    def counted(*args):
        nonlocal calls
        calls += 1
        return ball2_mask(*args)

    monkeypatch.setattr(quasiwide, "_ball2_mask", counted)
    kernel, log = kernelize_quasiwide(inst, QuasiWideParams())
    assert len(log) == 0 and kernel is inst
    assert 0 < calls <= 1000


def test_scattered_search_that_succeeds_soon_compares_no_pairs(monkeypatch):
    """A hub whose deletion scatters its leaves, ranked behind a decoy.

    Each round fails at B = {} and at B = {decoy}, then succeeds at
    B = {hub}: no round pays for comparing the pool's balls pairwise, and
    the balls computed per deletion stay linear in the pool.
    """
    n = 150
    edges = [(0, v) for v in range(1, n + 1)]
    for y in range(n + 2, 2 * n + 2):
        edges += [(n + 1, y), (1 + y % 2, y)]
    inst = Instance(Problem.ISR, Graph(range(2 * n + 2), edges), 2, {1, 2}, {3, 4})
    calls: Counter[str] = Counter()
    for name in ("_ball2_mask", "_conflicts"):
        fn = getattr(quasiwide, name)

        def counted(*args, name=name, fn=fn):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(quasiwide, name, counted)
    kernel, log = kernelize_quasiwide(inst, QuasiWideParams())
    rounds = sum(step.rule == "quasi-wide" for step in log.steps)
    assert rounds >= n
    assert calls["_conflicts"] == 0
    assert calls["_ball2_mask"] <= 2 * n * rounds


def test_unreduced_instance_is_returned_as_is():
    inst = reference.isr_corpus()[0][0]
    kern = kernelize_degenerate(inst)
    assert len(kern.log) == 0 and kern.kernel is inst
    kernel, log = kernelize_quasiwide(inst, QuasiWideParams())
    assert len(log) == 0 and kernel is inst


@pytest.mark.parametrize("k", [1, 2])
def test_isolated_vertices_fall_to_the_threshold(k):
    # an edgeless graph has d = 0, so 2k - 1 non-anchor vertices are left
    inst = Instance(
        Problem.ISR, Graph(range(30)), k, set(range(k)), set(range(k, 2 * k))
    )
    kern = kernelize_degenerate(inst)
    assert kern.kernel.graph.n == 2 * k + 2 * k - 1
    assert degenerate_run(inst) == reference.kernelize_degenerate(inst)
