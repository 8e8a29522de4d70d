"""The workspace kernels against the per-deletion loop they replaced.

``reference.kernelize_degenerate`` and ``reference.kernelize_quasiwide``
restart every rule from scratch after each deletion and list every petal
their greedy finds; the kernels must give the same kernels, d and logs, with
each petal list cut to 2k where the solver stops at 2k
(``reference.assert_same_reductions``), on inputs where the rules delete
most vertices.
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
    gen_random_degenerate,
    kernelize_degenerate,
    kernelize_quasiwide,
    plant_isr_instance,
)
from tokenjump import degenerate, graph, quasiwide
from tokenjump.degenerate import _LowDegreeWorkspace

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
        reference.assert_same_reductions(ours, reference.kernelize_degenerate(inst), inst.k)
        assert twins_follow_rule_deletions(ours[1])


def d_falls():
    """The deletion-corpus instances whose kernel has a smaller d than the input."""
    return [
        inst
        for inst in reference.deletion_corpus()
        if kernelize_degenerate(inst).d < reference.degeneracy(inst.graph)
    ]


def test_degeneracy_falls_while_the_rule_deletes():
    falls = d_falls()
    assert len(falls) == 2
    for inst in falls:
        assert reference.degeneracy(inst.graph) == 2
        assert kernelize_degenerate(inst).d == 0


def test_bound_check_catches_a_degeneracy_left_stale(monkeypatch):
    """A workspace that does not peel d again when its d-core empties keeps
    the old d; the bound check peels the kernel itself and must say so."""
    falls = d_falls()
    peel_core = _LowDegreeWorkspace._peel_core

    def peel_core_keeping_d(self, i, nb):
        d, low = self.d, self._low
        peel_core(self, i, nb)
        if self.d != d:  # the d-core emptied and d was peeled again
            self.d, self._core, self._low = d, 0, low

    monkeypatch.setattr(_LowDegreeWorkspace, "_peel_core", peel_core_keeping_d)
    assert len(falls) == 2
    for inst in falls:
        with pytest.raises(RuntimeError, match="kernel bound violated"):
            kernelize_degenerate(inst)


def test_quasiwide_kernel_matches_per_deletion_loop():
    for inst in reference.deletion_corpus():
        # forests under the default search, the k = 1 graphs at threshold 2k
        params = QuasiWideParams() if inst.k == 2 else QuasiWideParams(class_threshold=2)
        ours = kernelize_quasiwide(inst, params)
        reference.assert_same_reductions(ours, reference.kernelize_quasiwide(inst, params), inst.k)
        assert twins_follow_rule_deletions(ours[1])


@pytest.mark.parametrize("max_deletions", [1, 2, 3])
def test_quasiwide_kernel_matches_per_deletion_loop_past_empty_deletion_sets(max_deletions):
    params = QuasiWideParams(class_threshold=4, max_deletions=max_deletions)
    deletion_sets = Counter()
    for inst in reference.hub_corpus():
        ours = kernelize_quasiwide(inst, params)
        reference.assert_same_reductions(ours, reference.kernelize_quasiwide(inst, params), inst.k)
        deletion_sets.update(
            bool(step.certificate["deletions"]) for step in ours[1] if step.rule == "quasi-wide"
        )
    assert deletion_sets[True] >= 200 and deletion_sets[False] > 0, deletion_sets


def test_low_degree_rule_reads_few_family_members(monkeypatch):
    """The n = 2000 forest of ``gen --n 2000 --d 1 --k 2 --seed 1``: each
    round reads about 2k closed neighborhoods of the ~860 low-degree ones,
    and each certificate lists the 2k petal centers the rule needs."""
    inst = plant_isr_instance(gen_random_degenerate(2000, 1, 1), 2, 1)
    extract = degenerate.extract_sunflower
    reads = rounds = 0

    def counted(masks, want):
        nonlocal rounds

        def read():
            nonlocal reads
            for mask in masks:
                reads += 1
                yield mask

        rounds += 1
        return extract(read(), want)

    monkeypatch.setattr(degenerate, "extract_sunflower", counted)
    kern = kernelize_degenerate(inst)
    steps = [step for step in kern.log if step.rule == "sunflower-degenerate"]
    assert rounds == len(steps) == 1639
    assert reads <= 5 * rounds
    assert all(len(step.certificate["petal_centers"]) == 2 * inst.k for step in steps)


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
    reference.assert_same_reductions(
        degenerate_run(inst), reference.kernelize_degenerate(inst), inst.k
    )
    reference.assert_same_reductions(
        kernelize_quasiwide(inst, params), reference.kernelize_quasiwide(inst, params), inst.k
    )


def test_kernels_rebuild_nothing_per_deletion(monkeypatch):
    """Graph copies, bitset indexes and degeneracy peels do not grow with deletions."""
    inst = plant_isr_instance(gen_random_degenerate(1000, 1, 1), 2, 1)
    calls: Counter[str] = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    induced_subgraph = counted("induced_subgraph", Graph.induced_subgraph)
    monkeypatch.setattr(Graph, "induced_subgraph", induced_subgraph)
    for module in (graph, degenerate):  # monkeypatch fails on a name that is gone
        for name in ("bitset_index", "degeneracy_core"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    # the degenerate kernel peels at set-up and for the bound check
    kernels = [
        (lambda: len(kernelize_degenerate(inst).log), 833, 2),
        (lambda: len(kernelize_quasiwide(inst, QuasiWideParams())[1]), 950, 0),
    ]
    for run, deletions, peels in kernels:
        calls.clear()
        assert run() == deletions
        assert calls["bitset_index"] >= 1
        assert calls["degeneracy_core"] == peels
        assert max(calls.values()) <= 2, dict(calls)


def test_bound_check_peels_a_kernel_that_deletes_nothing(monkeypatch):
    """The check trusts no maintained d: it peels the kernel's own graph
    again even when that graph is the input's."""
    inst = plant_isr_instance(gen_random_degenerate(30, 2, 1), 2, 1)
    peels = 0
    degeneracy_core = degenerate.degeneracy_core

    def counted(*args):
        nonlocal peels
        peels += 1
        return degeneracy_core(*args)

    monkeypatch.setattr(degenerate, "degeneracy_core", counted)
    kern = kernelize_degenerate(inst)
    assert len(kern.log) == 0 and kern.kernel is inst
    assert peels == 2


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
    reference.assert_same_reductions(
        degenerate_run(inst), reference.kernelize_degenerate(inst), inst.k
    )
