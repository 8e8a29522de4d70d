"""The two-sided search against the one-sided FIFO search it replaced.

``reference.fifo_bfs`` is the former ``bfs_reconfig``.  The two must agree
on verdicts and on the witnesses themselves, not only on their lengths.  On
the blocked-band corpus, where the band pass finds nothing, the kernelizing
solvers are held to the FIFO search's answers too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tokenjump import (
    Graph,
    Instance,
    Problem,
    QuasiWideParams,
    Verdict,
    bfs_reconfig,
    gen_random_degenerate,
    plant_dsr_instance,
    plant_isr_instance,
    solve_dsr,
    solve_isr_degenerate,
    solve_isr_quasiwide,
    verify_sequence,
)

import reference

CORPORA = {
    "isr": lambda: [inst for inst, _ in reference.isr_corpus()],
    "dsr": reference.dsr_corpus,
    "tiny": reference.tiny_isr_corpus,
    "sparse": reference.sparse_corpus,
    "no": reference.no_instance_corpus,
    "blocked": reference.blocked_corpus,
}
_fifo: dict[str, list] = {}


def fifo_outcomes(name: str) -> list:
    if name not in _fifo:
        _fifo[name] = [reference.fifo_bfs(inst) for inst in CORPORA[name]()]
    return _fifo[name]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_same_verdicts_and_witnesses_as_fifo_search(name):
    for inst, theirs in zip(CORPORA[name](), fifo_outcomes(name)):
        ours = bfs_reconfig(inst)
        assert ours.verdict is theirs.verdict
        assert ours.sequence == theirs.sequence


def test_no_corpus_holds_both_problems():
    corpus = reference.no_instance_corpus()
    assert len(corpus) >= 200
    assert {inst.problem.value for inst in corpus} == {"isr", "dsr"}
    assert all(out.verdict is Verdict.NO for out in fifo_outcomes("no"))


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_budgets_never_overrun_or_mislead(name):
    for inst, theirs in zip(CORPORA[name](), fifo_outcomes(name)):
        for budget in range(1, 41):
            out = bfs_reconfig(inst, state_budget=budget)
            assert out.states_explored <= budget
            if out.verdict is not Verdict.EXHAUSTED:
                assert out.verdict is theirs.verdict
                assert out.sequence == theirs.sequence


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_tight_budgets_count_every_state(name):
    """A run's own state count suffices as its budget, and one state less
    stops it exactly there."""
    for inst in CORPORA[name]():
        full = bfs_reconfig(inst)
        count = full.states_explored
        if count < 3:
            continue
        tight = bfs_reconfig(inst, state_budget=count)
        assert (tight.verdict, tight.sequence) == (full.verdict, full.sequence)
        assert tight.states_explored == count
        short = bfs_reconfig(inst, state_budget=count - 1)
        assert short.verdict is Verdict.EXHAUSTED
        assert short.states_explored == count - 1


def test_blocked_corpus_leaves_the_band():
    corpus = reference.blocked_corpus()
    assert [inst.problem.value for inst in corpus] == ["isr"] * 30 + ["dsr"] * 7
    for inst, theirs in zip(corpus, fifo_outcomes("blocked")):
        assert theirs.verdict is Verdict.YES
        assert theirs.sequence.length > len(inst.source ^ inst.target)


def test_solvers_match_the_oracle_on_blocked_bands():
    """Where the band holds no path, the answer comes from the full search on
    the kernel: the ISR kernels must keep the oracle's verdict, and the DSR
    kernel its length too."""
    for inst, theirs in zip(reference.blocked_corpus(), fifo_outcomes("blocked")):
        if inst.problem is Problem.ISR:
            params = QuasiWideParams(class_threshold=2 * inst.k)
            results = [solve_isr_degenerate(inst), solve_isr_quasiwide(inst, params)]
        else:
            results = [solve_dsr(inst)]
            assert results[0].outcome.sequence.length == theirs.sequence.length
        for result in results:
            assert result.outcome.verdict is theirs.verdict
            assert verify_sequence(inst, result.outcome.sequence) is None
            reference.check_reduction_log(inst, result.log, result.kernel.graph)


def test_forest_search_grows_the_cheaper_side():
    """On this k = 3 forest a layer of additions costs about n / k times a
    removal layer of the same length; growing the shorter frontier took
    2,143,168 states here."""
    inst = plant_isr_instance(gen_random_degenerate(2000, 1, 2), 3, 2)
    out = bfs_reconfig(inst, state_budget=50_000)
    assert out.verdict is Verdict.YES
    assert verify_sequence(inst, out.sequence) is None


def test_forest_search_stays_in_the_band():
    """The k = 3 forest has a witness of |S Δ T| moves, which the band pass
    finds; the single two-sided search explored 18,877 states here."""
    inst = plant_isr_instance(gen_random_degenerate(2000, 1, 2), 3, 2)
    out = bfs_reconfig(inst)
    assert out.verdict is Verdict.YES
    assert out.sequence.length == len(inst.source ^ inst.target)
    assert out.states_explored <= 100


def test_blocked_band_falls_back_to_the_full_search():
    """K_{2,2} between S and T on the k = 2 forest leaves the band without a
    path, so the full pass must grow the cheaper side.  The single two-sided
    search returned this witness in 9,980 states."""
    base = plant_isr_instance(gen_random_degenerate(2000, 1, 2), 2, 2)
    edges = [*base.graph.edges()]
    edges += [(s, t) for s in base.source for t in base.target]
    graph = Graph(base.graph.vertices, edges)
    inst = Instance(Problem.ISR, graph, 2, base.source, base.target)
    out = bfs_reconfig(inst, state_budget=20_000)
    assert out.verdict is Verdict.YES
    assert verify_sequence(inst, out.sequence) is None
    assert [sorted(s) for s in out.sequence.sets] == [
        [1366, 1529], [1529], [0, 1529], [0], [0, 637], [637], [637, 904],
    ]


@st.composite
def small_isr_and_dsr_instances(draw):
    n = draw(st.integers(2, 10))
    d = draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 5000))
    plant = draw(st.sampled_from([plant_isr_instance, plant_dsr_instance]))
    g = gen_random_degenerate(n, d, seed)
    inst = plant(g, k, seed)
    if inst is None:
        inst = plant_isr_instance(g, 1, seed)
    return inst


@settings(deadline=None, max_examples=150)
@given(small_isr_and_dsr_instances())
def test_same_witness_as_fifo_search_on_small_instances(inst):
    ours, theirs = bfs_reconfig(inst), reference.fifo_bfs(inst)
    assert ours.verdict is theirs.verdict
    assert ours.sequence == theirs.sequence


@settings(deadline=None, max_examples=150)
@given(small_isr_and_dsr_instances())
def test_no_witness_is_shorter_than_the_band(inst):
    """Each move toggles one vertex, so a witness has at least |S Δ T|
    moves, and one of exactly |S Δ T| moves toggles only S Δ T."""
    out = bfs_reconfig(inst)
    if out.verdict is not Verdict.YES:
        return
    band = inst.source ^ inst.target
    sets = out.sequence.sets
    assert out.sequence.length >= len(band)
    if out.sequence.length == len(band):
        assert all(a ^ b <= band for a, b in zip(sets, sets[1:]))
