"""The two-sided search against the one-sided FIFO search it replaced.

``reference.fifo_bfs`` is the former ``bfs_reconfig``.  The two must agree
on verdicts and on the witnesses themselves, not only on their lengths.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tokenjump import (
    Verdict,
    bfs_reconfig,
    gen_random_degenerate,
    plant_dsr_instance,
    plant_isr_instance,
)

import reference

CORPORA = {
    "isr": lambda: [inst for inst, _ in reference.isr_corpus()],
    "dsr": reference.dsr_corpus,
    "tiny": reference.tiny_isr_corpus,
    "sparse": reference.sparse_corpus,
    "no": reference.no_instance_corpus,
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
