"""Exhaustive sweeps: every small structure, not a random draw of them.

The random corpora are mostly answered by the band pass, so a kernel that
deletes wrongly meets few instances where it would show.  Here the ISR
solvers meet every pair of independent 2-sets on every tree with at most 9
vertices, and must answer as the search on the unreduced input does.
"""

import itertools

from tokenjump import (
    Instance,
    Problem,
    QuasiWideParams,
    bfs_reconfig,
    solve_isr_degenerate,
    solve_isr_quasiwide,
    verify_sequence,
)

import reference


def test_free_trees_are_counted_once_each():
    assert [len(reference.free_trees(n)) for n in range(1, 10)] == [1, 1, 1, 2, 3, 6, 11, 23, 47]
    for n in range(1, 10):
        for g in reference.free_trees(n):
            assert g.n == n and g.m == n - 1


def test_every_tree_up_to_9_vertices_with_k_2():
    """``class_threshold`` = 2k lets the scattered-set kernel delete on
    trees this small; the low-degree threshold of 162 is never passed."""
    params = QuasiWideParams(class_threshold=4)
    instances = deleting = 0
    for n in range(1, 10):
        for g in reference.free_trees(n):
            sets = [
                frozenset(c)
                for c in itertools.combinations(range(n), 2)
                if reference.independent(g, c)
            ]
            for source, target in itertools.combinations(sets, 2):
                inst = Instance(Problem.ISR, g, 2, source, target)
                instances += 1
                oracle = bfs_reconfig(inst)
                degenerate = solve_isr_degenerate(inst)
                quasiwide = solve_isr_quasiwide(inst, params)
                deleting += bool(quasiwide.log.steps)
                for result in (degenerate, quasiwide):
                    out = result.outcome
                    assert out.verdict is oracle.verdict
                    if out.sequence is not None:
                        assert out.sequence.length == oracle.sequence.length
                        assert verify_sequence(inst, out.sequence) is None
    assert instances == 24072
    assert deleting > 0
