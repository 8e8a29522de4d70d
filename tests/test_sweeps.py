"""Exhaustive sweeps: every small structure, not a random draw of them.

The random corpora are mostly answered by the band pass, so a kernel that
deletes wrongly meets few instances where it would show.  Here the ISR
solvers meet every pair of independent 2-sets on every tree with at most 9
vertices and on every labelled graph with at most 5, and the DSR solver
every pair of dominating k-sets, k = 1, 2, on those graphs; each must
answer as the search on the unreduced input does.

``sweep_trees(12)`` is the same tree check up to 12 vertices, too slow for
tier-1; run it as ``PYTHONPATH=src:tests python -c 'import test_sweeps;
print(test_sweeps.sweep_trees(12))'``.
"""

import itertools

from tokenjump import (
    Instance,
    Problem,
    QuasiWideParams,
    bfs_reconfig,
    solve_dsr,
    solve_isr_degenerate,
    solve_isr_quasiwide,
    verify_sequence,
)

import reference

# ``class_threshold`` = 2k lets the scattered-set kernel delete on graphs
# this small; the low-degree threshold of 162 is never passed.
PARAMS = QuasiWideParams(class_threshold=4)


def pairs_of_sets(g, k, feasible):
    """Every unordered pair of distinct feasible k-sets of g."""
    sets = [frozenset(c) for c in itertools.combinations(g.vertices, k) if feasible(g, c)]
    return itertools.combinations(sets, 2)


def agree(inst, *results):
    """Whether each result deletes anything; asserts that each has the
    verdict and length of the search on ``inst`` and a witness valid there."""
    oracle = bfs_reconfig(inst)
    for result in results:
        out = result.outcome
        assert out.verdict is oracle.verdict
        if out.sequence is not None:
            assert out.sequence.length == oracle.sequence.length
            assert verify_sequence(inst, out.sequence) is None
    return [bool(result.log.steps) for result in results]


def sweep_isr(graphs):
    """Both ISR solvers on every pair of independent 2-sets of ``graphs``:
    the instance count, and how many of them each solver deletes in."""
    instances = degenerate = quasiwide = 0
    for g in graphs:
        for source, target in pairs_of_sets(g, 2, reference.independent):
            inst = Instance(Problem.ISR, g, 2, source, target)
            instances += 1
            low, scattered = agree(
                inst, solve_isr_degenerate(inst), solve_isr_quasiwide(inst, PARAMS)
            )
            degenerate += low
            quasiwide += scattered
    return instances, degenerate, quasiwide


def sweep_trees(max_n):
    """``sweep_isr`` over every tree with at most ``max_n`` vertices."""
    return sweep_isr(g for n in range(1, max_n + 1) for g in reference.free_trees(n))


def test_free_trees_are_counted_once_each():
    assert [len(reference.free_trees(n)) for n in range(1, 10)] == [1, 1, 1, 2, 3, 6, 11, 23, 47]
    for n in range(1, 10):
        for g in reference.free_trees(n):
            assert g.n == n and g.m == n - 1


def test_every_tree_up_to_9_vertices_with_k_2():
    instances, degenerate, quasiwide = sweep_trees(9)
    assert instances == 24072
    assert quasiwide > 0


def test_every_graph_up_to_5_vertices_isr_with_k_2():
    graphs = [g for n in range(1, 6) for g in reference.labelled_graphs(n)]
    assert len(graphs) == 1099
    instances, degenerate, quasiwide = sweep_isr(graphs)
    assert instances == 11766
    assert degenerate > 0 and quasiwide > 0


def test_every_graph_up_to_5_vertices_dsr_with_k_1_and_2():
    instances = deleting = 0
    for n in range(1, 6):
        for g in reference.labelled_graphs(n):
            for k in (1, 2):
                for source, target in pairs_of_sets(g, k, reference.dominating):
                    inst = Instance(Problem.DSR, g, k, source, target)
                    instances += 1
                    deleting += agree(inst, solve_dsr(inst))[0]
    assert instances == 11775
    assert deleting > 0
