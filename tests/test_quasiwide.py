import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tokenjump import (
    Graph,
    Instance,
    Problem,
    QuasiWideParams,
    ScatteredCertificate,
    SetFamily,
    Sunflower,
    Verdict,
    bfs_reconfig,
    find_scattered_with_deletions,
    is_valid_sunflower,
    kernelize_quasiwide,
    parse_instance,
    partition_by_solution_neighborhood,
    reduce_quasiwide_once,
    solve_isr_quasiwide,
    verify_sequence,
)
from tokenjump import cli, quasiwide
from tokenjump.quasiwide import _scattered_valid

import reference

P4 = parse_instance("p isr 4 3 2\ne 1 2\ne 2 3\ne 3 4\ns 1 3\nt 2 4\n")

# Digest (reference.log_digest) of kernelize_quasiwide's logs and kernels:
# threshold 2k on the ISR corpus and the sparse corpus, then the default
# parameters on the sparse corpus.  Recorded with the scattered-set search
# that rebuilt every ball for every deletion set, and the pairwise checks.
KERNEL_LOGS_DIGEST = "a6d758f36ce97c6356f5dd256afb0e2c942eb051822fc5ef22bef91fbfec4000"


def star(leaves):
    return Graph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def star_of_stars(spokes, leaves_per_spoke):
    """Center 0, spokes 1..s, then leaves in spoke-major order."""
    edges = [(0, s) for s in range(1, spokes + 1)]
    nxt = spokes + 1
    for s in range(1, spokes + 1):
        for _ in range(leaves_per_spoke):
            edges.append((s, nxt))
            nxt += 1
    return Graph(range(nxt), edges)


def test_partition_examples():
    g = P4.graph
    assert partition_by_solution_neighborhood(g, frozenset()) == {
        frozenset(): (0, 1, 2, 3)
    }
    byclass = partition_by_solution_neighborhood(g, frozenset({0, 3}))
    assert byclass == {frozenset({0}): (1,), frozenset({3}): (2,)}
    s = star(5)
    assert partition_by_solution_neighborhood(s, frozenset({0})) == {
        frozenset({0}): (1, 2, 3, 4, 5)
    }


def test_partition_class_count_bound():
    for seed in range(10):
        inst = reference.isr_corpus()[seed][0]
        classes = partition_by_solution_neighborhood(inst.graph, inst.anchors)
        outside = inst.graph.n - len(inst.anchors & inst.graph.vertex_set)
        assert len(classes) <= min(4**inst.k, max(outside, 1))
        assert sum(len(vs) for vs in classes.values()) == outside


def test_scattered_isolated_vertices():
    g = Graph(range(10))
    cert = find_scattered_with_deletions(
        g, g.vertex_set, 5, QuasiWideParams(max_deletions=0)
    )
    assert cert is not None
    assert cert.deleted == frozenset()
    assert len(cert.scattered) >= 5


def test_scattered_star_needs_center_deleted():
    g = star(10)
    leaves = frozenset(range(1, 11))
    none = find_scattered_with_deletions(g, leaves, 3, QuasiWideParams(max_deletions=0))
    assert none is None
    cert = find_scattered_with_deletions(g, leaves, 3, QuasiWideParams(max_deletions=1))
    assert cert is not None
    assert cert.deleted == frozenset({0})
    assert len(cert.scattered) >= 3 and cert.scattered <= leaves


def test_scattered_clique_is_hopeless():
    g = Graph(range(6), itertools.combinations(range(6), 2))
    cert = find_scattered_with_deletions(
        g, g.vertex_set, 2, QuasiWideParams(max_deletions=1)
    )
    assert cert is None


def test_empty_deletion_certificates_give_empty_core_sunflowers():
    g = Graph(range(12), [(i, i + 1) for i in range(11)])
    cert = find_scattered_with_deletions(
        g, g.vertex_set, 3, QuasiWideParams(max_deletions=0)
    )
    assert cert is not None and cert.deleted == frozenset()
    assert len(cert.scattered) >= 3
    members = [g.closed_neighbor_set(v) for v in sorted(cert.scattered)]
    fam = SetFamily(members)
    flower = Sunflower(frozenset(), tuple(range(len(members))))
    assert is_valid_sunflower(fam, flower, len(members))


def test_reduce_fires_on_isolated_class():
    g = Graph(range(50))
    inst = Instance(Problem.ISR, g, 2, frozenset({0, 1}), frozenset({2, 3}))
    params = QuasiWideParams(class_threshold=20, max_deletions=0)
    result = reduce_quasiwide_once(inst, params)
    assert result is not None
    reduced, step = result
    assert step.rule == "quasi-wide"
    assert step.vertex == 4
    assert step.certificate["core"] == [] and step.certificate["deletions"] == []
    assert len(step.certificate["petal_centers"]) >= 4
    assert reduced.graph.n == 49


def test_failed_sunflower_validation_is_an_internal_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(quasiwide, "is_valid_sunflower", lambda *args, **kwargs: False)
    inst = Instance(Problem.ISR, Graph(range(50)), 2, frozenset({0, 1}), frozenset({2, 3}))
    params = QuasiWideParams(class_threshold=20, max_deletions=0)
    with pytest.raises(RuntimeError, match="failed validation"):
        reduce_quasiwide_once(inst, params)
    path = tmp_path / "isolated.isr"
    path.write_text("p isr 50 0 2\ns 1 2\nt 3 4\n")
    argv = ["solve", str(path), "--strategy", "quasiwide", "--class-threshold", "20"]
    assert cli.main(argv) == 70
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "tokenjump: internal error: RuntimeError: "
        "scattered-set sunflower failed validation\n"
    )


def test_reduce_absent_when_classes_are_small():
    inst = Instance(
        Problem.ISR, Graph(range(10)), 2, frozenset({0, 1}), frozenset({2, 3})
    )
    assert reduce_quasiwide_once(inst, QuasiWideParams(class_threshold=32)) is None


def test_reduce_respects_search_budget():
    g = star_of_stars(10, 3)
    leaves = sorted(set(g.vertices) - set(range(11)))
    source = frozenset(leaves[:2])
    target = frozenset(leaves[2:4])
    inst = Instance(Problem.ISR, g, 2, source, target)
    starved = QuasiWideParams(class_threshold=8, max_deletions=1, search_budget=1)
    assert reduce_quasiwide_once(inst, starved) is None
    fed = QuasiWideParams(class_threshold=8, max_deletions=1, search_budget=100)
    result = reduce_quasiwide_once(inst, fed)
    assert result is not None
    _, step = result
    assert step.certificate["deletions"] == [0]
    assert set(step.certificate["core"]) <= {0} | set(inst.anchors)


def test_reduce_requires_threshold_at_least_2k():
    inst = Instance(
        Problem.ISR, Graph(range(30)), 3, frozenset({0, 1, 2}), frozenset({3, 4, 5})
    )
    with pytest.raises(ValueError, match="class_threshold"):
        reduce_quasiwide_once(inst, QuasiWideParams(class_threshold=5))


def test_solve_isolated_matches_oracle():
    g = Graph(range(50))
    inst = Instance(Problem.ISR, g, 2, frozenset({0, 1}), frozenset({2, 3}))
    params = QuasiWideParams(class_threshold=20, max_deletions=0)
    result = solve_isr_quasiwide(inst, params)
    assert result.outcome.verdict is Verdict.YES
    assert result.kernel.graph.n < 50
    assert bfs_reconfig(inst).verdict is Verdict.YES
    assert verify_sequence(inst, result.outcome.sequence) is None
    reference.check_reduction_log(inst, result.log, result.kernel.graph)


def test_solve_p4_without_reduction():
    result = solve_isr_quasiwide(P4, QuasiWideParams())
    assert result.outcome.verdict is Verdict.YES
    assert len(result.log) == 0


def test_solve_source_equals_target():
    inst = Instance(Problem.ISR, P4.graph, 2, P4.source, P4.source)
    out = solve_isr_quasiwide(inst, QuasiWideParams()).outcome
    assert out.verdict is Verdict.YES and out.sequence.length == 0


def test_param_sweep_on_small_corpus():
    corpus = reference.isr_corpus()[:40]
    oracle = reference.isr_oracle_outcomes()[:40]
    for (inst, _d), expected in zip(corpus, oracle):
        for threshold in (2 * inst.k, 32):
            for deletions in (0, 2):
                params = QuasiWideParams(
                    class_threshold=threshold,
                    max_deletions=deletions,
                    search_budget=500,
                )
                result = solve_isr_quasiwide(inst, params)
                assert result.outcome.verdict == expected.verdict
                reference.check_reduction_log(inst, result.log, result.kernel.graph)


def test_kernelize_reaches_class_fixpoint():
    g = Graph(range(50))
    inst = Instance(Problem.ISR, g, 2, frozenset({0, 1}), frozenset({2, 3}))
    params = QuasiWideParams(class_threshold=20, max_deletions=0)
    kernel, log = kernelize_quasiwide(inst, params)
    classes = partition_by_solution_neighborhood(kernel.graph, kernel.anchors)
    assert all(len(vs) <= params.class_threshold for vs in classes.values())
    assert kernel.graph.n == 50 - len(log)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_scattered_check_matches_pairwise_reference(data):
    n = data.draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs), max_size=n)) if pairs else set()
    g = Graph(range(n), edges)
    cert = ScatteredCertificate(
        data.draw(st.frozensets(st.integers(0, n - 1), max_size=3)),
        data.draw(st.frozensets(st.integers(0, n - 1), max_size=5)),
    )
    assert _scattered_valid(g, cert) == reference.scattered_valid(g, cert)


def test_found_certificates_pass_pairwise_reference():
    found = 0
    for inst in reference.sparse_corpus():
        rest = inst.graph.induced_subgraph(inst.graph.vertex_set - inst.anchors)
        for target in (2, 4, 8):
            cert = find_scattered_with_deletions(
                rest, rest.vertex_set, target, QuasiWideParams(search_budget=200)
            )
            if cert is not None:
                found += 1
                assert reference.scattered_valid(rest, cert)
    assert found > 0


def test_kernel_logs_match_stored_run():
    insts = [inst for inst, _ in reference.isr_corpus()] + reference.sparse_corpus()
    runs = [
        kernelize_quasiwide(inst, QuasiWideParams(class_threshold=2 * inst.k, search_budget=2000))
        for inst in insts
    ]
    runs += [kernelize_quasiwide(inst, QuasiWideParams()) for inst in reference.sparse_corpus()]
    assert reference.log_digest(runs) == KERNEL_LOGS_DIGEST
