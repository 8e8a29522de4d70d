import functools
import itertools
import json
import operator
import random
from math import comb

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
    kernelize_quasiwide,
    parse_instance,
    plant_isr_instance,
    serialize_instance,
    solve_isr_quasiwide,
    verify_sequence,
)
from tokenjump import cli, degenerate, quasiwide
from tokenjump.graph import bitset_index, set_bits
from tokenjump.quasiwide import _ScatteredWorkspace, _balls_disjoint, _deletion_sets

import reference
from reference import ScatteredCertificate, partition_by_solution_neighborhood

P4 = parse_instance("p isr 4 3 2\ne 1 2\ne 2 3\ne 3 4\ns 1 3\nt 2 4\n")

# Digest (reference.log_digest) of kernelize_quasiwide's logs and kernels:
# threshold 2k on the ISR corpus and the sparse corpus, then the default
# parameters on the sparse corpus.  Recorded with the scattered-set search
# that rebuilt every ball for every deletion set and swept the whole pool at
# B = {}, and the pairwise checks, each log cut by reference.two_k_petals.
KERNEL_LOGS_DIGEST = "bf4a9c9b1b751f2ef9d106d6743e8ef592a480c95c5e9663dda3c01103384b31"


def scattered_certificate(g, pool, target, params):
    """The search's deletion set B and scattered set A in g, with no anchors,
    for at least ``target`` vertices of ``pool`` at every size of B."""
    ws = _ScatteredWorkspace(g, frozenset())
    found = ws.search(sorted(ws.pos[v] for v in pool), params, lambda _size: target)
    if found is None:
        return None
    blocked, chosen = found
    return ScatteredCertificate(
        frozenset(ws.verts[i] for i in set_bits(blocked)),
        frozenset(ws.verts[i] for i in chosen),
    )


def scattered_once(inst, params):
    """One scattered-set deletion on a fresh workspace: the reduced instance
    and its step, or None."""
    ws = _ScatteredWorkspace(inst.graph, inst.anchors)
    step = ws.scattered_once(inst.k, params)
    return None if step is None else (ws.reduced(inst), step)


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


def stats_matches_partition(inst, tmp_path, capsys):
    """Whether ``tokenjump stats`` writes the oracle partition's class sizes,
    largest first, as ``class_sizes``."""
    path = tmp_path / "stats.isr"
    path.write_text(serialize_instance(inst))
    assert cli.main(["stats", str(path)]) == 0
    classes = partition_by_solution_neighborhood(inst.graph, inst.anchors)
    sizes = sorted((len(vs) for vs in classes.values()), reverse=True)
    return json.loads(capsys.readouterr().out)["class_sizes"] == sizes


def test_partition_examples(tmp_path, capsys):
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
    ends = Instance(Problem.ISR, g, 1, frozenset({0}), frozenset({3}))
    hub = Instance(Problem.ISR, s, 1, frozenset({0}), frozenset({0}))
    for inst in (P4, ends, hub):
        assert stats_matches_partition(inst, tmp_path, capsys)


def test_partition_class_count_bound(tmp_path, capsys):
    for seed in range(10):
        inst = reference.isr_corpus()[seed][0]
        classes = partition_by_solution_neighborhood(inst.graph, inst.anchors)
        outside = inst.graph.n - len(inst.anchors & inst.graph.vertex_set)
        assert len(classes) <= min(4**inst.k, max(outside, 1))
        assert sum(len(vs) for vs in classes.values()) == outside
        assert stats_matches_partition(inst, tmp_path, capsys)


def test_scattered_isolated_vertices():
    g = Graph(range(10))
    cert = scattered_certificate(
        g, g.vertex_set, 5, QuasiWideParams(max_deletions=0)
    )
    assert cert is not None
    assert cert.deleted == frozenset()
    assert len(cert.scattered) >= 5


def test_scattered_star_needs_center_deleted():
    g = star(10)
    leaves = frozenset(range(1, 11))
    none = scattered_certificate(g, leaves, 3, QuasiWideParams(max_deletions=0))
    assert none is None
    cert = scattered_certificate(g, leaves, 3, QuasiWideParams(max_deletions=1))
    assert cert is not None
    assert cert.deleted == frozenset({0})
    assert len(cert.scattered) >= 3 and cert.scattered <= leaves


def test_scattered_clique_is_hopeless():
    g = Graph(range(6), itertools.combinations(range(6), 2))
    cert = scattered_certificate(
        g, g.vertex_set, 2, QuasiWideParams(max_deletions=1)
    )
    assert cert is None


def test_empty_deletion_certificates_give_empty_core_sunflowers():
    g = Graph(range(12), [(i, i + 1) for i in range(11)])
    cert = scattered_certificate(
        g, g.vertex_set, 3, QuasiWideParams(max_deletions=0)
    )
    assert cert is not None and cert.deleted == frozenset()
    assert len(cert.scattered) >= 3
    members = [g.closed_neighbor_set(v) for v in sorted(cert.scattered)]
    fam = reference.SetFamily(members)
    flower = reference.Sunflower(frozenset(), tuple(range(len(members))))
    assert reference.is_valid_sunflower(fam, flower, len(members))


def test_reduce_fires_on_isolated_class():
    g = Graph(range(50))
    inst = Instance(Problem.ISR, g, 2, frozenset({0, 1}), frozenset({2, 3}))
    params = QuasiWideParams(class_threshold=20, max_deletions=0)
    result = scattered_once(inst, params)
    assert result is not None
    reduced, step = result
    assert step.rule == "quasi-wide"
    assert step.vertex == 4
    assert step.certificate["core"] == [] and step.certificate["deletions"] == []
    assert len(step.certificate["petal_centers"]) >= 4
    assert reduced.graph.n == 49


def test_failed_sunflower_validation_is_an_internal_error(monkeypatch, tmp_path, capsys):
    sunflower_core = degenerate._sunflower_core
    monkeypatch.setattr(  # the check sees one petal of the found sunflower
        degenerate,
        "_sunflower_core",
        lambda nbr, petals, *rest: sunflower_core(nbr, petals[:1], *rest),
    )
    inst = Instance(Problem.ISR, Graph(range(50)), 2, frozenset({0, 1}), frozenset({2, 3}))
    params = QuasiWideParams(class_threshold=20, max_deletions=0)
    with pytest.raises(RuntimeError, match="failed validation"):
        kernelize_quasiwide(inst, params)
    path = tmp_path / "isolated.isr"
    path.write_text("p isr 50 0 2\ns 1 2\nt 3 4\n")
    argv = ["solve", str(path), "--strategy", "quasiwide", "--class-threshold", "20"]
    assert cli.main(argv) == 70
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "tokenjump: internal error: RuntimeError: sunflower failed validation\n"
    )


def test_a_sweep_the_masks_reject_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # the path 0-1-2-3-4: the balls of 0 and 4 meet in 2, but a stale
    # cached ball of 4 leaves 2 out, so the B = {} sweep picks both
    g = Graph(range(5), [(i, i + 1) for i in range(4)])
    ws = _ScatteredWorkspace(g, frozenset())
    ws._balls[4] = 0b11000
    with pytest.raises(RuntimeError, match="^scattered set failed validation$"):
        ws.search([0, 4], QuasiWideParams(max_deletions=1), lambda _size: 2)
    monkeypatch.setattr(quasiwide, "_balls_disjoint", lambda *args: False)
    path = tmp_path / "isolated.isr"
    path.write_text("p isr 50 0 2\ns 1 2\nt 3 4\n")
    argv = ["solve", str(path), "--strategy", "quasiwide", "--class-threshold", "20"]
    assert cli.main(argv) == 70
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "tokenjump: internal error: RuntimeError: scattered set failed validation\n"
    )


def masks(n, edges):
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


# four leaves 1-4 of hub 0, and leaf 1's own pendant 5
SPIDER = masks(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)])
# the hub's leaves 3 and 4 share a second neighbor 5
SHARED = masks(6, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (4, 5)])
# hub 0 with leaves 1, 2 and 4, and the edge 3-5 apart from it
ASTRAY = masks(6, [(0, 1), (0, 2), (0, 4), (3, 5)])
# a K4 on 0-3 whose vertices 0, 1 and 3 have pendants 4, 5 and 6:
# N[2] = N[0] & N[1] = {0, 1, 2, 3}
K4 = masks(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 5), (3, 6)])


def test_sunflower_core_on_masks():
    # N[1] = {0, 1, 5}, N[2] = {0, 2}, ...: core {0}, petals {1, 5}, {2}, {3}, {4}
    assert degenerate._sunflower_core(SPIDER, [1, 2, 3, 4], 1 << 0, 4) == 1 << 0
    assert degenerate._sunflower_core(SPIDER, [2, 3], 1 << 0, 2) == 1 << 0


@pytest.mark.parametrize(
    "nbr, petals, allowed",
    [
        (SPIDER, [1, 2, 3], 1 << 0),  # fewer than 2k = 4 petals
        (SHARED, [1, 2, 3, 4], 1 << 0),  # petals 3 and 4 meet outside the core {0}
        (K4, [0, 1, 2, 3], 0b1111),  # petal 2 is exactly the core
        (ASTRAY, [1, 2, 3, 4], 1 << 0),  # petal 3 misses the core {0}
        (SPIDER, [1, 2, 3, 4], 0),  # core vertex 0 outside deleted and anchors
    ],
)
def test_sunflower_core_rejects_what_is_no_certificate(nbr, petals, allowed):
    with pytest.raises(RuntimeError, match="^sunflower failed validation$"):
        degenerate._sunflower_core(nbr, petals, allowed, 4)


def test_distance_two_balls_survive_a_deletion(monkeypatch):
    """K_{1,400} with two source and two target leaves.

    Each round computes two balls per leaf of the cell its sweep finds past
    B = {}: the leaf's ball once the hub is deleted, and the re-check of the
    success.  Deleting a leaf leaves the other leaves' cached balls
    standing, less its bit.  Each certificate lists only the first 2k of
    that cell, which the reference run lists whole.
    """
    n = 400
    inst = Instance(Problem.ISR, star(n), 2, {1, 2}, {3, 4})
    calls = 0
    ball2_mask = quasiwide._ball2_mask

    def counted(*args):
        nonlocal calls
        calls += 1
        return ball2_mask(*args)

    monkeypatch.setattr(quasiwide, "_ball2_mask", counted)
    kernel, log = kernelize_quasiwide(inst, QuasiWideParams())
    ref = reference.kernelize_quasiwide(inst, QuasiWideParams())
    petals = sum(len(step.certificate["petal_centers"]) for step in ref[1].steps)
    assert calls <= 2 * petals + 2 * n
    assert len(log) == 364 and all(step.certificate["deletions"] == [0] for step in log.steps)
    assert all(len(step.certificate["petal_centers"]) == 2 * inst.k for step in log.steps)
    reference.assert_same_reductions((kernel, log), ref, inst.k)


@pytest.mark.parametrize("n", [400, 1000])
def test_star_sweeps_stop_at_their_pigeonhole_count(monkeypatch, n):
    """K_{1,n} with two source and two target leaves, k = 2.

    Every deletion needs the hub in B, and each sweep past B = {} stops at
    its 2k * 2 = 8 picks, so the ball computations grow linearly in n
    (6,218 at n = 400).  Sweeps that read the whole leaf class past B = {}
    make 156,550 there, and 992,950 at n = 1000.
    """
    inst = Instance(Problem.ISR, star(n), 2, {1, 2}, {3, 4})
    calls = 0
    ball2_mask = quasiwide._ball2_mask

    def counted(*args):
        nonlocal calls
        calls += 1
        return ball2_mask(*args)

    monkeypatch.setattr(quasiwide, "_ball2_mask", counted)
    kernel, log = kernelize_quasiwide(inst, QuasiWideParams())
    assert calls <= 20 * n
    assert kernel.graph.n == 37
    reference.check_reduction_log(inst, log, kernel.graph)


@pytest.mark.parametrize(
    "field, value", [("class_threshold", 0), ("max_deletions", -1), ("search_budget", 0)]
)
def test_params_reject_each_field_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        QuasiWideParams(**{field: value})


def test_dsr_instances_are_rejected():
    dsr = parse_instance("p dsr 3 2 1\ne 1 2\ne 2 3\ns 2\nt 2\n")
    with pytest.raises(ValueError, match="ISR instances only"):
        kernelize_quasiwide(dsr, QuasiWideParams())


def test_reduce_absent_when_classes_are_small():
    inst = Instance(
        Problem.ISR, Graph(range(10)), 2, frozenset({0, 1}), frozenset({2, 3})
    )
    assert scattered_once(inst, QuasiWideParams(class_threshold=32)) is None


def test_reduce_respects_search_budget():
    g = star_of_stars(10, 3)
    leaves = sorted(set(g.vertices) - set(range(11)))
    source = frozenset(leaves[:2])
    target = frozenset(leaves[2:4])
    inst = Instance(Problem.ISR, g, 2, source, target)
    starved = QuasiWideParams(class_threshold=8, max_deletions=1, search_budget=1)
    assert scattered_once(inst, starved) is None
    fed = QuasiWideParams(class_threshold=8, max_deletions=1, search_budget=100)
    result = scattered_once(inst, fed)
    assert result is not None
    _, step = result
    assert step.certificate["deletions"] == [0]
    assert set(step.certificate["core"]) <= {0} | set(inst.anchors)


def test_threshold_below_2k_acts_as_2k():
    inst = Instance(
        Problem.ISR, Graph(range(30)), 3, frozenset({0, 1, 2}), frozenset({3, 4, 5})
    )
    kernel, log = kernelize_quasiwide(inst, QuasiWideParams(class_threshold=6))
    assert len(log) > 0
    assert kernelize_quasiwide(inst, QuasiWideParams(class_threshold=5)) == (kernel, log)
    ref_kernel, ref_log = reference.kernelize_quasiwide(inst, QuasiWideParams(class_threshold=5))
    assert (ref_kernel, reference.two_k_petals(ref_log, inst.k)) == (kernel, log)


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
    _verts, pos, nbr = bitset_index(g)
    blocked = sum(1 << pos[v] for v in cert.deleted)
    ours = _balls_disjoint(nbr, [pos[v] for v in cert.scattered], blocked)
    assert ours == reference.scattered_valid(g, cert)


def test_found_certificates_pass_pairwise_reference():
    found = 0
    for inst in reference.sparse_corpus():
        rest = inst.graph.induced_subgraph(inst.graph.vertex_set - inst.anchors)
        for target in (2, 4, 8):
            cert = scattered_certificate(
                rest, rest.vertex_set, target, QuasiWideParams(search_budget=200)
            )
            if cert is not None:
                found += 1
                assert reference.scattered_valid(rest, cert)
    assert found > 0


def tried_before(g, deleted):
    """Deletion sets the search tries before ``deleted``: all smaller ones,
    and the earlier ones of its size."""
    ranked = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    size = len(deleted)
    for rank, combo in enumerate(itertools.combinations(ranked, size)):
        if frozenset(combo) == deleted:
            return sum(comb(g.n, s) for s in range(size)), rank
    raise AssertionError("deletion set not in the enumeration")


def test_scattered_search_matches_reference_on_hub_graphs():
    """Same certificate as the sweep over every deletion set, budget cuts included."""
    rng = random.Random(0x5CA77)
    levels = [0] * 4
    partway = 0
    for _ in range(1500):
        g = reference.hub_graph(rng)
        pool = rng.sample(range(g.n), rng.randint(1, g.n))
        target = rng.randint(1, 8)
        params = QuasiWideParams(
            max_deletions=rng.randint(0, 3), search_budget=int(4000 ** rng.random() ** 0.5)
        )
        ours = scattered_certificate(g, frozenset(pool), target, params)
        ref = reference.search_scattered(g, sorted(pool), params, lambda _s: target)
        assert ours == ref
        if ours is None or not ours.deleted:
            levels[0] += ours is not None
            continue
        levels[len(ours.deleted)] += 1
        smaller, rank = tried_before(g, ours.deleted)
        partway += rank > 0
        budget = smaller + rank  # stops just short of the certificate's B
        starved = QuasiWideParams(max_deletions=params.max_deletions, search_budget=budget)
        assert scattered_certificate(g, frozenset(pool), target, starved) is None
        assert reference.search_scattered(g, sorted(pool), starved, lambda _s: target) is None
    assert min(levels) > 0 and partway > 0, (levels, partway)


def test_scattered_search_matches_reference_once_the_pool_is_compared(monkeypatch):
    """Same certificate where sweeps fail long enough for the pool's balls to
    be compared pairwise, so that later deletion sets are skipped and struck."""
    compared = []
    conflicts = quasiwide._conflicts

    def counted(pool, *args):
        compared.append(len(pool))
        return conflicts(pool, *args)

    monkeypatch.setattr(quasiwide, "_conflicts", counted)
    rng = random.Random(0xDE6)
    found_after = 0
    for _ in range(1500):
        g = gen_random_degenerate(rng.randint(6, 50), rng.choice((1, 2, 3)), rng.randrange(2**30))
        pool = rng.sample(range(g.n), rng.randint(1, g.n))
        target = rng.randint(1, 8)
        params = QuasiWideParams(
            max_deletions=rng.randint(0, 3), search_budget=int(4000 ** rng.random() ** 0.5)
        )
        compared.clear()
        ours = scattered_certificate(g, frozenset(pool), target, params)
        ref = reference.search_scattered(g, sorted(pool), params, lambda _s: target)
        assert ours == ref
        found_after += bool(compared) and ours is not None
    assert found_after > 0


def test_scattered_balls_meeting_in_max_deletions_vertices_are_separable():
    # a - x1, x2 - m - y1, y2 - b: the balls of a and b meet in m alone
    g = Graph(range(7), [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)])
    params = QuasiWideParams(max_deletions=1)
    cert = scattered_certificate(g, frozenset({0, 6}), 2, params)
    assert cert == ScatteredCertificate(frozenset({3}), frozenset({0, 6}))
    assert cert == reference.search_scattered(g, [0, 6], params, lambda _s: 2)


def test_scattered_search_stops_at_the_last_nonempty_level():
    g = Graph(range(6), itertools.combinations(range(6), 2))
    sizes = []

    def required(size):
        sizes.append(size)
        return 2

    params = QuasiWideParams(max_deletions=10**6)
    assert _ScatteredWorkspace(g, frozenset()).search(list(range(6)), params, required) is None
    assert sizes == list(range(7))


def recorded_deletion_sets(monkeypatch):
    """The items ``quasiwide._deletion_sets`` yields from now on, as (size, run, looked)."""
    items = []
    deletion_sets = quasiwide._deletion_sets

    def recorded(nbr, ranked, size, hopeless):
        for run, blocked, near in deletion_sets(nbr, ranked, size, hopeless):
            items.append((size, run, blocked is not None))
            yield run, blocked, near

    monkeypatch.setattr(quasiwide, "_deletion_sets", recorded)
    return items


@pytest.mark.parametrize("rule", ["never", "always", "prefix holds", "start past"])
def test_deletion_sets_skip_exactly_the_hopeless_runs(rule):
    """Every size and chosen position x on up to 7 ranked vertices: the sets
    looked at are those of ``itertools.combinations(ranked, size)`` that no
    hopeless prefix cuts off, in that order, and the skipped runs count the
    rest.  "prefix holds" is hopeless once the prefix holds ``ranked[x]``,
    so a set is looked at unless it holds it before its last member;
    "start past" is hopeless once a member would come from past x, so a set
    is looked at when all its members lie at or before x."""
    rng = random.Random(0xB5E7)
    for n in range(8):
        nbr = [rng.getrandbits(10) for _ in range(10)]
        ranked = rng.sample(range(10), n)
        for size, x in itertools.product(range(1, 5), range(max(n, 1))):
            hopeless, looked = {
                "never": (lambda *_: False, lambda combo: True),
                "always": (lambda *_: True, lambda combo: False),
                "prefix holds": (
                    lambda blocked, _near, _more, _start: bool(blocked >> ranked[x] & 1),
                    lambda combo: ranked[x] not in combo[:-1],
                ),
                "start past": (
                    lambda _blocked, _near, _more, start: start > x,
                    lambda combo: max(map(ranked.index, combo)) <= x,
                ),
            }[rule]
            expected = []
            for combo in itertools.combinations(ranked, size):
                if looked(combo):
                    near = functools.reduce(operator.or_, (nbr[v] for v in combo))
                    expected.append((1, sum(1 << v for v in combo), near))
            items = list(_deletion_sets(nbr, ranked, size, hopeless))
            assert [item for item in items if item[1] is not None] == expected
            assert all(run > 0 and near == 0 for run, blocked, near in items if blocked is None)
            assert sum(run for run, _blocked, _near in items) == comb(n, size)


def test_a_search_in_vain_looks_at_few_deletion_sets_one_at_a_time(monkeypatch):
    """The CI instance ``gen --n 66 --d 3 --k 2 --seed 1``, whose search finds
    nothing: sweeping every deletion set of size <= 2 looked at 1,953 of them
    one at a time, and with size 3 allowed, all 9,999 the budget affords."""
    inst = parse_instance(serialize_instance(plant_isr_instance(gen_random_degenerate(66, 3, 1), 2, 1)))
    rest = inst.graph.n - len(inst.anchors)
    items = recorded_deletion_sets(monkeypatch)
    for deletions, tried in ((2, rest + comb(rest, 2)), (3, 9_999)):
        items.clear()
        kernel, log = kernelize_quasiwide(inst, QuasiWideParams(max_deletions=deletions))
        assert len(log) == 0 and kernel.graph.n == inst.graph.n
        looked = sum(seen for _size, _run, seen in items)
        assert 0 < looked <= 300, (deletions, looked)
        assert sum(run for _size, run, _seen in items) >= tried


def test_a_wild_pick_strikes_no_candidate_it_meets_only_inside_b():
    """The path 5-0-1-6-2-4-3.  At B = {0, 2}, the first pick 1 is wild; its
    ball, computed with 0 blocked, reaches 2 through 6, and so does the ball
    of the later tame candidate 3 through 4.  They meet only inside B, so 3
    stays a candidate and is picked."""
    g = Graph(range(7), [(5, 0), (0, 1), (1, 6), (6, 2), (2, 4), (4, 3)])
    params = QuasiWideParams(max_deletions=2)
    cert = scattered_certificate(g, frozenset(range(1, 7)), 3, params)
    assert cert == ScatteredCertificate(frozenset({0, 2}), frozenset({1, 3, 5}))
    assert cert == reference.search_scattered(g, list(range(1, 7)), params, lambda _s: 3)


def test_a_wild_pick_strikes_the_tame_candidates_it_meets_outside_b(monkeypatch):
    """The triangle 0-1-3, with 2 joined to 0, 1 and the pendant 4.  B = {0}
    and B = {1} fail, and the pool is compared.  At B = {2}, the first pick 0
    is wild, its ball {0, 1, 3} strikes the tame 3, but not the wild 4,
    whose cached ball meets it too: 4's ball once 2 is gone is {4}."""
    compared = []
    conflicts = quasiwide._conflicts
    monkeypatch.setattr(quasiwide, "_conflicts", lambda *args: compared.append(1) or conflicts(*args))
    g = Graph(range(5), [(0, 1), (0, 3), (1, 3), (0, 2), (1, 2), (2, 4)])
    params = QuasiWideParams(max_deletions=2)
    cert = scattered_certificate(g, frozenset({0, 1, 3, 4}), 2, params)
    assert compared
    assert cert == ScatteredCertificate(frozenset({2}), frozenset({0, 4}))
    assert cert == reference.search_scattered(g, [0, 1, 3, 4], params, lambda _s: 2)


@pytest.mark.parametrize("where", ["inside a run", "at the end of a level"])
def test_budget_runs_out_in_a_skipped_run_as_it_did_set_by_set(monkeypatch, where):
    """A d = 3 graph on 12 vertices that needs 4 << |B| scattered vertices:
    the rest of size 1 after the comparison is one skipped run, and size 2
    has runs in the middle.  A budget that ends inside a run, or exactly with
    the last run of size 1, gives None after asking ``required`` for the same
    sizes as the reference, which tries every set one at a time."""
    g = gen_random_degenerate(12, 3, 0)
    params = QuasiWideParams(max_deletions=2)
    items = recorded_deletion_sets(monkeypatch)
    assert _ScatteredWorkspace(g, frozenset()).search(list(range(12)), params, lambda s: 4 << s) is None
    spent = list(itertools.accumulate(run for _size, run, _seen in items))
    if where == "inside a run":
        k = next(k for k, (size, run, seen) in enumerate(items) if size == 2 and run > 2 and not seen)
        budget = 1 + spent[k] - items[k][1] // 2
    else:
        k = max(k for k, (size, _run, _seen) in enumerate(items) if size == 1)
        assert not items[k][2]
        budget = 1 + spent[k]
    starved = QuasiWideParams(max_deletions=2, search_budget=budget)
    ours, theirs = [], []
    assert _ScatteredWorkspace(g, frozenset()).search(
        list(range(12)), starved, lambda s: ours.append(s) or 4 << s
    ) is None
    assert reference.search_scattered(
        g, list(range(12)), starved, lambda s: theirs.append(s) or 4 << s
    ) is None
    assert ours == theirs == list(range(items[k][0] + 1 + (where != "inside a run")))


def test_kernel_logs_match_stored_run():
    insts = [inst for inst, _ in reference.isr_corpus()] + reference.sparse_corpus()
    runs = [
        kernelize_quasiwide(inst, QuasiWideParams(class_threshold=2 * inst.k, search_budget=2000))
        for inst in insts
    ]
    runs += [kernelize_quasiwide(inst, QuasiWideParams()) for inst in reference.sparse_corpus()]
    assert reference.log_digest(runs) == KERNEL_LOGS_DIGEST
