"""Acceptance suite: one pass/fail line per criterion (run with pytest -s).

Criteria are property sweeps against the ground-truth search plus evaluated
closed-form bounds.  Corpora are deterministic; sizes are fixed by the
criteria themselves (500 / 300 / 1000 / 100 / 200 instances).
"""

import itertools
import random
import time

from tokenjump import (
    QuasiWideParams,
    Verdict,
    bfs_reconfig,
    gadget_vertex_count,
    gen_random_degenerate,
    isr_to_dsr,
    kernelize_degenerate,
    low_degree_threshold,
    solve_dsr,
    solve_isr_degenerate,
    solve_isr_quasiwide,
    verify_sequence,
)

import reference


def _report(num, desc, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_isr_soundness_sweep():
    start = time.perf_counter()
    corpus = reference.isr_corpus()
    oracle = reference.isr_oracle_outcomes()
    agree = 0
    for (inst, _d), expected in zip(corpus, oracle):
        result = solve_isr_degenerate(inst)
        if result.outcome.verdict == expected.verdict:
            agree += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "degenerate pipeline verdicts equal the unreduced search on 500 instances",
        agree == len(corpus) == 500 and elapsed < 300,
        f"{agree}/{len(corpus)} agree, {elapsed:.1f}s",
    )


def test_criterion_2_quasiwide_param_sweep():
    corpus = reference.isr_corpus()
    oracle = reference.isr_oracle_outcomes()
    total = agree = 0
    for (inst, _d), expected in zip(corpus, oracle):
        for threshold in (2 * inst.k, 8, 32):
            for deletions in (0, 1, 2):
                params = QuasiWideParams(
                    class_threshold=threshold,
                    max_deletions=deletions,
                    search_budget=2000,
                )
                result = solve_isr_quasiwide(inst, params)
                total += 1
                if result.outcome.verdict == expected.verdict:
                    agree += 1
    _report(
        2,
        "scattered-set pipeline matches the oracle under all 9 parameter combos",
        agree == total == 9 * len(corpus),
        f"{agree}/{total} agree",
    )


def test_criterion_3_dsr_distance_preservation():
    corpus = reference.dsr_corpus()
    oracle = reference.dsr_oracle_outcomes()
    exact = 0
    for inst, expected in zip(corpus, oracle):
        result = solve_dsr(inst)
        ok = result.outcome.verdict == expected.verdict
        if ok and expected.verdict is Verdict.YES:
            ok = result.outcome.sequence.length == expected.sequence.length
            ok = ok and verify_sequence(inst, result.outcome.sequence) is None
        exact += bool(ok)
    _report(
        3,
        "core-twin kernel preserves exact shortest distances on 300 instances",
        exact == len(corpus) == 300,
        f"{exact}/{len(corpus)} exact",
    )


def test_criterion_4_sunflower_guarantee():
    rng = random.Random(0xACCE55)
    ok = 0
    trials = 1000
    for _ in range(trials):
        card = rng.choice((2, 3))
        petals = rng.choice((3, 4))
        goal = reference.sunflower_threshold(card, petals) + 1 + rng.randint(0, 20)
        universe = rng.randint(12, 40)
        members = set()
        while len(members) < goal:
            members.add(frozenset(rng.sample(range(universe), rng.randint(1, card))))
        family = reference.SetFamily(sorted(members, key=sorted), card_bound=card)
        flower = reference.mask_sunflower(family, petals)
        if flower is not None and reference.is_valid_sunflower(family, flower, petals):
            ok += 1
    _report(
        4,
        "extraction never fails above the size threshold and always validates",
        ok == trials,
        f"{ok}/{trials} families",
    )


def test_criterion_5_kernel_bound_certification():
    formulas = low_degree_threshold(1, 2) == 162 and 3 * low_degree_threshold(1, 2) == 486
    corpus = reference.isr_corpus()
    ok = 0
    for inst, _d in corpus:
        kern = kernelize_degenerate(inst)
        g = kern.kernel.graph
        outside = g.n - len(inst.anchors & g.vertex_set)
        if outside <= (2 * kern.d + 1) * kern.low_degree_bound:
            ok += 1
    _report(
        5,
        "every kernel obeys the certified non-endpoint size bound",
        formulas and ok == len(corpus),
        f"{ok}/{len(corpus)} kernels, d=1 k=2 bound 486",
    )


def test_criterion_6_hardness_reduction_equivalence():
    corpus = reference.tiny_isr_corpus()
    structure_ok = 0
    verdict_ok = 0
    for inst in corpus:
        gadget, gm = isr_to_dsr(inst)
        g = gadget.graph
        ok = g.n == gadget_vertex_count(inst.graph.n, inst.graph.m, inst.k)
        ok = ok and not _dominating_sets_of_size(g, inst.k - 1)
        for dom in _dominating_sets_of_size(g, inst.k):
            cliques = sorted(gm.position_of[v][0] for v in dom)
            projected = frozenset(gm.position_of[v][1] - 1 for v in dom)
            ok = ok and cliques == list(range(1, inst.k + 1))
            ok = ok and len(projected) == inst.k
            ok = ok and reference.independent(inst.graph, projected)
        structure_ok += bool(ok)
        if bfs_reconfig(inst).verdict == bfs_reconfig(gadget).verdict:
            verdict_ok += 1
    _report(
        6,
        "gadget structure holds and gadget verdicts equal the originals",
        structure_ok == verdict_ok == len(corpus) == 100,
        f"structure {structure_ok}/{len(corpus)}, verdicts {verdict_ok}/{len(corpus)}",
    )


def _dominating_sets_of_size(g, size):
    if size < 1:
        return []
    masks = {v: g.closed_neighbor_set(v) for v in g.vertices}
    full = set(g.vertex_set)
    found = []
    for combo in itertools.combinations(g.vertices, size):
        covered = set()
        for v in combo:
            covered |= masks[v]
        if covered == full:
            found.append(combo)
    return found


def test_criterion_7_counting_proposition():
    rng = random.Random(0x600D)
    ok = 0
    graphs = 200
    for _ in range(graphs):
        n = rng.randint(1, 60)
        d = rng.randint(1, 3)
        g = gen_random_degenerate(n, d, rng.randrange(2**30))
        low = sum(1 for v in g.vertices if g.degree(v) <= 2 * d)
        if g.n <= (2 * d + 1) * low and g.m <= d * g.n:
            ok += 1
    _report(
        7,
        "generated graphs obey the low-degree counting and edge-count bounds",
        ok == graphs,
        f"{ok}/{graphs} graphs",
    )


def test_criterion_8_engine_minimality():
    checked = ok = 0
    pools = [
        [(inst, out) for (inst, _d), out in zip(reference.isr_corpus(), reference.isr_oracle_outcomes())],
        list(zip(reference.dsr_corpus(), reference.dsr_oracle_outcomes())),
    ]
    for pool in pools:
        for inst, outcome in pool:
            if inst.graph.n > 12:
                continue
            checked += 1
            dist = reference.materialized_distance(inst)
            if outcome.verdict is Verdict.YES:
                ok += dist == outcome.sequence.length
            else:
                ok += dist is None
    _report(
        8,
        "search lengths equal distances in the materialized reconfiguration graph",
        checked > 0 and ok == checked,
        f"{ok}/{checked} instances at n <= 12",
    )
