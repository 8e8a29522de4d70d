import random

import pytest
from hypothesis import given, settings, strategies as st

from tokenjump import (
    SetFamily,
    Sunflower,
    find_sunflower,
    is_valid_sunflower,
    sunflower_threshold,
)

import reference


def test_family_validation():
    with pytest.raises(ValueError, match="empty"):
        SetFamily([{1}, set()])
    with pytest.raises(ValueError, match="duplicates"):
        SetFamily([{1, 2}, {2, 1}])
    with pytest.raises(ValueError, match="card_bound"):
        SetFamily([{1, 2, 3}], card_bound=2)
    fam = SetFamily([{1, 2}, {3}])
    assert fam.card_bound == 2


def test_disjoint_singletons_have_empty_core():
    fam = SetFamily([{1}, {2}, {3}])
    flower = find_sunflower(fam, 3)
    assert flower.core == frozenset()
    assert flower.petal_indices == (0, 1, 2)
    assert is_valid_sunflower(fam, flower, 3)


def test_common_element_becomes_core():
    fam = SetFamily([{1, 2}, {1, 3}, {1, 4}])
    flower = find_sunflower(fam, 3)
    assert flower.core == {1}
    assert len(flower.petal_indices) == 3
    assert is_valid_sunflower(fam, flower, 3)


def test_guarantee_on_many_pairs():
    # 200 distinct 2-sets over 400 elements; threshold 2!*2^2 = 8
    assert sunflower_threshold(2, 3) == 8
    members = [{2 * i, 2 * i + 1} for i in range(200)]
    fam = SetFamily(members, card_bound=2)
    flower = find_sunflower(fam, 3)
    assert flower is not None and len(flower.petal_indices) >= 3
    assert is_valid_sunflower(fam, flower, 3)


def test_degenerate_inputs_return_absent():
    assert find_sunflower(SetFamily([]), 1) is None
    assert find_sunflower(SetFamily([{1}, {2}]), 3) is None
    with pytest.raises(ValueError):
        find_sunflower(SetFamily([{1}]), 0)


def test_single_petal_request():
    fam = SetFamily([{1, 2}])
    flower = find_sunflower(fam, 1)
    assert flower is not None and is_valid_sunflower(fam, flower, 1)


def test_determinism():
    rng = random.Random(3)
    members = set()
    while len(members) < 40:
        members.add(frozenset(rng.sample(range(12), rng.randint(1, 3))))
    ordered = sorted(members, key=sorted)
    fam = SetFamily(ordered)
    a = find_sunflower(fam, 3)
    b = find_sunflower(SetFamily(ordered), 3)
    assert a == b


def test_validator_rejects_bad_flowers():
    fam = SetFamily([{1, 2}, {1, 3}, {2, 3}])
    assert not is_valid_sunflower(fam, Sunflower(frozenset({1}), (0, 1, 2)))
    assert not is_valid_sunflower(fam, Sunflower(frozenset(), (0, 0)))
    assert not is_valid_sunflower(fam, Sunflower(frozenset(), (0, 5)))
    assert not is_valid_sunflower(
        fam, Sunflower(frozenset({1, 2}), (0,))
    )  # petal would be empty
    good = Sunflower(frozenset({1}), (0, 1))
    assert is_valid_sunflower(fam, good)
    assert not is_valid_sunflower(fam, good, petals_wanted=3)


@st.composite
def families(draw):
    card = draw(st.integers(1, 3))
    universe = draw(st.integers(3, 15))
    count = draw(st.integers(1, 24))
    seen = set()
    for _ in range(count):
        size = draw(st.integers(1, card))
        seen.add(frozenset(draw(st.permutations(range(universe)))[:size]))
    return SetFamily(sorted(seen, key=sorted), card_bound=card)


@settings(deadline=None, max_examples=80)
@given(families(), st.integers(1, 5))
def test_found_flowers_always_satisfy_invariants(fam, want):
    flower = find_sunflower(fam, want)
    if flower is not None:
        assert len(flower.petal_indices) >= want
        assert is_valid_sunflower(fam, flower, want)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 3), st.integers(3, 4), st.integers(0, 10_000))
def test_guarantee_above_threshold(card, petals, seed):
    rng = random.Random(seed)
    threshold = sunflower_threshold(card, petals)
    members = set()
    while len(members) < threshold + 1 + rng.randint(0, 10):
        size = rng.randint(1, card)
        members.add(frozenset(rng.sample(range(14), size)))
    fam = SetFamily(sorted(members, key=sorted), card_bound=card)
    flower = find_sunflower(fam, petals)
    assert flower is not None
    assert is_valid_sunflower(fam, flower, petals)


@settings(deadline=None, max_examples=200)
@given(families(), st.data())
def test_validator_matches_pairwise_reference(fam, data):
    idxs = tuple(data.draw(st.lists(st.integers(-1, len(fam)), max_size=6)))
    core = data.draw(st.frozensets(st.integers(0, 14), max_size=3))
    flowers = [Sunflower(core, idxs)]
    found = find_sunflower(fam, 2)
    if found is not None:
        extra = data.draw(st.integers(0, 14))
        flowers += [
            found,
            Sunflower(found.core | {extra}, found.petal_indices),
            Sunflower(found.core - {extra}, found.petal_indices),
            Sunflower(found.core, found.petal_indices + idxs),
            Sunflower(found.core, found.petal_indices[:1]),
        ]
    want = data.draw(st.none() | st.integers(0, 6))
    for flower in flowers:
        assert is_valid_sunflower(fam, flower, want) == reference.sunflower_valid(
            fam, flower, want
        )
