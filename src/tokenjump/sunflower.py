"""Constructive sunflower extraction from families of bounded-size sets."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional


class SetFamily:
    """An indexed family of distinct nonempty sets of bounded size.

    Members must be nonempty: a sunflower petal is required to be nonempty, so
    an empty member could never participate in one and would break the
    extraction guarantee.
    """

    __slots__ = ("members", "card_bound")

    def __init__(
        self, members: Iterable[Iterable[int]], card_bound: int | None = None
    ) -> None:
        mems = tuple(frozenset(m) for m in members)
        if card_bound is None:
            card_bound = max((len(m) for m in mems), default=1)
        if card_bound < 1:
            raise ValueError("card_bound must be >= 1")
        seen: set[frozenset[int]] = set()
        for idx, m in enumerate(mems):
            if not m:
                raise ValueError(f"member {idx} is empty")
            if len(m) > card_bound:
                raise ValueError(f"member {idx} exceeds card_bound {card_bound}")
            if m in seen:
                raise ValueError(f"member {idx} duplicates an earlier member")
            seen.add(m)
        self.members = mems
        self.card_bound = card_bound

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Sunflower:
    """Member indices whose sets pairwise intersect in exactly ``core``."""

    core: frozenset[int]
    petal_indices: tuple[int, ...]


def sunflower_threshold(card_bound: int, petals: int) -> int:
    """Family size above which extraction of ``petals`` petals is guaranteed."""
    return math.factorial(card_bound) * (petals - 1) ** card_bound


def find_sunflower(fam: SetFamily, petals_wanted: int) -> Optional[Sunflower]:
    """Extract a sunflower with at least ``petals_wanted`` petals.

    Greedy maximal pairwise-disjoint selection first; otherwise restrict to
    the most frequent element (ties to the smallest id), strip it, recurse,
    and re-add it to the core.  Whenever the family is larger than
    ``sunflower_threshold(card_bound, petals_wanted)`` a sunflower is always
    found; below the threshold the search may return None.  Deterministic.
    """
    if petals_wanted < 1:
        raise ValueError("petals_wanted must be >= 1")
    indexed = list(enumerate(fam.members))
    return _extract(indexed, petals_wanted)


def _extract(
    indexed: list[tuple[int, frozenset[int]]], want: int
) -> Optional[Sunflower]:
    if len(indexed) < want:
        return None
    # Greedy maximal pairwise-disjoint subfamily, scanning in index order.
    chosen: list[int] = []
    union: set[int] = set()
    for idx, s in indexed:
        if s and not (s & union):
            chosen.append(idx)
            union |= s
    if len(chosen) >= want:
        return Sunflower(core=frozenset(), petal_indices=tuple(chosen))
    freq: Counter[int] = Counter()
    for _, s in indexed:
        freq.update(s)
    if not freq:
        return None
    best = max(freq.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    sub = [(idx, s - {best}) for idx, s in indexed if best in s]
    inner = _extract(sub, want)
    if inner is None:
        return None
    return Sunflower(core=inner.core | {best}, petal_indices=inner.petal_indices)


def is_valid_sunflower(
    fam: SetFamily, flower: Sunflower, petals_wanted: int | None = None
) -> bool:
    """Invariant check, linear in the petal sizes; also a pre-deletion guard.

    Two or more sets meet pairwise in exactly the core when the core lies in
    each and their petals (set minus core) are pairwise disjoint.
    """
    idxs = flower.petal_indices
    if len(set(idxs)) != len(idxs):
        return False
    if any(i < 0 or i >= len(fam.members) for i in idxs):
        return False
    if petals_wanted is not None and len(idxs) < petals_wanted:
        return False
    sets = [fam.members[i] for i in idxs]
    petals = [s - flower.core for s in sets]
    if not all(petals) or sum(map(len, petals)) != len(set().union(*petals)):
        return False
    return len(sets) < 2 or all(flower.core <= s for s in sets)
