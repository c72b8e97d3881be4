"""Seeded random instances for the verification suites.

Generators are parameterized by string-tagged seeds so every case is
reproducible in isolation: the same (seed, tag) pair always yields the same
instance, independent of how many other cases ran before it.  Integer
coordinates are drawn from a bounded window, which caps how large iterated
sumsets can get and keeps suite runtimes flat.
"""

from __future__ import annotations

import random

from .groups import GroupSpace, GSet

__all__ = [
    "rng_for",
    "random_space",
    "random_gset",
    "random_pair",
    "random_triple",
]


def rng_for(seed: int, tag: str) -> random.Random:
    """Deterministic per-case generator, stable across platforms and runs."""
    return random.Random(f"{seed}:{tag}")


def random_space(rng: random.Random) -> GroupSpace:
    """Either the integers or a two-dimensional cyclic grid."""
    if rng.random() < 0.5:
        return GroupSpace((0,))
    m = rng.randint(2, 12)
    return GroupSpace((m, m))


def random_gset(
    rng: random.Random,
    space: GroupSpace,
    lo: int,
    hi: int,
    spread: int = 12,
) -> GSet:
    """Random non-empty subset with between lo and hi elements when the
    space is large enough; small finite spaces may saturate earlier."""
    target = rng.randint(lo, hi)
    # Coordinate windows 0..m-1, or -spread..spread on a free coordinate, as
    # randrange bounds: randint(a, b) is randrange(a, b + 1).
    starts = [0 if m else -spread for m in space.moduli]
    stops = [m or spread + 1 for m in space.moduli]
    elems: set[tuple[int, ...]] = set()
    for _ in range(20 * target):
        elems.add(tuple(map(rng.randrange, starts, stops)))
        if len(elems) == target:
            break
    # The draws are normalized coordinates already, and distinct.
    return GSet._trusted(space, tuple(sorted(elems)))


def random_pair(
    rng: random.Random, a_hi: int = 8, b_hi: int = 4
) -> tuple[GSet, GSet]:
    space = random_space(rng)
    return random_gset(rng, space, 1, a_hi), random_gset(rng, space, 1, b_hi)


def random_triple(
    rng: random.Random, a_hi: int = 8, b_hi: int = 4, c_hi: int = 6
) -> tuple[GSet, GSet, GSet]:
    space = random_space(rng)
    return (
        random_gset(rng, space, 1, a_hi),
        random_gset(rng, space, 1, b_hi),
        random_gset(rng, space, 1, c_hi),
    )
