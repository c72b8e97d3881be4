"""Extremal constructions showing how large A+hB can get.

Both families live in finite coordinate groups and come with predicted
statistics, so a measurement pipeline can cross-check enumeration against
the closed forms.

Family 1 (universal lower bound): in Z_b^k with b = l*a and
k = h + a^(h-1)/h, the set A is a grid A_1 of step l on the first h
coordinates plus one unit vector for each remaining coordinate, and B is the
union of the first h full axis subgroups.  A_1 absorbs B up to grid steps
while each unit vector spawns nearly disjoint translates of hB, so |A+hB|
is at least 1 + (b^h - 1) a^(h-1) / h while |A+B| stays below (h+1) l a^h.

Family 2 (alpha close to 1): in Z_a^h x Z_{b+1} with b = (alpha-1)a^(h-1)/h,
the set A is the full grid A_1 = Z_a^h x {0} plus b points in distinct
non-zero cosets, and B is the union of the h axis subgroups of the grid
part.  A_1 absorbs B entirely, so |A+B| <= alpha a^h, yet A+hB is exactly
b+1 disjoint translates of A_1.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import InputError
from .groups import GroupSpace, GSet, _is_int, _plain, cardinality_stream, fold_sumset

__all__ = [
    "ConstructionSpec",
    "example1",
    "example2",
    "construction_spec_to_json",
]


@dataclass(frozen=True)
class ConstructionSpec:
    which: str
    h: int
    a: int
    l: int | None
    alpha: Fraction | None
    b: int
    k: int
    moduli: tuple[int, ...]
    predicted: dict


def construction_spec_to_json(spec: ConstructionSpec) -> dict:
    return _plain(spec)


def _measure(
    a: GSet, b: GSet, spec: ConstructionSpec
) -> tuple[tuple[int, ...], int, bool]:
    """The sizes |A+iB| (i = 0..h) and |hB| of a construction, and whether
    they meet its predictions."""
    sizes = tuple(cardinality_stream(a, b, spec.h))
    hb = len(fold_sumset(b, spec.h))
    pred = spec.predicted
    if spec.which == "example1":
        top_ok = sizes[-1] >= pred["top_lower"]
    else:
        top_ok = sizes[-1] == pred["top_exact"]
    ok = sizes[0] == pred["m"] and sizes[1] <= pred["ab_cap"] and hb == pred["hb"]
    return sizes, hb, ok and top_ok


def _grid_and_axes(
    h: int, k: int, grid_steps: range, axis_steps: range
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The grid grid_steps^h and the union of the first h axis subgroups
    {s e_i : s in axis_steps}, as points of rank k that are 0 past h."""
    pad = (0,) * (k - h)
    grid = [point + pad for point in product(grid_steps, repeat=h)]
    axes = [(0,) * i + (s,) + (0,) * (k - 1 - i) for i in range(h) for s in axis_steps]
    return grid, axes


def _check_positive_int(name: str, value) -> int:
    if not _is_int(value) or value < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return value


def example1(h: int, a: int, l: int) -> tuple[GSet, GSet, ConstructionSpec]:
    """Grid-plus-unit-vectors construction in Z_b^k, b = l*a.

    Requires h | a^(h-1) so that the number of extra coordinates
    a^(h-1)/h is an integer, and b >= 2 so the unit vectors are distinct
    from the origin.
    """
    _check_positive_int("h", h)
    _check_positive_int("a", a)
    _check_positive_int("l", l)
    if a ** (h - 1) % h != 0:
        raise InputError(
            f"divisibility h | a^(h-1) required: {h} does not divide {a}^{h - 1}"
        )
    b = l * a
    if b < 2:
        raise InputError(f"need b = l*a >= 2 for distinct unit vectors, got {b}")
    extra = a ** (h - 1) // h
    k = h + extra
    if k > sys.maxsize:
        raise InputError(f"h = {h} and a = {a} need more than {sys.maxsize} coordinates")
    space = GroupSpace((b,) * k)
    a1, axes = _grid_and_axes(h, k, range(0, b, l), range(b))
    a2 = [
        tuple(1 if idx == h + j else 0 for idx in range(k)) for j in range(extra)
    ]
    a_set = GSet.from_coords(space, a1 + a2)
    b_set = GSet.from_coords(space, axes)
    predicted = {
        "m": a**h + extra,
        "ab_cap": (h + 1) * l * a**h,
        "top_lower": 1 + (b**h - 1) * extra,
        "hb": b**h,
    }
    spec = ConstructionSpec("example1", h, a, l, None, b, k, space.moduli, predicted)
    return a_set, b_set, spec


def example2(h: int, a: int, alpha) -> tuple[GSet, GSet, ConstructionSpec]:
    """Absorbing grid with b extra coset points in Z_a^h x Z_{b+1}.

    alpha must lie in [1, 2] and make b = (alpha-1) a^(h-1) / h a
    non-negative integer.
    """
    _check_positive_int("h", h)
    _check_positive_int("a", a)
    # Messages show alpha as given: its value may have too many digits to print.
    given = alpha
    try:
        alpha = Fraction(alpha)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"alpha must be a real number, got {given!r}") from exc
    if not 1 <= alpha <= 2:
        raise InputError(f"alpha must lie in [1, 2], got {given!r}")
    b_frac = (alpha - 1) * a ** (h - 1) / h
    if b_frac.denominator != 1:
        raise InputError(
            f"(alpha-1) a^(h-1) / h must be an integer at alpha = {given!r}, a = {a}, h = {h}"
        )
    b = int(b_frac)
    k = h + 1
    space = GroupSpace((a,) * h + (b + 1,))
    a1, axes = _grid_and_axes(h, k, range(a), range(a))
    a2 = [(0,) * h + (j,) for j in range(1, b + 1)]
    a_set = GSet.from_coords(space, a1 + a2)
    b_set = GSet.from_coords(space, axes)
    predicted = {
        "m": a**h + b,
        "ab_cap": alpha * a**h,
        "ab_exact": a**h + b * (h * (a - 1) + 1),
        "top_exact": (b + 1) * a**h,
        "hb": a**h,
    }
    spec = ConstructionSpec(
        "example2", h, a, None, alpha, b, k, space.moduli, predicted
    )
    return a_set, b_set, spec
