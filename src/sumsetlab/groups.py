"""Finitely generated commutative ambient groups and their finite subsets.

A group space is a product Z_{m_1} x ... x Z_{m_k} described by a tuple of
per-coordinate moduli, where modulus 0 marks a free integer coordinate and
modulus m > 0 marks Z_m with canonical representatives 0..m-1.  All sumset
arithmetic happens on normalized coordinate tuples, so equality and hashing
are structural.

The sumset A+B is {a+b : a in A, b in B}; iterated sumsets A+hB fold B in one
layer at a time, which also yields hB itself via A = {0}.  One private fold
walks the layers A, A+B, ..., A+hB for every entry point (sumset, iterated
sumset, hB, cardinality stream, and the graph layers in `graphs`), with one
addition rule per space and an optional cardinality guard (`max_size`, off
by default).  The fold keeps only the current layer alive, so |A+iB| profiles
of deep iterates do not store every intermediate set.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from math import inf
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from .errors import GuardError, InputError

__all__ = [
    "GroupSpace",
    "GElement",
    "GSet",
    "normalize",
    "sumset",
    "iterated_sumset",
    "fold_sumset",
    "cardinality_stream",
    "zero_set",
    "gset_to_json",
    "gset_from_json",
    "dump_gset",
    "load_gset",
]

Coords = tuple[int, ...]


def _is_int(v: object) -> bool:
    # JSON true/false load as bool, which Python counts as int.
    return isinstance(v, int) and not isinstance(v, bool)


def _add_free(x: Coords, y: Coords) -> Coords:
    return tuple(map(add, x, y))


def _add_cyclic(moduli: tuple[int, ...], x: Coords, y: Coords) -> Coords:
    return tuple([(a + b) % m if m else a + b for a, b, m in zip(x, y, moduli)])


@dataclass(frozen=True)
class GroupSpace:
    """Ambient group Z_{m_1} x ... x Z_{m_k}; modulus 0 means a copy of Z."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        moduli = tuple(self.moduli)
        object.__setattr__(self, "moduli", moduli)
        if len(moduli) == 0:
            raise InputError("a group space needs rank >= 1")
        for m in moduli:
            if not _is_int(m) or m < 0:
                raise InputError(f"moduli must be integers >= 0, got {m!r}")

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def normalize_coords(self, coords: Sequence[int]) -> Coords:
        if len(coords) != self.rank:
            raise InputError(
                f"coordinate tuple of length {len(coords)} in a rank-{self.rank} space"
            )
        out = []
        for c, m in zip(coords, self.moduli):
            if not _is_int(c):
                raise InputError(f"coordinates must be integers, got {c!r}")
            out.append(c % m if m else c)
        return tuple(out)

    @cached_property
    def _add(self) -> Callable[[Coords, Coords], Coords]:
        # The addition rule on normalized coordinates, chosen once per space
        # from module-level functions, so a space stays picklable.
        return partial(_add_cyclic, self.moduli) if any(self.moduli) else _add_free

    def add_coords(self, x: Coords, y: Coords) -> Coords:
        return self._add(x, y)

    def zero_coords(self) -> Coords:
        return (0,) * self.rank

    def is_finite(self) -> bool:
        return all(m > 0 for m in self.moduli)


@dataclass(frozen=True)
class GElement:
    """A single group element; coordinates are normalized on construction."""

    space: GroupSpace
    coords: Coords

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", self.space.normalize_coords(self.coords))

    def __add__(self, other: "GElement") -> "GElement":
        _require_same_space(self.space, other.space)
        return GElement(self.space, self.space.add_coords(self.coords, other.coords))

    def __neg__(self) -> "GElement":
        return GElement(self.space, tuple(-c for c in self.coords))

    def __sub__(self, other: "GElement") -> "GElement":
        return self + (-other)


def normalize(coords: Sequence[int], space: GroupSpace) -> GElement:
    """Canonical representative of coords in the given space."""
    return GElement(space, tuple(coords))


@dataclass(frozen=True)
class GSet:
    """A finite subset of a group space, stored sorted and deduplicated.

    The constructor normalizes arbitrary coordinate input, so two GSets are
    equal exactly when they denote the same subset of the same space.  The
    empty set is a legal value; operations that cannot accept it say so.
    """

    space: GroupSpace
    elements: tuple[Coords, ...]
    _members: frozenset = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        norm = sorted({self.space.normalize_coords(c) for c in self.elements})
        object.__setattr__(self, "elements", tuple(norm))
        object.__setattr__(self, "_members", frozenset(norm))

    @classmethod
    def from_coords(cls, space: GroupSpace, coords: Iterable[Sequence[int]]) -> "GSet":
        return cls(space, tuple(tuple(c) for c in coords))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Coords]:
        return iter(self.elements)

    def __contains__(self, coords: Sequence[int]) -> bool:
        return self.space.normalize_coords(tuple(coords)) in self._members

    @property
    def is_empty(self) -> bool:
        return not self.elements

    def member_set(self) -> frozenset:
        return self._members

    def translate(self, coords: Sequence[int]) -> "GSet":
        x = self.space.normalize_coords(tuple(coords))
        return GSet(
            self.space, tuple(self.space.add_coords(e, x) for e in self.elements)
        )


def zero_set(space: GroupSpace) -> GSet:
    return GSet(space, (space.zero_coords(),))


def _require_same_space(a: GroupSpace, b: GroupSpace) -> None:
    if a != b:
        raise InputError(f"operands live in different spaces: {a.moduli} vs {b.moduli}")


def _check_fold(a: GSet, b: GSet, h: int) -> None:
    # The one argument check of every A+hB entry point.
    if not isinstance(h, int) or h < 0:
        raise InputError(f"iteration count must be an integer >= 0, got {h!r}")
    _require_same_space(a.space, b.space)
    if a.is_empty or (h > 0 and b.is_empty):
        raise InputError("sumset operands must be non-empty")


def _layers(
    space: GroupSpace,
    start: Iterable[Coords],
    b_elems: Sequence[Coords],
    h: int,
    max_size: int | None,
) -> Iterator[set]:
    """The layers X, X+B, ..., X+hB of X = start, as coordinate sets.

    Each layer is built from the last and yielded before the next is built.
    The guard checks each layer after every row x+B, so a tiny cap fails
    before a large allocation; layer 0 is never checked.
    """
    rule = space._add
    cap = inf if max_size is None else max_size
    cur = set(start)
    yield cur
    for _ in range(h):
        nxt: set = set()
        grow = nxt.update
        for x in cur:
            grow(map(rule, repeat(x), b_elems))
            if len(nxt) > cap:
                raise GuardError(
                    f"sumset cardinality guard: result exceeds cap {max_size}"
                )
        cur = nxt
        yield cur


def _top_layer(a: GSet, b: GSet, h: int, max_size: int | None) -> GSet:
    _check_fold(a, b, h)
    for layer in _layers(a.space, a.elements, b.elements, h, max_size):
        pass
    return GSet(a.space, tuple(layer))


def sumset(a: GSet, b: GSet, max_size: int | None = None) -> GSet:
    """A+B = {a+b : a in A, b in B}.  Both operands must be non-empty."""
    return _top_layer(a, b, 1, max_size)


def iterated_sumset(a: GSet, b: GSet, h: int, max_size: int | None = None) -> GSet:
    """A+hB, folding one copy of B at a time; h=0 returns A."""
    return _top_layer(a, b, h, max_size)


def fold_sumset(b: GSet, h: int, max_size: int | None = None) -> GSet:
    """hB = B + ... + B (h copies); h=0 gives the zero singleton."""
    if b.is_empty:
        raise InputError("fold_sumset needs a non-empty set")
    return _top_layer(zero_set(b.space), b, h, max_size)


def cardinality_stream(
    a: GSet, b: GSet, h: int, max_size: int | None = None
) -> list[int]:
    """[|A|, |A+B|, ..., |A+hB|], holding only one layer in memory at a time."""
    _check_fold(a, b, h)
    layers = _layers(a.space, a.elements, b.elements, h, max_size)
    return [len(layer) for layer in layers]


# --- JSON interchange ------------------------------------------------------
#
# {"moduli": [m_1, ..., m_k], "elements": [[c_1, ..., c_k], ...]}
# Input need not be normalized; output always is (sorted, deduplicated).
# Set and graph files and CLI reports are all read by `_read_json` and
# written by `_write_json`.


def _read_json(path: str, kind: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _document(obj: object, kind: str, keys: Sequence[str]) -> list:
    """The values of `keys` in a JSON object document."""
    if not isinstance(obj, dict):
        raise InputError(f"{kind} document must be a JSON object")
    for key in keys:
        if key not in obj:
            raise InputError(f"{kind} document missing key '{key}'")
    return [obj[key] for key in keys]


def _write_text(text: str, path: str | None) -> None:
    """Write text to path, or to standard output when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _write_json(obj: object, path: str | None) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def gset_to_json(a: GSet) -> dict:
    return {
        "moduli": list(a.space.moduli),
        "elements": [list(c) for c in a.elements],
    }


def gset_from_json(obj: object) -> GSet:
    moduli, elements = _document(obj, "set", ("moduli", "elements"))
    if not isinstance(moduli, list) or not moduli:
        raise InputError("'moduli' must be a non-empty list of integers")
    space = GroupSpace(tuple(moduli))
    if not isinstance(elements, list):
        raise InputError("'elements' must be a list of coordinate lists")
    coords = []
    for row in elements:
        if not isinstance(row, list):
            raise InputError("'elements' entries must be coordinate lists")
        coords.append(tuple(row))
    return GSet.from_coords(space, coords)


def dump_gset(a: GSet, path: str) -> None:
    _write_json(gset_to_json(a), path)


def load_gset(path: str) -> GSet:
    return gset_from_json(_read_json(path, "set"))
