"""Finitely generated commutative ambient groups and their finite subsets.

A group space is a product Z_{m_1} x ... x Z_{m_k} described by a tuple of
per-coordinate moduli, where modulus 0 marks a free integer coordinate and
modulus m > 0 marks Z_m with canonical representatives 0..m-1.  Sets hold
normalized coordinate tuples, so equality and hashing are structural.

The sumset A+B is {a+b : a in A, b in B}; iterated sumsets A+hB fold B in one
layer at a time, which also yields hB itself via A = {0}.  One private fold
walks the layers A, A+B, ..., A+hB for every entry point (sumset, iterated
sumset, hB, cardinality stream, the graph layers in `graphs`, and the
|X+S+kB| translate counts of the Reiher and NAP checks, `_translate_sizes`),
with an optional cardinality guard (`max_size`, off by default).  The fold
keeps only the current layer alive, so |A+iB| profiles of deep iterates do
not store every intermediate set.

The fold adds integer positions, one per point, in a Kronecker layout of
the bounding box of every layer: a free coordinate gets the width of the box
of A+hB, a cyclic coordinate of modulus m gets width 2m-1 and is folded back
once per layer.  Adding b to a point adds one shift to its position, and
ascending positions are sorted coordinate order.  A layer is one Python int
with its positions' bits set, so X+B is the OR of |B| shifts of X and |X|
is its popcount.  Inputs whose box would cost more in full-width int passes
than the least work a point-by-point loop could do (such as {0, 10**12} in
Z, or a small A with a large sparse B) keep the same positions in a set of
ints instead; the choice depends on the input sizes alone.  Either way the
guard trips exactly when some |A+iB| exceeds the cap.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from math import inf, prod
from operator import add, floordiv, mod, mul
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import GuardError, InputError

__all__ = [
    "GroupSpace",
    "GSet",
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

    def zero_coords(self) -> Coords:
        return (0,) * self.rank


@dataclass(frozen=True)
class GSet:
    """A finite subset of a group space, stored sorted and deduplicated.

    The constructor normalizes arbitrary coordinate input, so two GSets are
    equal exactly when they denote the same subset of the same space.  The
    empty set is a legal value; operations that cannot accept it say so.
    """

    space: GroupSpace
    elements: tuple[Coords, ...]

    def __post_init__(self) -> None:
        norm = sorted({self.space.normalize_coords(c) for c in self.elements})
        object.__setattr__(self, "elements", tuple(norm))

    @classmethod
    def _trusted(cls, space: GroupSpace, elements: tuple[Coords, ...]) -> "GSet":
        # For elements already normalized, sorted and distinct, as every
        # fold decodes them: skips the constructor's checks.
        gset = object.__new__(cls)
        object.__setattr__(gset, "space", space)
        object.__setattr__(gset, "elements", elements)
        return gset

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

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


def zero_set(space: GroupSpace) -> GSet:
    return GSet(space, (space.zero_coords(),))


def _require_same_space(a: GroupSpace, b: GroupSpace) -> None:
    if a != b:
        raise InputError(f"operands live in different spaces: {a.moduli} vs {b.moduli}")


def _check_fold(a: GSet, b: GSet, h: int) -> None:
    # The one argument check of every A+hB entry point.
    if not _is_int(h) or h < 0:
        raise InputError(f"iteration count must be an integer >= 0, got {h!r}")
    _require_same_space(a.space, b.space)
    if a.is_empty or (h > 0 and b.is_empty):
        raise InputError("sumset operands must be non-empty")


# --- the fold ----------------------------------------------------------------
#
# `_layers` walks X, X+B, ..., X+hB for every entry point.  Every point has
# one position in the box layout of `_Box`; `_layout` picks from the input
# sizes alone how a layer holds its positions: `_Lift` as the set bits of
# one int, `_Sparse` as a set of ints.  Both answer the same calls: `encode`
# a start set, `step` (add B's shifts, or a translate's), `size`, `minus` (set
# difference), `ascending` (the positions in order), `columns` (their
# coordinates, one column per coordinate), and, for the graph builders,
# `sums` (the folded positions of x+b for each b).  The lift also answers
# `translates` (the folded shifts of one layer int), from which a sum
# graph's reachability masks are made.

# What a lift costs, in point additions of the set container: a full-width
# pass over a layer (a shift-or, a cyclic fold, a popcount) costs one per
# `_PASS_BITS` bits (0.05-0.17 ns a bit, the more the wider the int), and
# decoding a layer to coordinates one per `_DECODE_BITS` bits (2-3.5 ns a
# bit, plus a share per point that the set container's sort pays as well).
# Both were set against an earlier fallback that added coordinate tuples
# (about 1.1 us each in Z, 1.8 us with a cyclic coordinate, on CPython 3.11
# on one x86-64 core).  A point addition costs 0.24 us in Z and 0.39 us in
# Z_7 x Z (tuples: 0.91 and 1.45 us, 2000 x 200 sums, on a 2-core Xeon).
# The constants are kept so that every input picks the container it picked
# before; retuning them is left to performance work.
_PASS_BITS = 1 << 13
_DECODE_BITS = 1 << 8

# `_bit_positions` reads this many bytes of an int at a time, so its text
# (one character per bit) stays small next to the int itself.
_DECODE_BYTES = 1 << 16


def _bit_positions(n: int) -> list[int]:
    """The positions of the set bits of n, ascending."""
    data = n.to_bytes((n.bit_length() + 7) // 8, "little")
    out: list[int] = []
    for start in range(0, len(data), _DECODE_BYTES):
        chunk = int.from_bytes(data[start : start + _DECODE_BYTES], "little")
        gaps = bin(chunk)[:1:-1].split("1")
        gaps.pop()
        ends = accumulate(map((1).__add__, map(len, gaps)), initial=8 * start - 1)
        next(ends)
        out.extend(ends)
    return out


def _every(pattern: int, period: int, count: int) -> int:
    """`pattern` repeated `count` times, `period` bits apart."""
    out = width = 0
    while count:
        if count & 1:
            out |= pattern << width
            width += period
        pattern |= pattern << period
        period *= 2
        count >>= 1
    return out


class _Box:
    """One position per point, over a Kronecker layout of the bounding box
    of every layer; subclasses hold a layer's positions.

    A point's position is the sum of digit_j * stride_j, with stride 1 on
    the last coordinate, so ascending positions are ascending coordinate
    tuples.  On a free coordinate the digit of c at level i is
    c - low - i * min(B) over the width of the bounding box of every fold,
    so adding b shifts by b - min(B) and no position is ever negative.  On a
    cyclic coordinate of modulus m the digit is c itself over width 2m - 1,
    which holds the sum of two residues; `fold` takes each digit d >= m of
    a sum back to d - m, so every position it returns is a point's own.
    """

    def __init__(
        self,
        space: GroupSpace,
        b_elems: Sequence[Coords],
        widths: list[int],
        lows: list[int],
        b_lows: list[int],
    ) -> None:
        self.widths, self.lows, self.b_lows = widths, lows, b_lows
        strides = [1] * len(widths)
        for j in range(len(widths) - 1, 0, -1):
            strides[j - 1] = strides[j] * widths[j]
        self.strides = strides
        self.bits = strides[0] * widths[0]
        # A point's position is its coordinates dotted with the strides plus
        # the base of its level, origin + level * drift.
        self.origin = -sum(map(mul, lows, strides))
        self.drift = -sum(map(mul, b_lows, strides))
        self.shifts = [sum(map(mul, c, strides), self.drift) for c in b_elems]
        # (stride, modulus, width) of each cyclic coordinate.
        self.cyclic = list(compress(zip(strides, space.moduli, widths), space.moduli))

    def _positions(self, coords: Sequence[Coords], base: int) -> list[int]:
        strides = self.strides
        return [sum(map(mul, c, strides), base) for c in coords]

    def columns(self, positions: list[int], level: int) -> list[Iterable[int]]:
        """The coordinate columns of the points at `positions` of a level,
        first coordinate first, each in the order of `positions`."""
        offsets = [low + level * b for low, b in zip(self.lows, self.b_lows)]
        cols = []
        rest = positions
        for w, off in zip(self.widths[:0:-1], offsets[:0:-1]):
            cols.append(map(add, map(mod, rest, repeat(w)), repeat(off)))
            rest = list(map(floordiv, rest, repeat(w)))
        cols.append(map(add, rest, repeat(offsets[0])))
        return cols[::-1]

    def fold(self, row: Iterable[int]) -> Iterable[int]:
        """The positions of `row`, sums of two points, with each cyclic
        digit d >= m taken back to d - m; `row` itself if none is cyclic.
        The lower digits of a sum p stay below the digit's stride s, so
        d >= m exactly when p mod (w * s) >= m * s."""
        for s, m, w in self.cyclic:
            jump, block = m * s, w * s
            row = [p - jump if p % block >= jump else p for p in row]
        return row

    def sums(self, keys: list[int]) -> Iterator[Iterable[int]]:
        return (self.fold(map(add, keys, repeat(shift))) for shift in self.shifts)


class _Lift(_Box):
    """Layers as ints: bit p set means point p is in.  A step folds each
    cyclic coordinate of the whole layer with one mask: `fold`, int-wide."""

    size = staticmethod(int.bit_count)
    ascending = staticmethod(_bit_positions)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # Per cyclic coordinate: the positions whose digit is m or more, one
        # run of (m - 1) * stride bits in every block of w * stride, and the
        # jump of m * stride that folds them back.
        self.folds = []
        for s, m, w in self.cyclic:
            run = ((1 << ((m - 1) * s)) - 1) << (m * s)
            self.folds.append((_every(run, w * s, self.bits // (w * s)), m * s))

    def encode(self, coords: Sequence[Coords], level: int) -> int:
        bits = bytearray(self.bits // 8 + 1)
        for p in self._positions(coords, self.origin + level * self.drift):
            bits[p >> 3] |= 1 << (p & 7)
        return int.from_bytes(bits, "little")

    def step(self, cur: int, shifts: Sequence[int], cap: float) -> int:
        nxt = 0
        for shift in shifts:
            nxt |= cur << shift
        for high, jump in self.folds:
            top = nxt & high
            nxt ^= top
            nxt |= top >> jump
        return nxt

    def translates(self, mask: int, shifts: Iterable[int]) -> list[int]:
        """The translates of the points of mask by each shift, folded as
        `step` folds a layer: one shift and one fold per translate."""
        row = []
        for shift in shifts:
            nxt = mask << shift
            for high, jump in self.folds:
                top = nxt & high
                nxt ^= top
                nxt |= top >> jump
            row.append(nxt)
        return row

    @staticmethod
    def minus(layer: int, cut: int) -> int:
        return layer & ~cut


class _Sparse(_Box):
    """Layers as sets of positions: the fallback for boxes too sparse to
    lift, which can be far too wide for one int.  A step adds B to one
    point at a time and `fold`s that row of sums."""

    size = staticmethod(len)
    ascending = staticmethod(sorted)

    def encode(self, coords: Sequence[Coords], level: int) -> set[int]:
        return set(self._positions(coords, self.origin + level * self.drift))

    def step(self, cur: set[int], shifts: Sequence[int], cap: float) -> set[int]:
        # Checks the size after every row x+B, so a tiny cap trips before a
        # large allocation; every folded row is a subset of the layer.
        nxt: set[int] = set()
        grow = nxt.update
        fold = self.fold
        for x in cur:
            grow(fold(map(x.__add__, shifts)))
            if len(nxt) > cap:
                break
        return nxt

    @staticmethod
    def minus(layer: set[int], cut: set[int]) -> set[int]:
        return layer - cut


def _lift_pays(
    space: GroupSpace,
    b_size: int,
    h: int,
    starts: Sequence[tuple[Sequence[Coords], int]],
    bits: int,
    decoded: int,
) -> bool:
    """Whether lifting the folds of `starts` ((X, level) pairs) to
    `bits`-bit ints costs at most the least work the set container could do.

    The set container adds each element of B to each point of X+iB for
    i < h - level, and |X+iB| >= max(|X|, |B|) once i >= 1: that many point
    additions at least, each still priced as the tuple addition the
    constants were set against (see `_PASS_BITS`).  The lift encodes each
    start set (about 3 passes) and makes |B| + 2 passes per step, plus 2 per
    cyclic coordinate for the fold; the caller decodes `decoded` layers.
    Each step costs more than |B| passes against at most |B| * max(|X|, |B|)
    additions, so a lifted layer never holds more than `_PASS_BITS` bits per
    element of the larger of X and B.
    """
    cyclic = len(space.moduli) - space.moduli.count(0)
    passes = pairs = 0
    for coords, level in starts:
        size = len(coords)
        passes += 3
        steps = h - level
        if size and steps:
            passes += steps * (b_size + 2 * cyclic + 2)
            pairs += b_size * (size + (steps - 1) * max(size, b_size))
    per_decode = _PASS_BITS // _DECODE_BITS
    return bits * (passes + decoded * per_decode) <= pairs * _PASS_BITS


def _layout(
    space: GroupSpace,
    b_elems: Sequence[Coords],
    h: int,
    starts: Sequence[tuple[Sequence[Coords], int]],
    decoded: int,
    pad: Sequence[int] = (),
) -> _Box:
    """One layout for the folds X, ..., X+(h-level)B of every (X, level),
    of which the caller decodes `decoded` layers; free coordinate j of the
    box is pad[j] cells wider (none without a pad) at its high end.

    A fold that starts at level 1 shares its layers' positions with the
    level-0 fold one layer up, so the two can be subtracted.  The lift is
    chosen when `_lift_pays` for its box.
    """
    b_cols = list(zip(*b_elems)) or [(0,)] * space.rank
    start_cols = [(list(zip(*coords)), level) for coords, level in starts if coords]
    widths, lows, b_lows = [], [], []
    for j, m in enumerate(space.moduli):
        if m:
            width, low, b_low = 2 * m - 1, 0, 0
        else:
            b_low = min(b_cols[j])
            spread = max(b_cols[j]) - b_low
            low, high = inf, -inf
            for cols, level in start_cols:
                base = level * b_low
                low = min(low, min(cols[j]) - base)
                high = max(high, max(cols[j]) - base + (h - level) * spread)
            width = high - low + 1 + (pad[j] if pad else 0)
        widths.append(width)
        lows.append(low)
        b_lows.append(b_low)
    lifts = _lift_pays(space, len(b_elems), h, starts, prod(widths), decoded)
    return (_Lift if lifts else _Sparse)(space, b_elems, widths, lows, b_lows)


def _layers(
    layout: _Box,
    start: Sequence[Coords],
    level: int,
    h: int,
    max_size: int | None,
) -> Iterator:
    """The layers X, X+B, ..., X+hB of X = start, in the layout's form.

    Each layer is built from the last and yielded before the next is built.
    The guard compares each layer's size with the cap, so it trips exactly
    when some |X+iB| exceeds it; layer 0 is never checked.
    """
    cap = inf if max_size is None else max_size
    cur = layout.encode(start, level)
    yield cur
    for _ in range(h):
        cur = layout.step(cur, layout.shifts, cap)
        if layout.size(cur) > cap:
            raise GuardError(
                f"sumset cardinality guard: result exceeds cap {max_size}"
            )
        yield cur


def _top_layer(a: GSet, b: GSet, h: int, max_size: int | None) -> GSet:
    _check_fold(a, b, h)
    layout = _layout(a.space, b.elements, h, ((a.elements, 0),), 1)
    for layer in _layers(layout, a.elements, 0, h, max_size):
        pass
    coords = zip(*layout.columns(layout.ascending(layer), h))
    return GSet._trusted(a.space, tuple(coords))


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
    layout = _layout(a.space, b.elements, h, ((a.elements, 0),), 0)
    return [layout.size(layer) for layer in _layers(layout, a.elements, 0, h, max_size)]


def _translate_sizes(
    space: GroupSpace,
    b_elems: Sequence[Coords],
    h: int,
    sets: Sequence[Sequence[Coords]],
    samples: Sequence[Sequence[Coords]],
) -> list[list[list[int]]]:
    """[[|X+S+kB| for k = 0..h] for X in sets] for each non-empty S in samples.

    X+S+kB = (X+kB)+S: each X is folded once, in one layout padded by the
    samples' spread, and a count steps a layer by the shifts of S, each
    s - (the least sample coordinate) on a free coordinate, so none is < 0.
    """
    cols = list(zip(*chain.from_iterable(samples))) or [(0,)] * space.rank
    lows = [0 if m else min(c) for m, c in zip(space.moduli, cols)]
    pad = [0 if m else max(c) - low for m, c, low in zip(space.moduli, cols, lows)]
    layout = _layout(space, b_elems, h, [(x, 0) for x in sets], 0, pad)
    base = -sum(map(mul, lows, layout.strides))
    folds = [list(_layers(layout, x, 0, h, None)) for x in sets]
    step, size = layout.step, layout.size
    return [
        [[size(step(layer, shifts, inf)) for layer in fold] for fold in folds]
        for shifts in (layout._positions(s, base) for s in samples)
    ]


# --- JSON interchange ------------------------------------------------------
#
# {"moduli": [m_1, ..., m_k], "elements": [[c_1, ..., c_k], ...]}
# Input need not be normalized; output always is (sorted, deduplicated).
# Set and graph files are read by `_read_json`; no report is read back.
# Reports are small, and `_write_json` writes them with `json.dumps(indent=2,
# sort_keys=True)`; a report's records take their JSON form from `_plain`
# alone (an exact ratio is [numerator, denominator]).  Sets and graphs fill
# row templates (`_fill_rows`) straight from what the package holds:
# `dump_gset` from a set's element tuples, `graphs.dump_graph` from its edge
# keys, label store and layer tuples, so neither copies nor re-checks them,
# and hand `_write_text` a stream of pieces, none longer than one chunk of
# `_CHUNK` rows, so no whole set or graph document is built.

_CHUNK = 4096


def _shown(path: str) -> str:
    """A path as messages print it: each non-printable character escaped
    as Python writes it (`\\x00`, `\\t`, `\\x1b`), so none reaches a
    terminal raw; printable paths print unchanged."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(path))


def _read_json(path: str, kind: str) -> object:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(f"cannot read {kind} file {_shown(path)}: {exc}") from exc
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # bad JSON, non-UTF-8 bytes, an over-long int
        raise InputError(f"malformed JSON in {_shown(path)}: {exc}") from exc


def _document(obj: object, kind: str, keys: Sequence[str]) -> list:
    """The values of `keys` in a JSON object document."""
    if not isinstance(obj, dict):
        raise InputError(f"{kind} document must be a JSON object")
    for key in keys:
        if key not in obj:
            raise InputError(f"{kind} document missing key '{key}'")
    return [obj[key] for key in keys]


def _write_text(pieces: Iterable[str], path: str | None, mode: str = "w") -> None:
    """Write (or with mode "a" append) the text pieces to path, in order;
    to stdout if path is None."""
    if path is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.writelines(pieces)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(f"cannot write {_shown(path)}: {exc}") from exc


def _int_rows(rows: Collection) -> tuple[int, ...] | None:
    """The ints of rows, in order, if rows are non-empty lists (or tuples)
    of plain ints only (no bool, float or nesting); else None."""
    if not set(map(type, rows)) <= {list, tuple} or not all(rows):
        return None
    ints = tuple(chain.from_iterable(rows))
    return ints if set(map(type, ints)) == {int} else None


def _row_template(width: int, pad: str) -> str:
    # A row of `width` ints, a %d each, as `json.dumps(indent=2)` lays it
    # out at pad.
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(["%d"] * width) + f"\n{pad}]"


def _fill_rows(
    rows: str | Sequence[str],
    count: int,
    gather: Callable[[int, int], Sequence[int]],
    pad: str,
    ends: str = "[]",
) -> Iterator[str]:
    """The pieces of a list of `count` rows (an object, with ends "{}") as
    `json.dumps(indent=2)` lays it out at pad.  Each row is a %-template:
    rows[k] for row k, or rows itself when it is one str for every row.
    gather(start, stop) gives the ints that fill rows start..stop-1.

    Rows are filled `_CHUNK` per `%` pass, so no piece holds more than one
    chunk.  One repeated row makes its whole-chunk template once; only a
    short last chunk gets its own."""
    if not count:
        yield ends
        return
    inner = pad + "  "
    lead, sep = "\n" + inner, ",\n" + inner
    full = ""
    yield ends[0]
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        if type(rows) is not str:
            template = lead + sep.join(rows[start:stop])
        elif stop - start < _CHUNK:
            template = lead + sep.join([rows] * (stop - start))
        else:
            full = full or lead + sep.join([rows] * _CHUNK)
            template = full
        if start:
            yield ","
        yield template % tuple(gather(start, stop))
    yield "\n" + pad + ends[1]


def _plain(obj: object) -> object:
    """obj in JSON's own types, part by part: a Fraction as [numerator,
    denominator], a dataclass as the dict of its fields, a dict by its
    values, a tuple or list as a list, and any other value as it is."""
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list)):
        return list(map(_plain, obj))
    return obj


def _write_json(obj: object, path: str | None) -> None:
    _write_text([json.dumps(obj, indent=2, sort_keys=True), "\n"], path)


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
    # Whole-list tests first; the loop below only names the culprit.
    rank = space.rank
    ints = _int_rows(elements) if elements else None
    if ints and set(map(type, elements)) == {list} and set(map(len, elements)) == {rank}:
        cols = [ints[j::rank] for j in range(rank)]
        cols = [list(map(mod, c, repeat(m))) if m else c for c, m in zip(cols, space.moduli)]
        return GSet._trusted(space, tuple(sorted(set(zip(*cols)))))
    coords = []
    for row in elements:
        if not isinstance(row, list):
            raise InputError("'elements' entries must be coordinate lists")
        coords.append(tuple(row))
    return GSet.from_coords(space, coords)


def dump_gset(a: GSet, path: str | None) -> None:
    """Write gset_to_json(a) to path, or to stdout if path is None."""
    elements, rank = a.elements, a.space.rank
    rows = _fill_rows(
        _row_template(rank, "    "),
        len(elements),
        lambda start, stop: tuple(chain.from_iterable(elements[start:stop])),
        "  ",
    )
    moduli = _row_template(rank, "  ") % a.space.moduli
    _write_text(chain(['{\n  "elements": '], rows, [f',\n  "moduli": {moduli}\n}}\n']), path)


def load_gset(path: str) -> GSet:
    return gset_from_json(_read_json(path, "set"))
