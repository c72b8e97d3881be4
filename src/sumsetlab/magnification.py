"""Exact magnification ratios of layered graphs.

The level-i magnification ratio of a layered graph G is

    D_i(G) = min over non-empty Z subsets of V_0 of |image(Z, i)| / |Z|,

an exact rational with denominator at most |V_0|.  Two computations are
provided:

* a brute-force subset enumeration (the oracle), guarded at |V_0| <= 22,
  which keeps the union of the minimizing subsets as it goes: in each row
  of `graphs.subset_rows` it takes the least image of every subset size
  and compares that one ratio with the best;
* Dinkelbach iteration on a parametric min cut (the production path).  For
  a ratio p/q, min over Z of (q|image(Z)| - p|Z|) is read off a min cut in
  the network  source -(p)-> V_0 -(inf, i-step reachability)-> V_i -(q)->
  sink,  whose value is p|V_0| plus that minimum.  The search starts at
  p/q = |image(V_0)| / |V_0| and takes the maximal minimizer Z, read off the
  residual graph as V_0 minus the vertices that still reach the sink.  If
  the cut equals p|V_0|, no subset beats p/q, so p/q is the ratio and Z the
  maximal tight set; otherwise |image(Z)| / |Z| < p/q becomes the next
  candidate.  |Z| strictly falls from step to step, so at most |V_0| cuts
  are made, typically two or three.  Each step is one `maxflow.ratio_cut`
  on the bitmask images, with no network built.  The maximal minimizers
  nest: at a lower ratio the maximal minimizer lies inside the one at a
  higher ratio (parametric min cuts, Gallo, Grigoriadis and Tarjan 1989),
  so each cut after the first runs on the previous Z's images alone.  The
  loop, `_tight`, reads only those images, which the peel in `partition`
  restricts on its own.

Minimizing subsets of the cut objective form a lattice (the objective is
submodular), so the union of all minimizers is itself a minimizer: the
maximal tight set.  Both computations return it canonically, which is what
makes downstream peeling deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import or_
from typing import Sequence

from .errors import GuardError, InputError
from .graphs import SUBSET_GUARD, LayeredGraph, _row_sizes, image_masks, subset_rows
from .groups import _is_int, _plain
from .maxflow import ratio_cut

__all__ = [
    "Ratio",
    "MagnificationResult",
    "ChainResult",
    "PowerCheck",
    "magnification_bruteforce",
    "magnification_flow",
    "plunnecke_chain",
    "tight_channel_power_check",
    "magnification_to_json",
]

# Exact rational ratio type: reduced p/q with total order and field arithmetic.
Ratio = Fraction


@dataclass(frozen=True)
class MagnificationResult:
    level: int
    value: Ratio
    maximal_tight_set: tuple[int, ...]
    witness_check: bool


def magnification_to_json(result: MagnificationResult) -> dict:
    return {
        "level": result.level,
        "ratio": _plain(result.value),
        "tight_set": list(result.maximal_tight_set),
    }


def _validate_level(graph: LayeredGraph, level: int) -> None:
    if not _is_int(level) or not 1 <= level <= graph.height:
        raise InputError(
            f"magnification level {level!r} outside 1..{graph.height}"
        )
    if not graph.layers[0]:
        raise InputError("magnification of an empty bottom layer is undefined")


def magnification_bruteforce(graph: LayeredGraph, level: int) -> MagnificationResult:
    """Enumerate every non-empty subset of the bottom layer.

    Returns the exact minimum ratio and the union of the minimizing subsets
    (the maximal tight set).  Guarded at |V_0| <= 22.
    """
    _validate_level(graph, level)
    bottom = list(graph.layers[0])
    n = len(bottom)
    if n > SUBSET_GUARD:
        raise GuardError(
            f"bruteforce subset enumeration guard: |V_0| = {n} exceeds {SUBSET_GUARD}"
        )
    vertex_masks = image_masks(graph, level)
    best_num, best_den = 1, 0  # the least |image(Z)| / |Z| so far; 1/0 at first
    union_mask = 0  # union of the minimizers so far
    # In each row, the least image of each subset size decides whether that
    # size ties or beats the best ratio; only then are its minimizers read,
    # and on a tie only if the row holds a vertex outside the union.
    for base, row in subset_rows(vertex_masks):
        counts = list(map(int.bit_count, row))
        every = base | (len(row) - 1)
        for size, (idx, get) in enumerate(_row_sizes(len(row))[1], base.bit_count()):
            image_sizes = get(counts)
            least = min(image_sizes)
            lhs, rhs = least * best_den, best_num * size
            if lhs > rhs or (lhs == rhs and union_mask | every == union_mask):
                continue
            if lhs < rhs:
                best_num, best_den, union_mask = least, size, 0
            hits = compress(idx, map(least.__eq__, image_sizes))
            union_mask |= reduce(or_, hits, base)
    value = Fraction(best_num, best_den)
    tight_idx = [k for k in range(n) if union_mask >> k & 1]
    tight = tuple(bottom[k] for k in tight_idx)
    union_im = reduce(or_, map(vertex_masks.__getitem__, tight_idx), 0)
    witness = union_im.bit_count() * value.denominator == value.numerator * len(tight)
    return MagnificationResult(level, value, tight, witness)


def _tight(vertex_masks: Sequence[int]) -> tuple[Ratio, list[int], int]:
    """The ratio, the maximal tight set (ascending indices) and its image,
    where vertex_masks[k] is the image of bottom vertex k as a bitmask."""
    z = list(range(len(vertex_masks)))
    z_image = reduce(or_, vertex_masks, 0)
    # Start from Z = V_0; each cut at Z's ratio p/q yields the maximal
    # minimizer of q|image(Z')| - p|Z'|, which becomes the next Z.  The
    # ratio falls from cut to cut, and a lower ratio's maximal minimizer lies
    # inside a higher one's, so each cut runs on the rows of Z alone.
    rows = vertex_masks
    while True:
        value = Fraction(z_image.bit_count(), len(z))
        saturated, kept = ratio_cut(rows, value.numerator, value.denominator)
        z = list(map(z.__getitem__, kept))
        rows = list(map(rows.__getitem__, kept))
        z_image = reduce(or_, rows, 0)
        if saturated:
            return value, z, z_image


def magnification_flow(graph: LayeredGraph, level: int) -> MagnificationResult:
    """Exact magnification ratio by Dinkelbach iteration on parametric min cuts.

    Scales to bottom layers far beyond the brute-force guard; agreement with
    the oracle is part of the test suite.
    """
    _validate_level(graph, level)
    value, z, z_image = _tight(image_masks(graph, level))
    tight = tuple(graph.layers[0][k] for k in z)
    witness = z_image.bit_count() * value.denominator == value.numerator * len(tight)
    return MagnificationResult(level, value, tight, witness)


@dataclass(frozen=True)
class ChainResult:
    """D_1..D_h with the exact cross-power monotonicity verdict.

    D_i^(1/i) non-increasing is equivalent to D_i^j >= D_j^i for all i < j,
    which is decided in integer arithmetic.
    """

    values: tuple[Ratio, ...]
    monotone: bool
    failures: tuple[tuple[int, int], ...]


def plunnecke_chain(graph: LayeredGraph) -> ChainResult:
    values = tuple(
        magnification_flow(graph, i).value for i in range(1, graph.height + 1)
    )
    failures = []
    for i in range(1, len(values) + 1):
        for j in range(i + 1, len(values) + 1):
            if values[i - 1] ** j < values[j - 1] ** i:
                failures.append((i, j))
    return ChainResult(values, not failures, tuple(failures))


@dataclass(frozen=True)
class PowerCheck:
    """Exact power inequality for a channel whose bottom set is tight.

    hypothesis_ok: D_j equals |V_j| / |V_0| on the given graph;
    power_ok:      |V_j|^h >= |V_0|^(h-j) |V_h|^j in exact integers;
    floor_ok:      for j = 1 additionally |V_h| <= floor(D_1^h |V_0|).
    """

    level: int
    hypothesis_ok: bool
    power_ok: bool
    floor_ok: bool | None
    sizes: tuple[int, ...]


def tight_channel_power_check(graph: LayeredGraph, level: int) -> PowerCheck:
    _validate_level(graph, level)
    sizes = graph.layer_sizes()
    m, vj, vh = sizes[0], sizes[level], sizes[-1]
    dj = magnification_flow(graph, level).value
    hypothesis = dj == Fraction(vj, m)
    h = graph.height
    power = vj**h >= m ** (h - level) * vh**level
    floor_ok = None
    if level == 1:
        bound = Fraction(vj, m) ** h * m
        floor_ok = vh <= bound.numerator // bound.denominator
    return PowerCheck(level, hypothesis, power, floor_ok, sizes)
