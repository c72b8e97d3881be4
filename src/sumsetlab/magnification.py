"""Exact magnification ratios of layered graphs.

The level-i magnification ratio of a layered graph G is

    D_i(G) = min over non-empty Z subsets of V_0 of |image(Z, i)| / |Z|,

an exact rational with denominator at most |V_0|.  Two computations are
provided:

* a brute-force subset enumeration (the oracle), guarded at |V_0| <= 22,
  which also returns every minimizing subset;
* a parametric min-cut search (the production path).  For a candidate ratio
  p/q, the sign of min over Z of (q|image(Z)| - p|Z|) is decided by a min cut
  in the network  source -(p)-> V_0 -(inf, i-step reachability)-> V_i -(q)->
  sink:  the candidate is feasible exactly when the maximal minimizer, read
  off the residual graph as V_0 minus the vertices that still reach the sink,
  is non-empty.  Feasibility is monotone in p/q, so a Stern-Brocot descent
  over fractions with denominator <= |V_0| pins down the optimum exactly;
  same-direction runs are galloped (doubling plus binary search), keeping the
  number of cut computations logarithmic.

Minimizing subsets of the cut objective form a lattice (the objective is
submodular), so the union of all minimizers is itself a minimizer: the
maximal tight set.  Both computations return it canonically, which is what
makes downstream peeling deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import GuardError, InputError
from .graphs import LayeredGraph, image_masks, subset_images
from .maxflow import FlowNetwork

__all__ = [
    "Ratio",
    "MagnificationResult",
    "ChainResult",
    "PowerCheck",
    "magnification_bruteforce",
    "magnification_flow",
    "plunnecke_chain",
    "tight_channel_power_check",
    "smallest_feasible_fraction",
    "magnification_to_json",
]

# Exact rational ratio type: reduced p/q with total order and field arithmetic.
Ratio = Fraction

BRUTEFORCE_GUARD = 22


@dataclass(frozen=True)
class MagnificationResult:
    level: int
    value: Ratio
    maximal_tight_set: tuple[int, ...]
    witness_check: bool
    all_minimizers: tuple[tuple[int, ...], ...] | None = None


def magnification_to_json(result: MagnificationResult) -> dict:
    return {
        "level": result.level,
        "ratio": [result.value.numerator, result.value.denominator],
        "tight_set": list(result.maximal_tight_set),
    }


def _validate_level(graph: LayeredGraph, level: int) -> None:
    if not isinstance(level, int) or not 1 <= level <= graph.height:
        raise InputError(
            f"magnification level {level!r} outside 1..{graph.height}"
        )
    if not graph.layers[0]:
        raise InputError("magnification of an empty bottom layer is undefined")


def magnification_bruteforce(graph: LayeredGraph, level: int) -> MagnificationResult:
    """Enumerate every non-empty subset of the bottom layer.

    Returns the exact minimum ratio, every minimizing subset, and their
    union (the maximal tight set).  Guarded at |V_0| <= 22; the minimizer
    list can be exponentially long on degenerate graphs, which the guard
    keeps within desk scale.
    """
    _validate_level(graph, level)
    bottom = list(graph.layers[0])
    n = len(bottom)
    if n > BRUTEFORCE_GUARD:
        raise GuardError(
            f"bruteforce subset enumeration guard: |V_0| = {n} exceeds {BRUTEFORCE_GUARD}"
        )
    vertex_masks, _ = image_masks(graph, level)
    best_num = None  # |image(Z)| of the current best
    best_den = 0  # |Z| of the current best
    minimizers: list[int] = []
    for mask, im in subset_images(vertex_masks):
        num = im.bit_count()
        den = mask.bit_count()
        if best_num is None or num * best_den < best_num * den:
            best_num, best_den = num, den
            minimizers = [mask]
        elif num * best_den == best_num * den:
            minimizers.append(mask)
    union_mask = 0
    for mask in minimizers:
        union_mask |= mask
    value = Fraction(best_num, best_den)
    tight = tuple(bottom[k] for k in range(n) if union_mask >> k & 1)
    union_im = 0
    for k in range(n):
        if union_mask >> k & 1:
            union_im |= vertex_masks[k]
    witness = union_im.bit_count() * value.denominator == value.numerator * len(tight)
    subsets = tuple(
        tuple(bottom[k] for k in range(n) if mask >> k & 1) for mask in minimizers
    )
    return MagnificationResult(level, value, tight, witness, subsets)


def smallest_feasible_fraction(
    feasible: Callable[[int, int], bool], max_den: int
) -> Fraction:
    """Smallest fraction p/q with q <= max_den accepted by a monotone predicate.

    Requires: feasible(p, q) depends only on p/q and is monotone (accepting
    t implies accepting every t' > t), the infimum D of accepted values is
    itself a fraction with denominator <= max_den, and feasible(D) is true.

    Walks the Stern-Brocot tree with a rejected left neighbour a/b and an
    accepted right neighbour c/d (sentinel 1/0).  The mediant is the unique
    smallest-denominator fraction strictly between tree neighbours, so once
    its denominator passes max_den the accepted endpoint is the answer.
    Runs of same-direction steps are replaced by one jump found with
    doubling plus binary search.
    """
    if max_den < 1:
        raise InputError("denominator bound must be >= 1")
    if feasible(0, 1):
        return Fraction(0, 1)
    a, b = 0, 1  # rejected
    c, d = 1, 0  # accepted sentinel
    while b + d <= max_den:
        if feasible(a + c, b + d):
            cap = (max_den - d) // b
            k = _last_true(lambda k: feasible(k * a + c, k * b + d), cap)
            c, d = k * a + c, k * b + d
        else:
            cap = None if d == 0 else (max_den - b) // d
            k = _last_true(lambda k: not feasible(a + k * c, b + k * d), cap)
            a, b = a + k * c, b + k * d
    return Fraction(c, d)


def _last_true(pred: Callable[[int], bool], cap: int | None) -> int:
    """Largest k with pred(k), given pred(1) and that pred is a true prefix.

    cap, when given, is an inclusive upper bound on k (cap >= 1).
    """
    k = 1
    while (cap is None or 2 * k <= cap) and pred(2 * k):
        k *= 2
    lo = k
    hi = 2 * k - 1 if cap is None else min(2 * k - 1, cap)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _maximal_minimizer(
    vertex_masks: Sequence[int], top_count: int, p: int, q: int
) -> list[int]:
    """Indices of the maximal minimizer of q|image(Z)| - p|Z| over Z.

    Min-cut formulation; the maximal minimizer is V_0 minus the vertices
    that still reach the sink in the residual network.  Empty exactly when
    p/q lies strictly below the magnification ratio.
    """
    n = len(vertex_masks)
    s, t = 0, 1
    net = FlowNetwork(2 + n + top_count)
    inf = p * n + q * top_count + 1
    for k in range(n):
        net.add_edge(s, 2 + k, p)
        rest = vertex_masks[k]
        while rest:
            low = rest & (-rest)
            net.add_edge(2 + k, 2 + n + (low.bit_length() - 1), inf)
            rest ^= low
    for w in range(top_count):
        net.add_edge(2 + n + w, t, q)
    net.max_flow(s, t)
    reaches = net.residual_reaches_sink(t)
    return [k for k in range(n) if (2 + k) not in reaches]


def magnification_flow(graph: LayeredGraph, level: int) -> MagnificationResult:
    """Exact magnification ratio via parametric min cut.

    Scales to bottom layers far beyond the brute-force guard; agreement with
    the oracle is part of the test suite.
    """
    _validate_level(graph, level)
    bottom = list(graph.layers[0])
    n = len(bottom)
    vertex_masks, top = image_masks(graph, level)
    top_count = len(top)

    def feasible(p: int, q: int) -> bool:
        return bool(_maximal_minimizer(vertex_masks, top_count, p, q))

    value = smallest_feasible_fraction(feasible, n)
    tight_idx = _maximal_minimizer(
        vertex_masks, top_count, value.numerator, value.denominator
    )
    tight = tuple(bottom[k] for k in tight_idx)
    union_im = 0
    for k in tight_idx:
        union_im |= vertex_masks[k]
    witness = union_im.bit_count() * value.denominator == value.numerator * len(tight)
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
