"""Closed-form cardinality bounds, pseudo-cardinality, and certified verdicts.

Every bound evaluated here compares an observed integer cardinality against a
formula in m = |A|, alpha = |A+B|/m, alpha_1 = D_1(G_+(A,B)), |hB| and the
pseudo-cardinality beta defined by C(beta+h-1, h) = |hB| (generalized
binomial in product form).  Verdicts must never be float artifacts, so two
techniques are used:

* exact arithmetic: a bound that is rational in its inputs is compared as a
  Fraction; a bound of the form x <= y^(1/h) is cross-powered to integers;
  and any comparison against beta is translated through the equivalence

      beta <= p/q  <=>  prod_{i<h} (p + i q) >= |hB| h! q^h     (p, q > 0)

  which needs no root-finding at all.  That one integer product, `_rising`,
  is behind every binomial test, and beta's bracket endpoints are dyadic;
* outward rounding: genuinely irrational bounds (those mixing e and
  fractional powers) are evaluated in interval arithmetic and rounded up to
  the nearest binary-64 value before comparison, so a reported violation is
  a real violation.  A bound that is one quotient by beta is instead
  rounded up once from its exact value at beta's lower bracket end.

Asymptotic statements carry main-term values only and are reported with a
verdict of None, never asserted: at fixed m an o(1) term has no value.
"""

from __future__ import annotations

import io
import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress, count
from operator import le
from typing import Iterable, Sequence

from .errors import GuardError, InputError
from .graphs import (
    SUBSET_GUARD,
    LayeredGraph,
    _row_sizes,
    _sweep,
    build_addition_graph,
    build_restricted_graph,
    image_masks,
    subset_rows,
)
from .groups import (
    GSet,
    _is_int,
    _plain,
    _translate_sizes,
    cardinality_stream,
    fold_sumset,
    sumset,
)
from .magnification import Ratio, magnification_flow, tight_channel_power_check
from .partition import PartitionResult, partition_graph

__all__ = [
    "PseudoCardinality",
    "BoundValue",
    "BoundReport",
    "CertifiedMinSum",
    "GrowthBound",
    "LargeSubsetResult",
    "NapReport",
    "RestrictedSumsetReport",
    "RestrictedGrowthReport",
    "rising_binomial",
    "pseudo_cardinality",
    "bound_report",
    "certified_min_sum",
    "majorant_from_root",
    "check_majorant_pointwise",
    "growth_commutative_bound",
    "large_subset_search",
    "nap_check",
    "restricted_sumset_check",
    "restricted_growth_check",
    "csv_header",
    "csv_row",
    "bound_report_to_json",
]

@cache
def _iv():
    """The private interval context, so the global mpmath state is never
    touched; mpmath is imported on the first call, not with the package."""
    import mpmath

    ctx = type(mpmath.iv)()
    ctx.prec = 80
    return ctx


def _ival(x):
    """Exact interval enclosure of an int, Fraction, or float."""
    if isinstance(x, Fraction):
        return _iv().mpf(x.numerator) / _iv().mpf(x.denominator)
    return _iv().mpf(x)


def float_up(x) -> float:
    """Smallest binary-64 value >= the upper endpoint of interval x."""
    import mpmath

    hi = x.b
    f = float(hi)
    while mpmath.mpf(f) < hi:
        f = math.nextafter(f, math.inf)
    return f


def _up(x: Fraction | int) -> float:
    """Smallest binary-64 value >= the rational x: `float` rounds to
    nearest, so one step up mends a float that fell below x."""
    f = float(x)
    return f if f >= x else math.nextafter(f, math.inf)


def _rising(p: int, q: int, h: int) -> int:
    """prod_{i<h} (p + i q) = q^h h! C(p/q + h - 1, h), for q >= 1."""
    return math.prod(range(p, p + h * q, q))


def _integer_ratio(x, what: str) -> tuple[int, int]:
    """x as (p, q) with q >= 1, for x an int, Fraction, float or Decimal
    that is finite; any other x, a string among them, is refused."""
    try:
        return x.as_integer_ratio()
    except (AttributeError, ValueError, OverflowError):
        raise InputError(f"{what} must be a finite real number, got {x!r}") from None


def rising_binomial(x: Fraction | int, h: int) -> Fraction:
    """Generalized binomial C(x+h-1, h) = prod_{i=0}^{h-1} (x+i) / h!."""
    if not _is_int(h) or h < 0:
        raise InputError(f"binomial order must be a non-negative integer, got {h!r}")
    p, q = _integer_ratio(x, "binomial argument")
    return Fraction(_rising(p, q, h), q**h * math.factorial(h))


# -- pseudo-cardinality --------------------------------------------------------


@dataclass(frozen=True)
class PseudoCardinality:
    """The positive real beta with C(beta+h-1, h) = n, bracketed certifiably.

    lo and hi are rationals with C(lo+h-1, h) <= n <= C(hi+h-1, h); when n is
    a binomial value at an integer the bracket collapses and exact is True;
    otherwise lo and hi are adjacent multiples of 1/2^k with hi - lo <= lo /
    10^12.  beta is the float midpoint, for display only; every decision
    should go through leq / lt, which are exact.
    """

    n: int
    h: int
    beta: float
    lo: Fraction
    hi: Fraction
    exact: bool

    def leq(self, r: Fraction | int) -> bool:
        """Exact test beta <= r, for r as `rising_binomial` takes x."""
        return rising_binomial(r, self.h) >= self.n and r > 0

    def lt(self, r: Fraction | int) -> bool:
        """Exact test beta < r, for r as `rising_binomial` takes x."""
        return rising_binomial(r, self.h) > self.n and r > 0

    def interval(self):
        return _iv().mpf([_ival(self.lo).a, _ival(self.hi).b])


def pseudo_cardinality(n: int, h: int) -> PseudoCardinality:
    """Solve C(beta+h-1, h) = n for beta >= 1.

    Each test compares _rising(p, q, h) with n h! q^h for beta <= p/q.  The
    least integer c >= beta comes from doubling and bisection; unless beta =
    c, the bracket [a, a+1] / 2^k is halved on its integer numerator a until
    a >= 10^12, i.e. until its width is at most lo / 10^12.
    """
    if not _is_int(n) or n < 1:
        raise InputError(f"pseudo-cardinality needs a positive integer count, got {n!r}")
    if not _is_int(h) or h < 1:
        raise InputError(f"pseudo-cardinality needs a positive integer h, got {h!r}")
    target = n * math.factorial(h)
    top = 1
    while _rising(top, 1, h) < target:
        top *= 2
    c = bisect_left(range(top + 1), target, lo=1, key=lambda x: _rising(x, 1, h))
    if _rising(c, 1, h) == target:
        r = Fraction(c)
        return PseudoCardinality(n, h, float(c), r, r, True)
    a, k = c - 1, 0
    while a < 10**12:
        # Test the midpoint (2a+1) / 2^(k+1) and keep the half holding beta.
        a, k = 2 * a, k + 1
        target <<= h
        if _rising(a + 1, 1 << k, h) < target:
            a += 1
    lo, hi = Fraction(a, 1 << k), Fraction(a + 1, 1 << k)
    return PseudoCardinality(n, h, (2 * a + 1) / (1 << (k + 1)), lo, hi, False)


# -- bound report --------------------------------------------------------------


@dataclass(frozen=True)
class BoundValue:
    """One named bound: rounded-up value, what it was compared against, verdict.

    ok is None when the bound is reported but not asserted (asymptotic main
    terms) or not applicable to the instance; exact records whether the
    verdict was decided in exact arithmetic.
    """

    name: str
    value: float | None
    observed: int | None
    ok: bool | None
    exact: bool
    note: str = ""


BOUND_NAMES = (
    "plunnecke_hA",
    "ruzsa_binomial_hA",
    "ruzsa_universal",
    "ruzsa_small_alpha",
    "thm_main_universal",
    "thm_main_small_alpha",
    "corollary_hb",
    "prop_restricted_first",
    "prop_restricted_second",
    "certified_min_sum",
    "growth_commutative",
    "per_vertex_binomial",
)


@dataclass(frozen=True)
class BoundReport:
    h: int
    m: int
    ab: int
    hb: int
    observed: int
    alpha: Ratio
    alpha_1: Ratio
    beta: PseudoCardinality
    s_value: float
    t_value: float | None
    ratios: tuple[Ratio, ...]
    block_sizes: tuple[int, ...]
    bounds: tuple[BoundValue, ...]

    def bound(self, name: str) -> BoundValue:
        for bv in self.bounds:
            if bv.name == name:
                return bv
        raise InputError(f"no bound named {name!r} in report")

    @property
    def all_ok(self) -> bool:
        return all(bv.ok is not False for bv in self.bounds)


@dataclass(frozen=True)
class CertifiedMinSum:
    """Sum over partition blocks of min(alpha_i^h, s alpha_i) |Z_i|.

    The branch of each min and the final comparison are decided exactly
    through the beta bracket; the floats are made on first read, so a
    caller that reads only ok pays for none.
    """

    ok: bool
    slow_part: Fraction
    fast_weight: Fraction
    pseudo: PseudoCardinality

    @cached_property
    def s_value(self) -> float:
        """s = n / beta rounded up, as `_top_bound` rounds."""
        return _up(Fraction(self.pseudo.n) / self.pseudo.lo)

    @cached_property
    def value(self) -> float:
        """slow_part + s * fast_weight rounded up.  The interval rounds
        more than once, so one exact rounding would move some values."""
        s_iv = _ival(self.pseudo.n) / self.pseudo.interval()
        return float_up(_ival(self.slow_part) + s_iv * _ival(self.fast_weight))


def certified_min_sum(
    partition: PartitionResult, pseudo: PseudoCardinality, observed: int
) -> CertifiedMinSum:
    h = partition.graph.height
    if h != pseudo.h:
        raise InputError(
            f"partition height {h} and pseudo-cardinality h {pseudo.h} disagree"
        )
    n = pseudo.n
    slow = Fraction(0)
    fast = Fraction(0)
    for block in partition.blocks:
        if block.degenerate:
            continue
        a = block.ratio
        size = len(block.vertices)
        # alpha^h <= s alpha  <=>  alpha^(h-1) <= n/beta  <=>  beta <= n/alpha^(h-1)
        if pseudo.leq(Fraction(n) / a ** (h - 1)):
            slow += a**h * size
        else:
            fast += a * size
    if observed <= slow:
        ok = True
    elif fast == 0:
        ok = False
    else:
        ok = pseudo.leq(Fraction(n) * fast / (observed - slow))
    return CertifiedMinSum(ok, slow, fast, pseudo)


def _top_bound(
    n: int, v1: int, vh: int, beta: PseudoCardinality
) -> tuple[bool, float]:
    """|V_h| <= n |V_1| / beta, beta the pseudo-cardinality of n: the exact
    verdict and the bound rounded up.

    The bound is the float that the 80-bit interval v1 n / [lo, hi] gives:
    for v1 n < 2^80 both inputs are exact at 80 bits, so that interval's
    upper end is x = v1 n / lo rounded up once to 80 bits; every float is
    an 80-bit number, so the least float >= x is the least float >= that
    end.  One exact rounding of x gives it without intervals.
    """
    ok = vh == 0 or beta.leq(Fraction(v1 * n, vh))
    return ok, _up(Fraction(v1 * n) / beta.lo)


def _per_vertex_binomial(graph: LayeredGraph) -> tuple[bool, int, int]:
    """Check |im^(h)(a)| <= C(|im(a)|+h-1, h) for every bottom vertex.

    Returns (all ok, worst observed, its bound), worst meaning the smallest
    slack; ties broken by vertex id for determinism.
    """
    h = graph.height
    ok = True
    worst: tuple[int, int] | None = None
    # A vertex's out-degree is the size of its level-1 image: edges join
    # consecutive layers, and repeated edges are merged.
    near = _sweep(graph, 1)
    for a, mask in zip(graph.layers[0], image_masks(graph, h)):
        deg = near[a].bit_count()
        im_h = mask.bit_count()
        cap = math.comb(deg + h - 1, h)
        if im_h > cap:
            ok = False
        if worst is None or cap - im_h < worst[1] - worst[0]:
            worst = (im_h, cap)
    if worst is None:
        return True, 0, 0
    return ok, worst[0], worst[1]


def bound_report(
    a: GSet, b: GSet, h: int, max_size: int | None = None
) -> BoundReport:
    """Evaluate every applicable named bound for the instance (A, B, h).

    Bounds stated only for A = B are suppressed otherwise; the asymptotic
    main terms are always reported with ok=None.  All other verdicts are
    outward-safe: pass/fail can be trusted bit-for-bit.
    """
    if not _is_int(h) or h < 1:
        raise InputError(f"bound report needs an integer h >= 1, got {h!r}")
    if a.space != b.space:
        raise InputError("A and B must share a space")
    if a.is_empty or b.is_empty:
        raise InputError("bound report needs non-empty A and B")
    graph = build_addition_graph(a, b, h, max_size)
    sizes = graph.layer_sizes()
    m, ab, observed = sizes[0], sizes[1], sizes[-1]
    hb = len(fold_sumset(b, h, max_size))
    alpha = Fraction(ab, m)
    beta = pseudo_cardinality(hb, h)
    part = partition_graph(graph)
    # Every vertex of an addition graph lies on a bottom-to-top path, so the
    # first block's tight set is the maximal tight set of the whole graph.
    alpha_1 = part.blocks[0].ratio
    live = [blk for blk in part.blocks if not blk.degenerate]
    ratios = tuple(blk.ratio for blk in live)
    block_sizes = tuple(len(blk.vertices) for blk in live)
    certified = certified_min_sum(part, beta, observed)

    beta_iv = beta.interval()
    e_iv = _iv().exp(_iv().mpf(1))
    m_pow = _ival(m) ** _ival(Fraction(2 * h - 1, h))
    same_sets = a.elements == b.elements

    # One row of BoundValue fields per bound, in BOUND_NAMES order.
    rows: list[tuple] = []
    if same_sets:
        # Both classical A = B bounds cap |hA| itself, which equals hb here,
        # not the top layer |A + hA|.
        frac = alpha**h * m
        rows.append(("plunnecke_hA", float_up(_ival(frac)), hb, hb <= frac, True))
        frac = alpha**2 * rising_binomial(alpha**4, h - 1) * m
        rows.append(("ruzsa_binomial_hA", float_up(_ival(frac)), hb, hb <= frac, True))
    else:
        note = "stated for A = B only"
        rows.append(("plunnecke_hA", None, None, None, False, note))
        rows.append(("ruzsa_binomial_hA", None, None, None, False, note))

    # observed <= alpha^h m^(2-1/h)  <=>  observed^h <= alpha^(h^2) m^(2h-1)
    ru_ok = Fraction(observed) ** h <= alpha ** (h * h) * Fraction(m) ** (2 * h - 1)
    val = float_up(_ival(alpha) ** h * m_pow)
    rows.append(("ruzsa_universal", val, observed, ru_ok, True))

    if alpha <= 2:
        acc = _ival(alpha) * _ival(m)
        tail = _iv().mpf(0)
        for j in range(2, h + 1):
            tail += (
                _ival(Fraction(j + 1, j))
                * _ival(alpha) ** (j - 1)
                * _ival(m) ** (-_ival(Fraction(1, j)))
            )
        acc += _ival(alpha - 1) * _ival(m) ** 2 * tail
        val = float_up(acc)
        rows.append(("ruzsa_small_alpha", val, observed, observed <= val, False))
    else:
        rows.append(("ruzsa_small_alpha", None, None, None, False, "needs alpha <= 2"))

    note = "asymptotic main term, not asserted"
    val = float_up(e_iv / _ival(2 * h * h) * _ival(alpha) ** h * m_pow)
    rows.append(("thm_main_universal", val, observed, None, False, note))
    val = float_up(
        _ival(m)
        + e_iv / _ival(h) * _ival(alpha - 1) * _ival(alpha) ** (h - 1) * m_pow
    )
    rows.append(("thm_main_small_alpha", val, observed, None, False, note))

    frac = alpha_1**h * m
    rows.append(("corollary_hb", float_up(_ival(frac)), hb, hb <= frac, True))
    first_ok, first_val = _top_bound(hb, ab, observed, beta)
    rows.append(("prop_restricted_first", first_val, observed, first_ok, True))
    second = (
        (1 + _ival(h) / beta_iv)
        * e_iv
        * _ival(ab)
        * _ival(hb) ** _ival(Fraction(h - 1, h))
        / _ival(h)
    )
    val = float_up(second)
    rows.append(("prop_restricted_second", val, observed, observed <= val, False))
    rows.append(("certified_min_sum", certified.value, observed, certified.ok, True))
    growth = growth_commutative_bound(graph)
    rows.append(("growth_commutative", growth.value, growth.observed, growth.ok, True))
    pv_ok, pv_obs, pv_cap = _per_vertex_binomial(graph)
    note = "worst vertex shown; verdict covers all"
    rows.append(("per_vertex_binomial", _up(pv_cap), pv_obs, pv_ok, True, note))

    t_value: float | None = None
    if h >= 2 and beta.lt(Fraction(hb) / alpha_1 ** (h - 1)):
        # alpha_1 < s^(1/(h-1)) guaranteed; intervals cannot hit the pole.
        t_value = float_up(_slope(_ival(hb) / beta_iv, alpha_1, h))

    bounds = tuple(BoundValue(*row) for row in rows)
    return BoundReport(
        h, m, ab, hb, observed, alpha, alpha_1, beta, certified.s_value, t_value,
        ratios, block_sizes, bounds,
    )


# -- linear majorant -----------------------------------------------------------


def _slope(s_iv, alpha_1: Fraction, h: int):
    """Interval slope t = (s^(h/(h-1)) - alpha_1^h) / (s^(1/(h-1)) - alpha_1)."""
    root = s_iv ** _ival(Fraction(1, h - 1))
    return (s_iv ** _ival(Fraction(h, h - 1)) - _ival(alpha_1) ** h) / (
        root - _ival(alpha_1)
    )


def majorant_from_root(alpha_1: Fraction | int, sigma: Fraction | int, h: int):
    """Exact (s, t) from the root sigma = s^(1/(h-1)).

    t = (sigma^h - alpha_1^h) / (sigma - alpha_1) telescopes to the rational
    sum of sigma^i alpha_1^(h-1-i), so a rational sigma gives exact values.
    """
    if not _is_int(h) or h < 2:
        raise InputError(f"linear majorant needs h >= 2, got {h!r}")
    alpha_1 = Fraction(alpha_1)
    sigma = Fraction(sigma)
    if not 0 < alpha_1 < sigma:
        raise InputError(
            "linear majorant domain: need 0 < alpha_1 < s^(1/(h-1))"
        )
    s = sigma ** (h - 1)
    t = sum(sigma**i * alpha_1 ** (h - 1 - i) for i in range(h))
    return s, t


def check_majorant_pointwise(
    alpha_1: Fraction, s: Fraction, t: Fraction, h: int, alphas: Iterable[Fraction]
) -> bool:
    """Exact check of min(a^h, s a) <= alpha_1^h + t (a - alpha_1) on samples."""
    anchor = Fraction(alpha_1) ** h
    ok = True
    for a in alphas:
        a = Fraction(a)
        lhs = min(a**h, Fraction(s) * a)
        if lhs > anchor + Fraction(t) * (a - alpha_1):
            ok = False
    return ok


# -- growth bounds -------------------------------------------------------------


@dataclass(frozen=True)
class GrowthBound:
    """|V_h| <= M |V_1| / beta_M for a commutative graph, M the largest
    single-vertex h-step image."""

    max_image: int
    beta: PseudoCardinality | None
    value: float
    observed: int
    ok: bool


def growth_commutative_bound(graph: LayeredGraph) -> GrowthBound:
    """Callers must pass a commutative graph; the bound is unsound otherwise."""
    if not graph.layers[0]:
        raise InputError("growth bound needs a non-empty bottom layer")
    h = graph.height
    vh = len(graph.layers[h])
    m_img = max(mask.bit_count() for mask in image_masks(graph, h))
    if m_img == 0:
        return GrowthBound(0, None, 0.0, vh, vh == 0)
    beta_m = pseudo_cardinality(m_img, h)
    ok, value = _top_bound(m_img, len(graph.layers[1]), vh, beta_m)
    return GrowthBound(m_img, beta_m, value, vh, ok)


@dataclass(frozen=True)
class LargeSubsetResult:
    found: bool
    subset: tuple[int, ...] | None
    image_size: int | None
    bound: Fraction | None
    t: Fraction
    with_alpha_1: bool
    checked: int


def large_subset_search(
    graph: LayeredGraph, t, with_alpha_1: bool = False
) -> LargeSubsetResult:
    """First subset X of V_0 (ascending bitmask order over the sorted layer)
    with |X| > t and |image(X, h)| within the large-subset budget.

    Basic form: (|X| - t) (n / (m - t))^h with n = |V_1|, m = |V_0|.
    With alpha_1: alpha_1^h t + (|X| - t) ((n - alpha_1 t) / (m - t))^h.
    The budgets are rational, one per subset size, so membership is exact.
    """
    bottom = list(graph.layers[0])
    m = len(bottom)
    if m == 0:
        raise InputError("large-subset search needs a non-empty bottom layer")
    if m > SUBSET_GUARD:
        raise GuardError(
            f"subset enumeration guard: |V_0| = {m} exceeds cap {SUBSET_GUARD}"
        )
    t = Fraction(*_integer_ratio(t, "threshold t"))
    if not 0 <= t < m:
        raise InputError(f"threshold t = {t} outside [0, {m})")
    n = len(graph.layers[1])
    h = graph.height
    masks = image_masks(graph, h)
    a1 = magnification_flow(graph, 1).value if with_alpha_1 else 0  # 0: basic form
    # One budget per |X|, over one denominator: with a1 = u/v and t = p/q it
    # is (u^h p D^h + (|X| q - p) N^h v^h) / (v^h q D^h), N = n v q - u p,
    # D = v (m q - p).  An image size is an integer, so it is within a
    # budget exactly when it is within the budget's floor.
    (u, v), (p, q) = a1.as_integer_ratio(), t.as_integer_ratio()
    scale_d = (v * (m * q - p)) ** h
    scale_n = (n * v * q - u * p) ** h * v**h
    den = v**h * q * scale_d
    budgets = [u**h * p * scale_d + (size * q - p) * scale_n for size in range(m + 1)]
    caps = [budget // den for budget in budgets]
    least = math.floor(t) + 1  # the least |X| above t
    checked = 0
    for base, row in subset_rows(masks):
        sizes, groups = _row_sizes(len(row))
        # The caps by the bit count of a row index, -1 where |X| <= t.
        need = max(least - base.bit_count(), 0)
        row_caps = [-1] * need + caps[base.bit_count() + need :]
        fits = map(le, map(int.bit_count, row), map(row_caps.__getitem__, sizes))
        hit = next(compress(count(), fits), None)
        if hit is None:
            checked += sum(len(idx) for idx, _ in groups[need:])
            continue
        checked += sum(map(need.__le__, sizes[: hit + 1]))
        mask, size = base | hit, base.bit_count() + sizes[hit]
        subset = tuple(bottom[k] for k in range(m) if mask >> k & 1)
        return LargeSubsetResult(
            True, subset, row[hit].bit_count(), Fraction(budgets[size], den), t,
            with_alpha_1, checked,
        )
    return LargeSubsetResult(False, None, None, None, t, with_alpha_1, checked)


# -- set-addition checks -------------------------------------------------------


@dataclass(frozen=True)
class NapReport:
    """|S+X+B| <= (|X+B|/|X|) |S+X| for the level-1 maximal tight set X."""

    x: GSet
    ratio: Ratio
    lhs: int
    sx: int
    ok: bool


def nap_check(a: GSet, b: GSet, s: GSet) -> NapReport:
    """NAP for the level-1 maximal tight set X of G_+(A, B).  |S+X| and
    |S+X+B| step the fold X, X+B by the shifts of S: S+X+B = (X+B)+S."""
    if a.space != b.space or a.space != s.space:
        raise InputError("A, B and S must share a space")
    if a.is_empty or b.is_empty or s.is_empty:
        raise InputError("NAP check needs non-empty A, B and S")
    graph = build_addition_graph(a, b, 1)
    tight = magnification_flow(graph, 1).maximal_tight_set
    x = GSet.from_coords(a.space, [graph.label_of(v) for v in tight])
    size, xb = cardinality_stream(x, b, 1)
    [[sx, sxb]] = _translate_sizes(a.space, b.elements, 1, [x.elements], [s.elements])[0]
    return NapReport(x, Fraction(xb, size), sxb, sx, sxb * size <= xb * sx)


@dataclass(frozen=True)
class RestrictedSumsetReport:
    """Growth of (X+hB) \\ (J+hB) when X is tight at level j.

    alpha_j is the observed j-level ratio |(X+jB)\\(J+jB)| / |X|; the
    hypothesis is that no non-empty Z in X has a smaller ratio.  When it
    fails, conclusion_ok is None: the statement simply does not apply.
    reiher_ok lists one verdict per supplied S.
    """

    hypothesis_ok: bool
    alpha_j: Ratio
    observed: int
    conclusion_ok: bool | None
    reiher_ok: tuple[bool, ...]


def restricted_sumset_check(
    x: GSet,
    b: GSet,
    j_set: GSet,
    j: int,
    h: int,
    reiher_samples: Sequence[GSet] = (),
) -> RestrictedSumsetReport:
    if x.space != b.space or x.space != j_set.space:
        raise InputError("X, B and J must share a space")
    if x.is_empty or b.is_empty:
        raise InputError("restricted sumset check needs non-empty X and B")
    if not _is_int(h) or h < 1:
        raise InputError(f"restricted sumset check needs integer h >= 1, got {h!r}")
    if not _is_int(j) or not 1 <= j <= h:
        raise InputError(f"level j = {j!r} outside 1..{h}")
    if x.member_set() & j_set.member_set():
        raise InputError("X and J must be disjoint")
    samples = tuple(reiher_samples)
    for s in samples:
        if s.space != x.space:
            raise InputError("Reiher sample set must share the space")
        if s.is_empty:
            raise InputError("Reiher sample sets must be non-empty")
    # With C = J+B, level i of G_R(X, B, C) is (X+iB) \ (J+iB), and each x
    # reaches all of (x+iB) \ (J+iB): were the k-th vertex of a path from
    # x in J+kB, its end would be in J+kB+(i-k)B = J+iB.  So X is tight at
    # level j of the graph exactly when no Z in X has a smaller ratio
    # |(Z+jB) \ (J+jB)| / |Z|, and the power inequality of the tight
    # channel, |V_j|^h >= |X|^(h-j) |V_h|^j, is the conclusion.
    c_set = j_set if j_set.is_empty else sumset(j_set, b)
    check = tight_channel_power_check(build_restricted_graph(x, b, c_set, h), j)
    size, c, observed = check.sizes[0], check.sizes[j], check.sizes[-1]
    conclusion_ok = check.power_ok if check.hypothesis_ok else None
    # (P u Q) + kB = (P + kB) u (Q + kB), so with P = X u J and Q = J,
    # |(X+S+kB) \ (J+S+kB)| = |P+S+kB| - |Q+S+kB| for every k, and an empty
    # J subtracts nothing.  P+S+kB = (P+kB)+S: P and Q are folded once, in
    # one layout for every sample, and each sample steps their layers.
    sets = [x.elements + j_set.elements, j_set.elements]
    reiher: list[bool] = []
    for p, q in _translate_sizes(x.space, b.elements, j, sets, [s.elements for s in samples]):
        lhs, rhs = p[j] - q[j], p[j - 1] - q[j - 1]
        # lhs <= (c/|X|)^(1/j) rhs  <=>  lhs^j |X| <= c rhs^j
        reiher.append(lhs**j * size <= c * rhs**j)
    return RestrictedSumsetReport(
        check.hypothesis_ok, Fraction(c, size), observed, conclusion_ok, tuple(reiher)
    )


@dataclass(frozen=True)
class RestrictedGrowthReport:
    """Both statements about G_R(A, B, C): the top-layer bound
    |V_h| <= |V_1| |hB| / beta and the per-vertex binomial bound."""

    v1: int
    vh: int
    hb: int
    beta: PseudoCardinality
    value: float
    top_ok: bool
    per_vertex_ok: bool


def restricted_growth_check(
    a: GSet, b: GSet, c: GSet, h: int, max_size: int | None = None
) -> RestrictedGrowthReport:
    graph = build_restricted_graph(a, b, c, h, max_size)
    sizes = graph.layer_sizes()
    v1, vh = sizes[1], sizes[-1]
    hb = len(fold_sumset(b, h, max_size))
    beta = pseudo_cardinality(hb, h)
    top_ok, value = _top_bound(hb, v1, vh, beta)
    pv_ok, _, _ = _per_vertex_binomial(graph)
    return RestrictedGrowthReport(v1, vh, hb, beta, value, top_ok, pv_ok)


# -- report serialization ------------------------------------------------------


def bound_report_to_json(report: BoundReport) -> dict:
    """The report's fields as `_plain` gives them, except that beta is its
    float and `beta_exact`, and s and t drop their `_value` suffix."""
    doc = _plain(report)
    doc["beta"], doc["beta_exact"] = report.beta.beta, report.beta.exact
    doc["s"], doc["t"] = doc.pop("s_value"), doc.pop("t_value")
    return doc


def _csv_line(cells: Iterable[object]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def csv_header() -> str:
    cols = ["h", "m", "ab", "hb", "observed", "alpha", "alpha_1", "beta", "s", "t"]
    for name in BOUND_NAMES:
        cols.append(name)
        cols.append(name + "_ok")
    return _csv_line(cols)


def csv_row(report: BoundReport) -> str:
    cells: list[object] = [
        report.h,
        report.m,
        report.ab,
        report.hb,
        report.observed,
        str(report.alpha),
        str(report.alpha_1),
        repr(report.beta.beta),
        repr(report.s_value),
        "" if report.t_value is None else repr(report.t_value),
    ]
    by_name = {bv.name: bv for bv in report.bounds}
    for name in BOUND_NAMES:
        bv = by_name.get(name)
        if bv is None or bv.value is None:
            cells.extend(["", ""])
        else:
            cells.append(repr(bv.value))
            cells.append("" if bv.ok is None else str(bv.ok))
    return _csv_line(cells)
