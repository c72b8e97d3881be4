"""Batch verification suite: eleven independent checks over seeded instances.

Each criterion owns its default case count and an isolated stream of random
instances, so results do not depend on execution order.  Criteria 4 and 5
read one stream: inside `run_suite` they share each instance's build and
peel, and alone each makes its own.  A criterion reports one CheckResult;
the suite passes when every criterion does.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    bound_report,
    certified_min_sum,
    growth_commutative_bound,
    large_subset_search,
    nap_check,
    pseudo_cardinality,
    restricted_growth_check,
    restricted_sumset_check,
    rising_binomial,
)
from .constructions import _measure, example1, example2
from .errors import InputError
from .graphs import build_addition_graph, channel_of
from .groups import GSet, _is_int, _plain, fold_sumset
from .instances import random_gset, random_pair, random_triple, rng_for
from .magnification import (
    magnification_bruteforce,
    magnification_flow,
    plunnecke_chain,
    tight_channel_power_check,
)
from .partition import partition_graph, verify_partition

__all__ = ["CheckResult", "SuiteResult", "CRITERIA", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    cid: int
    name: str
    ok: bool
    cases: int
    detail: str

    @property
    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"criterion {self.cid}: {status} [{self.name}] {self.detail}"


@dataclass(frozen=True)
class SuiteResult:
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> dict:
        criteria = _plain(self.results)
        for doc in criteria:
            doc["id"] = doc.pop("cid")
        return {"seed": self.seed, "ok": self.ok, "criteria": criteria}


def _addition_instance(rng, a_hi=8, b_hi=4, h_choices=(1, 2, 3)):
    a, b = random_pair(rng, a_hi, b_hi)
    h = rng.choice(list(h_choices))
    return a, b, h, build_addition_graph(a, b, h)


def check_magnification_oracle(seed: int, cases: int | None = None) -> CheckResult:
    n = 300 if cases is None else cases
    bad = 0
    for i in range(n):
        rng = rng_for(seed, f"c1/{i}")
        a, b, h, graph = _addition_instance(rng, a_hi=12, b_hi=4)
        for level in range(1, h + 1):
            brute = magnification_bruteforce(graph, level)
            flow = magnification_flow(graph, level)
            if (
                brute.value != flow.value
                or brute.maximal_tight_set != flow.maximal_tight_set
            ):
                bad += 1
    return CheckResult(
        1,
        "magnification flow vs enumeration",
        bad == 0,
        n,
        f"{n} graphs, all levels compared exactly, {bad} mismatches",
    )


def check_plunnecke_chain(seed: int, cases: int | None = None) -> CheckResult:
    n = 200 if cases is None else cases
    bad = 0
    for i in range(n):
        rng = rng_for(seed, f"c2/{i}")
        a, b = random_pair(rng, a_hi=6, b_hi=3)
        graph = build_addition_graph(a, b, 4)
        if not plunnecke_chain(graph).monotone:
            bad += 1
    return CheckResult(
        2,
        "cross-power monotonicity of D_i",
        bad == 0,
        n,
        f"{n} height-4 graphs, {bad} violations",
    )


def check_tight_channel_power(seed: int, cases: int | None = None) -> CheckResult:
    n = 100 if cases is None else cases
    bad = 0
    for i in range(n):
        rng = rng_for(seed, f"c3/{i}")
        a, b, h, graph = _addition_instance(rng, a_hi=8, b_hi=3, h_choices=(2, 3, 4))
        j = rng.randint(1, h)
        tight = magnification_flow(graph, j).maximal_tight_set
        chan = channel_of(graph, tight)
        pc = tight_channel_power_check(chan, j)
        if not (pc.hypothesis_ok and pc.power_ok and pc.floor_ok is not False):
            bad += 1
    return CheckResult(
        3,
        "tight-channel power inequality",
        bad == 0,
        n,
        f"{n} channels, {bad} failures",
    )


# Within one `run_suite` call: criterion 5's violation count by (seed, cases),
# left by criterion 4 from the partitions it made.  None outside a call.
_certified_counts: ContextVar[dict | None] = ContextVar("_certified_counts", default=None)


def _certified_fails(b, h, graph, result) -> bool:
    pseudo = pseudo_cardinality(len(fold_sumset(b, h)), h)
    return not certified_min_sum(result, pseudo, graph.layer_sizes()[-1]).ok


def check_partition_validity(seed: int, cases: int | None = None) -> CheckResult:
    n = 100 if cases is None else cases
    counts = _certified_counts.get()
    bad = certified_bad = 0
    for i in range(n):
        a, b, h, graph = _addition_instance(rng_for(seed, f"c45/{i}"), 8, 3, (2, 3))
        result = partition_graph(graph)
        if not verify_partition(result).ok:
            bad += 1
        if counts is not None:
            certified_bad += _certified_fails(b, h, graph, result)
    if counts is not None:
        counts[seed, n] = certified_bad
    return CheckResult(
        4,
        "partition invariants and top accounting",
        bad == 0,
        n,
        f"{n} partitions re-verified, {bad} failures",
    )


def check_certified_chain(seed: int, cases: int | None = None) -> CheckResult:
    n = 100 if cases is None else cases
    bad = (_certified_counts.get() or {}).pop((seed, n), None)
    if bad is None:
        bad = 0
        for i in range(n):
            a, b, h, graph = _addition_instance(rng_for(seed, f"c45/{i}"), 8, 3, (2, 3))
            bad += _certified_fails(b, h, graph, partition_graph(graph))
    return CheckResult(
        5,
        "certified min-sum upper bound",
        bad == 0,
        n,
        f"{n} instances (same stream as criterion 4), {bad} violations",
    )


def check_restricted_growth(seed: int, cases: int | None = None) -> CheckResult:
    n = 100 if cases is None else cases
    bad = 0
    for i in range(n):
        rng = rng_for(seed, f"c6/{i}")
        a, b, c = random_triple(rng, a_hi=8, b_hi=3, c_hi=6)
        h = rng.choice([2, 3])
        report = restricted_growth_check(a, b, c, h)
        if not (report.top_ok and report.per_vertex_ok):
            bad += 1
    return CheckResult(
        6,
        "restricted growth and per-vertex binomial",
        bad == 0,
        n,
        f"{n} (A,B,C) triples, {bad} violations",
    )


def check_example1(seed: int, cases: int | None = None) -> CheckResult:
    a, b, spec = example1(2, 4, 1)
    sizes, hb, fits = _measure(a, b, spec)
    report = bound_report(a, b, 2)
    ruzsa = report.bound("ruzsa_universal")
    reference = (5 / 3) ** 2 * 18**1.5
    ok = (
        fits
        and sizes == (18, 30, 48)
        and hb == 16
        and spec.predicted["top_lower"] == 31
        and ruzsa.ok is True
        and abs(ruzsa.value - reference) <= 1e-6
    )
    return CheckResult(
        7,
        "grid construction reproduction",
        ok,
        1,
        f"layers {sizes}, |2B|={hb}, formula floor 31, ruzsa {ruzsa.value:.2f}",
    )


def check_example2(seed: int, cases: int | None = None) -> CheckResult:
    a, b, spec = example2(2, 8, Fraction(3, 2))
    sizes, _, fits = _measure(a, b, spec)
    ok = fits and sizes == (66, 94, 192)
    return CheckResult(
        8,
        "absorbing construction reproduction",
        ok,
        1,
        f"layers {sizes}, cap {spec.predicted['ab_cap']}, top exact {spec.predicted['top_exact']}",
    )


def check_growth_statements(seed: int, cases: int | None = None) -> CheckResult:
    n_growth = 100 if cases is None else cases
    n_subset = 50 if cases is None else cases
    bad = 0
    for i in range(n_growth):
        rng = rng_for(seed, f"c9g/{i}")
        a, b, h, graph = _addition_instance(rng, a_hi=8, b_hi=4)
        if not growth_commutative_bound(graph).ok:
            bad += 1
    for i in range(n_subset):
        rng = rng_for(seed, f"c9s/{i}")
        a, b, h, graph = _addition_instance(rng, a_hi=12, b_hi=4)
        m = len(graph.layers[0])
        for t in (Fraction(0), Fraction(m, 4), Fraction(m, 2)):
            if not large_subset_search(graph, t).found:
                bad += 1
    return CheckResult(
        9,
        "commutative growth and large-subset existence",
        bad == 0,
        n_growth + n_subset,
        f"{n_growth} growth bounds + {n_subset} subset searches, {bad} failures",
    )


def check_set_addition(seed: int, cases: int | None = None) -> CheckResult:
    n = 100 if cases is None else cases
    bad = 0
    hypothesis_misses = 0
    for i in range(n):
        rng = rng_for(seed, f"c10n/{i}")
        a, b = random_pair(rng, a_hi=8, b_hi=4)
        s = random_gset(rng, a.space, 1, 4)
        if not nap_check(a, b, s).ok:
            bad += 1
    for i in range(n):
        rng = rng_for(seed, f"c10r/{i}")
        a, b = random_pair(rng, a_hi=8, b_hi=3)
        x = random_gset(rng, a.space, 1, 8)
        raw_j = random_gset(rng, a.space, 1, 5)
        j_coords = [c for c in raw_j.elements if c not in x.member_set()]
        j_set = GSet.from_coords(a.space, j_coords)
        h = rng.choice([2, 3])
        j = rng.randint(1, h)
        samples = [random_gset(rng, a.space, 1, 3) for _ in range(10)]
        report = restricted_sumset_check(x, b, j_set, j, h, samples)
        if not report.hypothesis_ok:
            hypothesis_misses += 1
            continue
        if report.conclusion_ok is not True or not all(report.reiher_ok):
            bad += 1
    return CheckResult(
        10,
        "translate-stable growth statements",
        bad == 0,
        2 * n,
        f"{n} NAP + {n} restricted checks, {hypothesis_misses} hypothesis misses, {bad} violations",
    )


def check_pseudo_cardinality(seed: int, cases: int | None = None) -> CheckResult:
    bad = 0
    checked = 0
    for h in range(1, 7):
        for r in range(1, 31):
            target = rising_binomial(r, h)
            p = pseudo_cardinality(int(target), h)
            checked += 1
            if not (p.exact and p.lo == r == p.hi):
                bad += 1
    for n, h in ((16, 2), (7, 3), (1000, 4), (12345, 5)):
        p = pseudo_cardinality(n, h)
        checked += 1
        if p.hi - p.lo > Fraction(1, 10**9) * max(1, p.lo):
            bad += 1
        if not (p.leq(p.hi) and not p.lt(p.lo)):
            bad += 1
    return CheckResult(
        11,
        "pseudo-cardinality exactness and brackets",
        bad == 0,
        checked,
        f"{checked} solves, {bad} failures",
    )


CRITERIA = (
    check_magnification_oracle,
    check_plunnecke_chain,
    check_tight_channel_power,
    check_partition_validity,
    check_certified_chain,
    check_restricted_growth,
    check_example1,
    check_example2,
    check_growth_statements,
    check_set_addition,
    check_pseudo_cardinality,
)


def run_suite(seed: int, cases: int | None = None) -> SuiteResult:
    """Run all criteria in order; `cases` overrides each randomized
    criterion's count.  Identical (seed, cases) give identical results."""
    if cases is not None and (not _is_int(cases) or cases < 1):
        raise InputError(f"case count must be an integer >= 1, got {cases!r}")
    token = _certified_counts.set({})
    try:
        return SuiteResult(seed, tuple(fn(seed, cases) for fn in CRITERIA))
    finally:
        _certified_counts.reset(token)
