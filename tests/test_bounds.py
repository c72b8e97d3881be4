"""Certified bound evaluation: pseudo-cardinality, the named report rows,
majorants, growth and set-addition statements."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

import sumsetlab
from sumsetlab import (
    CertifiedMinSum,
    GroupSpace,
    GSet,
    GuardError,
    InputError,
    LayeredGraph,
    bound_report,
    bound_report_to_json,
    build_addition_graph,
    build_restricted_graph,
    certified_min_sum,
    csv_header,
    csv_row,
    fold_sumset,
    growth_commutative_bound,
    gset_to_json,
    large_subset_search,
    magnification_flow,
    nap_check,
    partition_graph,
    pseudo_cardinality,
    restricted_growth_check,
    restricted_sumset_check,
    rising_binomial,
)
from sumsetlab import bounds, graphs, groups
from sumsetlab.bounds import BOUND_NAMES, check_majorant_pointwise, majorant_from_root
from sumsetlab.instances import random_gset, random_pair, random_triple, rng_for

from oracles import (
    interval_quotient_up,
    naive_image,
    naive_iterated,
    naive_large_subset,
    naive_pseudo_cardinality,
    naive_rising_binomial,
    naive_restricted_sumset,
    naive_sumset,
    random_layered,
)

Z = GroupSpace((0,))


def gs(*coords):
    return GSet.from_coords(Z, [(c,) for c in coords])


# -- pseudo-cardinality ---------------------------------------------------------


def test_rising_binomial_matches_comb():
    for r in range(1, 12):
        for h in range(0, 6):
            assert rising_binomial(r, h) == math.comb(r + h - 1, h)
    assert rising_binomial(Fraction(5, 2), 2) == Fraction(35, 8)
    with pytest.raises(InputError):
        rising_binomial(3, -1)


def test_pseudo_cardinality_exact_on_binomial_values():
    for h in range(1, 7):
        for r in range(1, 31):
            n = math.comb(r + h - 1, h)
            p = pseudo_cardinality(n, h)
            assert p.exact
            assert p.lo == p.hi == r
            assert p.beta == float(r)


def test_pseudo_cardinality_bracket_quality():
    for n, h in ((16, 2), (7, 3), (1000, 4), (12345, 5)):
        p = pseudo_cardinality(n, h)
        assert not p.exact
        assert rising_binomial(p.lo, h) <= n <= rising_binomial(p.hi, h)
        assert p.hi - p.lo <= Fraction(1, 10**12) * max(1, p.lo)
        assert p.lo <= Fraction(p.beta) <= p.hi


def test_pseudo_cardinality_known_root():
    # beta(beta+1)/2 = 16 has the positive root (sqrt(129)-1)/2
    p = pseudo_cardinality(16, 2)
    assert abs(p.beta - (math.sqrt(129) - 1) / 2) < 1e-9


def test_pseudo_cardinality_exact_comparisons():
    p = pseudo_cardinality(16, 2)
    assert p.leq(6) and p.lt(6)
    assert not p.leq(5) and not p.lt(5)
    assert not p.leq(0) and not p.lt(-3)
    q = pseudo_cardinality(15, 2)  # beta = 5 exactly
    assert q.leq(5) and not q.lt(5)


def test_pseudo_cardinality_matches_fraction_bisection():
    # The integer search against the Fraction bisection it replaced: every
    # field, the float midpoint included, on random counts and on every
    # binomial value C(r+h-1, h) the exact branch must catch.
    rng = rng_for(20261019, "pseudo-cardinality")
    cases = [(rng.randrange(1, 10**8), rng.randint(1, 7)) for _ in range(600)]
    cases += [(rng.randrange(1, 100), rng.randint(1, 7)) for _ in range(100)]
    cases += [(math.comb(r + h - 1, h), h) for h in range(1, 7) for r in range(1, 31)]
    cases += [
        (math.comb(r + h - 1, h) + d, h) for h in range(2, 7) for r in (2, 30) for d in (-1, 1)
    ]
    for n, h in cases:
        p = pseudo_cardinality(n, h)
        assert (p.n, p.h, p.beta, p.lo, p.hi, p.exact) == naive_pseudo_cardinality(n, h)
        assert type(p.beta) is float


def test_pseudo_cardinality_makes_fractions_only_for_its_bracket(monkeypatch):
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(bounds, "Fraction", counted)
    p = pseudo_cardinality(12345, 5)
    assert not p.exact
    assert len(made) <= 2
    made.clear()
    assert pseudo_cardinality(math.comb(9, 5), 5).exact
    assert len(made) <= 2


def test_rising_binomial_matches_fraction_product():
    rng = rng_for(20261019, "rising binomial")
    for _ in range(300):
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        h = rng.randint(0, 7)
        assert rising_binomial(x, h) == naive_rising_binomial(x, h)
    assert rising_binomial(2.5, 2) == Fraction(35, 8)


def test_binomial_arguments_are_finite_reals():
    # Ints, Fractions, finite floats and Decimals give the same value; a
    # string, NaN or an infinity is refused by name, by rising_binomial and
    # by both exact beta tests, which pass it on.
    for x in (Fraction(5, 2), 2.5, Decimal("2.5")):
        assert rising_binomial(x, 2) == Fraction(35, 8)
    p = pseudo_cardinality(16, 2)  # 5 < beta < 6
    for r in (6, Fraction(6), 6.0, Decimal(6)):
        assert p.leq(r) and p.lt(r)
    for x in ("5/2", float("nan"), float("inf"), -float("inf"), Decimal("NaN")):
        shown = re.escape(f"must be a finite real number, got {x!r}")
        with pytest.raises(InputError, match="binomial argument " + shown):
            rising_binomial(x, 2)
        for test in (p.leq, p.lt):
            with pytest.raises(InputError, match="binomial argument " + shown):
                test(x)


def test_pseudo_cardinality_validation():
    with pytest.raises(InputError):
        pseudo_cardinality(0, 2)
    with pytest.raises(InputError):
        pseudo_cardinality(6, 0)


# -- the named-bound report -----------------------------------------------------


@pytest.fixture(scope="module")
def grid_report():
    from sumsetlab import example1

    a, b, _ = example1(2, 4, 1)
    return bound_report(a, b, 2)


def test_grid_report_frozen_headline_numbers(grid_report):
    rep = grid_report
    assert (rep.m, rep.ab, rep.hb, rep.observed) == (18, 30, 16, 48)
    assert rep.alpha == Fraction(5, 3)
    assert rep.alpha_1 == 1
    assert rep.ratios == (Fraction(1), Fraction(7))
    assert rep.block_sizes == (16, 2)
    assert rep.all_ok
    # alpha^h m^(2-1/h) = (25/9) * 18^1.5
    ruzsa = rep.bound("ruzsa_universal")
    assert ruzsa.ok and ruzsa.exact
    assert abs(ruzsa.value - (25 / 9) * 18**1.5) < 1e-6
    assert ruzsa.value >= (25 / 9) * 18**1.5
    assert rep.bound("corollary_hb").value == 18.0
    assert rep.bound("corollary_hb").observed == 16
    cert = rep.bound("certified_min_sum")
    assert cert.ok and cert.exact
    # slow block contributes 16, fast block 2 alpha_2 = 14, scaled by s
    assert abs(cert.value - (16 + 14 * rep.s_value)) < 1e-9


def test_grid_report_suppresses_same_set_rows(grid_report):
    for name in ("plunnecke_hA", "ruzsa_binomial_hA"):
        row = grid_report.bound(name)
        assert row.ok is None and row.value is None
        assert row.note == "stated for A = B only"


def test_grid_report_main_terms_not_asserted(grid_report):
    for name in ("thm_main_universal", "thm_main_small_alpha"):
        row = grid_report.bound(name)
        assert row.ok is None
        assert row.value is not None


def test_grid_report_s_and_t(grid_report):
    rep = grid_report
    # s = hb / beta, up-rounded
    assert rep.s_value >= 16 / rep.beta.hi
    assert abs(rep.s_value - 16 / rep.beta.beta) < 1e-9
    # h = 2 makes t the chord slope s + alpha_1
    assert abs(rep.t_value - (rep.s_value + 1)) < 1e-9


def test_same_set_rows_frozen():
    a = gs(0, 1)
    rep = bound_report(a, a, 3)
    pl = rep.bound("plunnecke_hA")
    # alpha = 3/2; |3A| = 4 <= (3/2)^3 * 2 = 6.75
    assert (pl.value, pl.observed, pl.ok, pl.exact) == (6.75, 4, True, True)
    rb = rep.bound("ruzsa_binomial_hA")
    # alpha^2 C(alpha^4+h-2, h-1) m = (9/4) * rb(81/16, 2) * 2
    assert rb.value == 69.0556640625
    assert rb.observed == 4 and rb.ok
    assert rep.all_ok


def test_per_vertex_binomial_rounds_its_cap_up():
    # The cap C(34 + 26 - 1, 26) = C(59, 26) is no float, and the nearest
    # float lies below it: the reported value must not.
    a = GSet.from_coords(Z, [(0,)])
    b = GSet.from_coords(Z, [(i,) for i in range(34)])
    row = bound_report(a, b, 26).bound("per_vertex_binomial")
    cap = math.comb(59, 26)
    assert float(cap) < cap
    assert row.value >= cap
    assert row.value == math.nextafter(float(cap), math.inf)
    assert (row.observed, row.ok) == (26 * 33 + 1, True)


def test_group_case_certified_frozen():
    space = GroupSpace((4,))
    a = GSet.from_coords(space, [(i,) for i in range(4)])
    b = GSet.from_coords(space, [(1,)])
    rep = bound_report(a, b, 2)
    assert rep.alpha == 1 and rep.alpha_1 == 1
    # 2B is a single element, so beta = 1 and s = 1
    assert rep.hb == 1 and rep.s_value == 1.0
    cert = rep.bound("certified_min_sum")
    assert cert.ok
    assert cert.value == 4.0
    assert rep.all_ok


def test_group_case_certified_with_caller_chosen_count():
    # same instance evaluated against beta(4, 2): the bound is still
    # 4 min(1, s) = 4, with s = 4/beta = (1+sqrt(33))/4
    space = GroupSpace((4,))
    a = GSet.from_coords(space, [(i,) for i in range(4)])
    b = GSet.from_coords(space, [(1,)])
    part = partition_graph(build_addition_graph(a, b, 2))
    cert = certified_min_sum(part, pseudo_cardinality(4, 2), 4)
    assert cert.ok
    assert cert.slow_part == 4 and cert.fast_weight == 0
    assert cert.value == 4.0
    assert abs(cert.s_value - (1 + math.sqrt(33)) / 4) < 1e-9
    assert cert.s_value >= (1 + math.sqrt(33)) / 4


def test_certified_min_sum_slow_only_is_exact():
    g = build_addition_graph(gs(0, 1, 2, 3, 100), gs(0, 1), 1)
    part = partition_graph(g)
    pseudo = pseudo_cardinality(2, 1)  # |1B| = 2, h = 1: beta = 2 exactly
    cert = certified_min_sum(part, pseudo, 7)
    assert cert.ok
    assert cert.slow_part == 7 and cert.fast_weight == 0
    assert cert.value == 7.0


def test_certified_min_sum_rejects_height_mismatch():
    g = build_addition_graph(gs(0, 1), gs(0, 1), 2)
    part = partition_graph(g)
    with pytest.raises(InputError):
        certified_min_sum(part, pseudo_cardinality(3, 1), 3)


def test_bound_report_validation():
    a = gs(0, 1)
    with pytest.raises(InputError):
        bound_report(a, a, 0)
    with pytest.raises(InputError):
        bound_report(a, GSet.from_coords(GroupSpace((5,)), [(0,)]), 2)
    with pytest.raises(InputError):
        bound_report(a, GSet.from_coords(Z, []), 2)


def test_bound_report_sweeps_level_h_masks_once(monkeypatch):
    import sumsetlab.bounds as bounds_mod

    calls = []
    sweep = bounds_mod.image_masks

    def counted(graph, level):
        calls.append(level)
        return sweep(graph, level)

    monkeypatch.setattr(bounds_mod, "image_masks", counted)
    a, b = gs(0, 1, 4, 9), gs(0, 2, 3)
    rep = bound_report(a, b, 3)
    # The growth and the per-vertex rows each read the level-h masks; both
    # reads come from the graph's one kept sweep, which the next test counts.
    assert calls == [3, 3]
    growth = growth_commutative_bound(build_addition_graph(a, b, 3))
    row = next(bv for bv in rep.bounds if bv.name == "growth_commutative")
    assert (row.value, row.observed, row.ok) == (growth.value, growth.observed, growth.ok)


def test_bound_report_sweeps_its_graph_once_per_level(monkeypatch):
    # The partition and the growth rows share the graph's kept level-h
    # sweep: count the sweeps stored on the graph bound_report builds.
    import sumsetlab.bounds as bounds_mod

    a, b, h = gs(0, 1, 4, 9), gs(0, 2, 3), 3
    plain = bound_report_to_json(bound_report(a, b, h))
    misses = []

    class CountedSweeps(dict):
        def __setitem__(self, level, masks):
            misses.append(level)
            super().__setitem__(level, masks)

    def build(*args):
        graph = build_addition_graph(*args)
        graph.__dict__["_sweeps"] = CountedSweeps()
        return graph

    monkeypatch.setattr(bounds_mod, "build_addition_graph", build)
    assert bound_report_to_json(bound_report(a, b, h)) == plain
    assert sorted(misses) == [1, h]


def test_mpmath_is_imported_on_first_use_and_left_as_it_was():
    # Importing the CLI loads no module outside the standard library and the
    # package, mpmath among them; the interval context that a bound report
    # makes on first use is private, so mpmath's global precision stays as
    # it was.  The module sets are compared within one child, since the
    # interpreter may load site packages before the import.
    src = str(Path(sumsetlab.__file__).parent.parent)
    code = (
        "import sys; before = set(sys.modules); import sumsetlab.cli; "
        "roots = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(roots - set(sys.stdlib_module_names) - {'sumsetlab'}))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert child.stdout == "[]\n"
    import mpmath

    prec = mpmath.mp.prec
    bounds._iv.cache_clear()
    report = bound_report(gs(0, 1, 3, 7), gs(0, 2, 5), 3)
    assert report.bounds and bounds._iv.cache_info().currsize == 1
    assert mpmath.mp.prec == prec


def test_bound_report_makes_no_channel(monkeypatch, tmp_path, capsys):
    # The report reads the peel's ratios and vertices, never a block's
    # subgraph, so the peel's blocks build no channel; nor does the
    # certified chain of suite criterion 5.
    from sumsetlab.cli import main
    from sumsetlab.suite import check_certified_chain

    def refuse(*args):
        raise AssertionError("a block subgraph was built")

    monkeypatch.setattr("sumsetlab.partition.channel", refuse)
    rng = rng_for(20261019, "no channel")
    for _ in range(20):
        a, b = random_pair(rng, a_hi=9, b_hi=4)
        bound_report(a, b, rng.randint(1, 3))
    a, b = gs(0, 1, 2, 3, 100), gs(0, 1)
    for name, s in (("A.json", a), ("B.json", b)):
        (tmp_path / name).write_text(json.dumps(gset_to_json(s)))
    argv = ["bounds", str(tmp_path / "A.json"), str(tmp_path / "B.json"), "--h", "3"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["alpha_1"] == [5, 4]
    assert check_certified_chain(1).ok


def test_top_bounds_and_s_round_once_to_the_interval_float():
    # One exact rounding of v1 n / lo, and of n / lo, gives the float that
    # the 80-bit interval chain gave, for beta exact (n a rising binomial
    # value) and inexact alike.
    rng = rng_for(20261020, "top bound")
    for k in range(400):
        h = rng.randint(1, 5)
        n = int(rising_binomial(rng.randint(1, 60), h)) if k % 2 else rng.randint(1, 10**7)
        v1, vh = rng.randint(1, 10**7), rng.randint(0, 10**9)
        beta = pseudo_cardinality(n, h)
        want = interval_quotient_up([v1, n], beta.lo, beta.hi)
        assert bounds._top_bound(n, v1, vh, beta)[1] == want, (n, h, v1)
        cert = CertifiedMinSum(True, Fraction(0), Fraction(0), beta)
        assert cert.s_value == interval_quotient_up([n], beta.lo, beta.hi), (n, h)
    for _ in range(60):
        a, b, c = random_triple(rng, a_hi=8, b_hi=3, c_hi=6)
        rep = restricted_growth_check(a, b, c, rng.randint(1, 3))
        assert rep.value == interval_quotient_up([rep.v1, rep.hb], rep.beta.lo, rep.beta.hi)
        a, b = random_pair(rng, a_hi=8, b_hi=4)
        g = build_addition_graph(a, b, rng.randint(1, 3))
        gb = growth_commutative_bound(g)
        want = interval_quotient_up([len(g.layers[1]), gb.max_image], gb.beta.lo, gb.beta.hi)
        assert gb.value == want


def test_verdicts_and_top_bounds_make_no_interval(monkeypatch):
    # Criterion 5 reads only a certified sum's verdict, and the top bounds
    # round exactly, so none of them makes an interval; a report's
    # certified row reads the value, which is the interval float as before.
    from sumsetlab.suite import check_certified_chain

    a, b = gs(8, 11, 19, 22, 23, 25), gs(0, 3, 6)
    part = partition_graph(build_addition_graph(a, b, 2))

    def refuse():
        raise AssertionError("an interval was made")

    monkeypatch.setattr(bounds, "_iv", refuse)
    assert check_certified_chain(1, 20).ok
    rng = rng_for(20261020, "no interval")
    for _ in range(10):
        x, y, z = random_triple(rng, a_hi=8, b_hi=3, c_hi=6)
        restricted_growth_check(x, y, z, 2)
        growth_commutative_bound(build_addition_graph(x, y, 3))
    cert = certified_min_sum(part, pseudo_cardinality(len(fold_sumset(b, 2)), 2), 17)
    assert cert.ok and cert.s_value == 1.8507810593593805
    monkeypatch.undo()
    assert cert.value == 21.288800748849
    report = bound_report(a, b, 2)
    assert astuple(report.bound("certified_min_sum")) == (
        "certified_min_sum", 21.288800748849, 17, True, True, ""
    )
    assert report.bound("prop_restricted_first").value == 22.209372712312568
    assert report.bound("growth_commutative").value == 22.209372712312568
    assert report.s_value == 1.8507810593593805


def test_report_rows_complete_and_deterministic(grid_report):
    assert tuple(bv.name for bv in grid_report.bounds) == BOUND_NAMES
    doc = bound_report_to_json(grid_report)
    assert doc == bound_report_to_json(grid_report)
    assert doc["alpha"] == [5, 3]
    assert len(doc["bounds"]) == 12


def test_csv_shape(grid_report):
    header = csv_header().rstrip("\n").split(",")
    row = csv_row(grid_report).rstrip("\n").split(",")
    assert len(header) == len(row) == 10 + 2 * len(BOUND_NAMES)
    assert header[:5] == ["h", "m", "ab", "hb", "observed"]
    named = dict(zip(header, row))
    assert named["alpha"] == "5/3"
    assert named["plunnecke_hA"] == ""  # suppressed row stays empty
    assert named["ruzsa_universal_ok"] == "True"
    assert float(named["ruzsa_universal"]) == grid_report.bound("ruzsa_universal").value


def test_random_reports_all_ok():
    rng = rng_for(20260814, "bounds")
    for _ in range(120):
        a, b = random_pair(rng, a_hi=7, b_hi=4)
        h = rng.randint(1, 3)
        rep = bound_report(a, b, h)
        assert rep.all_ok, [bv for bv in rep.bounds if bv.ok is False]
        assert rep.alpha_1 <= rep.alpha
        assert rep.s_value > 0


def test_random_same_set_reports_all_ok():
    rng = rng_for(20260814, "bounds-same")
    for _ in range(40):
        a, _ = random_pair(rng, a_hi=6, b_hi=1)
        h = rng.randint(1, 3)
        rep = bound_report(a, a, h)
        assert rep.all_ok
        assert rep.bound("plunnecke_hA").ok is True


# -- linear majorant ------------------------------------------------------------


def test_majorant_from_root_dominates_on_grid():
    alpha_1, sigma, h = Fraction(1), Fraction(2), 3
    s, t = majorant_from_root(alpha_1, sigma, h)
    assert (s, t) == (4, 7)
    span = 3 * sigma - alpha_1
    grid = [alpha_1 + Fraction(k, 1000) * span for k in range(1001)]
    assert check_majorant_pointwise(alpha_1, s, t, h, grid)
    # frozen sample: min(9, 12) = 9 <= 4 + 6*(3-2) = 10
    assert check_majorant_pointwise(2, 4, 6, 2, [Fraction(3)])


def test_majorant_from_root_random():
    rng = rng_for(20260814, "majorant")
    for _ in range(60):
        h = rng.randint(2, 4)
        alpha_1 = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        sigma = alpha_1 + Fraction(rng.randint(1, 9), rng.randint(1, 3))
        s, t = majorant_from_root(alpha_1, sigma, h)
        grid = [alpha_1 + Fraction(k, 40) * (2 * sigma) for k in range(41)]
        assert check_majorant_pointwise(alpha_1, s, t, h, grid)


# -- growth bounds --------------------------------------------------------------


def test_growth_commutative_frozen_examples():
    g = build_addition_graph(gs(0, 10), gs(0, 1), 2)
    gb = growth_commutative_bound(g)
    assert gb.max_image == 3
    assert gb.beta.beta == 2.0
    assert gb.value == 6.0 and gb.observed == 6 and gb.ok

    single = growth_commutative_bound(build_addition_graph(gs(0), gs(0, 1), 2))
    assert single.max_image == 3 and single.value == 3.0 and single.ok

    space = GroupSpace((4,))
    a = GSet.from_coords(space, [(i,) for i in range(4)])
    b = GSet.from_coords(space, [(1,)])
    group = growth_commutative_bound(build_addition_graph(a, b, 2))
    assert group.max_image == 1 and group.value == 4.0 and group.ok


def test_growth_commutative_empty_top():
    g = build_restricted_graph(gs(0), gs(1), gs(1), 1)
    gb = growth_commutative_bound(g)
    assert gb.max_image == 0 and gb.value == 0.0 and gb.ok


def test_growth_commutative_random():
    rng = rng_for(20260814, "growth")
    for _ in range(80):
        a, b = random_pair(rng, a_hi=7, b_hi=4)
        g = build_addition_graph(a, b, rng.randint(1, 3))
        gb = growth_commutative_bound(g)
        assert gb.ok
        assert gb.value >= gb.observed


# -- large subsets --------------------------------------------------------------


def test_large_subset_frozen_cases():
    g = build_addition_graph(gs(0, 1, 2, 3, 100), gs(0, 1), 1)
    base = large_subset_search(g, 0)
    assert base.found
    assert {g.label_of(v)[0] for v in base.subset} == {0, 1, 2}
    assert base.image_size == 4
    assert base.bound == Fraction(21, 5)

    mid = large_subset_search(g, 2)
    assert mid.found
    assert len(mid.subset) == 5
    assert mid.image_size == 7 and mid.bound == 7

    refined = large_subset_search(g, 2, with_alpha_1=True)
    assert refined.found
    assert {g.label_of(v)[0] for v in refined.subset} == {0, 1, 2}
    assert refined.image_size == 4 and refined.bound == 4


def test_large_subset_validation_and_guard():
    g = build_addition_graph(gs(0, 1, 2), gs(0, 1), 1)
    with pytest.raises(InputError):
        large_subset_search(g, 3)
    with pytest.raises(InputError):
        large_subset_search(g, -1)
    wide = build_addition_graph(gs(*range(23)), gs(0), 1)
    with pytest.raises(GuardError, match="subset enumeration guard"):
        large_subset_search(wide, 0)


@pytest.mark.parametrize(
    "t", ["x", "1/2", float("nan"), float("inf"), -float("inf"), None], ids=repr
)
def test_large_subset_threshold_is_a_finite_real(t):
    # The threshold follows rising_binomial's rule: a string is refused even
    # when it spells a number, and NaN, an infinity or None by name.
    g = build_addition_graph(gs(0, 1, 2), gs(0, 1), 1)
    shown = re.escape(f"threshold t must be a finite real number, got {t!r}")
    with pytest.raises(InputError, match=shown):
        large_subset_search(g, t)
    for ok in (1, Fraction(1, 2), 0.5, 2.25):
        assert large_subset_search(g, ok).t == Fraction(ok)


def test_large_subset_random_reverified():
    rng = rng_for(20260814, "subset")
    for _ in range(50):
        a, b = random_pair(rng, a_hi=6, b_hi=3)
        h = rng.randint(1, 2)
        g = build_addition_graph(a, b, h)
        m = len(g.layers[0])
        t = rng.choice([Fraction(0), Fraction(m, 4), Fraction(m, 2)])
        res = large_subset_search(g, t)
        assert res.found
        # re-verify the witness against an independent reachability oracle
        im = naive_image(g.edges, res.subset, h)
        assert len(im) == res.image_size
        assert res.image_size <= res.bound
        assert len(res.subset) > t


def _subset_graphs(rng):
    # Addition graphs and restricted graphs (whose bottom vertices may reach
    # nothing), each with |V_0| <= 12.
    while True:
        if rng.random() < 0.5:
            a, b = random_pair(rng, a_hi=12, b_hi=4)
            g = build_addition_graph(a, b, rng.randint(1, 3))
        else:
            a, b, c = random_triple(rng, a_hi=12, b_hi=4, c_hi=8)
            g = build_restricted_graph(a, b, c, rng.randint(1, 3))
        if len(g.layers[0]) <= 12:
            yield g


def test_large_subset_matches_per_subset_budgets():
    # One budget per subset size, compared by its floor, against a budget
    # rebuilt as a Fraction for every subset.
    rng = rng_for(20261019, "large subsets")
    graphs = _subset_graphs(rng)
    found = 0
    for _ in range(60):
        g = next(graphs)
        m, n, h = len(g.layers[0]), len(g.layers[1]), g.height
        a1 = magnification_flow(g, 1).value if g.layers[1] else None
        for t in {Fraction(0), Fraction(m, 4), Fraction(m, 2), Fraction(1, 3)}:
            if t >= m:
                continue
            for with_alpha_1 in (False, True):
                if with_alpha_1 and a1 is None:
                    continue
                res = large_subset_search(g, t, with_alpha_1)
                want = naive_large_subset(
                    g.edges, g.layers[0], n, h, t, a1 if with_alpha_1 else None
                )
                assert (res.found, res.subset, res.image_size, res.bound, res.checked) == want
                assert res.t == t and res.with_alpha_1 == with_alpha_1
                found += res.found
    assert found > 100


@pytest.mark.parametrize("row_bits", [2, 3])
def test_large_subset_matches_naive_on_narrow_rows(row_bits, monkeypatch):
    # Rows 2 and 3 bits wide: the first fit and `checked` are read across
    # many rows, on random layered graphs and on addition and restricted
    # graphs, and the whole result matches the per-subset search.
    monkeypatch.setattr(graphs, "_ROW_BITS", row_bits)
    rng = rng_for(20261020, f"narrow subset rows {row_bits}")
    pool = _subset_graphs(rng)
    late = 0
    for k in range(60):
        g = LayeredGraph(*random_layered(rng)) if k % 2 else next(pool)
        m, n, h = len(g.layers[0]), len(g.layers[1]), g.height
        a1 = magnification_flow(g, 1).value
        for t in {Fraction(0), Fraction(m, 4), Fraction(m, 2), Fraction(1, 3)}:
            if t >= m:
                continue
            for with_alpha_1 in (False, True):
                res = large_subset_search(g, t, with_alpha_1)
                want = naive_large_subset(
                    g.edges, g.layers[0], n, h, t, a1 if with_alpha_1 else None
                )
                assert (res.found, res.subset, res.image_size, res.bound, res.checked) == want
                assert res.t == t and res.with_alpha_1 == with_alpha_1
                late += res.checked >= 1 << row_bits
    assert late > 40


# -- set-addition statements ----------------------------------------------------


def test_nap_frozen_equality_case():
    rep = nap_check(gs(0, 1, 2, 3, 100), gs(0, 1), gs(0, 7))
    assert {c[0] for c in rep.x.elements} == {0, 1, 2, 3}
    assert rep.ratio == Fraction(5, 4)
    assert rep.lhs == 10 and rep.sx == 8
    assert rep.ok  # 10 * 4 == 5 * 8


def test_nap_random():
    rng = rng_for(20260814, "nap")
    for _ in range(60):
        a, b = random_pair(rng, a_hi=7, b_hi=4)
        s, _ = random_pair(rng, a_hi=4, b_hi=1)
        if s.space != a.space:
            continue
        assert nap_check(a, b, s).ok


def test_nap_matches_naive_sumsets_random():
    # X is the union of the non-empty Z in A with the least |Z+B| / |Z|.
    rng = rng_for(20261018, "nap")
    for moduli in [(0,), (7,), (0, 0), (0, 5), (4, 0), (6, 6), (0, 3, 0)]:
        space = GroupSpace(moduli)
        for _ in range(8):
            a = random_gset(rng, space, 1, 7, spread=4)
            b = random_gset(rng, space, 1, 3, spread=2)
            s = random_gset(rng, space, 1, 3, spread=3)
            ratios = {
                z: Fraction(len(naive_sumset(z, b.elements, moduli)), len(z))
                for r in range(1, len(a) + 1)
                for z in combinations(a.elements, r)
            }
            best = min(ratios.values())
            x = {p for z, ratio in ratios.items() if ratio == best for p in z}
            xb = naive_sumset(x, b.elements, moduli)
            sx = naive_sumset(s.elements, x, moduli)
            sxb = naive_sumset(sx, b.elements, moduli)
            rep = nap_check(a, b, s)
            assert set(rep.x) == x, (moduli, a, b, s)
            assert rep.ratio == Fraction(len(xb), len(x)) == best
            assert (rep.lhs, rep.sx) == (len(sxb), len(sx))
            assert rep.ok == (len(sxb) * len(x) <= len(xb) * len(sx))
            assert rep.ok


def test_reiher_samples_share_one_layout(monkeypatch):
    # X u J and J are folded once, in one layout for every Reiher sample, so
    # a check makes as many layouts for 10 samples as for none; NAP adds S
    # to the layers of X's fold and makes no sumset.
    layouts, sums = [], []
    real_layout, real_top = groups._layout, groups._top_layer
    monkeypatch.setattr(groups, "_layout", lambda *a: layouts.append(a) or real_layout(*a))
    monkeypatch.setattr(groups, "_top_layer", lambda *a: sums.append(a) or real_top(*a))
    x, b = gs(0, 1, 2, 3), gs(0, 1, 4)
    samples = [gs(i, 3 * i - 7, i * i) for i in range(10)]
    for j_set in (gs(10, 12), GSet.from_coords(Z, [])):
        for j, h in [(1, 1), (1, 3), (2, 3), (3, 3)]:
            made = []
            for n in (0, 1, 10):
                layouts.clear()
                sums.clear()
                rep = restricted_sumset_check(x, b, j_set, j, h, samples[:n])
                assert len(rep.reiher_ok) == n
                made.append((len(layouts), len(sums)))
            assert made[0] == made[1] == made[2], (j_set, j, h, made)
    sums.clear()
    nap_check(gs(0, 1, 2, 3, 100), gs(0, 1), gs(0, 7))
    assert sums == []


def test_reiher_samples_are_read_once():
    x, b, j_set = gs(0, 1, 2, 3), gs(0, 1), gs(100)
    samples = (gs(0), gs(0, 5), gs(-2, 1, 9))
    want = restricted_sumset_check(x, b, j_set, 2, 3, samples)
    assert len(want.reiher_ok) == 3
    assert restricted_sumset_check(x, b, j_set, 2, 3, (s for s in samples)) == want


def test_bad_reiher_sample_is_refused_before_the_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("restricted graph built before the samples were checked")

    monkeypatch.setattr(bounds, "build_restricted_graph", refuse)
    plane = GSet.from_coords(GroupSpace((0, 0)), [(0, 0)])
    for bad, message in [
        (plane, "Reiher sample set must share the space"),
        (GSet.from_coords(Z, []), "Reiher sample sets must be non-empty"),
    ]:
        with pytest.raises(InputError, match=message):
            restricted_sumset_check(gs(0, 1), gs(0, 1), gs(5), 1, 2, (gs(0), bad))


def test_far_apart_translates_stay_in_the_set_container():
    # A lift of the box of {0, 10^9} would be a 125 MB int; the shared
    # layout's cost rule keeps it in a set.  tracemalloc counts the ints.
    tracemalloc.start()
    try:
        far = gs(0, 10**9)
        rep = restricted_sumset_check(far, gs(0, 1), gs(5), 1, 2, [far, gs(3)])
        nap = nap_check(gs(0, 1, 2), gs(0, 1), far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.reiher_ok == (True, True) and (nap.sx, nap.lhs) == (6, 8)
    assert peak < 10**7


def test_translated_counts_match_naive_sums(monkeypatch):
    # Every |P+S+kB| of the shared fold, and the Reiher and NAP reports read
    # from it, against sums made point by point.  Free coordinates spread
    # about 10^6 apart leave the shared layout too wide to lift.
    kinds = set()
    real_layout = groups._layout

    def spy(*args):
        layout = real_layout(*args)
        if args[5:]:  # padded by the samples' spread: the shared layout
            kinds.add(type(layout))
        return layout

    monkeypatch.setattr(groups, "_layout", spy)
    rng = rng_for(20261020, "translate")
    for moduli in [(0,), (0, 0), (5, 5), (0, 4), (6, 0)]:
        space = GroupSpace(moduli)
        for spread, n in product((3, 10**6), (0, 1, 10)):
            x = random_gset(rng, space, 1, 5, spread=spread)
            b = random_gset(rng, space, 1, 3, spread=2)
            raw_j = random_gset(rng, space, 1, 3, spread=spread)
            samples = [random_gset(rng, space, 1, 3, spread=spread) for _ in range(n)]
            naive_samples = [s.elements for s in samples]
            j_sets = [
                GSet.from_coords(space, []),
                GSet.from_coords(space, raw_j.member_set() - x.member_set()),
            ]
            for j_set, j in product(j_sets, (1, 2, 3)):
                h = rng.randint(j, 3)
                sets = [x.elements + j_set.elements, j_set.elements]
                got = groups._translate_sizes(space, b.elements, h, sets, naive_samples)
                want = [
                    [
                        [
                            len(naive_iterated(naive_sumset(p, s, moduli), b.elements, k, moduli))
                            for k in range(h + 1)
                        ]
                        for p in sets
                    ]
                    for s in naive_samples
                ]
                assert got == want, (moduli, x, b, j_set, h, samples)
                rep = restricted_sumset_check(x, b, j_set, j, h, samples)
                assert astuple(rep) == naive_restricted_sumset(
                    x.elements, b.elements, j_set.elements, j, h, naive_samples, moduli
                ), (moduli, x, b, j_set, j, h, samples)
            for s in samples[:3]:
                rep = nap_check(x, b, s)
                sx = naive_sumset(s.elements, rep.x.elements, moduli)
                assert (rep.lhs, rep.sx) == (len(naive_sumset(sx, b.elements, moduli)), len(sx))
    assert kinds == {groups._Lift, groups._Sparse}


def test_restricted_sumset_frozen():
    rep = restricted_sumset_check(
        gs(0, 1, 2, 3), gs(0, 1), gs(100), 1, 2, reiher_samples=(gs(0),)
    )
    assert rep.hypothesis_ok
    assert rep.alpha_j == Fraction(5, 4)
    assert rep.observed == 6
    assert rep.conclusion_ok  # 6 * 4 <= 5^2
    assert rep.reiher_ok == (True,)
    # j = 1 with X+S meeting J+S in 8: lhs = |(X+S+B) \ (J+S+B)| = 5 and
    # rhs = |(X+S) \ (J+S)| = 3, so lhs |X| = 10 > c rhs = 9.  Reading rhs
    # as |X+S| = 4 would pass.
    rep = restricted_sumset_check(
        gs(0, 8), gs(0, 3), gs(5, 7), 1, 2, reiher_samples=(gs(0, 1),)
    )
    assert rep.alpha_j == Fraction(3, 2)
    assert rep.reiher_ok == (False,)


def test_restricted_sumset_hypothesis_miss():
    rep = restricted_sumset_check(gs(0, 1, 2, 3, 50), gs(0, 1), gs(1000), 1, 2)
    assert not rep.hypothesis_ok
    assert rep.conclusion_ok is None


def test_restricted_sumset_empty_forbidden_set():
    rep = restricted_sumset_check(gs(0, 1), gs(0, 1), GSet.from_coords(Z, []), 1, 2)
    assert rep.hypothesis_ok
    assert rep.alpha_j == Fraction(3, 2)
    assert rep.conclusion_ok


def test_restricted_sumset_validation():
    x, b = gs(0, 1), gs(0, 1)
    with pytest.raises(InputError, match="disjoint"):
        restricted_sumset_check(x, b, gs(1), 1, 2)
    with pytest.raises(InputError):
        restricted_sumset_check(x, b, gs(9), 3, 2)
    # no subset enumeration, so no guard: X = {0, ..., 22} is tight at
    # level 1, (X+B) \ (99+B) = {0, ..., 23}
    rep = restricted_sumset_check(gs(*range(23)), b, gs(99), 1, 1)
    assert rep.hypothesis_ok
    assert rep.alpha_j == Fraction(24, 23)
    assert rep.observed == 24
    assert rep.conclusion_ok
    assert rep.reiher_ok == ()


def test_restricted_sumset_matches_naive_random():
    spaces = [(0,), (7,), (0, 0), (0, 5), (4, 0), (6, 6), (0, 3, 0)]
    rng = rng_for(20261018, "restricted")
    for moduli in spaces:
        space = GroupSpace(moduli)
        for _ in range(4):
            x = random_gset(rng, space, 1, 7, spread=4)
            b = random_gset(rng, space, 1, 3, spread=2)
            raw_j = random_gset(rng, space, 1, 4, spread=4)
            j_sets = [
                GSet.from_coords(space, []),
                GSet.from_coords(space, raw_j.member_set() - x.member_set()),
            ]
            samples = [random_gset(rng, space, 1, 2, spread=3) for _ in range(2)]
            naive_samples = [s.elements for s in samples]
            levels = [(h, j) for h in range(1, 5) for j in range(1, h + 1)]
            for j_set, (h, j) in product(j_sets, levels):
                rep = restricted_sumset_check(x, b, j_set, j, h, samples)
                want = naive_restricted_sumset(
                    x.elements, b.elements, j_set.elements, j, h, naive_samples, moduli
                )
                assert astuple(rep) == want, (moduli, x, b, j_set, j, h)


def test_restricted_growth_frozen():
    rep = restricted_growth_check(gs(0, 1, 2, 3), gs(0, 1), gs(4), 2)
    assert (rep.v1, rep.vh, rep.hb) == (4, 4, 3)
    assert rep.beta.beta == 2.0
    assert rep.value == 6.0
    assert rep.top_ok and rep.per_vertex_ok
