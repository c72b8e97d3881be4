"""Every public record-to-JSON helper, on one fixed instance each: the
document holds JSON's own types only, has exactly the expected keys, and
prints byte for byte as the literal below."""

import json
from fractions import Fraction

import pytest

from sumsetlab import (
    GroupSpace,
    GSet,
    bound_report,
    bound_report_to_json,
    build_addition_graph,
    construction_spec_to_json,
    example1,
    example2,
    magnification_flow,
    magnification_to_json,
    partition_graph,
    partition_to_json,
)
from sumsetlab.suite import CheckResult, SuiteResult


def gs(*coords):
    return GSet.from_coords(GroupSpace((0,)), [(c,) for c in coords])


def _bound_row(name, value, observed, ok, exact, note=""):
    return dict(name=name, value=value, observed=observed, ok=ok, exact=exact, note=note)


BOUND_REPORT = {
    "h": 3,
    "m": 8,
    "ab": 15,
    "hb": 17,
    "observed": 29,
    "alpha": [15, 8],
    "alpha_1": [15, 8],
    "beta": 3.743665280910136,
    "beta_exact": False,
    "s": 4.541004263040132,
    "t": 12.052185308528676,
    "ratios": [[15, 8]],
    "block_sizes": [8],
    "bounds": [
        _bound_row("plunnecke_hA", None, None, None, False, "stated for A = B only"),
        _bound_row("ruzsa_binomial_hA", None, None, None, False, "stated for A = B only"),
        _bound_row("ruzsa_universal", 210.93750000000003, 29, True, True),
        _bound_row("ruzsa_small_alpha", 201.93465901844064, 29, True, False),
        _bound_row("thm_main_universal", 31.85486517725444, 29, None, False,
                   "asymptotic main term, not asserted"),
        _bound_row("thm_main_small_alpha", 97.19362249631243, 29, None, False,
                   "asymptotic main term, not asserted"),
        _bound_row("corollary_hb", 52.734375, 17, True, True),
        _bound_row("prop_restricted_first", 68.11506394560199, 29, True, True),
        _bound_row("prop_restricted_second", 161.8686562758484, 29, True, False),
        _bound_row("certified_min_sum", 52.734375, 29, True, True),
        _bound_row("growth_commutative", 68.11506394560199, 29, True, True),
        _bound_row("per_vertex_binomial", 20.0, 17, True, True,
                   "worst vertex shown; verdict covers all"),
    ],
}

EXAMPLE1 = {
    "which": "example1",
    "h": 2,
    "a": 4,
    "l": 1,
    "alpha": None,
    "b": 4,
    "k": 4,
    "moduli": [4, 4, 4, 4],
    "predicted": {"m": 18, "ab_cap": 48, "top_lower": 31, "hb": 16},
}

EXAMPLE2 = {
    "which": "example2",
    "h": 2,
    "a": 8,
    "l": None,
    "alpha": [3, 2],
    "b": 2,
    "k": 3,
    "moduli": [8, 8, 3],
    "predicted": {"m": 66, "ab_cap": [96, 1], "ab_exact": 94, "top_exact": 192, "hb": 64},
}

SUITE = {
    "seed": 5,
    "ok": False,
    "criteria": [
        {"id": 1, "name": "one", "ok": True, "cases": 3, "detail": "3 cases"},
        {"id": 4, "name": "four", "ok": False, "cases": 2, "detail": "1 failures"},
    ],
}


def _graph():
    return build_addition_graph(gs(0, 1, 4, 9), gs(0, 2, 3), 2)


CASES = {
    "bound_report": (
        lambda: bound_report_to_json(bound_report(gs(*range(8)), gs(0, 1, 3, 7), 3)),
        BOUND_REPORT,
    ),
    "example1": (lambda: construction_spec_to_json(example1(2, 4, 1)[2]), EXAMPLE1),
    "example2": (
        lambda: construction_spec_to_json(example2(2, 8, Fraction(3, 2))[2]),
        EXAMPLE2,
    ),
    "magnification": (
        lambda: magnification_to_json(magnification_flow(_graph(), 2)),
        {"level": 2, "ratio": [11, 3], "tight_set": [0, 1, 2]},
    ),
    "partition": (
        lambda: partition_to_json(partition_graph(_graph())),
        {"blocks": [[0, 1, 2], [3]], "ratios": [[7, 3], [3, 1]]},
    ),
    "suite": (
        lambda: SuiteResult(
            5,
            (
                CheckResult(1, "one", True, 3, "3 cases"),
                CheckResult(4, "four", False, 2, "1 failures"),
            ),
        ).to_json(),
        SUITE,
    ),
}


def _types(obj):
    """The type of obj and of every key and value inside it."""
    yield type(obj)
    if type(obj) is dict:
        for key, value in obj.items():
            yield type(key)
            yield from _types(value)
    elif type(obj) is list:
        for value in obj:
            yield from _types(value)


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_json_is_plain_exact_and_unchanged(name):
    make, want = CASES[name]
    doc = make()
    assert set(_types(doc)) <= {dict, list, str, int, float, bool, type(None)}
    assert set(doc) == set(want)
    assert doc == want
    # Equality alone takes 20 for 20.0 and True for 1; the printed form does not.
    assert json.dumps(doc, sort_keys=True) == json.dumps(want, sort_keys=True)
