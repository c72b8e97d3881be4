"""The self-verification suite runner: determinism, line format."""

import re

import pytest

from sumsetlab import InputError, run_suite
from sumsetlab import suite
from sumsetlab.suite import CRITERIA


def test_small_run_passes_every_criterion():
    result = run_suite(seed=7, cases=4)
    assert result.ok
    assert [r.cid for r in result.results] == list(range(1, 12))
    for r in result.results:
        assert r.line.startswith(f"criterion {r.cid}: PASS [")
        assert r.cases > 0


def test_criteria_registry_is_complete():
    assert len(CRITERIA) == 11


def test_different_seeds_draw_different_instances():
    a = run_suite(seed=1, cases=3)
    b = run_suite(seed=2, cases=3)
    assert a.ok and b.ok
    assert a.to_json() != b.to_json()  # details embed per-seed measurements


def test_json_shape():
    doc = run_suite(seed=7, cases=2).to_json()
    assert doc["seed"] == 7
    assert doc["ok"] is True
    assert len(doc["criteria"]) == 11
    assert {"id", "name", "ok", "cases", "detail"} <= set(doc["criteria"][0])


@pytest.mark.parametrize("cases", [0, -1, True, 2.0], ids=repr)
def test_case_count_below_one_is_refused(cases, monkeypatch):
    ran = []
    monkeypatch.setattr(suite, "CRITERIA", (lambda seed, n: ran.append(n),))
    want = f"case count must be an integer >= 1, got {cases!r}"
    with pytest.raises(InputError, match=re.escape(want)):
        run_suite(0, cases)
    assert ran == []  # refused before any criterion runs


def test_set_addition_lines_are_pinned():
    # The hypothesis-miss and violation counts of each line rest on every
    # NAP and Reiher count, so a drift in any of them shows here.
    head = "criterion 10: PASS [translate-stable growth statements] 100 NAP + "
    want = [
        "100 restricted checks, 38 hypothesis misses, 0 violations",
        "100 restricted checks, 48 hypothesis misses, 0 violations",
        "100 restricted checks, 36 hypothesis misses, 0 violations",
        "100 restricted checks, 37 hypothesis misses, 0 violations",
    ]
    for seed, tail in enumerate(want):
        assert suite.check_set_addition(seed).line == head + tail
