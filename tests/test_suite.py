"""The self-verification suite runner: determinism, line format."""

import re
from collections import Counter

import pytest

from sumsetlab import (
    GroupSpace,
    GSet,
    InputError,
    build_addition_graph,
    partition_graph,
    run_suite,
)
from sumsetlab import graphs, instances, suite
from sumsetlab.bounds import bound_report
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


def test_criteria_4_and_5_build_each_instance_once(monkeypatch):
    # Inside one run, criterion 4 leaves criterion 5 its count, so each
    # instance of their shared stream is built once, not once per criterion.
    stream = [None]
    builds = Counter()

    def rng_for(seed, label):
        stream[0] = label.partition("/")[0]
        return instances.rng_for(seed, label)

    def counted_build(*args):
        builds[stream[0]] += 1
        return build_addition_graph(*args)

    monkeypatch.setattr(suite, "rng_for", rng_for)
    monkeypatch.setattr(suite, "build_addition_graph", counted_build)
    run_suite(0, cases=3)
    assert builds["c45"] == 3
    assert builds["c1"] == builds["c3"] == 3


def test_no_shared_state_outlives_a_run(monkeypatch):
    run_suite(0, cases=2)
    peeled = []

    def counted_peel(graph):
        peeled.append(graph)
        return partition_graph(graph)

    monkeypatch.setattr(suite, "partition_graph", counted_peel)
    run_suite(0, cases=2)
    assert len(peeled) == 2  # one peel per instance, seen by both criteria
    suite.check_certified_chain(0, 2)
    assert len(peeled) == 4  # alone, criterion 5 peels its own
    assert suite._certified_counts.get() is None


_C4 = "criterion 4: {} [partition invariants and top accounting] 100 partitions re-verified, {} failures"
_SHARED_LINES = (
    "criterion 5: PASS [certified min-sum upper bound] 100 instances (same stream as criterion 4), 0 violations",
    "criterion 6: PASS [restricted growth and per-vertex binomial] 100 (A,B,C) triples, 0 violations",
    "criterion 9: PASS [commutative growth and large-subset existence] 100 growth bounds + 50 subset searches, 0 failures",
)


@pytest.mark.parametrize(
    "seed, status, failures", [(0, "PASS", 0), (1, "FAIL", 1), (2, "PASS", 0), (3, "FAIL", 1)]
)
def test_shared_and_rounded_criteria_lines_are_pinned(seed, status, failures, monkeypatch):
    # Criteria 4 and 5 give the same line alone as inside a run, where they
    # share their instances.  The criterion 4 FAIL at seeds 1 and 3 is the
    # known partition defect.
    fns = (
        suite.check_partition_validity,
        suite.check_certified_chain,
        suite.check_restricted_growth,
        suite.check_growth_statements,
    )
    want = [_C4.format(status, failures), *_SHARED_LINES]
    assert [fn(seed).line for fn in fns] == want
    monkeypatch.setattr(suite, "CRITERIA", fns)
    assert [r.line for r in run_suite(seed).results] == want


def test_mask_readers_make_no_edges(monkeypatch):
    # Criteria 1, 2 and 9 and the bound report read their graphs' masks
    # alone: a graph built on the lift makes no edge keys, no labels and no
    # adjacency for them, and a graph on the set container no adjacency.
    built = []
    build = graphs._sum_graph

    def kept_build(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(graphs, "_sum_graph", kept_build)
    for check in (
        suite.check_magnification_oracle,
        suite.check_plunnecke_chain,
        suite.check_growth_statements,
    ):
        assert check(0, 20).ok
    z = GroupSpace((0,))
    a = GSet.from_coords(z, [(x,) for x in (0, 3, 4, 9, 17, 20)])
    b = GSet.from_coords(z, [(x,) for x in (0, 1, 5)])
    bound_report(a, b, 3)
    lifted = [g for g in built if "_lift" in vars(g)]
    assert (len(built), len(lifted)) == (81, 81)
    for g in built:
        assert not {"_layer_of", "_out"} & vars(g).keys()
    for g in lifted:
        assert not {"_keys", "_flat"} & vars(g).keys()
