"""Command-line surface: exit codes, JSON payloads, reproducibility."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sumsetlab
from sumsetlab import (
    GroupSpace,
    GSet,
    InputError,
    build_addition_graph,
    build_restricted_graph,
    dump_gset,
    dump_graph,
    graph_to_json,
    gset_to_json,
    iterated_sumset,
)
from sumsetlab.cli import main
from sumsetlab.instances import random_gset, random_space, rng_for

from oracles import DocumentError, checking_graph_loader

Z = GroupSpace((0,))


@pytest.fixture
def workdir(tmp_path):
    a = GSet.from_coords(Z, [(0,), (2,)])
    b = GSet.from_coords(Z, [(0,), (1,), (3,)])
    dump_gset(a, str(tmp_path / "A.json"))
    dump_gset(b, str(tmp_path / "B.json"))
    return tmp_path


def run(capsys, *argv):
    code = main([str(x) for x in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sumset_cardinality_only(workdir, capsys):
    code, out, _ = run(
        capsys, "sumset", workdir / "A.json", workdir / "B.json", "--h", "2",
        "--cardinality-only",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"schema": 1, "h": 2, "cardinalities": [2, 5, 8]}


def test_sumset_elements_payload(workdir, capsys):
    code, out, _ = run(capsys, "sumset", workdir / "A.json", workdir / "B.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"] == [[0], [1], [2], [3], [5]]


@pytest.mark.parametrize("moduli", [(0,), (0, 0), (9, 9), (0, 7), (0, 5, 0)], ids=str)
def test_sumset_output_is_json_dumps_of_the_sumset(tmp_path, capsys, moduli):
    # To stdout and to --out, the document `json.dumps` makes of the set.
    rng = rng_for(20261020, f"sumset output {moduli}")
    space = GroupSpace(moduli)
    for _ in range(3):
        a = random_gset(rng, space, 1, 40, spread=30)
        b = random_gset(rng, space, 1, 5, spread=4)
        dump_gset(a, str(tmp_path / "A.json"))
        dump_gset(b, str(tmp_path / "B.json"))
        want = json.dumps(
            gset_to_json(iterated_sumset(a, b, 2)), indent=2, sort_keys=True
        ) + "\n"
        argv = ["sumset", tmp_path / "A.json", tmp_path / "B.json", "--h", "2"]
        assert run(capsys, *argv) == (0, want, "")
        assert run(capsys, *argv, "--out", tmp_path / "S.json") == (0, "", "")
        assert (tmp_path / "S.json").read_text() == want


def test_sumset_guard_exits_2(workdir, capsys):
    code, _, err = run(
        capsys, "sumset", workdir / "A.json", workdir / "B.json",
        "--h", "2", "--max-size", "3",
    )
    assert code == 2
    assert "sumset cardinality guard" in err


def test_missing_file_exits_2(workdir, capsys):
    code, _, err = run(capsys, "sumset", workdir / "missing.json", workdir / "B.json")
    assert code == 2
    assert "error:" in err


def test_graph_build_restrict_check(workdir, capsys):
    gpath = workdir / "G.json"
    code, _, _ = run(
        capsys, "graph", "build", workdir / "A.json", workdir / "B.json",
        "--h", "2", "--out", gpath,
    )
    assert code == 0
    code, out, _ = run(capsys, "graph", "check", gpath)
    assert code == 0
    assert json.loads(out)["commutative"] is True

    dump_gset(GSet.from_coords(Z, [(1,)]), str(workdir / "C.json"))
    code, out, _ = run(
        capsys, "graph", "restrict", workdir / "A.json", workdir / "B.json",
        workdir / "C.json", "--h", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["height"] == 2
    # V_1 = (A+B) \ C drops the label 1
    assert [1] not in [doc["labels"][k] for k in doc["labels"]][: len(doc["layers"][1])]


def test_graph_check_reports_violations_in_order(tmp_path, capsys):
    # Vertices 1, 6 and 9 each fan out to two tops, and 6 and 9 each have
    # two parents.  Upward violations come first, then downward ones, each
    # direction in sorted edge order.
    gpath = tmp_path / "NC.json"
    gpath.write_text(json.dumps({
        "height": 2,
        "layers": [[0, 4, 5, 8], [1, 6, 9], [2, 3, 7, 10, 11]],
        "edges": [[0, 1], [1, 2], [1, 3], [4, 6], [5, 6], [6, 7], [8, 9],
                  [5, 9], [9, 10], [9, 11], [6, 11]],
    }))
    code, out, _ = run(capsys, "graph", "check", gpath)
    assert code == 1
    expected = {
        "commutative": False,
        "downward_ok": False,
        "schema": 1,
        "upward_ok": False,
        "violations": [
            {"direction": "upward", "vertices": [0, 1, 3]},
            {"direction": "upward", "vertices": [4, 6, 11]},
            {"direction": "upward", "vertices": [8, 9, 11]},
            {"direction": "downward", "vertices": [5, 6, 7]},
            {"direction": "downward", "vertices": [8, 9, 10]},
        ],
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_graph_outputs_match_dump_graph(workdir, capsys):
    a = GSet.from_coords(Z, [(0,), (2,)])
    b = GSet.from_coords(Z, [(0,), (1,), (3,)])
    c = GSet.from_coords(Z, [(1,)])
    dump_gset(c, str(workdir / "C.json"))
    dump_graph(build_addition_graph(a, b, 2), str(workdir / "ref-build.json"))
    dump_graph(build_restricted_graph(a, b, c, 2), str(workdir / "ref-restrict.json"))
    code, out, _ = run(
        capsys, "graph", "build", workdir / "A.json", workdir / "B.json", "--h", "2"
    )
    assert code == 0
    assert out.encode() == (workdir / "ref-build.json").read_bytes()
    code, out, _ = run(
        capsys, "graph", "restrict", workdir / "A.json", workdir / "B.json",
        workdir / "C.json", "--h", "2", "--out", workdir / "restrict.json",
    )
    assert (code, out) == (0, "")
    assert (workdir / "restrict.json").read_bytes() == (
        workdir / "ref-restrict.json"
    ).read_bytes()


UNWRITABLE = {
    "sumset --out": ["sumset", "A.json", "B.json", "--out", "{bad}"],
    "sumset --cardinality-only --out": [
        "sumset", "A.json", "B.json", "--cardinality-only", "--out", "{bad}"],
    "graph build --out": [
        "graph", "build", "A.json", "B.json", "--h", "1", "--out", "{bad}"],
    "graph restrict --out": [
        "graph", "restrict", "A.json", "B.json", "A.json", "--h", "1",
        "--out", "{bad}"],
    "graph check --out": ["graph", "check", "G.json", "--out", "{bad}"],
    "mag --out": ["mag", "G.json", "--level", "1", "--out", "{bad}"],
    "partition --out": ["partition", "G.json", "--out", "{bad}"],
    "bounds --out": ["bounds", "A.json", "B.json", "--h", "1", "--out", "{bad}"],
    "bounds --csv": ["bounds", "A.json", "B.json", "--h", "1", "--csv", "{bad}"],
    "construct --out-a": [
        "construct", "example1", "--h", "2", "--a", "2", "--out-a", "{bad}"],
    "construct --out-b": [
        "construct", "example1", "--h", "2", "--a", "2", "--out-a", "CA.json",
        "--out-b", "{bad}"],
    "construct --out": [
        "construct", "example1", "--h", "2", "--a", "2", "--out-a", "CA.json",
        "--out-b", "CB.json", "--out", "{bad}"],
    "verify suite --out": ["verify", "suite", "--cases", "1", "--out", "{bad}"],
}


@pytest.mark.parametrize("argv", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_unwritable_output_exits_2(workdir, capsys, argv):
    dump_graph(build_addition_graph(GSet.from_coords(Z, [(0,), (2,)]),
                                    GSet.from_coords(Z, [(0,), (1,)]), 1),
               str(workdir / "G.json"))
    before = sorted(workdir.iterdir())
    bad = workdir / "no-such-dir" / "out.txt"
    code, out, err = run(capsys, *[
        bad if x == "{bad}" else workdir / x if x.endswith(".json") else x
        for x in argv
    ])
    assert code == 2
    assert err.startswith(f"error: cannot write {bad}: ")
    assert "Traceback" not in err
    assert not bad.parent.exists()
    # the path is checked before any work: no report, no --out-a file
    assert out == ""
    assert sorted(workdir.iterdir()) == before


# Paths no file can have are not malformed documents; `open` refuses a NUL
# byte with ValueError, not OSError.  Messages escape a path's non-printable
# characters, so the NUL byte prints as the four characters \x00.
NUL_PATHS = {
    "set file": (["sumset", "A\0.json", "B.json"], "cannot read set file A\\x00.json"),
    "graph file": (
        ["mag", "G\0.json", "--level", "1"], "cannot read graph file G\\x00.json"),
    "--out": (
        ["sumset", "A.json", "B.json", "--out", "out\0.json"],
        "cannot write out\\x00.json"),
}


@pytest.mark.parametrize("argv, message", NUL_PATHS.values(), ids=NUL_PATHS.keys())
def test_nul_byte_in_a_path_exits_2(workdir, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(workdir)
    before = sorted(workdir.iterdir())
    assert run(capsys, *argv) == (2, "", f"error: {message}: embedded null byte\n")
    assert sorted(workdir.iterdir()) == before


def test_control_bytes_in_a_path_print_escaped(workdir, capsys, monkeypatch):
    # An ESC or a tab in a path prints as \x1b or \t; OSError quotes the
    # path with repr, which escapes it the same way.
    monkeypatch.chdir(workdir)
    code, out, err = run(capsys, "sumset", "A\x1b[2J.json", "B.json")
    assert (code, out) == (2, "")
    assert err == (
        "error: cannot read set file A\\x1b[2J.json: [Errno 2] "
        "No such file or directory: 'A\\x1b[2J.json'\n"
    )
    code, out, err = run(capsys, "sumset", "A.json", "B.json", "--out", "no/o\tut.json")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write no/o\\tut.json: [Errno 2] ")
    assert err[:-1].isprintable()
    (workdir / "bad\x1b.json").write_text("{")
    code, _, err = run(capsys, "sumset", "bad\x1b.json", "B.json")
    assert code == 2
    assert err.startswith("error: malformed JSON in bad\\x1b.json: ")
    # printable paths print as they are
    code, _, err = run(capsys, "sumset", "n o\u00e9.json", "B.json")
    assert err.startswith("error: cannot read set file n o\u00e9.json: ")


def test_graph_file_roundtrips_through_mag(workdir, capsys):
    gpath = workdir / "G.json"
    run(capsys, "graph", "build", workdir / "A.json", workdir / "B.json",
        "--h", "2", "--out", gpath)
    code, out, _ = run(capsys, "mag", gpath, "--level", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"] == [5, 2]
    assert doc["method"] == "flow"
    code, out, _ = run(capsys, "mag", gpath, "--level", "1", "--oracle")
    assert code == 0
    doc2 = json.loads(out)
    assert doc2["ratio"] == [5, 2]
    assert doc2["method"] == "bruteforce"
    assert doc2["witness_check"] is True
    assert doc["tight_set"] == doc2["tight_set"]


# `mag --oracle` on one seeded addition graph per bottom size, h = 2, level
# 1 at odd sizes and 2 at even ones: (ratio, tight set), as recorded before
# the enumeration moved to `subset_rows`.
ORACLE_OUTPUTS = {
    1: ((3, 1), [0]),
    2: ((9, 2), [0, 1]),
    3: ((5, 2), [1, 2]),
    4: ((4, 1), [1, 2, 3]),
    5: ((7, 3), [1, 2, 3]),
    6: ((11, 4), [2, 3, 4, 5]),
    7: ((9, 4), [3, 4, 5, 6]),
    8: ((3, 1), [4, 5, 6, 7]),
    9: ((7, 3), [2, 3, 4]),
    10: ((16, 5), [0, 1, 2, 3, 4]),
    11: ((9, 4), [7, 8, 9, 10]),
    12: ((24, 7), [1, 2, 3, 4, 5, 6, 7]),
    13: ((11, 5), [8, 9, 10, 11, 12]),
    14: ((3, 1), [1, 2, 3, 4, 5, 6, 7, 8]),
    15: ((2, 1), [0, 1, 2, 3, 4]),
    16: ((31, 9), [0, 1, 2, 3, 4, 5, 6, 7, 8]),
    17: ((2, 1), [0, 1, 2, 3, 11, 12, 13, 14, 15]),
    18: ((5, 2), [12, 13, 14, 15, 16, 17]),
    19: ((2, 1), [0, 1, 2, 3, 4, 5, 6, 7, 8]),
    20: ((17, 7), [8, 9, 10, 11, 12, 13, 14]),
    21: ((2, 1), [4, 5, 7, 10, 11, 12, 13, 14, 15, 16, 17]),
    22: ((19, 6), [0, 1, 2, 3, 4, 5]),
}


def test_mag_oracle_output_is_unchanged_for_bottoms_up_to_22(tmp_path, capsys):
    for n, (ratio, tight) in ORACLE_OUTPUTS.items():
        rng = rng_for(20261020, f"oracle bottom {n}")
        a = GSet.from_coords(Z, [(x,) for x in rng.sample(range(-2 * n, 2 * n + 1), n)])
        b = GSet.from_coords(Z, [(0,), (1,), (rng.randint(2, 5),)])
        path = tmp_path / f"g{n}.json"
        dump_graph(build_addition_graph(a, b, 2), str(path))
        code, out, _ = run(capsys, "mag", path, "--level", 2 - n % 2, "--oracle")
        doc = {
            "level": 2 - n % 2, "method": "bruteforce", "ratio": list(ratio),
            "schema": 1, "tight_set": tight, "witness_check": True,
        }
        assert code == 0
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_mag_level_out_of_range_exits_2(workdir, capsys):
    gpath = workdir / "G.json"
    run(capsys, "graph", "build", workdir / "A.json", workdir / "B.json",
        "--h", "2", "--out", gpath)
    code, _, err = run(capsys, "mag", gpath, "--level", "5")
    assert code == 2
    assert "outside 1..2" in err


def test_partition_payload(workdir, capsys):
    apath = workdir / "A5.json"
    dump_gset(GSet.from_coords(Z, [(0,), (1,), (2,), (3,), (100,)]), str(apath))
    bpath = workdir / "B2.json"
    dump_gset(GSet.from_coords(Z, [(0,), (1,)]), str(bpath))
    gpath = workdir / "G5.json"
    run(capsys, "graph", "build", apath, bpath, "--h", "1", "--out", gpath)
    code, out, _ = run(capsys, "partition", gpath)
    assert code == 0  # exit 0 carries the overall verdict
    doc = json.loads(out)
    assert doc["ratios"] == [[5, 4], [2, 1]]
    assert doc["degenerate"] == []
    assert all(doc["checks"].values())


def _graph_doc(rng):
    # |A+2B| >= |A| >= 2, so every layer holds two vertices or more.
    space = random_space(rng)
    a, b = random_gset(rng, space, 2, 6), random_gset(rng, space, 2, 4)
    return graph_to_json(build_addition_graph(a, b, 2))


def _malformed_graph_docs(rng):
    """(case, document, message): documents that each break one rule of
    the graph schema, with the message of the raise that names it."""
    doc = _graph_doc(rng)
    yield "not an object", doc["layers"], "graph document must be a JSON object"
    for key in ("height", "layers", "edges"):
        doc = _graph_doc(rng)
        del doc[key]
        yield f"no {key}", doc, f"graph document missing key '{key}'"
    for bad in (True, 0, -1, "2", 2.0, None):
        yield f"height {bad!r}", {**_graph_doc(rng), "height": bad}, (
            "'height' must be an integer >= 1")
    for bad in ({"0": [0]}, "0,1", None):
        yield f"layers {bad!r}", {**_graph_doc(rng), "layers": bad}, (
            "'layers' must be a list of id lists")
    for bad in ("x", True, 1.5, None, [0], {}):
        doc = _graph_doc(rng)
        layer = doc["layers"][rng.randrange(3)]
        layer[rng.randrange(len(layer))] = bad
        yield f"layer entry {bad!r}", doc, (
            "'layers' entries must be lists of integer ids")
    doc = _graph_doc(rng)
    doc["layers"][rng.randrange(3)] = 7
    yield "layer 7", doc, "'layers' entries must be lists of integer ids"
    for bad in ("0-1", {"0": 1}, 3):
        yield f"edges {bad!r}", {**_graph_doc(rng), "edges": bad}, (
            "'edges' must be a list of [from, to] pairs")
    for bad in ([0], [0, 1, 2], [0, True], [1.5, 0], [], "0-1", None, [[0], 1]):
        doc = _graph_doc(rng)
        doc["edges"][rng.randrange(len(doc["edges"]))] = bad
        yield f"edge {bad!r}", doc, "'edges' entries must be [from, to] integer pairs"
    for bad in ([[1]], "x", 7, True):
        yield f"labels {bad!r}", {**_graph_doc(rng), "labels": bad}, (
            "'labels' must be an object keyed by vertex id")
    # Only null or a missing key means no labels, not any other falsy value.
    for bad in ([], False, 0, ""):
        doc = {"height": 1, "layers": [[0], [1]], "edges": [[0, 1]], "labels": bad}
        yield f"labels {bad!r}", doc, "'labels' must be an object keyed by vertex id"
    for bad in ("x", "", "1.5", "v1"):
        doc = _graph_doc(rng)
        key = rng.choice(list(doc["labels"]))
        doc["labels"][bad] = doc["labels"].pop(key)
        yield f"label key {bad!r}", doc, f"label key {bad!r} is not a vertex id"
    for bad in ("1", [True], [1.5], None, [[1]], {"0": 1}):
        doc = _graph_doc(rng)
        doc["labels"][rng.choice(list(doc["labels"]))] = bad
        yield f"label value {bad!r}", doc, (
            "'labels' values must be integer coordinate lists")
    for extra in ([], [0]):
        doc = _graph_doc(rng)
        row = doc["labels"][rng.choice(list(doc["labels"]))]
        rank = len(row)
        row[:] = row + extra if extra else []
        low, high = sorted({rank, len(row)})
        yield f"label rank {len(row)}", doc, (
            f"'labels' coordinate lists differ in length: {low} and {high}")
    doc = _graph_doc(rng)
    doc["layers"].pop()
    yield "two layers", doc, "height 2 needs 3 layers, got 2"
    doc = {**_graph_doc(rng), "height": 3}
    yield "height 3", doc, "height 3 needs 4 layers, got 3"
    doc = _graph_doc(rng)
    twice = rng.choice(doc["layers"][2])
    doc["layers"][0].append(twice)
    yield "id twice", doc, f"vertex id {twice} appears twice"
    for end in (0, 1):
        doc = _graph_doc(rng)
        edge = list(rng.choice(doc["edges"]))
        edge[end] = 10**6
        doc["edges"].append(edge)
        yield f"unknown end {end}", doc, (
            f"edge ({edge[0]}, {edge[1]}) uses unknown vertex ids")
    for low, high in ((0, 2), (1, 0), (1, 1)):
        doc = _graph_doc(rng)
        edge = [rng.choice(doc["layers"][low]), rng.choice(doc["layers"][high])]
        doc["edges"].append(edge)
        yield f"edge {low} to {high}", doc, (
            f"edge ({edge[0]}, {edge[1]}) does not join consecutive layers")
    doc = _graph_doc(rng)
    key = rng.choice(list(doc["labels"]))
    del doc["labels"][key]
    yield "label missing", doc, f"labels missing for vertex ids [{key}]"
    doc = _graph_doc(rng)
    p, q = rng.sample(doc["layers"][2], 2)
    doc["labels"][str(q)] = doc["labels"][str(p)]
    yield "label twice", doc, (
        f"duplicate label {tuple(doc['labels'][str(p)])} inside one layer")
    for spell in ("0{}", "+{}", " {}", "{} ", "0_{}"):
        doc = _graph_doc(rng)
        key = rng.choice(list(doc["labels"]))
        bad = spell.format(key)
        doc["labels"][bad] = doc["labels"].pop(key)
        yield f"label key {bad!r}", doc, f"label key {bad!r} is not a vertex id"
    for key in ("1000000", "-1"):
        doc = _graph_doc(rng)
        doc["labels"][key] = rng.choice(list(doc["labels"].values()))
        yield f"label key {key}", doc, f"label key {key!r} names no vertex"


MALFORMED_GRAPHS = list(_malformed_graph_docs(rng_for(20261018, "malformed graphs")))


@pytest.mark.parametrize(
    "doc, message",
    [pytest.param(doc, message, id=case) for case, doc, message in MALFORMED_GRAPHS],
)
def test_malformed_graph_document_exits_2(tmp_path, capsys, doc, message):
    gpath = tmp_path / "G.json"
    gpath.write_text(json.dumps(doc))
    assert run(capsys, "graph", "check", gpath) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv", [["graph", "check", "G"], ["mag", "G", "--level", "1"], ["partition", "G"]]
)
def test_label_keys_must_name_vertices(tmp_path, capsys, argv):
    # int("01") is 1: read as an id, the key would replace vertex 1's label.
    gpath = tmp_path / "G.json"
    argv = [gpath if x == "G" else x for x in argv]
    base = {"height": 1, "layers": [[0], [1]], "edges": [[0, 1]]}
    for labels, message in (
        ({"0": [1], "1": [2], "01": [5]}, "label key '01' is not a vertex id"),
        ({"0": [1], "01": [5], "1": [2]}, "label key '01' is not a vertex id"),
        ({"0": [1], "+1": [2]}, "label key '+1' is not a vertex id"),
        ({"0": [1], " 1": [2]}, "label key ' 1' is not a vertex id"),
        ({"0": [1], "0_1": [2], "1": [3]}, "label key '0_1' is not a vertex id"),
        ({"0": [1], "1": [2], "7": [3]}, "label key '7' names no vertex"),
    ):
        gpath.write_text(json.dumps({**base, "labels": labels}))
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    gpath.write_text(json.dumps({**base, "labels": {"0": [1], "1": [2]}}))
    assert run(capsys, *argv)[0] == 0


def _small_doc(**change):
    doc = {
        "height": 2,
        "layers": [[0, 1, 7], [2, 3, 8], [4]],
        "edges": [[0, 2], [1, 3], [7, 8], [2, 4], [3, 4], [8, 4]],
        "labels": {"0": [0], "1": [1], "7": [2], "2": [1], "3": [2], "8": [3], "4": [2]},
    }
    return {**doc, **change}


def _rekeyed(doc, old, new):
    labels = {new if key == old else key: row for key, row in doc["labels"].items()}
    return {**doc, "labels": labels}


def _adversarial_graph_docs(rng):
    """(case, document, message) for documents a loader that finds each
    label row under its vertex's decimal id, and counts the rows, could
    take for valid.  Every message is the one the entry-by-entry checks
    give."""
    for key in ("4", "0"):
        yield f"key 9 for vertex {key}", _rekeyed(_small_doc(), key, "9"), (
            f"labels missing for vertex ids [{key}]")
    doc = _graph_doc(rng)
    ids = [v for layer in doc["layers"] for v in layer]
    v = rng.choice(ids)
    yield "built, one key off the ids", _rekeyed(doc, str(v), str(max(ids) + 1)), (
        f"labels missing for vertex ids [{v}]")
    for bad in ("07", "-0", "+1", " 1"):
        doc = _rekeyed(_small_doc(), str(int(bad)), bad)
        yield f"key {bad!r} for its vertex", doc, f"label key {bad!r} is not a vertex id"
        doc = _small_doc()
        doc["labels"][bad] = [9]
        yield f"key {bad!r} besides its vertex", doc, f"label key {bad!r} is not a vertex id"
    for bad in ("", [], 0, False):
        yield f"labels {bad!r}", _small_doc(labels=bad), (
            "'labels' must be an object keyed by vertex id")
    for row in ([0, True], [True, 2], [False, 2], [0.0, 2], [0, 2.0]):
        doc = _small_doc()
        doc["edges"][1] = row
        yield f"edge {row!r}", doc, "'edges' entries must be [from, to] integer pairs"
    doc = _graph_doc(rng)
    doc["edges"][rng.randrange(len(doc["edges"]))] = [doc["edges"][0][0], 1.0]
    yield "built, one float end", doc, "'edges' entries must be [from, to] integer pairs"
    # Two faults at once: the earlier check names its own.
    doc = _rekeyed(_small_doc(), "1", "01")
    doc["edges"].append([0, 4])
    yield "key '01' and an edge past a layer", doc, "label key '01' is not a vertex id"
    doc = _rekeyed(_small_doc(), "2", "+2")
    doc["layers"].pop()
    yield "key '+2' and a missing layer", doc, "label key '+2' is not a vertex id"
    doc = _rekeyed(_small_doc(), "4", "9")
    doc["layers"][0].append(3)
    yield "key 9 for vertex 4 and id 3 twice", doc, "vertex id 3 appears twice"
    doc = _small_doc()
    doc["labels"]["9"] = "x"
    yield "key 9 besides, a bad value", doc, "'labels' values must be integer coordinate lists"
    doc = _small_doc()
    doc["labels"]["9"] = [5, 5]
    yield "key 9 besides, another rank", doc, (
        "'labels' coordinate lists differ in length: 1 and 2")
    doc = _small_doc()
    doc["labels"]["3"] = [1]
    doc["labels"]["9"] = [5]
    yield "key 9 besides, a repeated label", doc, "duplicate label (1,) inside one layer"


ADVERSARIAL_GRAPHS = list(_adversarial_graph_docs(rng_for(20261019, "adversarial graphs")))


@pytest.mark.parametrize(
    "doc, message",
    [pytest.param(doc, message, id=case) for case, doc, message in ADVERSARIAL_GRAPHS],
)
def test_adversarial_graph_document_exits_2(tmp_path, capsys, doc, message):
    gpath = tmp_path / "G.json"
    gpath.write_text(json.dumps(doc))
    assert run(capsys, "graph", "check", gpath) == (2, "", f"error: {message}\n")


def test_graph_document_messages_match_the_checking_loader():
    # The entry-by-entry loader of tests/oracles.py names the same culprit
    # in every document of both corpora.
    for case, doc, message in MALFORMED_GRAPHS + ADVERSARIAL_GRAPHS:
        with pytest.raises(DocumentError) as info:
            checking_graph_loader(json.loads(json.dumps(doc)))
        assert str(info.value) == message, case


def _set_doc(rng, space=None):
    return gset_to_json(random_gset(rng, space or random_space(rng), 1, 6))


# Files that `json.load` rejects with a plain ValueError, not a
# JSONDecodeError: bytes that are not UTF-8, and an int past CPython's
# int-string digit limit.
NOT_UTF8 = b'{"moduli": [0], "elements": [[1\xff]]}'
LONG_INT = "9" * 4301


def _json_error(text) -> str:
    try:
        json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as exc:
        return f"malformed JSON in {{path}}: {exc}"
    raise AssertionError(f"{text!r} parses")


def _malformed_json_texts():
    """(case, text, message) for set files that are not JSON; the message
    writes the file's path as {path}.  The text is bytes where the file's
    bytes are not UTF-8."""
    for text in ('{"moduli": [0], "elements": [[1]]', "[1, 2", "", "{moduli: [0]}"):
        yield f"JSON {text!r}", text, _json_error(text)
    yield "JSON not UTF-8", NOT_UTF8, _json_error(NOT_UTF8)
    text = '{"moduli": [0], "elements": [[%s]]}' % LONG_INT
    yield "JSON 4301-digit int", text, _json_error(text)


def _malformed_set_docs(rng):
    """(case, document, message): set documents that each break one rule
    of the set schema, or that `sumset` cannot add, with the message of the
    raise that names it."""
    for doc in ([[0], [1]], 7, "set", None):
        yield f"document {doc!r}", doc, "set document must be a JSON object"
    for key in ("moduli", "elements"):
        doc = _set_doc(rng)
        del doc[key]
        yield f"no {key}", doc, f"set document missing key '{key}'"
    for bad in ([], 0, "0", None, {"m": 0}):
        yield f"moduli {bad!r}", {**_set_doc(rng), "moduli": bad}, (
            "'moduli' must be a non-empty list of integers")
    for bad in (-1, True, 1.5, "3", None, [0]):
        doc = _set_doc(rng)
        doc["moduli"][rng.randrange(len(doc["moduli"]))] = bad
        yield f"modulus {bad!r}", doc, f"moduli must be integers >= 0, got {bad!r}"
    for bad in ({"0": [1]}, "[[1]]", 3, None):
        yield f"elements {bad!r}", {**_set_doc(rng), "elements": bad}, (
            "'elements' must be a list of coordinate lists")
    for bad in (1, "1", None, {"0": 1}, True):
        doc = _set_doc(rng)
        doc["elements"][rng.randrange(len(doc["elements"]))] = bad
        yield f"element {bad!r}", doc, "'elements' entries must be coordinate lists"
    for extra in ([], [0], [0, 0]):
        doc = _set_doc(rng)
        rank = len(doc["moduli"])
        row = doc["elements"][rng.randrange(len(doc["elements"]))]
        row[:] = row + extra if extra else []
        yield f"element rank {len(row)}", doc, (
            f"coordinate tuple of length {len(row)} in a rank-{rank} space")
    for bad in (True, 1.5, "1", None, [1]):
        doc = _set_doc(rng)
        row = doc["elements"][rng.randrange(len(doc["elements"]))]
        row[rng.randrange(len(row))] = bad
        yield f"coordinate {bad!r}", doc, f"coordinates must be integers, got {bad!r}"
    yield "no elements", {**_set_doc(rng), "elements": []}, (
        "sumset operands must be non-empty")


MALFORMED_SETS = list(_malformed_json_texts()) + [
    (case, json.dumps(doc), message)
    for case, doc, message in _malformed_set_docs(rng_for(20261018, "malformed sets"))
]


@pytest.mark.parametrize(
    "text, message",
    [pytest.param(text, message, id=case) for case, text, message in MALFORMED_SETS],
)
@pytest.mark.parametrize("slot", ["A", "B"])
def test_malformed_set_document_exits_2(tmp_path, capsys, text, message, slot):
    # The other operand is a valid set in the malformed one's space, or in Z
    # when that space cannot be read.
    try:
        moduli = json.loads(text)["moduli"]
        GroupSpace(tuple(moduli))
    except (ValueError, LookupError, TypeError, InputError):
        moduli = [0]
    good = {"moduli": moduli, "elements": [[0] * len(moduli)]}
    paths = {name: tmp_path / f"{name}.json" for name in "AB"}
    if isinstance(text, bytes):
        paths[slot].write_bytes(text)
    else:
        paths[slot].write_text(text)
    paths["AB".replace(slot, "")].write_text(json.dumps(good))
    expected = message.replace("{path}", str(paths[slot]))
    assert run(capsys, "sumset", paths["A"], paths["B"]) == (2, "", f"error: {expected}\n")


def test_graph_file_past_the_int_digit_limit_exits_2(tmp_path, capsys):
    gpath = tmp_path / "G.json"
    text = '{"height": 1, "layers": [[0], [%s]], "edges": [[0, 1]]}' % LONG_INT
    gpath.write_text(text)
    message = _json_error(text).replace("{path}", str(gpath))
    assert run(capsys, "graph", "check", gpath) == (2, "", f"error: {message}\n")


def test_operands_in_different_spaces_exit_2(tmp_path, capsys):
    rng = rng_for(20261018, "different spaces")
    for moduli_a, moduli_b in (([0], [5]), ([0], [0, 0]), ([6, 6], [7, 7])):
        a = _set_doc(rng, GroupSpace(tuple(moduli_a)))
        b = _set_doc(rng, GroupSpace(tuple(moduli_b)))
        (tmp_path / "A.json").write_text(json.dumps(a))
        (tmp_path / "B.json").write_text(json.dumps(b))
        message = (f"operands live in different spaces: "
                   f"{tuple(moduli_a)} vs {tuple(moduli_b)}")
        assert run(capsys, "sumset", tmp_path / "A.json", tmp_path / "B.json") == (
            2, "", f"error: {message}\n")


def zigzag_graph(n):
    # Bottom i reaches tops i and i + 1; top ids run backwards, so each
    # bottom vertex lists top i + 1 first and the flow must re-route along
    # augmenting paths about 2n edges long.
    top = [2 * n + 1 - j for j in range(n + 1)]
    edges = [[i, top[i]] for i in range(n)] + [[i, top[i + 1]] for i in range(n)]
    return {"height": 1, "layers": [list(range(n)), sorted(top)], "edges": edges}


def test_mag_on_long_zigzag_exits_0(tmp_path, capsys):
    n = 600
    gpath = tmp_path / "Z.json"
    gpath.write_text(json.dumps(zigzag_graph(n)))
    code, out, _ = run(capsys, "mag", gpath, "--level", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"] == [n + 1, n]
    assert doc["tight_set"] == list(range(n))


def test_recursion_error_exits_2(tmp_path, capsys):
    gpath = tmp_path / "deep.json"
    gpath.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "mag", gpath, "--level", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: mag: ")
    assert "Traceback" not in err


def test_memory_error_exits_2(workdir, capsys, monkeypatch):
    import sumsetlab.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_addition_graph", exhausted)
    code, _, err = run(
        capsys, "graph", "build", workdir / "A.json", workdir / "B.json", "--h", "2"
    )
    assert code == 2
    assert err == "error: graph build: out of memory\n"


def test_bounds_report_and_determinism(workdir, capsys):
    out1 = workdir / "r1.json"
    out2 = workdir / "r2.json"
    csv1 = workdir / "r1.csv"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "bounds", workdir / "A.json", workdir / "B.json",
            "--h", "2", "--out", out, "--csv", csv1,
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["schema"] == 1
    assert len(doc["bounds"]) == 12
    lines = csv1.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("h,m,ab,hb,observed,alpha")


def test_construct_pipeline(workdir, capsys):
    apath = workdir / "CA.json"
    bpath = workdir / "CB.json"
    spath = workdir / "spec.json"
    code, _, _ = run(
        capsys, "construct", "example1", "--h", "2", "--a", "4", "--l", "1",
        "--out-a", apath, "--out-b", bpath, "--out", spath, "--check",
    )
    assert code == 0
    doc = json.loads(spath.read_text())
    assert doc["predicted"]["m"] == 18
    assert doc["measured"] == {"m": 18, "ab": 30, "top": 48, "hb": 16}
    assert doc["check_ok"] is True
    code, out, _ = run(capsys, "bounds", apath, bpath, "--h", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["observed"] == 48
    assert all(b["ok"] in (True, None) for b in rep["bounds"])


def test_construct_alpha_fraction(workdir, capsys):
    code, out, _ = run(
        capsys, "construct", "example2", "--h", "2", "--a", "8",
        "--alpha", "3/2", "--check",
        "--out-a", workdir / "EA.json", "--out-b", workdir / "EB.json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == [3, 2]
    assert doc["measured"] == {"m": 66, "ab": 94, "top": 192, "hb": 64}


def test_construct_invalid_parameters_exit_2(workdir, capsys):
    code, _, err = run(
        capsys, "construct", "example1", "--h", "2", "--a", "3", "--l", "1",
        "--out-a", workdir / "XA.json", "--out-b", workdir / "XB.json",
    )
    assert code == 2
    assert "divisibility" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["example2", "--h", "2", "--a", "8", "--alpha", "3/0"],
            "alpha must be a real number, got '3/0'",
            id="alpha 3/0",
        ),
        pytest.param(
            ["example1", "--h", "5000", "--a", "10"],
            f"h = 5000 and a = 10 need more than {sys.maxsize} coordinates",
            id="k past an index",
        ),
        pytest.param(
            ["example2", "--h", "2", "--a", "8", "--alpha", "1e1000000"],
            "alpha must lie in [1, 2], got '1e1000000'",
            id="alpha past the digit limit",
        ),
        pytest.param(
            ["example1", "--h", "5001", "--a", "10"],
            "divisibility h | a^(h-1) required: 5001 does not divide 10^5000",
            id="a^(h-1) past the digit limit",
        ),
        pytest.param(
            ["example2", "--h", "5001", "--a", "10", "--alpha", "3/2"],
            "(alpha-1) a^(h-1) / h must be an integer at alpha = '3/2', a = 10, h = 5001",
            id="b past the digit limit",
        ),
    ],
)
def test_construct_out_of_reach_parameters_exit_2(workdir, capsys, argv, message):
    # Values too large to build or to print still get a one-line message
    # that shows the arguments as typed.
    code, out, err = run(
        capsys, "construct", *argv,
        "--out-a", workdir / "XA.json", "--out-b", workdir / "XB.json",
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (workdir / "XA.json").exists()


def test_construct_example2_needs_alpha(workdir, capsys):
    code, _, err = run(
        capsys, "construct", "example2", "--h", "2", "--a", "8",
        "--out-a", workdir / "EA.json", "--out-b", workdir / "EB.json",
    )
    assert code == 2
    assert "construct example2 requires --alpha" in err
    assert not (workdir / "EA.json").exists()


def test_output_check_leaves_files_alone(workdir, capsys):
    # The up-front write check neither truncates an existing output file
    # nor leaves a new one behind when the command then fails.
    kept = workdir / "kept.json"
    kept.write_text("old\n")
    for path in (kept, workdir / "new.json"):
        code, _, err = run(capsys, "bounds", workdir / "missing.json",
                           workdir / "B.json", "--h", "1", "--out", path)
        assert code == 2
        assert "cannot read set file" in err
    assert kept.read_text() == "old\n"
    assert not (workdir / "new.json").exists()


def test_failed_command_leaves_no_file_behind_a_dangling_link(workdir, capsys, monkeypatch):
    # The output check appends to link.json, which makes its target T.json;
    # a command that then fails removes T.json and keeps the link.
    monkeypatch.chdir(workdir)
    os.symlink("T.json", "link.json")
    argv = ["bounds", "missing.json", "B.json", "--h", "1", "--out", "link.json"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "cannot read set file" in err
    assert os.readlink("link.json") == "T.json"
    assert not os.path.lexists("T.json")
    assert run(capsys, "bounds", "A.json", "B.json", "--h", "1", "--out", "link.json")[0] == 0
    assert json.loads(Path("T.json").read_text())["h"] == 1


# Two output flags of one command that name one regular file, however
# spelled: one output would overwrite the other.
SHARED_OUTPUTS = {
    "bounds --out --csv": (
        ["bounds", "A.json", "B.json", "--h", "2", "--out", "R.json", "--csv", "R.json"],
        "--out and --csv name the same file R.json"),
    "construct --out-a --out-b": (
        ["construct", "example1", "--h", "2", "--a", "4", "--out-a", "X.json",
         "--out-b", "X.json"],
        "--out-a and --out-b name the same file X.json"),
    "construct ./ spelling": (
        ["construct", "example1", "--h", "2", "--a", "4", "--out-a", "CA.json",
         "--out-b", "CB.json", "--out", "./CB.json"],
        "--out and --out-b name the same file ./CB.json"),
    "bounds symlink": (
        ["bounds", "A.json", "B.json", "--h", "2", "--out", "link.json", "--csv", "B.json"],
        "--out and --csv name the same file link.json"),
}


@pytest.mark.parametrize("argv, message", SHARED_OUTPUTS.values(), ids=SHARED_OUTPUTS.keys())
def test_two_outputs_naming_one_file_exit_2(workdir, capsys, monkeypatch, argv, message):
    # Refused before any work or output, leaving no file the check made and
    # every existing file as it was.
    monkeypatch.chdir(workdir)
    os.symlink("B.json", "link.json")
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before


def test_devices_may_take_two_outputs(workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    before = sorted(workdir.iterdir())
    argv = ["bounds", "A.json", "B.json", "--h", "2", "--out", os.devnull, "--csv", os.devnull]
    assert run(capsys, *argv) == (0, "", "")
    argv = ["construct", "example1", "--h", "2", "--a", "4", "--out-a", os.devnull,
            "--out-b", os.devnull, "--out", os.devnull]
    assert run(capsys, *argv) == (0, "", "")
    assert sorted(workdir.iterdir()) == before


# The bytes of every report kind, as the sha256 digest of the text recorded
# while `_write_json` still filled its own int-row templates: stdout, or
# the file R.txt where the command writes its report there.  A = {0, 2, 5,
# 11} and B = {0, 1, 3} in Z (alpha = 10/4 > 2); E = {0, ..., 4} (alpha =
# 9/5 <= 2); G is the addition graph of A and B at h = 2; NC is the graph of
# `test_graph_check_reports_violations_in_order`; in DG, vertices 2 and 3
# reach no top and make degenerate blocks.
REPORTS = {
    "sumset --cardinality-only": (
        ["sumset", "A.json", "B.json", "--h", "3", "--cardinality-only"], 0,
        "556f6cdaa8141144be53e68eaafa9108087e9693cbe03d8bcd15c5b4dd94df95",
    ),
    "graph check": (
        ["graph", "check", "NC.json"], 1,
        "19367003ab752d1d1d8a8e48e5a63c1dffdc5b194e5f6c6c0915a2556a78852d",
    ),
    "mag": (
        ["mag", "G.json", "--level", "1"], 0,
        "ed0056f8176ff6a92b5ad9494852ea79681b1b733761d1566cf95186446597ad",
    ),
    "mag --oracle": (
        ["mag", "G.json", "--level", "2", "--oracle"], 0,
        "f8ff3f4998764109c2a58fab083d1792a12d2b03e73882751c8736dd45881304",
    ),
    "partition": (
        ["partition", "DG.json"], 0,
        "a71bd554169dced0165e5c43004c50237575042d1fb3a9e3b235dbe806d8f227",
    ),
    "bounds A = B": (
        ["bounds", "E.json", "E.json", "--h", "2"], 0,
        "ec7261807a7d328fe4182f3070af6d8d2065146befe04de8a31091456aad8bb7",
    ),
    "bounds A = B --csv": (
        ["bounds", "E.json", "E.json", "--h", "2", "--csv", "R.txt"], 0,
        "252e7e35f3c74f440bc07cd860559b297eac695f6fcb303de10c09def38013f6",
    ),
    "bounds A != B": (
        ["bounds", "A.json", "B.json", "--h", "3"], 0,
        "9437cf8f8c03862e9d5e013fb2009c0c3145f4275bc69c68b39db6ee67c61dc5",
    ),
    "bounds A != B --csv": (
        ["bounds", "A.json", "B.json", "--h", "3", "--csv", "R.txt"], 0,
        "c854b44a5c689c98a49b6950225008010f658f7e2005b6e76d5e646d895c5510",
    ),
    "construct example1 --check": (
        ["construct", "example1", "--h", "2", "--a", "4", "--check"], 0,
        "f5e56a6202219ffa015b3715f0fa22f76e5cc4b21240fd78720a915f3239690d",
    ),
    "construct example2 --check": (
        ["construct", "example2", "--h", "2", "--a", "8", "--alpha", "3/2", "--check"], 0,
        "184adf5830ada0f08279ca80555dc6753460c26bd1aed50e844bcedc95060bbe",
    ),
    "verify suite --out": (
        ["verify", "suite", "--cases", "2", "--out", "R.txt"], 0,
        "f369ff0ee3edf1de479149a471c0c516fd643fc3a94672184d0661062ef922d0",
    ),
}


@pytest.mark.parametrize("argv, code, digest", REPORTS.values(), ids=REPORTS.keys())
def test_report_bytes_are_unchanged(tmp_path, capsys, monkeypatch, argv, code, digest):
    monkeypatch.chdir(tmp_path)
    sets = {"A": [0, 2, 5, 11], "B": [0, 1, 3], "E": [0, 1, 2, 3, 4]}
    for name, xs in sets.items():
        sets[name] = GSet.from_coords(Z, [(x,) for x in xs])
        dump_gset(sets[name], f"{name}.json")
    dump_graph(build_addition_graph(sets["A"], sets["B"], 2), "G.json")
    Path("NC.json").write_text(json.dumps({
        "height": 2,
        "layers": [[0, 4, 5, 8], [1, 6, 9], [2, 3, 7, 10, 11]],
        "edges": [[0, 1], [1, 2], [1, 3], [4, 6], [5, 6], [6, 7], [8, 9],
                  [5, 9], [9, 10], [9, 11], [6, 11]],
    }))
    Path("DG.json").write_text(json.dumps({
        "height": 2,
        "layers": [[0, 1, 2, 3], [4, 5, 6], [7, 8]],
        "edges": [[0, 4], [1, 4], [1, 5], [4, 7], [5, 7], [5, 8]],
    }))
    got, out, err = run(capsys, *argv)
    text = Path(argv[-1]).read_text() if argv[-1] == "R.txt" else out
    assert (got, err) == (code, "")
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if "--csv" not in argv:
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_verify_suite_exit_and_lines(workdir, capsys):
    spath = workdir / "suite.json"
    code, out, _ = run(
        capsys, "verify", "suite", "--seed", "42", "--cases", "3", "--out", spath,
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("criterion ")]
    assert len(lines) == 11
    assert all(": PASS [" in ln for ln in lines)
    doc = json.loads(spath.read_text())
    assert doc["ok"] is True


COUNTS_BELOW_FLOOR = {
    "cases -1": (["verify", "suite", "--cases", "-1", "--out", "S.json"],
                 "--cases must be >= 1, got -1"),
    "cases 0": (["verify", "suite", "--cases", "0", "--out", "S.json"],
                "--cases must be >= 1, got 0"),
    "sumset max-size": (["sumset", "A.json", "B.json", "--max-size", "-1"],
                        "--max-size must be >= 0, got -1"),
    "build max-size": (["graph", "build", "A.json", "B.json", "--h", "2",
                        "--max-size", "-1", "--out", "G.json"],
                       "--max-size must be >= 0, got -1"),
    "restrict max-size": (["graph", "restrict", "A.json", "B.json", "A.json",
                           "--h", "2", "--max-size", "-2"],
                          "--max-size must be >= 0, got -2"),
    "bounds max-size": (["bounds", "A.json", "B.json", "--h", "2",
                         "--max-size", "-1", "--csv", "R.csv"],
                        "--max-size must be >= 0, got -1"),
    "check max-edges": (["graph", "check", "missing.json", "--max-edges", "-1"],
                        "--max-edges must be >= 0, got -1"),
}


@pytest.mark.parametrize(
    "argv, message", COUNTS_BELOW_FLOOR.values(), ids=COUNTS_BELOW_FLOOR.keys()
)
def test_counts_below_floor_exit_2(workdir, capsys, monkeypatch, argv, message):
    # Refused before any work: no input is read and no output file is made.
    monkeypatch.chdir(workdir)
    before = sorted(workdir.iterdir())
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert sorted(workdir.iterdir()) == before


def test_zero_caps_are_caps(workdir, capsys):
    code, _, err = run(capsys, "sumset", workdir / "A.json", workdir / "B.json",
                       "--max-size", "0")
    assert (code, err) == (2, "error: sumset cardinality guard: result exceeds cap 0\n")
    gpath = workdir / "G.json"
    dump_graph(build_addition_graph(*(GSet.from_coords(Z, [(0,)]),) * 2, 1), str(gpath))
    code, _, err = run(capsys, "graph", "check", gpath, "--max-edges", "0")
    assert (code, err) == (2, "error: commutativity edge guard: 1 edges exceed cap 0\n")
    graph = {"height": 1, "layers": [[0], [1]], "edges": []}
    gpath.write_text(json.dumps(graph))
    code, out, _ = run(capsys, "graph", "check", gpath, "--max-edges", "0")
    assert code == 0 and json.loads(out)["commutative"] is True


def test_argparse_usage_error_is_2(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["mag"])  # missing required positional and --level
    assert exc.value.code == 2


def test_second_main_builds_no_parser(workdir, capsys, monkeypatch):
    # The parser is built once per process: a repeated command line
    # constructs no `argparse.ArgumentParser`, subparsers included.
    argv = ["sumset", workdir / "A.json", workdir / "B.json", "--cardinality-only"]
    assert run(capsys, *argv)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = run(capsys, *argv)
    assert (code, json.loads(out)["cardinalities"]) == (0, [2, 5])
    assert built == []


def test_unknown_command_is_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # The reader takes one byte of a sumset over 64 KB, more than a pipe
    # holds, and closes the pipe: the next write finds no reader.
    dump_gset(GSet.from_coords(Z, [(i,) for i in range(0, 60000, 3)]), str(tmp_path / "A.json"))
    dump_gset(GSet.from_coords(Z, [(0,), (1,)]), str(tmp_path / "B.json"))
    src = str(Path(sumsetlab.__file__).parent.parent)
    child = subprocess.Popen(
        [sys.executable, "-m", "sumsetlab", "sumset", "A.json", "B.json", "--h", "2"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert child.stdout.read(1) == b"{"
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


# The sha256 of `verify suite` stdout and of its --out report at the three
# seeds the suite benchmark draws, with default case counts, recorded while
# every sum graph was built edge by edge.
SUITE_DIGESTS = {
    592029208: (
        "1b1121a77fdb71465f650e9c021c0c0fb80feea86d50ebe4433eaac152550bc1",
        "60c677f31df641684fa0d606cff884df6291d7ebd2441e4d16e64b6f90152465",
    ),
    434365627: (
        "97e64460b529631a784e3e6c62edc90b9325056d92674d658b04816f5d9dce4d",
        "1e26c00807e35d675d3d35fb01b4df77edd252a10934d0e0e8ab98e3b076243c",
    ),
    1600674596: (
        "4a09b3caaabd89e6ba9a1dba68028f0032ec10b9fed4e9cdcb14c31d4face059",
        "34ac0fcdf05086dbf71662d1c54984b55d9656883fef641c572f949e3244c859",
    ),
}


@pytest.mark.parametrize("seed", SUITE_DIGESTS)
def test_suite_bytes_are_unchanged(tmp_path, capsys, seed):
    report = tmp_path / "R.json"
    code, out, err = run(capsys, "verify", "suite", "--seed", seed, "--out", report)
    assert (code, err) == (0, "")
    got = (out.encode(), report.read_bytes())
    assert tuple(hashlib.sha256(x).hexdigest() for x in got) == SUITE_DIGESTS[seed]
