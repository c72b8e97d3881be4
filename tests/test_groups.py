"""Group spaces, set arithmetic, and the JSON interchange format."""

import json
import pickle
import re
import tracemalloc
from operator import add

import pytest

from sumsetlab import (
    GroupSpace,
    GSet,
    GuardError,
    InputError,
    build_addition_graph,
    build_restricted_graph,
    cardinality_stream,
    dump_gset,
    fold_sumset,
    gset_from_json,
    gset_to_json,
    iterated_sumset,
    load_gset,
    sumset,
    zero_set,
)
from sumsetlab import groups
from sumsetlab.bounds import (
    bound_report,
    majorant_from_root,
    pseudo_cardinality,
    restricted_sumset_check,
    rising_binomial,
)
from sumsetlab.graphs import LayeredGraph
from sumsetlab.groups import (
    _DECODE_BYTES,
    _bit_positions,
    _layers,
    _layout,
    _Lift,
    _Sparse,
    _write_json,
)
from sumsetlab.instances import random_gset, random_pair, rng_for
from sumsetlab.magnification import (
    magnification_bruteforce,
    magnification_flow,
    tight_channel_power_check,
)

from oracles import naive_iterated, naive_layer_edges, naive_sumset, reference_layout

Z = GroupSpace((0,))


def gs(*coords):
    return GSet.from_coords(Z, [(c,) for c in coords])


def members(a):
    return {c[0] for c in a.elements}


def test_normalize_mixed_moduli():
    space = GroupSpace((5, 0))
    assert space.normalize_coords((7, -3)) == (2, -3)
    assert space.normalize_coords((-1, 0)) == (4, 0)


def test_space_validation():
    with pytest.raises(InputError):
        GroupSpace(())
    with pytest.raises(InputError):
        GroupSpace((0, -2))
    with pytest.raises(InputError):
        GroupSpace((1.5,))  # type: ignore[arg-type]


def test_gset_normalizes_and_deduplicates():
    space = GroupSpace((4,))
    a = GSet.from_coords(space, [(5,), (1,), (-3,)])
    assert a.elements == ((1,),)
    assert len(a) == 1
    assert (9,) in a


def test_sumset_frozen_example():
    a = gs(0, 2)
    b = gs(0, 1, 3)
    assert members(sumset(a, b)) == {0, 1, 2, 3, 5}


def test_sumset_matches_oracle_in_cyclic_group():
    space = GroupSpace((5,))
    a = GSet.from_coords(space, [(0,), (2,)])
    b = GSet.from_coords(space, [(0,), (1,), (3,)])
    want = naive_sumset(a.elements, b.elements, (5,))
    assert sumset(a, b).member_set() == want


def test_sumset_rejects_mixed_spaces_and_empty():
    a = gs(0, 1)
    other = GSet.from_coords(GroupSpace((7,)), [(0,)])
    with pytest.raises(InputError):
        sumset(a, other)
    empty = GSet.from_coords(Z, [])
    with pytest.raises(InputError):
        sumset(a, empty)


def test_sumset_guard_names_the_cap():
    a = gs(*range(10))
    with pytest.raises(GuardError, match="sumset cardinality guard"):
        sumset(a, a, max_size=5)
    # cap equal to the true size must not trip
    assert len(sumset(a, a, max_size=19)) == 19


def test_iterated_sumset_and_fold():
    a = gs(0, 2)
    b = gs(0, 1, 3)
    assert iterated_sumset(a, b, 0) == a
    two_b = fold_sumset(b, 2)
    assert members(two_b) == {0, 1, 2, 3, 4, 6}
    assert members(fold_sumset(b, 0)) == {0}
    assert iterated_sumset(a, b, 2) == sumset(a, two_b)
    with pytest.raises(InputError):
        iterated_sumset(a, b, -1)


def test_cardinality_stream_matches_layers():
    a = gs(0, 2)
    b = gs(0, 1, 3)
    assert cardinality_stream(a, b, 2) == [2, 5, 8]
    with pytest.raises(GuardError):
        cardinality_stream(a, b, 2, max_size=7)


def test_zero_set():
    space = GroupSpace((3, 0))
    z = zero_set(space)
    assert z.elements == ((0, 0),)


def test_json_roundtrip(tmp_path):
    space = GroupSpace((6, 0))
    a = GSet.from_coords(space, [(7, -2), (1, 3)])
    doc = gset_to_json(a)
    assert doc == {"moduli": [6, 0], "elements": [[1, -2], [1, 3]]}
    assert gset_from_json(doc) == a
    path = tmp_path / "a.json"
    dump_gset(a, str(path))
    assert load_gset(str(path)) == a


def test_json_rejects_malformed_documents():
    with pytest.raises(InputError):
        gset_from_json([1, 2])
    with pytest.raises(InputError):
        gset_from_json({"moduli": [0]})
    with pytest.raises(InputError):
        gset_from_json({"moduli": [], "elements": []})
    with pytest.raises(InputError, match="'elements' entries"):
        gset_from_json({"moduli": [0], "elements": [3]})
    with pytest.raises(InputError, match="'elements' must be a list"):
        gset_from_json({"moduli": [0], "elements": {"0": [1]}})
    with pytest.raises(InputError, match="set document missing key 'elements'"):
        gset_from_json({"moduli": [0]})
    with pytest.raises(InputError, match="length 2 in a rank-1 space"):
        gset_from_json({"moduli": [0], "elements": [[1, 2]]})
    for bad in ("1", 1.5, True, None):
        with pytest.raises(InputError, match="coordinates must be integers"):
            gset_from_json({"moduli": [0], "elements": [[bad]]})


def test_json_set_load_matches_from_coords():
    # The whole-list path of a set document normalizes as the constructor
    # does: residues out of range and negative coordinates fold, duplicates
    # (also after folding) merge, and an empty list stays legal.
    rng = rng_for(20261022, "set documents")
    spaces = [(0,), (7,), (5, 5), (0, 4), (3, 0, 2), (1,)]
    for _ in range(200):
        moduli = rng.choice(spaces)
        rows = [
            [rng.randint(-3 * (m or 5), 3 * (m or 5)) for m in moduli]
            for _ in range(rng.randint(0, 12))
        ]
        rows += rng.sample(rows, len(rows) // 3)
        rng.shuffle(rows)
        space = GroupSpace(moduli)
        got = gset_from_json({"moduli": list(moduli), "elements": rows})
        assert got == GSet.from_coords(space, rows)
        assert type(got.elements) is tuple
        assert {type(c) for c in got.elements} <= {tuple}


def test_load_gset_reports_unreadable_and_malformed_files(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(InputError, match=re.escape(f"cannot read set file {missing}")):
        load_gset(str(missing))
    broken = tmp_path / "broken.json"
    broken.write_text('{"moduli": [0], "elements": [[1]')
    with pytest.raises(InputError, match=re.escape(f"malformed JSON in {broken}")):
        load_gset(str(broken))


def test_sumset_properties_random():
    # commutativity, translate lower bound, and agreement with the oracle
    rng = rng_for(20260814, "groups")
    for _ in range(200):
        a, b = random_pair(rng)
        moduli = a.space.moduli
        s = sumset(a, b)
        assert s == sumset(b, a)
        assert len(s) >= max(len(a), len(b))
        assert s.member_set() == naive_sumset(a.elements, b.elements, moduli)
        h = rng.randint(0, 3)
        it = iterated_sumset(a, b, h)
        assert it.member_set() == naive_iterated(a.elements, b.elements, h, moduli)
        assert cardinality_stream(a, b, h)[-1] == len(it)


def test_fold_in_free_and_mixed_multi_coordinate_spaces():
    # random_space draws only Z and Z_m^2, so several free coordinates, and
    # cyclic ones next to a free one, run here.
    rng = rng_for(20261018, "multi")
    for _ in range(120):
        m = rng.randint(2, 9)
        space = GroupSpace(rng.choice([(0, 0), (0, m), (m, 0), (0, m, 0)]))
        a = random_gset(rng, space, 1, 7, spread=6)
        b = random_gset(rng, space, 1, 4, spread=3)
        h = rng.randint(0, 3)
        moduli = space.moduli
        want = [naive_iterated(a.elements, b.elements, i, moduli) for i in range(h + 1)]
        assert iterated_sumset(a, b, h).member_set() == want[-1]
        assert cardinality_stream(a, b, h) == [len(layer) for layer in want]
        zero = [space.zero_coords()]
        hb = naive_iterated(zero, b.elements, h, moduli)
        assert fold_sumset(b, h).member_set() == hb


def test_sets_stay_picklable_after_a_fold():
    # A fold leaves nothing on a set or its space that pickle cannot write.
    for moduli in ((0, 0), (0, 5)):
        a = GSet.from_coords(GroupSpace(moduli), [(1, 2), (3, 4)])
        s = sumset(a, a)
        assert pickle.loads(pickle.dumps(s)) == s


# Fold entry points beyond sumset and cardinality_stream (tested above), with
# the sets X whose folds X+iB (i = 1..h) each builds and guards; layer 0 is
# never guarded.  In the restricted graph C+B outgrows every A+iB, so the
# guard on the C+iB fold is what trips there.
A_CAP, B_CAP, C_CAP = gs(0, 2, 7), gs(0, 1, 5), gs(*range(0, 100, 10))
ZERO = ((0,),)
GUARD_CASES = [
    pytest.param(
        lambda cap: iterated_sumset(A_CAP, B_CAP, 3, cap),
        [(A_CAP.elements, 3)],
        id="iterated_sumset",
    ),
    pytest.param(lambda cap: fold_sumset(B_CAP, 3, cap), [(ZERO, 3)], id="fold_sumset"),
    pytest.param(
        lambda cap: build_addition_graph(A_CAP, B_CAP, 3, cap),
        [(A_CAP.elements, 3)],
        id="build_addition_graph",
    ),
    pytest.param(
        lambda cap: build_restricted_graph(A_CAP, B_CAP, C_CAP, 2, cap),
        [(A_CAP.elements, 2), (C_CAP.elements, 1)],
        id="build_restricted_graph",
    ),
]


def _fold_sizes(folds, b, moduli):
    # |X+iB| for every guarded layer (i >= 1) of each (X, steps) fold.
    return [
        len(naive_iterated(start, b.elements, i, moduli))
        for start, steps in folds
        for i in range(1, steps + 1)
    ]


@pytest.mark.parametrize("call, folds", GUARD_CASES)
def test_guard_boundary_every_fold_entry_point(call, folds):
    sizes = _fold_sizes(folds, B_CAP, (0,))
    if len(folds) > 1:
        assert max(sizes) == sizes[-1] > max(sizes[:-1])
    call(max(sizes))
    with pytest.raises(GuardError, match="sumset cardinality guard"):
        call(max(sizes) - 1)


def test_fold_sumset_refuses_the_empty_set():
    with pytest.raises(InputError, match="fold_sumset needs a non-empty set"):
        fold_sumset(GSet.from_coords(Z, []), 2)


# The bitset kernel against the naive fold, on every kind of space: free
# coordinates with negative entries, cyclic ones, and mixtures up to rank 3.
KERNEL_SPACES = [(0,), (7,), (5, 5), (0, 4), (3, 0), (0, 0, 0), (0, 3, 0), (2, 3, 4)]


def _kernel_case(rng, moduli):
    space = GroupSpace(moduli)
    a = random_gset(rng, space, 1, 7, spread=rng.choice([3, 20]))
    b = random_gset(rng, space, 1, rng.choice([1, 4]), spread=rng.choice([2, 9]))
    return a, b


@pytest.mark.parametrize("lift", [True, False], ids=["lift", "tuples"])
@pytest.mark.parametrize("moduli", KERNEL_SPACES, ids=str)
def test_kernel_matches_naive_fold(moduli, lift, monkeypatch):
    # Both layouts on every case, whichever the cost rule would pick.
    # (The id "tuples" names the set container, the fallback, which once
    # held coordinate tuples.)
    monkeypatch.setattr(groups, "_lift_pays", lambda *args: lift)
    rng = rng_for(20261018, f"kernel {moduli}")
    for _ in range(25):
        a, b = _kernel_case(rng, moduli)
        h = rng.randint(0, 5)
        layout = _layout(a.space, b.elements, h, ((a.elements, 0),), 1)
        assert isinstance(layout, _Lift if lift else _Sparse)
        want = [naive_iterated(a.elements, b.elements, i, moduli) for i in range(h + 1)]
        top = iterated_sumset(a, b, h)
        assert top.elements == tuple(sorted(want[-1]))
        assert top == GSet.from_coords(a.space, want[-1])
        assert cardinality_stream(a, b, h) == [len(layer) for layer in want]
        zero = [a.space.zero_coords()]
        hb = naive_iterated(zero, b.elements, h, moduli)
        assert fold_sumset(b, h).member_set() == hb


def _wrapping_set(rng, space, lo, hi):
    # Coordinates drawn from [-3, 3]: on Z_m they sit on both sides of 0, so
    # sums wrap onto points that are already there, whatever m is.
    size = rng.randint(lo, hi)
    return GSet.from_coords(
        space, [[rng.randint(-3, 3) for _ in space.moduli] for _ in range(size)]
    )


@pytest.mark.parametrize("lift", [True, False], ids=["lift", "sparse"])
@pytest.mark.parametrize("moduli", [(7,), (5, 5), (0, 4), (3, 0), (2, 3, 4)], ids=str)
def test_layout_sums_come_folded(moduli, lift, monkeypatch):
    # Each row of `sums` over the positions of a layer at level i decodes,
    # at level i + 1, to the normalized coordinates of x + b, row by row:
    # no cyclic digit of a sum is left at m or more.
    monkeypatch.setattr(groups, "_lift_pays", lambda *args: lift)
    rng = rng_for(20261019, f"folded sums {moduli}")
    space = GroupSpace(moduli)
    for _ in range(20):
        a, b = _wrapping_set(rng, space, 1, 6), _wrapping_set(rng, space, 1, 4)
        h = rng.randint(1, 3)
        layout = _layout(space, b.elements, h, ((a.elements, 0),), h + 1)
        assert isinstance(layout, _Lift if lift else _Sparse)
        layers = list(_layers(layout, a.elements, 0, h, None))
        for level, layer in enumerate(layers[:h]):
            positions = layout.ascending(layer)
            coords = list(zip(*layout.columns(positions, level)))
            for row, y in zip(layout.sums(positions), b.elements, strict=True):
                want = [space.normalize_coords(list(map(add, x, y))) for x in coords]
                assert list(zip(*layout.columns(list(row), level + 1))) == want


@pytest.mark.parametrize("lift", [True, False], ids=["lift", "sparse"])
def test_guard_counts_folded_sums(lift, monkeypatch):
    # In Z_4, A = {0, 3} and B = {0, 1, 3} give A+B = Z_4, though 5 of the
    # 6 sums differ before the fold: a cap of 3 trips and a cap of 4 holds.
    monkeypatch.setattr(groups, "_lift_pays", lambda *args: lift)
    z4 = GroupSpace((4,))
    a = GSet.from_coords(z4, [(0,), (3,)])
    b = GSet.from_coords(z4, [(0,), (1,), (3,)])
    c = GSet.from_coords(z4, [])
    for call in (
        lambda cap: cardinality_stream(a, b, 1, cap),
        lambda cap: build_addition_graph(a, b, 1, cap),
        lambda cap: build_restricted_graph(a, b, c, 1, cap),
    ):
        with pytest.raises(GuardError, match="sumset cardinality guard"):
            call(3)
        call(4)
    assert cardinality_stream(a, b, 1, 4) == [2, 4]


@pytest.mark.parametrize("lift", [True, False], ids=["lift", "sparse"])
@pytest.mark.parametrize("moduli", [m for m in KERNEL_SPACES if any(m)], ids=str)
def test_guard_boundary_on_cyclic_spaces(moduli, lift, monkeypatch):
    monkeypatch.setattr(groups, "_lift_pays", lambda *args: lift)
    space = GroupSpace(moduli)
    rng = rng_for(20261018, f"cyclic guard {moduli}")
    for _ in range(10):
        a, b = _wrapping_set(rng, space, 1, 6), _wrapping_set(rng, space, 1, 4)
        c = _wrapping_set(rng, space, 0, 4)
        h = rng.randint(1, 3)
        cases = [
            (lambda cap: cardinality_stream(a, b, h, cap), [(a.elements, h)]),
            (lambda cap: build_addition_graph(a, b, h, cap), [(a.elements, h)]),
            (
                lambda cap: build_restricted_graph(a, b, c, h, cap),
                [(a.elements, h), (c.elements, h - 1)],
            ),
        ]
        for call, folds in cases:
            cap = max(_fold_sizes(folds, b, moduli))
            call(cap)
            with pytest.raises(GuardError, match="sumset cardinality guard"):
                call(cap - 1)


def _definition_graph(layers, b, moduli):
    """The sum graph whose layer i holds the labels layers[i], with the ids
    the builders give: layer by layer, in sorted label order."""
    rows = [sorted(layer) for layer in layers]
    ids, labels = [], {}
    for row in rows:
        ids.append(range(len(labels), len(labels) + len(row)))
        labels.update(zip(ids[-1], row))
    of = [dict(zip(row, layer_ids)) for row, layer_ids in zip(rows, ids)]
    edges = [(of[i][x], of[i + 1][y]) for i, x, y in naive_layer_edges(layers, b, moduli)]
    return LayeredGraph(len(layers) - 1, ids, edges, labels)


@pytest.mark.parametrize(
    "moduli", KERNEL_SPACES + [(0, 10**12), (10**12, 0)], ids=str
)
def test_sum_graphs_agree_under_both_containers(moduli, monkeypatch):
    # Both containers build the same addition and restricted graphs, ids
    # and all, and the definition gives them too.  Lifting a modulus of
    # 10**12 would take a box of 2 * 10**12 bits, so there only the set
    # container runs, against the definition.
    containers = [True, False] if max(moduli) < 10**6 else [False]
    rng = rng_for(20261018, f"containers {moduli}")
    space = GroupSpace(moduli)
    for _ in range(15):
        a, b = _wrapping_set(rng, space, 1, 6), _wrapping_set(rng, space, 1, 4)
        c = _wrapping_set(rng, space, 0, 4)
        h = rng.randint(1, 3)
        grown = [naive_iterated(a.elements, b.elements, i, moduli) for i in range(h + 1)]
        kept = grown[:1] + [
            grown[i] - naive_iterated(c.elements, b.elements, i - 1, moduli)
            for i in range(1, h + 1)
        ]
        built = []
        for lift in containers:
            monkeypatch.setattr(groups, "_lift_pays", lambda *args: lift)
            built.append((build_addition_graph(a, b, h), build_restricted_graph(a, b, c, h)))
        want = (
            _definition_graph(grown, b.elements, moduli),
            _definition_graph(kept, b.elements, moduli),
        )
        assert built == [want] * len(containers)


def test_kernel_singleton_b_and_h_zero():
    space = GroupSpace((0, 6))
    a = GSet.from_coords(space, [(-4, 5), (2, 0), (9, 3)])
    b = GSet.from_coords(space, [(-3, 4)])
    assert iterated_sumset(a, b, 0) == a
    assert cardinality_stream(a, b, 0) == [3]
    for h in range(6):
        want = naive_iterated(a.elements, b.elements, h, space.moduli)
        assert iterated_sumset(a, b, h).member_set() == want
        assert len(want) == 3


@pytest.mark.parametrize(
    "moduli, a_coords, b_coords",
    [
        ((0,), [(0,), (10**12,)], [(0,), (1,), (5,)]),
        ((10**12,), [(3,), (10**11,), (10**12 - 1,)], [(0,), (2,), (10**12 - 7,)]),
        ((0, 10**12), [(0, 1), (4, 10**12 - 1)], [(1, 0), (0, 10**9)]),
    ],
    ids=["Z", "Z_1e12", "Z x Z_1e12"],
)
def test_sparse_boxes_stay_on_tuples(moduli, a_coords, b_coords):
    # Checked before any fold runs, so a wrong choice fails here instead of
    # allocating a 10**12-bit integer.
    space = GroupSpace(moduli)
    a = GSet.from_coords(space, a_coords)
    b = GSet.from_coords(space, b_coords)
    for h in range(4):
        layout = _layout(space, b.elements, h or 1, ((a.elements, 0),), 1)
        assert isinstance(layout, _Sparse)
        want = [naive_iterated(a.elements, b.elements, i, moduli) for i in range(h + 1)]
        assert iterated_sumset(a, b, h).elements == tuple(sorted(want[-1]))
        assert cardinality_stream(a, b, h) == [len(layer) for layer in want]


def test_bit_positions_across_decode_chunks():
    # The decoder reads 2**19 bits at a time; bits on both sides of each
    # chunk boundary, and the first and last bit, come back in order.
    rng = rng_for(20261018, "bits")
    edge = 8 * _DECODE_BYTES
    for size in (1, 7, edge - 1, edge, edge + 1, 3 * edge + 5):
        want = sorted({0, size - 1} | {rng.randrange(size) for _ in range(200)})
        want += [p for p in (edge - 1, edge, 2 * edge) if p < size and p not in want]
        want.sort()
        assert _bit_positions(sum(1 << p for p in want)) == want
    assert _bit_positions(0) == []


# (moduli, w, h, decoded layers, lifts) for A = {0, w} and B = {0, 1}, one
# bit on each side of the cost rule.  In Z the box holds w + 1 + h bits, in
# Z_m it holds 2m - 1.
LIFT_EDGES = [
    # h = 1, one decode: 3 + 4 passes, and 32 for the decode, against the 4
    # additions of A+B: 4 * 2**13 // 39 = 840 bits.
    ((0,), 838, 1, 1, True),
    ((0,), 839, 1, 1, False),
    # No decode (a cardinality stream): 4 * 2**13 // 7 = 4681 bits.
    ((0,), 4679, 1, 0, True),
    ((0,), 4680, 1, 0, False),
    # h = 2: the second step adds |B| * max(|A|, |B|) = 4 additions and 4
    # passes: 8 * 2**13 // 43 = 1524 bits.
    ((0,), 1521, 2, 1, True),
    ((0,), 1522, 2, 1, False),
    # The fold of a cyclic coordinate adds 2 passes a step: 4 * 2**13 // 41 = 799.
    ((400,), 1, 1, 1, True),
    ((401,), 1, 1, 1, False),
]


@pytest.mark.parametrize("moduli, w, h, decoded, lifts", LIFT_EDGES)
def test_lift_cost_boundary(moduli, w, h, decoded, lifts):
    space = GroupSpace(moduli)
    a = GSet.from_coords(space, [(0,), (w,)])
    b = GSet.from_coords(space, [(0,), (1,)])
    layout = _layout(space, b.elements, h, ((a.elements, 0),), decoded)
    assert isinstance(layout, _Lift if lifts else _Sparse)
    want = [naive_iterated(a.elements, b.elements, i, moduli) for i in range(h + 1)]
    assert iterated_sumset(a, b, h).elements == tuple(sorted(want[-1]))
    assert cardinality_stream(a, b, h) == [len(layer) for layer in want]


def test_layout_matches_the_reference_layout():
    # A seeded grid of spaces and sizes, with the single fold of `sumset`
    # and `cardinality_stream` and the two folds of the graph builders:
    # each layout keeps its container and every number of its box.
    rng = rng_for(20261020, "layout pin")
    spaces = [(0,), (0, 0), (3, 3), (7, 7), (12, 12), (0, 5), (4, 0)]
    kinds = set()
    for moduli in spaces:
        space = GroupSpace(moduli)
        for a_size, b_size, spread in ((1, 1, 3), (6, 3, 12), (12, 4, 40), (3, 2, 900)):
            for h in (1, 2, 3):
                a = random_gset(rng, space, 1, a_size, spread=spread)
                b = random_gset(rng, space, 1, b_size, spread=spread)
                c = random_gset(rng, space, 0, a_size, spread=spread)
                for starts, decoded in (
                    (((a.elements, 0),), 0),
                    (((a.elements, 0),), 1),
                    (((a.elements, 0), (c.elements, 1)), h + 1),
                ):
                    layout = _layout(space, b.elements, h, starts, decoded)
                    kind, *box, folds = reference_layout(
                        moduli, b.elements, h, starts, decoded
                    )
                    kinds.add(kind)
                    assert isinstance(layout, _Lift if kind == "lift" else _Sparse)
                    got = [layout.widths, layout.lows, layout.b_lows]
                    assert got + [layout.strides, layout.shifts] == box
                    if folds is not None:
                        assert list(layout.folds) == folds
    assert kinds == {"lift", "sparse"}


def test_small_a_with_large_sparse_b_stays_on_tuples():
    # |A| = 2 and |B| = 2000 spread over 10**7: a lift would make 2000
    # shift-ors of a 10**7-bit int where the set container makes 4000
    # additions.  Dense B over a narrow box lifts.
    rng = rng_for(20261018, "sparse b")
    a = gs(0, 1)
    sparse = GSet.from_coords(Z, [(x,) for x in rng.sample(range(10**7), 2000)])
    dense = GSet.from_coords(Z, [(x,) for x in rng.sample(range(4000), 2000)])
    for decoded in (0, 1, 2):
        start = ((a.elements, 0),)
        assert isinstance(_layout(Z, sparse.elements, 1, start, decoded), _Sparse)
        assert isinstance(_layout(Z, dense.elements, 1, start, decoded), _Lift)
    zero = ((Z.zero_coords(),), 0)
    assert isinstance(_layout(Z, sparse.elements, 1, (zero,), 1), _Sparse)
    for b in (sparse, dense):
        want = {x + y for x in (0, 1) for (y,) in b.elements}
        assert members(sumset(a, b)) == want
        assert cardinality_stream(a, b, 1) == [2, len(want)]
        assert fold_sumset(b, 1) == b


def _random_document(rng, depth=0):
    pick = rng.random()
    if depth > 3 or pick < 0.3:
        return rng.choice(
            [0, -7, 12, 10**20, -(10**30), True, False, None, 1.5, -0.0,
             float("inf"), "a,[]:\"b", "", "x\ny", "é"]
        )
    if pick < 0.5:
        return [rng.randint(-50, 50) for _ in range(rng.randint(0, 4))]
    if pick < 0.65:
        return [
            [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
            for _ in range(rng.randint(0, 3))
        ]
    if pick < 0.8:
        keys = ["0", "1", "10", "2", "a", "b,c", "d]", "e:", 'f"', "[g", "h\\"]
        return {
            rng.choice(keys): _random_document(rng, depth + 1)
            if rng.random() < 0.3
            else [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
            for _ in range(rng.randint(0, 4))
        }
    return [_random_document(rng, depth + 1) for _ in range(rng.randint(0, 3))]


WRITER_CASES = [
    [],
    {},
    [[]],
    [-3, 0, 4],
    [1, True, 2],
    [[1, 2], [True, 0]],
    [[1, -2], [], [3]],
    [[1, 2.5]],
    {"elements": [[-1, 2], [3, -4]], "moduli": [0, 0]},
    {
        "height": 2,
        "labels": {"0": [1], "10": [-2], "2": [3]},
        "layers": [[0], [], [1, 2]],
    },
    {"labels": {"0": [1], "1": []}},
    {"labels": {"a,b": [1], "c": [2]}},
    {"x": {"y": {"z": [[1], [2]]}, "w": [0.5, -1e300]}},
    {"s": 'q,[]:"', 'k,[]:"': [1, 2], "t": True, "f": 2.25},
]


# Int lists, and int rows under a list or an object, of one or several row
# widths, under keys however escaped.
INT_ROWS = [
    [5, -(2**70), 0],
    [[5]],
    [[-1], [0], [2**64 + 1]],
    [[1, -2]],
    [[-(2**70), 3], [0, 0], [7, -8]],
    [[1, 2, 3]],
    [[i, -i, i * 2**65] for i in range(300)],
    [[1], [2, 3]],
    [[1, 2, 3], [4, 5], [6]],
    [[-(2**65)], [2**64, 0]],
    [[i] * (i % 4 + 1) for i in range(300)],
    {"0": [1], "1": [-(2**65)]},
    {"a%d": [1, 2], "b%%s": [3, 4], "\u00e9\n": [5, 6], "h\\": [-7, 8], "": [9, 0]},
    {"a,b": [1], 'c"': [2], "[d": [3], "e]": [4], "f:g": [5]},
    {'",': [1], '","': [2], 'x\\","': [3], '\\': [4], '"': [5], ",": [6]},
    {str(i): [i, -i, 2**64 + i] for i in range(300)},
    {"0": [1], "1": [2, 3]},
    {'a",': [1], "b": [2, 3], "c": [True]},
]
# Rows holding anything but plain ints, or an empty row.
MIXED_ROWS = [
    [[1, True]],
    [[True, 2], [3, 4]],
    [[1, 2], [3, 4.0]],
    [[1], []],
]


def test_writer_matches_json_dumps(tmp_path):
    rng = rng_for(20261018, "writer")
    docs = WRITER_CASES + [
        {"k": _random_document(rng), "z": _random_document(rng)} for _ in range(400)
    ]
    path = tmp_path / "doc.json"

    def check(doc):
        _write_json(doc, str(path))
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    for doc in docs:
        check(doc)
    for doc in INT_ROWS + MIXED_ROWS:
        for nested in (doc, {"k": doc, "z": [doc]}):
            check(nested)


@pytest.mark.parametrize("extra", [-1, 0, 1, groups._CHUNK + 1])
def test_writer_fills_documents_across_chunk_boundaries(tmp_path, capsys, extra):
    # Rows are filled one chunk per `%` pass: a set document, rows of mixed
    # widths and a flat int list, each longer than one chunk.
    n = groups._CHUNK + extra
    a = GSet.from_coords(GroupSpace((0, 7)), [(i, -i % 7) for i in range(n)])
    report = {"blocks": [list(range(i % 3 + 1)) for i in range(n)], "sizes": list(range(n))}
    path = tmp_path / "doc.json"
    for doc in (gset_to_json(a), report):
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        _write_json(doc, str(path))
        assert path.read_text() == want
        _write_json(doc, None)
        assert capsys.readouterr().out == want
    dump_gset(a, str(path))
    assert load_gset(str(path)) == a


SET_WRITER_SPACES = [(0,), (0, 0), (65, 65), (0, 7), (0, 5, 0)]
SET_WRITER_SIZES = [0, 1, 9, groups._CHUNK - 1, groups._CHUNK, groups._CHUNK + 1]


@pytest.mark.parametrize("moduli", SET_WRITER_SPACES, ids=str)
def test_set_writer_matches_json_dumps_of_gset_to_json(tmp_path, capsys, moduli):
    # `dump_gset` fills its rows from the element tuples; the document is
    # the one `json.dumps` makes of `gset_to_json`, on every space kind, with
    # negative free coordinates, and across the chunk boundaries.
    rng = rng_for(20261020, f"set writer {moduli}")
    space = GroupSpace(moduli)
    path = tmp_path / "a.json"
    for n in SET_WRITER_SIZES:
        a = random_gset(rng, space, n, n, spread=3 * n) if n else GSet(space, ())
        assert len(a) == n
        want = json.dumps(gset_to_json(a), indent=2, sort_keys=True) + "\n"
        dump_gset(a, str(path))
        assert path.read_text() == want
        dump_gset(a, None)
        assert capsys.readouterr().out == want
        assert load_gset(str(path)) == a


def test_set_writer_holds_less_than_the_document(tmp_path):
    # As the graph writer: one chunk of rows at a time, no list per element.
    rng = rng_for(20261020, "set writer memory")
    a = random_gset(rng, GroupSpace((0, 0)), 20_000, 20_000, spread=10**6)
    assert len(a) == 20_000
    path = tmp_path / "a.json"
    tracemalloc.start()
    try:
        dump_gset(a, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def _graph():
    return build_addition_graph(gs(0, 1), gs(0), 2)


# Every integer count or level parameter refuses True, which is an int to
# Python but a bool in a JSON document.
TRUE_AS_INT = [
    ("iterated_sumset h", lambda: iterated_sumset(gs(0, 1), gs(0), True)),
    ("fold_sumset h", lambda: fold_sumset(gs(0, 1), True)),
    ("cardinality_stream h", lambda: cardinality_stream(gs(0, 1), gs(0), True)),
    ("build_addition_graph h", lambda: build_addition_graph(gs(0, 1), gs(0), True)),
    (
        "build_restricted_graph h",
        lambda: build_restricted_graph(gs(0, 1), gs(0), gs(), True),
    ),
    ("rising_binomial h", lambda: rising_binomial(3, True)),
    ("pseudo_cardinality n", lambda: pseudo_cardinality(True, 2)),
    ("pseudo_cardinality h", lambda: pseudo_cardinality(3, True)),
    ("bound_report h", lambda: bound_report(gs(0, 1), gs(0, 1), True)),
    ("majorant_from_root h", lambda: majorant_from_root(2, 3, True)),
    (
        "restricted_sumset_check j",
        lambda: restricted_sumset_check(gs(0, 1), gs(0, 1), gs(), True, 2),
    ),
    (
        "restricted_sumset_check h",
        lambda: restricted_sumset_check(gs(0, 1), gs(0, 1), gs(), 1, True),
    ),
    ("magnification_flow level", lambda: magnification_flow(_graph(), True)),
    ("magnification_bruteforce level", lambda: magnification_bruteforce(_graph(), True)),
    (
        "tight_channel_power_check level",
        lambda: tight_channel_power_check(_graph(), True),
    ),
]


@pytest.mark.parametrize("call", [pytest.param(c, id=name) for name, c in TRUE_AS_INT])
def test_true_is_not_an_integer_count(call):
    with pytest.raises(InputError):
        call()
