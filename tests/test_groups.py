"""Group spaces, set arithmetic, and the JSON interchange format."""

import pickle
import re

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
    normalize,
    sumset,
    zero_set,
)
from sumsetlab.instances import random_gset, random_pair, rng_for

from oracles import naive_iterated, naive_normalize, naive_sumset

Z = GroupSpace((0,))


def gs(*coords):
    return GSet.from_coords(Z, [(c,) for c in coords])


def members(a):
    return {c[0] for c in a.elements}


def test_normalize_mixed_moduli():
    space = GroupSpace((5, 0))
    assert normalize((7, -3), space).coords == (2, -3)
    assert normalize((-1, 0), space).coords == (4, 0)


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


def test_element_arithmetic():
    space = GroupSpace((5, 0))
    x = normalize((3, 2), space)
    y = normalize((4, -1), space)
    assert (x + y).coords == (2, 1)
    assert (x - y).coords == (4, 3)
    assert (-y).coords == (1, 1)


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


def test_translate_preserves_cardinality():
    rng = rng_for(20260814, "translate")
    for _ in range(50):
        a, b = random_pair(rng)
        shift = b.elements[0]
        assert len(a.translate(shift)) == len(a)
        assert a.translate(a.space.zero_coords()) == a


def test_fold_in_free_and_mixed_multi_coordinate_spaces():
    # random_space draws only Z and Z_m^2, so the free rule on several
    # coordinates and the modular rule with a free coordinate run here.
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
        x, y = a.elements[-1], b.elements[-1]
        assert space.add_coords(x, y) == naive_normalize(
            [p + q for p, q in zip(x, y)], moduli
        )


def test_sets_stay_picklable_after_a_fold():
    # A fold caches the space's addition rule on the space.
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


@pytest.mark.parametrize("call, folds", GUARD_CASES)
def test_guard_boundary_every_fold_entry_point(call, folds):
    sizes = [
        len(naive_iterated(start, B_CAP.elements, i, (0,)))
        for start, h in folds
        for i in range(1, h + 1)
    ]
    if len(folds) > 1:
        assert max(sizes) == sizes[-1] > max(sizes[:-1])
    call(max(sizes))
    with pytest.raises(GuardError, match="sumset cardinality guard"):
        call(max(sizes) - 1)
