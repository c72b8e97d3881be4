"""Addition graphs, restricted graphs, channels, commutativity."""

import hashlib
import json
import pickle
import re
import tracemalloc
from collections import Counter
from itertools import chain

import pytest

from sumsetlab import (
    GroupSpace,
    GSet,
    GuardError,
    InputError,
    LayeredGraph,
    build_addition_graph,
    build_restricted_graph,
    channel,
    channel_of,
    check_commutative,
    dump_graph,
    dump_gset,
    graph_from_json,
    graph_to_json,
    gset_to_json,
    image,
    load_graph,
)
from sumsetlab import cli, groups
from sumsetlab.graphs import _first_unmatched, _sweep, image_masks, subset_rows
from sumsetlab.partition import partition_graph
from sumsetlab.instances import (
    random_gset,
    random_pair,
    random_space,
    random_triple,
    rng_for,
)

from oracles import (
    DocumentError,
    checking_graph_loader,
    naive_channel,
    naive_commutative,
    naive_image,
    naive_iterated,
    naive_layer_edges,
    naive_violations,
)

Z = GroupSpace((0,))


def gs(*coords):
    return GSet.from_coords(Z, [(c,) for c in coords])


def label_set(graph, vertices):
    return {graph.label_of(v)[0] for v in vertices}


def layer_labels(graph, i):
    return label_set(graph, graph.layers[i])


@pytest.fixture
def g253():
    return build_addition_graph(gs(0, 2), gs(0, 1, 3), 2)


def test_addition_graph_frozen_shape(g253):
    assert g253.layer_sizes() == (2, 5, 8)
    assert layer_labels(g253, 0) == {0, 2}
    assert layer_labels(g253, 1) == {0, 1, 2, 3, 5}
    assert layer_labels(g253, 2) == {0, 1, 2, 3, 4, 5, 6, 8}


def test_addition_graph_edge_rule(g253):
    b = {0, 1, 3}
    for u, v in g253.edges:
        assert g253.layer_of(v) == g253.layer_of(u) + 1
        assert g253.label_of(v)[0] - g253.label_of(u)[0] in b
    # every sum must be realized: out-degree equals |{distinct x+b}|
    for i in range(2):
        for u in g253.layers[i]:
            sums = {g253.label_of(u)[0] + d for d in b}
            assert label_set(g253, g253.out_neighbors(u)) == sums


def test_image_frozen(g253):
    v0, v2 = g253.layers[0]
    assert g253.label_of(v0) == (0,)
    assert label_set(g253, image(g253, {v0}, 1)) == {0, 1, 3}
    assert label_set(g253, image(g253, {v0, v2}, 0)) == {0, 2}
    assert len(image(g253, {v0, v2}, 2)) == 8


def test_image_validation(g253):
    top_vertex = g253.layers[2][0]
    with pytest.raises(InputError):
        image(g253, {top_vertex}, 1)
    with pytest.raises(InputError):
        image(g253, {g253.layers[0][0]}, 3)
    # A step count is an int, as a magnification level is: not a float or
    # a bool, even of an in-range value.
    for steps in (1.0, True):
        with pytest.raises(InputError, match=rf"step count {steps!r} outside 0\.\.2"):
            image(g253, {g253.layers[0][0]}, steps)
    # The bottom layer's masks take their level by the same rule.
    for level in (5, -1, 1.0, True):
        with pytest.raises(InputError, match=rf"step count {level!r} outside 0\.\.2"):
            image_masks(g253, level)


def test_restricted_graph_literal_layers():
    a = gs(0, 1, 2, 3)
    b = gs(0, 1)
    g = build_restricted_graph(a, b, gs(*range(4)), 2)
    # V_1 = (A+B) \ C = {4}, V_2 = (A+2B) \ (C+B) = {5}
    assert g.layer_sizes() == (4, 1, 1)
    assert layer_labels(g, 1) == {4}
    assert layer_labels(g, 2) == {5}
    # only 3 -> 4 -> 5 survive as edges
    assert [g.label_of(u)[0] for u, _ in g.edges] == [3, 4]


def test_restricted_graph_empty_c_is_addition_graph():
    a = gs(0, 2)
    b = gs(0, 1, 3)
    empty = GSet.from_coords(Z, [])
    assert build_restricted_graph(a, b, empty, 2) == build_addition_graph(a, b, 2)


def test_restricted_graph_forbidden_region_marches():
    a = gs(0, 1, 2, 3)
    b = gs(0, 1)
    g = build_restricted_graph(a, b, gs(100), 2)
    # C is far away, so nothing is ever removed
    assert g.layer_sizes() == (4, 5, 6)
    g2 = build_restricted_graph(a, b, gs(4), 2)
    # V_1 loses 4, V_2 loses 4+B = {4,5}
    assert layer_labels(g2, 1) == {0, 1, 2, 3}
    assert layer_labels(g2, 2) == {0, 1, 2, 3}


def test_layered_graph_validation():
    with pytest.raises(InputError):
        LayeredGraph(1, ((0,), (0,)), ())
    with pytest.raises(InputError):
        LayeredGraph(1, ((0,), (1,)), ((0, 5),))
    with pytest.raises(InputError):
        LayeredGraph(2, ((0,), (1,), (2,)), ((0, 2),))
    with pytest.raises(InputError):
        LayeredGraph(1, ((0,),), ())
    with pytest.raises(InputError, match="height must be >= 1"):
        LayeredGraph(0, ((0,),), ())
    with pytest.raises(InputError, match=r"labels missing for vertex ids \[1\]"):
        LayeredGraph(1, ((0,), (1,)), ((0, 1),), {0: (0,)})
    with pytest.raises(InputError, match="duplicate label"):
        LayeredGraph(1, ((0, 1), (2,)), ((0, 2),), {0: (5,), 1: (5,), 2: (6,)})
    with pytest.raises(InputError, match="^layered graph height must be >= 1$"):
        LayeredGraph(True, ((0,), (1,)), ((0, 1),))
    with pytest.raises(InputError, match="^label key '7' names no vertex$"):
        LayeredGraph(1, ((0,), (1,)), ((0, 1),), {0: (0,), 1: (1,), 7: (2,)})
    # the missing and duplicate checks come first
    with pytest.raises(InputError, match="labels missing"):
        LayeredGraph(1, ((0,), (1,)), ((0, 1),), {0: (0,), 7: (2,)})
    with pytest.raises(InputError, match="duplicate label"):
        LayeredGraph(1, ((0,), (1, 2)), ((0, 1),), {0: (0,), 1: (1,), 2: (1,), 7: (2,)})


def test_graph_builders_check_arguments():
    a, b = gs(0, 1), gs(0, 2)
    other = GSet.from_coords(GroupSpace((0, 0)), [(0, 0)])
    empty = GSet.from_coords(Z, [])
    for h in (0, -1, 1.0, "2"):
        with pytest.raises(InputError, match="graph height must be an integer >= 1"):
            build_addition_graph(a, b, h)
        with pytest.raises(InputError, match="graph height must be an integer >= 1"):
            build_restricted_graph(a, b, empty, h)
    with pytest.raises(InputError, match="A and B must share a space"):
        build_addition_graph(a, other, 1)
    with pytest.raises(InputError, match="A, B and C must share a space"):
        build_restricted_graph(a, b, other, 1)
    for x, y in ((empty, b), (a, empty)):
        with pytest.raises(InputError, match="addition graph needs non-empty A and B"):
            build_addition_graph(x, y, 1)
        with pytest.raises(InputError, match="restricted graph needs non-empty A and B"):
            build_restricted_graph(x, y, empty, 1)


def test_channel_reroots_and_prunes(g253):
    v0, v2 = g253.layers[0]
    ch = channel_of(g253, {v0})
    assert ch.height == 2
    assert ch.layers[0] == (v0,)
    # 0+2B = {0,1,2,3,4,6}
    assert layer_labels(ch, 2) == {0, 1, 2, 3, 4, 6}
    mid = channel(g253, g253.layers[1], g253.layers[2])
    assert mid.height == 1
    assert mid.layer_sizes() == (5, 8)


def test_channel_can_be_empty():
    g = LayeredGraph(1, ((0, 1), (2, 3)), ((0, 2),))
    ch = channel(g, {1}, {3})
    assert ch.is_empty
    assert ch.height == 1


def test_vertexless_labeled_graphs_equal_their_documents(tmp_path):
    # A graph without vertices stores no labels, as its document ("labels":
    # {}) reads back; so does a pathless channel of a labeled graph.
    g = LayeredGraph(1, ((0, 1), (2, 3)), ((0, 2),), {0: [0], 1: [1], 2: [0], 3: [1]})
    path = str(tmp_path / "g.json")
    for empty in (channel(g, {1}, {3}), LayeredGraph(1, ((), ()), (), {})):
        assert empty.is_empty
        assert empty.labels is None
        assert graph_from_json(graph_to_json(empty)) == empty
        dump_graph(empty, path)
        assert load_graph(path) == empty


def test_channel_validation(g253):
    with pytest.raises(InputError):
        channel(g253, set(), g253.layers[2])
    with pytest.raises(InputError):
        channel(g253, g253.layers[1], g253.layers[0])
    with pytest.raises(InputError):
        channel(g253, {999}, g253.layers[2])
    mixed = {g253.layers[0][0], g253.layers[1][0]}
    with pytest.raises(InputError):
        channel(g253, mixed, g253.layers[2])


def test_addition_graphs_are_commutative(g253):
    assert check_commutative(g253).is_commutative


def test_fan_violates_upward_exchange():
    g = LayeredGraph(2, ((0,), (1,), (2, 3)), ((0, 1), (1, 2), (1, 3)))
    report = check_commutative(g)
    assert not report.upward_ok
    assert not report.is_commutative
    assert any(kind == "upward" for _, kind in report.violations)
    assert not naive_commutative(g.edges)


def test_cofan_violates_downward_exchange():
    g = LayeredGraph(2, ((0, 1), (2,), (3,)), ((0, 2), (1, 2), (2, 3)))
    report = check_commutative(g)
    assert report.upward_ok
    assert not report.downward_ok


def test_saturating_matching_long_alternating_path():
    # Target i < n takes bit i first; the last target wants bit 0 only, so
    # its augmenting path shifts every earlier target by one.
    n = 3000
    cand = [0b11 << i for i in range(n)] + [1]
    assert _first_unmatched(cand) is None
    # one more target that also wants only bit 0 cannot be matched
    assert _first_unmatched(cand + [1]) == n + 1


def test_violations_match_naive_random():
    # Scrambled graphs (ids not rising with the layers) hold both kinds of
    # violation; sum graphs cover the spaces the package builds.
    rng = rng_for(20261018, "exchange")
    graphs = [random_scrambled_graph(rng) for _ in range(2000)]
    for moduli in [(0,), (5, 5), (7, 7), (0, 4)]:
        space = GroupSpace(moduli)
        for _ in range(30):
            a = random_gset(rng, space, 1, 6, spread=8)
            b = random_gset(rng, space, 1, 4, spread=4)
            c = random_gset(rng, space, 1, 4, spread=8)
            h = rng.randint(1, 3)
            graphs.append(build_addition_graph(a, b, h))
            graphs.append(build_restricted_graph(a, b, c, h))
    kinds = set()
    for g in graphs:
        report = check_commutative(g)
        assert list(report.violations) == naive_violations(g.edges)
        assert not {"_out", "_in"} & vars(g).keys()  # masks only
        kinds.update(kind for _, kind in report.violations)
    assert kinds == {"upward", "downward"}


def test_commutativity_edge_guard(g253):
    with pytest.raises(GuardError, match="commutativity edge guard"):
        check_commutative(g253, max_edges=5)


def test_graph_json_roundtrip(tmp_path, g253):
    doc = graph_to_json(g253)
    assert doc["height"] == 2
    assert graph_from_json(doc) == g253
    path = tmp_path / "g.json"
    dump_graph(g253, str(path))
    assert load_graph(str(path)) == g253


def test_graph_json_rejects_malformed():
    with pytest.raises(InputError):
        graph_from_json("nope")
    with pytest.raises(InputError):
        graph_from_json({"height": 1, "layers": [[0], [1]]})
    good = {
        "height": 1,
        "layers": [[0], [1]],
        "edges": [[0, 1]],
        "labels": {"0": [1], "1": [2]},
    }
    assert graph_from_json(good).edge_count == 1
    for field, change in (
        ("labels", {"labels": {"0": [1], "1": [1, 2]}}),
        ("layers", {"layers": [[True], [1]]}),
        ("edges", {"edges": [[0, True]]}),
        ("height", {"height": True}),
        ("labels", {"labels": {"0": [True], "1": [2]}}),
        ("layers", {"layers": {"0": [0], "1": [1]}}),
        ("edges", {"edges": "0-1"}),
        ("labels", {"labels": [[1], [2]]}),
        ("labels", {"labels": {"0": "1", "1": [2]}}),
    ):
        with pytest.raises(InputError, match=f"'{field}'"):
            graph_from_json({**good, **change})
    with pytest.raises(InputError, match="label key 'x' is not a vertex id"):
        graph_from_json({**good, "labels": {"x": [1], "1": [2]}})
    with pytest.raises(InputError, match="graph document missing key 'edges'"):
        graph_from_json({"height": 1, "layers": [[0], [1]]})


def test_graph_json_without_labels():
    # null, a missing key and {} (as graph_to_json writes an unlabeled
    # graph) all mean no labels; the malformed-graph corpus of test_cli
    # refuses every other value that is not an object.
    bare = {"height": 1, "layers": [[0], [1]], "edges": [[0, 1]]}
    unlabeled = LayeredGraph(1, ((0,), (1,)), ((0, 1),))
    assert graph_to_json(unlabeled)["labels"] == {}
    for doc in (bare, {**bare, "labels": None}, {**bare, "labels": {}}):
        assert graph_from_json(doc) == unlabeled


# Label maps a graph document cannot hold, with the message load_graph
# gives for each; the constructor refuses them with the same message.
UNLOADABLE_LABELS = (
    ({0: (0,), 1: (0, 1)}, "'labels' coordinate lists differ in length: 1 and 2"),
    ({0: ("a",), 1: ("b",)}, "'labels' values must be integer coordinate lists"),
    ({0: (1.5,), 1: (2,)}, "'labels' values must be integer coordinate lists"),
    ({0: (True,), 1: (0,)}, "'labels' values must be integer coordinate lists"),
)


@pytest.mark.parametrize("labels, message", UNLOADABLE_LABELS)
def test_constructor_refuses_labels_a_document_cannot_hold(tmp_path, labels, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        LayeredGraph(1, [[0], [1]], [(0, 1)], labels)
    doc = {"height": 1, "layers": [[0], [1]], "edges": [[0, 1]]}
    doc["labels"] = {str(v): list(row) for v, row in labels.items()}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load_graph(str(path))


def test_every_constructed_labeling_loads_back(tmp_path):
    # Whatever labels the constructor accepts, dump_graph writes and
    # load_graph reads back, rank-0 labels included.
    path = tmp_path / "g.json"
    for labels in (
        {0: (), 1: ()},
        {0: [], 1: []},
        {0: (0,), 1: (1,)},
        {0: [-5, 7], 1: (10**30, 0)},
    ):
        g = LayeredGraph(1, [[0], [1]], [(0, 1)], labels)
        dump_graph(g, str(path))
        assert load_graph(str(path)) == g


def test_load_graph_reports_unreadable_and_malformed_files(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(InputError, match=re.escape(f"cannot read graph file {missing}")):
        load_graph(str(missing))
    broken = tmp_path / "broken.json"
    broken.write_text('{"height": 1, "layers": [[0], [1]], "edges": [[0, 1]')
    with pytest.raises(InputError, match=re.escape(f"malformed JSON in {broken}")):
        load_graph(str(broken))


def test_layers_and_images_match_oracle_random():
    rng = rng_for(20260814, "graphs")
    for _ in range(150):
        a, b = random_pair(rng, a_hi=6, b_hi=4)
        h = rng.randint(1, 3)
        g = build_addition_graph(a, b, h)
        moduli = a.space.moduli
        for i in range(h + 1):
            want = naive_iterated(a.elements, b.elements, i, moduli)
            assert {g.label_of(v) for v in g.layers[i]} == want
        zn = rng.randint(1, len(g.layers[0]))
        zs = set(rng.sample(list(g.layers[0]), zn))
        steps = rng.randint(0, h)
        assert image(g, zs, steps) == naive_image(g.edges, zs, steps)
        if g.edge_count <= 120:
            assert naive_commutative(g.edges)


def test_restricted_layers_match_definition_random():
    rng = rng_for(20260814, "restricted")
    for _ in range(100):
        a, b, c = random_triple(rng)
        h = rng.randint(1, 3)
        g = build_restricted_graph(a, b, c, h)
        moduli = a.space.moduli
        for i in range(1, h + 1):
            grown = naive_iterated(a.elements, b.elements, i, moduli)
            shadow = naive_iterated(c.elements, b.elements, i - 1, moduli)
            assert {g.label_of(v) for v in g.layers[i]} == grown - shadow
        for u, v in g.edges:
            diff = tuple(
                (q - p) % m if m else q - p
                for p, q, m in zip(g.label_of(u), g.label_of(v), moduli)
            )
            assert diff in b


def test_image_masks_and_subset_rows_match_oracle_random():
    # Bottom sizes 1..14 cover size 1, whose one row holds one image, and
    # sizes past the 12 masks of the doubled table, whose rows are whole.
    rng = rng_for(20261018, "masks")
    for n in range(1, 15):
        space = random_space(rng)
        while all(space.moduli) and space.moduli[0] ** 2 < n:
            space = random_space(rng)
        a = random_gset(rng, space, n, n)
        b = random_gset(rng, space, 1, 4)
        c = random_gset(rng, space, 1, 6)
        h = rng.randint(1, 3)
        for g in (build_addition_graph(a, b, h), build_restricted_graph(a, b, c, h)):
            bottom = g.layers[0]
            assert len(bottom) == n
            for level in range(1, h + 1):
                masks = image_masks(g, level)
                assert len(masks) == n
                for v, mask in zip(bottom, masks):
                    reached = set(g._decode(level, mask))
                    assert reached == naive_image(g.edges, {v}, level)
                pairs = []
                for base, row in subset_rows(masks):
                    assert base % len(row) == 0
                    pairs += [(base | i, im) for i, im in enumerate(row)]
                assert [z for z, _ in pairs] == list(range(1, 1 << n))
                for z, im in pairs:
                    direct = 0
                    for k in range(n):
                        if z >> k & 1:
                            direct |= masks[k]
                    assert im == direct
                for z, im in rng.sample(pairs, min(5, len(pairs))):
                    members = {v for k, v in enumerate(bottom) if z >> k & 1}
                    reached = set(g._decode(level, im))
                    assert reached == naive_image(g.edges, members, level)


def test_sum_graph_edges_complete_random():
    # Both builders, the restricted one with C drawn and with C empty,
    # against the naive rule {(x, x+b) : both ends kept}, in the drawn
    # spaces and in free and mixed two-coordinate ones.
    rng = rng_for(20261018, "edges")
    for k in range(120):
        shape = rng.choice([(0, 0), (0, rng.randint(2, 9))])
        space = random_space(rng) if k % 2 else GroupSpace(shape)
        a = random_gset(rng, space, 1, 6, spread=6)
        b = random_gset(rng, space, 1, 4, spread=3)
        c = random_gset(rng, space, 1, 5, spread=6)
        h = rng.randint(1, 3)
        moduli = space.moduli
        grown = [naive_iterated(a.elements, b.elements, i, moduli) for i in range(h + 1)]
        kept = grown[:1] + [
            grown[i] - naive_iterated(c.elements, b.elements, i - 1, moduli)
            for i in range(1, h + 1)
        ]
        for g, layers in (
            (build_addition_graph(a, b, h), grown),
            (build_restricted_graph(a, b, c, h), kept),
            (build_restricted_graph(a, b, GSet(space, ()), h), grown),
        ):
            got = {(g.layer_of(u), g.label_of(u), g.label_of(v)) for u, v in g.edges}
            assert got == naive_layer_edges(layers, b.elements, moduli)


@pytest.mark.parametrize("lift", [True, False], ids=["lift", "tuples"])
@pytest.mark.parametrize(
    "moduli", [(0,), (7,), (5, 5), (0, 4), (3, 0), (0, 3, 0), (2, 3, 4)], ids=str
)
def test_sum_graphs_match_oracle_on_every_space(moduli, lift, monkeypatch):
    # Cyclic coordinates make sums wrap, which the layout folds back onto
    # the vertex's own position.  Both layouts run every case, and an empty
    # C, which takes the builder's path without misses, gives the addition
    # graph.
    # (The id "tuples" names the set container, the fallback, which once
    # held coordinate tuples.)
    monkeypatch.setattr(groups, "_lift_pays", lambda *args: lift)
    rng = rng_for(20261018, f"sum graphs {moduli}")
    space = GroupSpace(moduli)
    for _ in range(20):
        a = random_gset(rng, space, 1, 6, spread=rng.choice([3, 15]))
        b = random_gset(rng, space, 1, 4, spread=4)
        c = random_gset(rng, space, 0, 4, spread=6)
        h = rng.randint(1, 3)
        grown = [naive_iterated(a.elements, b.elements, i, moduli) for i in range(h + 1)]
        shadow = [frozenset()] + [
            naive_iterated(c.elements, b.elements, i, moduli) for i in range(h)
        ]
        kept = [x - y for x, y in zip(grown, shadow)]
        for g, want in (
            (build_addition_graph(a, b, h), grown),
            (build_restricted_graph(a, b, c, h), kept),
            (build_restricted_graph(a, b, GSet(space, ()), h), grown),
        ):
            labels = [[g.label_of(v) for v in layer] for layer in g.layers]
            assert labels == [sorted(layer) for layer in want]
            ids = [v for layer in g.layers for v in layer]
            assert ids == list(range(g.vertex_count))
            edges = {(g.layer_of(u), g.label_of(u), g.label_of(v)) for u, v in g.edges}
            assert edges == naive_layer_edges(want, b.elements, moduli)


def test_label_of_needs_labels():
    g = LayeredGraph(1, ((0,), (1,)), ((0, 1),))
    with pytest.raises(InputError, match="graph carries no labels"):
        g.label_of(0)


def test_vertex_queries_name_an_unknown_id(g253):
    loaded = LayeredGraph(1, ((0,), (1,)), ((0, 1),), {0: [5], 1: [6]})
    for g in (g253, loaded):
        for query in (g.label_of, g.layer_of, g.out_neighbors):
            with pytest.raises(InputError, match="^vertex id 999 is not in the graph$"):
                query(999)


def test_graphs_hash_by_their_stores():
    # Equal graphs hash alike, whether built, loaded or given in another
    # order; a graph differing only in one label, or in having labels, is
    # another graph.
    rng = rng_for(20261020, "graph hash")
    for _ in range(30):
        a, b, c = random_triple(rng, a_hi=6, b_hi=3)
        h = rng.randint(1, 3)
        for g in (build_addition_graph(a, b, h), build_restricted_graph(a, b, c, h)):
            copy = graph_from_json(graph_to_json(g))
            assert copy == g
            assert hash(copy) == hash(g)
            assert {g: 1}[copy] == 1
    labeled = LayeredGraph(1, ((0,), (1,)), ((0, 1),), {0: [1, 2], 1: [3, 4]})
    again = LayeredGraph(1, [[0], [1]], [[0, 1], [0, 1]], {1: (3, 4), 0: (1, 2)})
    assert labeled == again
    assert hash(labeled) == hash(again)
    assert labeled != LayeredGraph(1, ((0,), (1,)), ((0, 1),), {0: [1, 2], 1: [3, 5]})
    assert labeled != LayeredGraph(1, ((0,), (1,)), ((0, 1),))
    rank0 = LayeredGraph(1, ((0,), (1,)), ((0, 1),), {0: [], 1: []})
    assert rank0 != LayeredGraph(1, ((0,), (1,)), ((0, 1),))
    assert hash(rank0) == hash(graph_from_json(graph_to_json(rank0)))


def test_channel_targets_share_one_layer(g253):
    mixed = {g253.layers[1][0], g253.layers[2][0]}
    with pytest.raises(InputError, match="target vertices must share one layer"):
        channel(g253, g253.layers[0], mixed)


def test_channel_of_needs_a_top_layer():
    g = LayeredGraph(1, ((0,), ()), ())
    with pytest.raises(InputError, match="channel target layer is empty"):
        channel_of(g, {0})


def test_graph_document_maps_constructor_failures(monkeypatch):
    # Every check of a graph document raises InputError itself; any other
    # failure of the constructor still comes out as an InputError.
    def broken(*args):
        raise TypeError("unhashable vertex")

    monkeypatch.setattr(LayeredGraph, "_fill", broken)
    doc = {"height": 1, "layers": [[0], [1]], "edges": [[0, 1]]}
    with pytest.raises(InputError, match="inconsistent graph document: unhashable"):
        graph_from_json(doc)


def assert_trusted_is_validated(g):
    """A graph the package built itself equals the one the checking
    constructor makes of its fields, down to field types and label order,
    and answers every adjacency query alike."""
    v = LayeredGraph(g.height, g.layers, g.edges, g.labels)
    assert g == v
    assert (g.height, g.layers, g.edges) == (v.height, v.layers, v.edges)
    assert type(g.layers) is type(g.edges) is tuple
    assert {type(layer) for layer in g.layers} == {tuple}
    assert {type(e) for e in g.edges} <= {tuple}
    if v.labels is None:
        assert g.labels is None
    else:
        assert list(g.labels.items()) == list(v.labels.items())
    assert g.vertex_count == v.vertex_count
    for u in chain.from_iterable(v.layers):
        assert g.out_neighbors(u) == v.out_neighbors(u)
        assert g.layer_of(u) == v.layer_of(u)


def assert_derived_graphs_are_validated(g, rng):
    # The peel's block subgraphs, and a channel between random vertex sets.
    for block in partition_graph(g).blocks:
        assert_trusted_is_validated(block.subgraph)
    levels = [k for k, layer in enumerate(g.layers) if layer]
    if len(levels) > 1:
        i, j = sorted(rng.sample(levels, 2))
        u = rng.sample(g.layers[i], rng.randint(1, len(g.layers[i])))
        w = rng.sample(g.layers[j], rng.randint(1, len(g.layers[j])))
        assert_trusted_is_validated(channel(g, u, w))


ADJACENCY = {"_layer_of", "_out", "_sweeps"}


@pytest.mark.parametrize("lift", [True, False], ids=["lift", "tuples"])
@pytest.mark.parametrize("moduli", [(0,), (7,), (5, 5), (0, 4), (0, 0, 0)], ids=str)
def test_trusted_sum_graphs_match_validated(moduli, lift, monkeypatch):
    monkeypatch.setattr(groups, "_lift_pays", lambda *args: lift)
    rng = rng_for(20261018, f"trusted {moduli}")
    space = GroupSpace(moduli)
    for _ in range(15):
        a = random_gset(rng, space, 1, 6, spread=rng.choice([3, 15]))
        b = random_gset(rng, space, 1, 4, spread=4)
        c = random_gset(rng, space, 0, 4, spread=6)
        h = rng.randint(1, 3)
        for g in (build_addition_graph(a, b, h), build_restricted_graph(a, b, c, h)):
            # writing a graph out builds none of its adjacency
            graph_to_json(g)
            assert not ADJACENCY & vars(g).keys()
            assert_trusted_is_validated(g)
            assert_derived_graphs_are_validated(g, rng)


# Spaces of the translate tests: Z, Z^2, Z_m^2, Z x Z_m and Z x Z_m x Z.
TRANSLATE_SPACES = [(0,), (0, 0), (5, 5), (0, 4), (0, 4, 0)]
# The sha256 of the `graph build`, `graph restrict` (C drawn) and `graph
# restrict` (C empty) documents of `translate_cases`, in that order, per
# space, recorded while every sum graph was built edge by edge; both
# containers wrote these same bytes.
TRANSLATE_DOCS = {
    (0,): "46f574c0d2abbe12ab860e71b975979c2229821649d15108c69a74e17e368bef",
    (0, 0): "3cbc54aed9d4ae59516227d508ca46d5d11b1d94a38b7ce8aa51ea742073a09e",
    (5, 5): "56c31c9aa01e95050633e2ce3e8604bb41497236a27cefefbd8cee44c04ac7e1",
    (0, 4): "5b3cf2583e8c2d46d250e454f6a7025ce5ae7a5dc49fd86a9f41f0c3b974174d",
    (0, 4, 0): "62bab7434deca8771ea557a384a3bd6f6852355b3930e00089bf6426149767d9",
}
# How many graphs of each kind `restrictions` derives from the graphs of
# `translate_cases`, per space; every degenerate block is one of a
# restricted graph with C drawn.
RESTRICTION_KINDS = {
    (0,): dict(channel_between=240, pathless=218, channel_of_channel=12, degenerate_block=4),
    (0, 0): dict(channel_between=240, pathless=180, channel_of_channel=21),
    (5, 5): dict(channel_between=240, pathless=152, channel_of_channel=21, degenerate_block=6),
    (0, 4): dict(channel_between=240, pathless=231, channel_of_channel=15, degenerate_block=3),
    (0, 4, 0): dict(channel_between=240, pathless=192, channel_of_channel=21),
}
# The same per space, for the relabelled documents of those graphs
# (`relabelled`).
RELABELLED_KINDS = {
    (0,): dict(channel_between=240, pathless=218, channel_of_channel=23, degenerate_block=4),
    (0, 0): dict(channel_between=240, pathless=180, channel_of_channel=24),
    (5, 5): dict(channel_between=240, pathless=152, channel_of_channel=23, degenerate_block=6),
    (0, 4): dict(channel_between=240, pathless=231, channel_of_channel=19, degenerate_block=3),
    (0, 4, 0): dict(channel_between=240, pathless=192, channel_of_channel=24),
}


def relabelled(g, rng):
    """The document of g with its ids moved to negative ids with gaps, which
    descend from layer to layer and, inside a layer, follow no label order;
    and the map of the moves."""
    n = g.vertex_count
    pool = iter([-(3 * k + rng.randint(1, 2)) for k in range(n)])
    moved = {}
    for layer in g.layers:
        ids = [next(pool) for _ in layer]
        rng.shuffle(ids)
        moved.update(zip(layer, ids))
    doc = graph_to_json(g)
    doc["layers"] = [sorted(map(moved.get, layer)) for layer in g.layers]
    doc["edges"] = [[moved[u], moved[v]] for u, v in g.edges]
    doc["labels"] = {str(moved[int(k)]): row for k, row in doc["labels"].items()}
    return doc, moved


def translate_cases(moduli):
    """(A, B, C, h) with C non-empty, four for each h = 1..4."""
    rng = rng_for(20261021, f"translates {moduli}")
    space = GroupSpace(moduli)
    for h in range(1, 5):
        for _ in range(4):
            a = random_gset(rng, space, 1, 5, spread=rng.choice([3, 9]))
            b = random_gset(rng, space, 1, 3, spread=3)
            c = random_gset(rng, space, 1, 4, spread=6)
            yield a, b, c, h


def translate_documents(moduli, workdir):
    # The graph documents of `translate_cases`, as `graph build` and
    # `graph restrict` write them.
    digest = hashlib.sha256()
    for k, (a, b, c, h) in enumerate(translate_cases(moduli)):
        for name, x in (("A", a), ("B", b), ("C", c), ("E", GSet(a.space, ()))):
            dump_gset(x, str(workdir / f"{name}{k}.json"))
        for args in (
            ("build", "A", "B"), ("restrict", "A", "B", "C"), ("restrict", "A", "B", "E"),
        ):
            out = workdir / "G.json"
            files = [str(workdir / f"{name}{k}.json") for name in args[1:]]
            assert cli.main(["graph", args[0], *files, "--h", str(h), "--out", str(out)]) == 0
            digest.update(out.read_bytes())
    return digest.hexdigest()


def restrictions(g, edges):
    """(derive, layers, edges) for each graph derived from one built like g,
    whose edges are `edges`: a channel between every two non-empty layers,
    a channel of the first channel of an inner layer, a pathless channel,
    and each degenerate block's subgraph, with the layers and edges that
    the oracles give it."""

    def kept(layers, edges):
        ids = set(chain(*layers))
        return tuple(map(tuple, map(sorted, layers))), {e for e in edges if ids >= set(e)}

    h, inner = g.height, None
    for i in range(h):
        for j in range(i + 1, h + 1):
            if g.layers[i] and g.layers[j]:
                u, w = g.layers[i][::2], g.layers[j][1::2] or g.layers[j]

                def channel_between(x, u=u, w=w):
                    return channel(x, u, w)

                layers, sub_edges = kept(naive_channel(edges, u, w, j - i), edges)
                yield channel_between, layers, sub_edges
                if inner is None and 0 < i and layers[0] and len(layers) > 2:
                    inner = channel_between, layers, sub_edges
                for v in g.layers[i]:
                    missed = set(g.layers[j]) - naive_image(edges, {v}, j - i)
                    if missed:

                        def pathless(x, v=v, t=min(missed)):
                            return channel(x, [v], [t])

                        yield pathless, ((),) * (j - i + 1), set()
                        break
    if inner is not None:
        outer, layers, sub_edges = inner
        u, w = layers[1][1:] or layers[1], layers[-1][::2]

        def channel_of_channel(x):
            return channel(outer(x), u, w)

        yield channel_of_channel, *kept(naive_channel(sub_edges, u, w, len(layers) - 2), edges)
    for k, block in enumerate(partition_graph(g).blocks):
        if block.degenerate:

            def degenerate_block(x, k=k):
                return partition_graph(x).blocks[k].subgraph

            yield degenerate_block, (block.vertices,) + ((),) * h, set()


def assert_restriction(derive, make, eager, layers, edges):
    # A graph derived from a fresh build or load: its masks first, against
    # the oracles, then its stores and their readers against the same graph
    # derived from the set container's build and against the checking
    # constructor.
    parent = make()
    sub = derive(parent)
    assert "_derived" in vars(sub)
    assert sub.layers == layers
    for level in range(sub.height + 1):
        masks = _sweep(sub, level)
        for lvl, layer in enumerate(sub.layers[: level + 1]):
            for v in layer:
                want = tuple(sorted(naive_image(edges, {v}, level - lvl)))
                assert sub._decode(level, masks[v]) == want
    made = {"_keys", "_flat"} & vars(sub).keys()
    assert made == set()
    want = derive(eager)
    assert set(sub.edges) == edges
    assert (sub.height, sub.layers, sub._keys, sub._flat) == (
        want.height, want.layers, want._keys, want._flat
    )
    assert (sub._flat is None) == (not any(layers))
    labels = {v: eager.label_of(v) for v in chain(*layers)}
    assert sub == LayeredGraph(sub.height, layers, edges, labels)
    assert derive(parent) == want
    assert hash(derive(parent)) == hash(want)
    assert pickle.loads(pickle.dumps(derive(parent))) == want
    assert graph_from_json(graph_to_json(derive(parent))) == want


@pytest.mark.parametrize("lift", [True, False], ids=["lift", "tuples"])
@pytest.mark.parametrize("moduli", TRANSLATE_SPACES, ids=str)
def test_masks_from_translates_match_oracles(moduli, lift, monkeypatch, tmp_path):
    # Each level's masks are read first, on a graph with no store made yet;
    # the stores then made on first read must equal the naive edges and a
    # build on the set container, which makes them at once.
    monkeypatch.setattr(groups, "_lift_pays", lambda *args: lift)
    space = GroupSpace(moduli)
    lifted = 0
    kinds, loaded_kinds = Counter(), Counter()
    rng = rng_for(20261022, f"relabelled {moduli}")
    for a, b, c, h in translate_cases(moduli):
        grown = [naive_iterated(a.elements, b.elements, i, moduli) for i in range(h + 1)]
        shadow = [frozenset()] + [
            naive_iterated(c.elements, b.elements, i, moduli) for i in range(h)
        ]
        kept = [x - y for x, y in zip(grown, shadow)]
        for make, want in (
            (lambda: build_addition_graph(a, b, h), grown),
            (lambda: build_restricted_graph(a, b, c, h), kept),
            (lambda: build_restricted_graph(a, b, GSet(space, ()), h), grown),
        ):
            g = make()
            lifted += "_lift" in vars(g)
            images = {
                (level, v): g._decode(level, _sweep(g, level)[v])
                for level in range(h + 1)
                for v in chain.from_iterable(g.layers[: level + 1])
            }
            # The set container makes both stores at once, the lift neither.
            made = {"_keys", "_flat"} & vars(g).keys()
            assert made == (set() if lift else {"_keys", "_flat"})
            with monkeypatch.context() as m:
                m.setattr(groups, "_lift_pays", lambda *args: False)
                eager = make()
            ids = [{g.label_of(v): v for v in layer} for layer in g.layers]
            edges = {
                (ids[i][x], ids[i + 1][y])
                for i, x, y in naive_layer_edges(want, b.elements, moduli)
            }
            for (level, v), reached in images.items():
                steps = level - g.layer_of(v)
                assert reached == tuple(sorted(naive_image(edges, {v}, steps)))
            assert set(g.edges) == edges
            assert (g.layers, g._keys, g._flat) == (eager.layers, eager._keys, eager._flat)
            for v in chain.from_iterable(g.layers):
                assert g.out_neighbors(v) == eager.out_neighbors(v)
            # Equality, hashing, pickling and the JSON round trip of graphs
            # whose stores are not made yet.
            assert make() == eager
            assert hash(make()) == hash(eager)
            assert pickle.loads(pickle.dumps(make())) == eager
            assert graph_from_json(graph_to_json(make())) == eager
            # Channels and the peel read the masks alike.
            assert [
                (block.vertices, block.ratio, block.top, block.subgraph)
                for block in partition_graph(make()).blocks
            ] == [
                (block.vertices, block.ratio, block.top, block.subgraph)
                for block in partition_graph(eager).blocks
            ]
            for derive, layers, sub_edges in restrictions(g, edges):
                assert_restriction(derive, make, eager, layers, sub_edges)
                kinds[derive.__name__] += 1
            # The same derivations on a loaded document whose ids are
            # negative, gapped and not ascending from layer to layer.
            doc, moved = relabelled(eager, rng)
            loaded = graph_from_json(doc)
            loaded_edges = {(moved[u], moved[v]) for u, v in edges}
            for derive, layers, sub_edges in restrictions(loaded, loaded_edges):
                assert_restriction(
                    derive, lambda: graph_from_json(doc), loaded, layers, sub_edges
                )
                loaded_kinds[derive.__name__] += 1
    assert lifted == (48 if lift else 0)
    assert kinds == RESTRICTION_KINDS[moduli]
    assert loaded_kinds == RELABELLED_KINDS[moduli]
    assert translate_documents(moduli, tmp_path) == TRANSLATE_DOCS[moduli]


def random_scrambled_graph(rng):
    """A layered graph whose ids do not rise with the layers, given with
    shuffled, repeated edges and, half the time, labels."""
    h = rng.randint(1, 3)
    sizes = [rng.randint(1 if level == 0 else 0, 6) for level in range(h + 1)]
    ids = rng.sample(range(-40, 40), sum(sizes))
    layers = [ids[sum(sizes[:k]) : sum(sizes[: k + 1])] for k in range(h + 1)]
    p = rng.choice([0.2, 0.5, 0.8])
    edges = [
        (u, v)
        for lower, upper in zip(layers, layers[1:])
        for u in lower
        for v in upper
        if rng.random() < p
    ]
    edges += rng.sample(edges, len(edges) // 4)
    rng.shuffle(edges)
    labels = None
    if rng.random() < 0.5:
        labels = {
            v: (k, rng.randint(0, 3)) for layer in layers for k, v in enumerate(layer)
        }
    return LayeredGraph(h, layers, edges, labels)


def test_trusted_channels_and_blocks_match_validated():
    rng = rng_for(20261018, "trusted channels")
    for _ in range(200):
        g = random_scrambled_graph(rng)
        assert len(set(g.edges)) == g.edge_count  # repeated edges merged
        assert_derived_graphs_are_validated(g, rng)


def test_channels_and_images_match_oracle_on_scrambled_graphs():
    # General ids, not sum graphs: sources in any layer below the targets,
    # targets a random part of their layer, and pairs with no path at all.
    rng = rng_for(20261018, "channel oracle")
    lifted = partial = pathless = 0
    for _ in range(400):
        g = random_scrambled_graph(rng)
        bottom = g.layers[0]
        for steps in range(g.height + 1):
            z = rng.sample(bottom, rng.randint(0, len(bottom)))
            assert image(g, z, steps) == naive_image(g.edges, z, steps)
        levels = [k for k, layer in enumerate(g.layers) if layer]
        if len(levels) < 2:
            continue
        i, j = sorted(rng.sample(levels, 2))
        u = rng.sample(g.layers[i], rng.randint(1, len(g.layers[i])))
        w = rng.sample(g.layers[j], rng.randint(1, len(g.layers[j])))
        ch = channel(g, u, w)
        want = naive_channel(g.edges, u, w, j - i)
        assert ch.height == j - i
        assert [set(layer) for layer in ch.layers] == want
        kept = set().union(*want)
        assert set(ch.edges) == {e for e in g.edges if set(e) <= kept}
        if g.labels is not None:
            # A pathless channel has no vertices, so it carries no labels.
            assert ch.labels == ({v: g.labels[v] for v in kept} if kept else None)
        lifted += i > 0
        partial += len(w) < len(g.layers[j])
        pathless += ch.is_empty
    assert min(lifted, partial, pathless) >= 20


# -- the key store ------------------------------------------------------------
#
# A graph keeps its edges once, as sorted int keys; `edges` is a pair view
# made on first use.  Constructor graphs below take ids that are negative,
# sparse, or lower in the upper layers than in layer 0, with repeated edges.

ID_POOLS = {
    "negative": lambda rng, n: rng.sample(range(-60, 0), n),
    "sparse": lambda rng, n: rng.sample(range(-10**12, 10**12), n),
    "sinking": lambda rng, n: sorted(rng.sample(range(-30, 30), n), reverse=True),
}


def random_keyed_graph(rng, pool):
    h = rng.randint(1, 3)
    sizes = [rng.randint(1 if level == 0 else 0, 5) for level in range(h + 1)]
    ids = ID_POOLS[pool](rng, sum(sizes))
    layers = [ids[sum(sizes[:k]) : sum(sizes[: k + 1])] for k in range(h + 1)]
    pairs = [
        (u, v)
        for lower, upper in zip(layers, layers[1:])
        for u in lower
        for v in upper
        if rng.random() < 0.6
    ]
    pairs += rng.sample(pairs, len(pairs) // 3)
    rng.shuffle(pairs)
    rows = [rng.choice([list, tuple])(pair) for pair in pairs]
    labels = None
    if rng.random() < 0.5:
        labels = {v: (k, -k) for layer in layers for k, v in enumerate(layer)}
    return LayeredGraph(h, layers, rows, labels), pairs


@pytest.mark.parametrize("pool", ID_POOLS)
def test_key_store_holds_the_sorted_distinct_pairs(pool):
    rng = rng_for(20261019, f"keys {pool}")
    sinking = 0
    for _ in range(300):
        g, pairs = random_keyed_graph(rng, pool)
        assert "edges" not in vars(g)
        assert g.edge_count == len(set(pairs))
        assert g.edges == tuple(sorted(set(pairs)))
        assert type(g.edges) is tuple
        assert {(type(e), len(e)) for e in g.edges} <= {(tuple, 2)}
        assert check_commutative(g).violations == tuple(naive_violations(pairs))
        for u in chain.from_iterable(g.layers):
            assert g.out_neighbors(u) == tuple(sorted({w for v, w in pairs if v == u}))
        assert LayeredGraph(g.height, g.layers, g.edges, g.labels) == g
        assert_derived_graphs_are_validated(g, rng)
        sinking += bool(g.layers[-1]) and g.layers[-1][-1] < g.layers[0][0]
    if pool == "sinking":
        assert sinking >= 50


def test_constructor_refuses_ids_and_edges_that_are_not_ints():
    # Keys are int arithmetic on ids, so ids and edge ends are plain ints.
    for rows in ([(0, 1, 2)], [(0,)], [(0, True)], [[0, 1.0]], [0], [(0, 1), None]):
        with pytest.raises(InputError, match=r"^'edges' entries must be \[from, to\]"):
            LayeredGraph(1, ((0,), (1,)), rows)
    for layers in ((("a",), ("b",)), ((0.5,), (1,)), ((True,), (2,))):
        with pytest.raises(InputError, match="^vertex ids must be integers$"):
            LayeredGraph(1, layers, ())


def test_built_graphs_round_trip_and_pickle():
    rng = rng_for(20261019, "keys pickle")
    for _ in range(40):
        a, b, c = random_triple(rng, a_hi=6, b_hi=3)
        h = rng.randint(1, 3)
        for g in (build_addition_graph(a, b, h), build_restricted_graph(a, b, c, h)):
            derived = [g, channel_of(g, g.layers[0])] if g.layers[-1] else [g]
            for d in derived:
                assert LayeredGraph(d.height, d.layers, d.edges, d.labels) == d
            copy = pickle.loads(pickle.dumps(g))
            assert copy == g
            assert copy.edges == g.edges
            assert check_commutative(copy) == check_commutative(g)


def writer_graphs(rng):
    """Built, restricted, channel, loaded and unlabeled graphs, and one with
    no edges at all."""
    for _ in range(25):
        a, b, c = random_triple(rng, a_hi=7, b_hi=4)
        h = rng.randint(1, 3)
        g = build_addition_graph(a, b, h)
        yield g
        yield build_restricted_graph(a, b, c, h)
        yield channel_of(g, rng.sample(g.layers[0], rng.randint(1, len(g.layers[0]))))
        yield graph_from_json(json.loads(json.dumps(graph_to_json(g))))
        scrambled = random_scrambled_graph(rng)
        yield LayeredGraph(scrambled.height, scrambled.layers, scrambled.edges)
    # V_1 = (A+B) \ C is empty, so nothing joins layers 0 and 1
    yield build_restricted_graph(gs(0), gs(0, 1), gs(0, 1), 2)
    yield LayeredGraph(1, [[], []], [])


def label_writer_graphs(rng):
    """Graphs whose label rows the writer could misplace: rank 0, ids whose
    decimal order is not their numeric order, and subgraphs keeping
    non-contiguous ids of a larger graph."""
    yield LayeredGraph(1, [[0], [2]], [[0, 2]], {0: [], 2: []})
    yield LayeredGraph(2, [[0], [2], [7]], [], {0: [], 2: [], 7: []})
    layers = [[9, 10, 2], [100, 11, 1000], [-1, -10]]
    edges = [[9, 100], [10, 11], [2, 1000], [11, -10], [1000, -1]]
    labels = {v: (k, -v) for layer in layers for k, v in enumerate(layer)}
    yield LayeredGraph(2, layers, edges, labels)
    yield LayeredGraph(2, layers, edges)
    layers = [[-1, -10, 3, -2], [20, -20, 0]]
    edges = [[-1, 20], [-10, -20], [3, 0], [-2, 0]]
    yield LayeredGraph(1, layers, edges, {v: [v * v + v] for layer in layers for v in layer})
    # 10 + B lies in C, so 10 is a singleton block, and 0 and 20 one block
    g = build_restricted_graph(gs(0, 10, 20), gs(0, 1), gs(10, 11), 2)
    blocks = partition_graph(g).blocks
    assert any(block.degenerate for block in blocks)
    yield from (block.subgraph for block in blocks)
    for _ in range(20):
        moduli = rng.choice([(0,), (5, 5), (0, 7), (0, 0, 0)])
        space = GroupSpace(moduli)
        a = random_gset(rng, space, 3, 12, spread=rng.choice([4, 30]))
        b = random_gset(rng, space, 1, 4, spread=4)
        g = build_addition_graph(a, b, 2)
        u = rng.sample(g.layers[0], rng.randint(1, len(g.layers[0])))
        reached = sorted(image(g, u, 2))
        yield channel(g, u, rng.sample(reached, rng.randint(1, len(reached))))
        yield from (block.subgraph for block in partition_graph(g).blocks)


def test_writer_matches_json_dumps_of_graph_to_json(tmp_path):
    rng = rng_for(20261019, "graph writer")
    path = tmp_path / "g.json"
    kinds = set()
    ranks = set()
    for g in chain(writer_graphs(rng), label_writer_graphs(rng)):
        dump_graph(g, str(path))
        doc = graph_to_json(g)
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert load_graph(str(path)) == g
        kinds.add((bool(doc["edges"]), bool(doc["labels"])))
        ranks |= set(map(len, doc["labels"].values()))
    assert kinds >= {(True, True), (True, False), (False, True), (False, False)}
    assert ranks >= {0, 1, 2, 3}


CHUNK_SIZES = (0, 1, groups._CHUNK - 1, groups._CHUNK, groups._CHUNK + 1, 2 * groups._CHUNK + 1)


def chunk_graphs(n):
    """Two graphs with n vertices, one a path, and one with n edges, as
    (height, layers, edges).  Ids 0..|V|-1 sort differently as decimal keys,
    so label chunks cut through the `sort_keys` order."""
    bottom, top = list(range(0, n, 2)), list(range(1, n, 2))
    yield 1, (bottom, top), [(v, v + 1) for v in bottom if v + 1 < n]
    height = max(n, 2) - 1
    layers = [[v] for v in range(n)] + [[]] * (height + 1 - n)
    yield height, layers, [(v, v + 1) for v in range(n - 1)]
    top = list(range(3, 3 + -(-n // 3)))
    yield 1, ([0, 1, 2], top), [(u, v) for v in top for u in (0, 1, 2)][:n]


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_writer_fills_rows_across_chunk_boundaries(tmp_path, capsys, n):
    path = tmp_path / "g.json"
    for height, layers, edges in chunk_graphs(n):
        # Rank-0 labels are all (), so they fit one vertex per layer only.
        lone = max(map(len, layers)) <= 1
        for rank in (None, 0, 1, 2) if lone else (None, 1, 2):
            labels = None if rank is None else {
                v: (v, -v)[:rank] for layer in layers for v in layer
            }
            g = LayeredGraph(height, layers, edges, labels)
            want = json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n"
            dump_graph(g, str(path))
            assert path.read_text() == want
            dump_graph(g, None)
            assert capsys.readouterr().out == want


def test_writer_holds_less_than_the_document(tmp_path):
    # The writer streams the document in chunks, so its traced peak stays
    # below the document's length; a whole-text writer holds it several
    # times over.  tracemalloc counts Python allocations, not RSS, so the
    # figure does not depend on the machine.
    rng = rng_for(20261019, "writer memory")
    a = GSet.from_coords(Z, [(x,) for x in rng.sample(range(-9800, 9800), 980)])
    b = GSet.from_coords(Z, [(x,) for x in rng.sample(range(12), 8)])
    g = build_addition_graph(a, b, 2)
    assert g.edge_count > 50_000
    path = tmp_path / "g.json"
    tracemalloc.start()
    try:
        dump_graph(g, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_writers_never_reach_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    # Empty layers and set documents fill row templates, as full layers and
    # edge rows do; none of them goes to `json.dumps`.
    a = GSet.from_coords(GroupSpace((0, 7)), [(-3, 1), (0, 6), (12, 0)])
    restricted = build_restricted_graph(gs(0, 1, 5), gs(0, 2), gs(*range(-2, 12)), 2)
    assert restricted.layer_sizes() == (3, 0, 0)
    graphs = [LayeredGraph(2, [[0], [], []], []), restricted]
    want = [json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n" for g in graphs]
    want_set = json.dumps(gset_to_json(a), indent=2, sort_keys=True) + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    path = tmp_path / "doc.json"
    for g, text in zip(graphs, want):
        dump_graph(g, str(path))
        assert path.read_text() == text
        dump_graph(g, None)
        assert capsys.readouterr().out == text
    dump_gset(a, str(path))
    assert path.read_text() == want_set
    dump_gset(a, None)
    assert capsys.readouterr().out == want_set


def test_builders_fold_c_only_when_c_is_non_empty(monkeypatch):
    # An empty C removes nothing, so the builder folds A alone.
    calls = []
    real = groups._layers

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr("sumsetlab.graphs._layers", counted)
    a, b = gs(0, 2, 7), gs(0, 1, 3)
    for build, folds in (
        (lambda: build_addition_graph(a, b, 2), [0]),
        (lambda: build_restricted_graph(a, b, gs(), 2), [0]),
        (lambda: build_restricted_graph(a, b, gs(4), 2), [0, 1]),
    ):
        calls.clear()
        build()
        assert calls == folds


@pytest.mark.parametrize("command", ["build", "restrict"])
def test_graph_command_writes_without_the_pair_view(tmp_path, capsys, monkeypatch, command):
    built = []

    def keeping(real):
        def build(*args):
            built.append(real(*args))
            return built[-1]

        return build

    for name in ("build_addition_graph", "build_restricted_graph"):
        monkeypatch.setattr(cli, name, keeping(getattr(cli, name)))
    a, b, c = gs(0, 2, 3, 7), gs(0, 1, 3), gs(4)
    for name, s in zip("ABC", (a, b, c)):
        dump_gset(s, str(tmp_path / f"{name}.json"))
    files = [str(tmp_path / f"{name}.json") for name in "ABC"[: 2 + (command == "restrict")]]
    assert cli.main(["graph", command, *files, "--h", "3"]) == 0
    (g,) = built
    assert g.edge_count > 0
    assert not {"edges", "labels"} & vars(g).keys()
    want = json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out == want


def test_partition_command_makes_neither_view(tmp_path, monkeypatch):
    # The peel reads labels (its singleton blocks, its channels) from the
    # store, and edges from the keys.
    loaded = []

    def keeping(path):
        loaded.append(load_graph(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_graph", keeping)
    path = str(tmp_path / "G.json")
    dump_graph(build_restricted_graph(gs(0, 10, 20), gs(0, 1), gs(10, 11), 2), path)
    assert cli.main(["partition", path, "--out", str(tmp_path / "P.json")]) == 0
    (g,) = loaded
    assert not {"edges", "labels"} & vars(g).keys()


# -- the document loader ------------------------------------------------------
#
# `graph_from_json` against the entry-by-entry checking loader of
# `tests/oracles.py`: the same fields on every document it accepts, and the
# same message on every document it refuses.


def assert_loads_as_checked(doc):
    """Load doc both ways; True when it is valid."""
    try:
        want = checking_graph_loader(doc)
    except DocumentError as exc:
        with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
            graph_from_json(doc)
        return False
    g = graph_from_json(doc)
    assert (g.height, g.layers, g._keys, g._flat) == want
    assert g == LayeredGraph._trusted(*want)
    return True


def random_document(rng):
    """A layered graph document with ids from a random pool, each layer's
    ids unsorted, edges unsorted with repeats, and labels absent, null,
    empty, or at rank 0-3 in random key order."""
    form = rng.choice(["absent", "null", "empty", 0, 1, 2, 3])
    h = rng.randint(1, 3)
    most = 1 if form == 0 and rng.random() < 0.5 else 6  # rank 0 fits one per layer
    sizes = [rng.randint(1 if level == 0 else 0, most) for level in range(h + 1)]
    pool = rng.choice([range(0, 30), range(-40, 40), range(-10**12, 10**12)])
    ids = rng.sample(pool, sum(sizes))
    layers = [ids[sum(sizes[:k]) : sum(sizes[: k + 1])] for k in range(h + 1)]
    p = rng.choice([0.2, 0.5, 0.9])
    edges = [[u, v] for lower, upper in zip(layers, layers[1:]) for u in lower for v in upper
             if rng.random() < p]
    edges += [list(e) for e in rng.sample(edges, len(edges) // 3)]
    rng.shuffle(edges)
    doc = {"height": h, "layers": layers, "edges": edges}
    if form == "null":
        doc["labels"] = None
    elif form == "empty":
        doc["labels"] = {}
    elif form != "absent":
        rows = [(str(v), [k] + [rng.randint(-3, 3) for _ in range(form - 1)] if form else [])
                for layer in layers for k, v in enumerate(layer)]
        rng.shuffle(rows)
        doc["labels"] = dict(rows)
    return doc


def loader_documents(rng):
    """Documents the package writes for built graphs and for channels of
    graphs with scrambled, negative or sparse ids, then random documents."""
    for _ in range(25):
        a, b, c = random_triple(rng, a_hi=8, b_hi=4)
        h = rng.randint(1, 3)
        g = build_addition_graph(a, b, h)
        yield graph_to_json(g)
        yield graph_to_json(build_restricted_graph(a, b, c, h))
        u = rng.sample(g.layers[0], rng.randint(1, len(g.layers[0])))
        yield graph_to_json(channel(g, u, g.layers[-1]))
    for pool in ["scrambled", *ID_POOLS] * 15:
        g = random_scrambled_graph(rng) if pool == "scrambled" else random_keyed_graph(rng, pool)[0]
        levels = [k for k, layer in enumerate(g.layers) if layer]
        if len(levels) > 1:
            i, j = sorted(rng.sample(levels, 2))
            u = rng.sample(g.layers[i], rng.randint(1, len(g.layers[i])))
            w = rng.sample(g.layers[j], rng.randint(1, len(g.layers[j])))
            yield graph_to_json(channel(g, u, w))
        yield graph_to_json(g)
    for _ in range(300):
        yield random_document(rng)


def file_form(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


def test_loader_matches_the_checking_loader():
    rng = rng_for(20261019, "loader")
    valid, ranks, forms = 0, set(), set()
    for doc in loader_documents(rng):
        for form in (doc, file_form(doc)):
            valid += assert_loads_as_checked(form)
        labels = doc.get("labels", "absent")
        forms.add("rows" if isinstance(labels, dict) and labels else repr(labels))
        ranks |= set(map(len, labels.values())) if isinstance(labels, dict) else set()
    assert valid > 700
    assert forms == {"'absent'", "None", "{}", "rows"}
    assert ranks == {0, 1, 2, 3}


def test_valid_documents_load_in_one_pass(monkeypatch):
    # A document the checks accept is never read a second time: the
    # constructor, which names the culprit of a refused one, is not called.
    rng = rng_for(20261019, "one pass")
    valid = []
    for doc in map(file_form, loader_documents(rng)):
        try:
            checking_graph_loader(doc)
        except DocumentError:
            continue
        valid.append(doc)

    def refuse(self, *args):
        raise AssertionError("the document was read twice")

    monkeypatch.setattr(LayeredGraph, "__init__", refuse)
    for doc in valid:
        graph_from_json(doc)
    assert len(valid) > 350


def corrupt(doc, rng):
    """A copy of a document with one more random fault."""
    doc = json.loads(json.dumps(doc))
    layers, edges = doc["layers"], doc["edges"]
    ids = [v for layer in layers for v in layer]
    labels = doc.get("labels") or {}
    free = max(ids, default=0) + 1
    keys = [key for key, row in labels.items() if type(row) is list]
    pairs = [row for row in edges if len(row) == 2]  # a fault before may have cut one
    needs = (keys, keys, True, keys, keys, keys, keys, ids, pairs, pairs, ids, True)
    kind = rng.choice([k for k, need in enumerate(needs) if need])
    if kind == 0:  # a spelling int() reads as the same id
        key = rng.choice(keys)
        spelled = rng.choice(["0{}", "+{}", " {}", "{} ", "0_{}"]).format(key)
        if key == "0":
            spelled = rng.choice([spelled, "-0"])
        labels[spelled] = labels.pop(key)
    elif kind == 1:  # as many keys as vertices, one naming none
        labels[str(free)] = labels.pop(rng.choice(keys))
    elif kind == 2:  # one key more
        labels[str(rng.choice([free, -free]))] = rng.choice([[0], [], [1, 2], "x"])
        doc["labels"] = labels
    elif kind == 3:
        labels[rng.choice(keys)] = rng.choice(["1", [True], [1.5], None, [[1]], {"0": 1}])
    elif kind == 4:  # another rank
        row = labels[rng.choice(keys)]
        row[:] = row + [0] if rng.random() < 0.5 or not row else row[1:]
    elif kind == 5:  # a repeated label, inside one layer unless p is alone
        level = {str(v): k for k, layer in enumerate(layers) for v in layer}
        p = rng.choice(keys)
        mates = [key for key in keys if key != p and level.get(key) == level.get(p)]
        labels[rng.choice(mates or keys)] = list(labels[p])
    elif kind == 6:
        del labels[rng.choice(keys)]
    elif kind == 7:  # an edge to an unknown id, or across layers
        u = rng.choice(ids)
        edges.insert(rng.randint(0, len(edges)), rng.choice([[u, free], [free, u], [u, rng.choice(ids)]]))
    elif kind == 8:  # a bool or float end
        row = rng.choice(pairs)
        row[rng.randrange(2)] = rng.choice([True, False, 1.0, 0.5])
    elif kind == 9:
        rng.choice(pairs)[:] = rng.choice([[], [0], [0, 1, 2]])
    elif kind == 10:  # an id in two layers
        rng.choice(layers).append(rng.choice(ids))
    elif rng.random() < 0.5:
        layers.pop()
    else:
        layers.append([free])
    return doc


def test_loader_names_the_checking_loaders_culprit():
    # One or two faults in a valid document: both loaders refuse it, or
    # accept it, alike, and name the same culprit.
    rng = rng_for(20261019, "loader faults")
    docs = [doc for doc in loader_documents(rng) if assert_loads_as_checked(doc)]
    refused = 0
    for doc in docs:
        bad = corrupt(doc, rng)
        if rng.random() < 0.3:
            bad = corrupt(bad, rng)
        for form in (bad, file_form(bad)):
            refused += not assert_loads_as_checked(form)
    assert refused > 600


def test_refused_documents_are_named_in_one_pass(monkeypatch):
    # The pass of checks that refuses a document also names its culprit:
    # `_fill` runs once, and the constructor is never called.
    rng = rng_for(20261019, "refused in one pass")
    docs = []
    for doc in loader_documents(rng):
        docs += [doc, corrupt(doc, rng), corrupt(corrupt(doc, rng), rng)]
    refused = []
    for doc in map(file_form, docs):
        try:
            checking_graph_loader(doc)
        except DocumentError as exc:
            refused.append((doc, str(exc)))

    def refuse(self, *args):
        raise AssertionError("the document was read twice")

    fill, fills = LayeredGraph._fill, []

    def counted(self, *args):
        fills.append(args)
        return fill(self, *args)

    monkeypatch.setattr(LayeredGraph, "__init__", refuse)
    monkeypatch.setattr(LayeredGraph, "_fill", counted)
    for doc, message in refused:
        fills.clear()
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            graph_from_json(doc)
        assert len(fills) == 1
    assert len(refused) > 900
