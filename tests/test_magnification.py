"""Magnification ratios: enumeration, parametric flow, chains, power checks."""

import random
from fractions import Fraction

import pytest

from sumsetlab import (
    GroupSpace,
    GSet,
    GuardError,
    InputError,
    LayeredGraph,
    build_addition_graph,
    channel,
    channel_of,
    magnification_bruteforce,
    magnification_flow,
    magnification_to_json,
    plunnecke_chain,
    tight_channel_power_check,
)
from sumsetlab import graphs
from sumsetlab.graphs import image_masks
from sumsetlab.instances import random_pair, rng_for

from oracles import (
    FlowNetwork,
    naive_image,
    naive_magnification,
    random_layered,
    smallest_feasible_fraction,
)

Z = GroupSpace((0,))


def gs(*coords):
    return GSet.from_coords(Z, [(c,) for c in coords])


def labels(graph, vertices):
    return {graph.label_of(v)[0] for v in vertices}


def test_frozen_two_layer_example():
    g = build_addition_graph(gs(0, 2), gs(0, 1, 3), 2)
    for method in (magnification_bruteforce, magnification_flow):
        r1 = method(g, 1)
        assert r1.value == Fraction(5, 2)
        assert labels(g, r1.maximal_tight_set) == {0, 2}
        assert r1.witness_check
        r2 = method(g, 2)
        assert r2.value == Fraction(4)
    # singletons have 3-element one-step images, so only the full set is tight
    value, union = naive_magnification(g.edges, g.layers[0], 1)
    assert value == Fraction(5, 2) and union == frozenset(g.layers[0])
    assert magnification_bruteforce(g, 1).maximal_tight_set == tuple(sorted(union))


def test_group_case_everything_is_tight():
    space = GroupSpace((4,))
    a = GSet.from_coords(space, [(i,) for i in range(4)])
    b = GSet.from_coords(space, [(1,)])
    g = build_addition_graph(a, b, 2)
    r = magnification_flow(g, 1)
    assert r.value == 1
    # shifting is a bijection: every subset minimizes, so the union is V_0
    assert r.maximal_tight_set == g.layers[0]
    value, union = naive_magnification(g.edges, g.layers[0], 1)
    assert value == 1 and union == frozenset(g.layers[0])
    assert magnification_bruteforce(g, 1).maximal_tight_set == tuple(sorted(union))


def test_tight_set_is_maximal_not_just_minimal():
    g = build_addition_graph(gs(0, 1, 2, 3, 100), gs(0, 1), 1)
    r = magnification_flow(g, 1)
    assert r.value == Fraction(5, 4)
    assert labels(g, r.maximal_tight_set) == {0, 1, 2, 3}


def test_level_validation():
    g = build_addition_graph(gs(0, 1), gs(0, 1), 2)
    for bad in (0, 3, -1, "1"):
        with pytest.raises(InputError):
            magnification_flow(g, bad)
        with pytest.raises(InputError):
            magnification_bruteforce(g, bad)


def test_empty_channel_has_no_magnification():
    g = LayeredGraph(1, ((0, 1), (2, 3)), ((0, 2),))
    ch = channel(g, {1}, {3})
    assert ch.is_empty
    with pytest.raises(InputError):
        magnification_flow(ch, 1)


def test_bruteforce_guard_names_itself():
    g = build_addition_graph(gs(*range(23)), gs(0), 1)
    with pytest.raises(GuardError, match="bruteforce subset enumeration guard"):
        magnification_bruteforce(g, 1)
    assert magnification_flow(g, 1).value == 1


def test_json_shape():
    g = build_addition_graph(gs(0, 2), gs(0, 1, 3), 2)
    doc = magnification_to_json(magnification_flow(g, 1))
    assert doc == {
        "level": 1,
        "ratio": [5, 2],
        "tight_set": list(g.layers[0]),
    }


def test_smallest_feasible_fraction_exact_targets():
    for target in (
        Fraction(3, 7),
        Fraction(5, 2),
        Fraction(1),
        Fraction(22, 21),
        Fraction(1, 100),
        Fraction(97, 100),
    ):
        got = smallest_feasible_fraction(
            lambda p, q: Fraction(p, q) >= target, 100
        )
        assert got == target


def test_smallest_feasible_fraction_rounds_up_to_legal_denominator():
    # the feasibility threshold 303/1000 itself is not representable with
    # denominator <= 10; descent still lands on the best legal fraction
    target = Fraction(303, 1000)
    got = smallest_feasible_fraction(lambda p, q: Fraction(p, q) >= target, 10)
    best = min(
        Fraction(p, q)
        for q in range(1, 11)
        for p in range(0, 4 * q)
        if Fraction(p, q) >= target
    )
    assert got == best == Fraction(1, 3)


def test_flow_agrees_with_enumeration_random():
    rng = rng_for(20260814, "mag")
    for _ in range(150):
        a, b = random_pair(rng, a_hi=7, b_hi=4)
        h = rng.randint(1, 3)
        g = build_addition_graph(a, b, h)
        level = rng.randint(1, h)
        brute = magnification_bruteforce(g, level)
        flow = magnification_flow(g, level)
        assert flow.value == brute.value
        assert flow.maximal_tight_set == brute.maximal_tight_set
        assert flow.witness_check and brute.witness_check


def test_flow_agrees_with_independent_oracle_random():
    rng = rng_for(20260814, "mag-oracle")
    for _ in range(60):
        a, b = random_pair(rng, a_hi=5, b_hi=3)
        g = build_addition_graph(a, b, rng.randint(1, 2))
        level = g.height
        value, union = naive_magnification(g.edges, g.layers[0], level)
        r = magnification_flow(g, level)
        assert r.value == value
        assert frozenset(r.maximal_tight_set) == union


@pytest.mark.parametrize("row_bits", [2, 3])
def test_bruteforce_matches_naive_on_narrow_rows(row_bits, monkeypatch):
    # Rows 2 and 3 bits wide put most subsets of a bottom layer of up to 10
    # vertices in the later rows, where a row ORs one image into the whole
    # table; the value, the tight set and the witness match full
    # enumeration on random layered graphs and on addition graphs.
    monkeypatch.setattr(graphs, "_ROW_BITS", row_bits)
    rng = rng_for(20261020, f"narrow rows {row_bits}")
    cases = 0
    for k in range(80):
        if k % 2:
            g = LayeredGraph(*random_layered(rng))
        else:
            a, b = random_pair(rng, a_hi=10, b_hi=4)
            g = build_addition_graph(a, b, rng.randint(1, 3))
        for level in range(1, g.height + 1):
            r = magnification_bruteforce(g, level)
            value, union = naive_magnification(g.edges, g.layers[0], level)
            assert r.value == value
            assert r.maximal_tight_set == tuple(v for v in g.layers[0] if v in union)
            reached = naive_image(g.edges, union, level)
            assert r.witness_check == (len(reached) * value.denominator == value.numerator * len(union))
            cases += len(g.layers[0]) > row_bits
    assert cases > 80

def random_layered_graph(rng):
    return LayeredGraph(*random_layered(rng))


def cut_minimizer(masks, top_count, p, q):
    """Maximal minimizer of q|image(Z)| - p|Z|, cut by the reference engine."""
    n = len(masks)
    net = FlowNetwork(2 + n + top_count)
    for k, mask in enumerate(masks):
        net.add_edge(0, 2 + k, p)
        for w in range(top_count):
            if mask >> w & 1:
                net.add_edge(2 + k, 2 + n + w, p * n + q * top_count + 1)
    for w in range(top_count):
        net.add_edge(2 + n + w, 1, q)
    net.max_flow(0, 1)
    reaches = net.residual_reaches_sink(1)
    return [k for k in range(n) if 2 + k not in reaches]


def test_dinkelbach_matches_oracles_on_general_graphs(monkeypatch):
    import sumsetlab.magnification as magnification

    cuts = []
    ratio_cut = magnification.ratio_cut

    def counted(vertex_masks, p, q):
        saturated, kept = ratio_cut(vertex_masks, p, q)
        cuts.append((list(vertex_masks), kept))
        return saturated, kept

    monkeypatch.setattr(magnification, "ratio_cut", counted)
    rng = random.Random("mag:dinkelbach")
    zero_ratio = most_cuts = 0
    for _ in range(500):
        g = random_layered_graph(rng)
        level = rng.randint(1, g.height)
        bottom = g.layers[0]
        cuts.clear()
        flow = magnification_flow(g, level)
        flow_cuts = len(cuts)
        assert flow_cuts <= len(bottom) + 1
        # The maximal minimizers nest, so each later cut runs on exactly
        # the rows the cut before it kept.
        assert cuts[0][0] == image_masks(g, level)
        for (rows, kept), (later, _) in zip(cuts, cuts[1:]):
            assert later == [rows[k] for k in kept]
        brute = magnification_bruteforce(g, level)
        assert flow.value == brute.value
        assert flow.maximal_tight_set == brute.maximal_tight_set
        assert flow.witness_check
        # Stern-Brocot descent with a min-cut feasibility test, on masks
        # taken from the plain-set image oracle
        top = sorted(g.layers[level])
        masks = [
            sum(1 << top.index(w) for w in naive_image(g.edges, [v], level))
            for v in bottom
        ]
        value = smallest_feasible_fraction(
            lambda p, q: bool(cut_minimizer(masks, len(top), p, q)), len(bottom)
        )
        tight = cut_minimizer(masks, len(top), value.numerator, value.denominator)
        assert flow.value == value
        assert flow.maximal_tight_set == tuple(bottom[k] for k in tight)
        zero_ratio += value == 0
        most_cuts = max(most_cuts, flow_cuts)
    # a bottom vertex with an empty image makes D = 0
    assert 0 < zero_ratio < 500
    assert most_cuts >= 3


def test_plunnecke_chain_frozen():
    g = build_addition_graph(gs(0, 2), gs(0, 1, 3), 2)
    chain = plunnecke_chain(g)
    assert chain.values == (Fraction(5, 2), Fraction(4))
    assert chain.monotone
    assert chain.failures == ()


def test_plunnecke_chain_checks_cross_powers():
    g = build_addition_graph(gs(0), gs(0, 1), 3)
    chain = plunnecke_chain(g)
    # D_i = |iB| here: 2, 3, 4; checks 4>=3, 8>=4, 27>=16
    assert chain.values == (Fraction(2), Fraction(3), Fraction(4))
    assert chain.monotone


def test_plunnecke_chain_random():
    rng = rng_for(20260814, "chain")
    for _ in range(80):
        a, b = random_pair(rng, a_hi=6, b_hi=3)
        chain = plunnecke_chain(build_addition_graph(a, b, 4))
        assert chain.monotone, chain.failures


def test_tight_channel_power_frozen():
    g = build_addition_graph(gs(0, 2), gs(0, 1, 3), 2)
    tight = magnification_flow(g, 1).maximal_tight_set
    h = channel_of(g, tight)
    check = tight_channel_power_check(h, 1)
    # |V_1|^2 = 25 >= |V_0|^1 |V_2|^1 = 2*8 = 16, floored at j=1
    assert check.hypothesis_ok
    assert check.power_ok
    assert check.floor_ok
    assert check.sizes == (2, 5, 8)


def test_tight_channel_power_rejects_bad_level():
    g = build_addition_graph(gs(0, 1), gs(0, 1), 2)
    with pytest.raises(InputError):
        tight_channel_power_check(g, 0)
