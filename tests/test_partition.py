"""Tight-set peeling partitions and their re-verification."""

import random
from fractions import Fraction
from operator import is_

import pytest

from oracles import naive_peel
from sumsetlab import (
    GroupSpace,
    GSet,
    LayeredGraph,
    PartitionBlock,
    PartitionResult,
    build_addition_graph,
    channel,
    example1,
    image,
    partition_graph,
    partition_to_json,
    verify_partition,
)
from sumsetlab.instances import random_pair, rng_for
from sumsetlab.suite import _partition_instance

Z = GroupSpace((0,))


def gs(*coords):
    return GSet.from_coords(Z, [(c,) for c in coords])


def labels(graph, vertices):
    return {graph.label_of(v)[0] for v in vertices}


def test_group_graph_is_one_tight_block():
    space = GroupSpace((4,))
    a = GSet.from_coords(space, [(i,) for i in range(4)])
    b = GSet.from_coords(space, [(1,)])
    part = partition_graph(build_addition_graph(a, b, 2))
    assert part.k == 1
    assert part.ratios == (Fraction(1),)
    assert part.blocks[0].vertices == part.graph.layers[0]
    assert verify_partition(part).ok


def test_outlier_peels_into_second_block():
    g = build_addition_graph(gs(0, 1, 2, 3, 100), gs(0, 1), 2)
    part = partition_graph(g)
    assert part.k == 2
    assert part.ratios == (Fraction(5, 4), Fraction(2))
    assert labels(g, part.blocks[0].vertices) == {0, 1, 2, 3}
    assert labels(g, part.blocks[1].vertices) == {100}
    check = verify_partition(part)
    assert check.ok
    # block subgraph tops partition V_2: 6 + 3 = 9
    assert g.layer_sizes()[2] == 9


def test_grid_construction_partition_frozen():
    a, b, _ = example1(2, 4, 1)
    part = partition_graph(build_addition_graph(a, b, 2))
    assert part.ratios == (Fraction(1), Fraction(7))
    assert tuple(len(blk.vertices) for blk in part.blocks) == (16, 2)
    assert verify_partition(part).ok


def test_partition_is_deterministic():
    g = build_addition_graph(gs(0, 1, 2, 3, 100), gs(0, 1), 2)
    assert partition_graph(g) == partition_graph(g)


def test_stranded_vertex_becomes_degenerate_block():
    g = LayeredGraph(1, ((0, 1), (2,)), ((0, 2),))
    part = partition_graph(g)
    assert part.k == 2
    first, second = part.blocks
    assert first.degenerate
    assert first.vertices == (1,)
    assert first.ratio == 0
    assert not second.degenerate
    assert second.vertices == (0,)
    assert second.ratio == 1
    assert verify_partition(part).ok


def test_json_shape():
    g = build_addition_graph(gs(0, 1, 2, 3, 100), gs(0, 1), 1)
    doc = partition_to_json(partition_graph(g))
    assert doc["ratios"] == [[5, 4], [2, 1]]
    assert sorted(v for blk in doc["blocks"] for v in blk) == list(g.layers[0])


def test_dropped_vertex_fails_coverage():
    g = build_addition_graph(gs(0, 1, 2, 3, 100), gs(0, 1), 1)
    part = partition_graph(g)
    blk = part.blocks[0]
    tampered = PartitionResult(
        g,
        (
            PartitionBlock(0, blk.vertices[1:], blk.ratio, g, blk.top, False),
            part.blocks[1],
        ),
    )
    assert not verify_partition(tampered).disjoint_cover
    assert not verify_partition(tampered).ok


def test_merged_equal_blocks_fail_strict_increase():
    # two far-apart copies of the same interval really form one tight class;
    # a partition presenting them as two blocks passes every local check but
    # the ratio chain stays flat
    g = build_addition_graph(gs(0, 1, 2, 3, 100, 101, 102, 103), gs(0, 1), 1)
    low = [v for v in g.layers[0] if g.label_of(v)[0] < 100]
    high = [v for v in g.layers[0] if g.label_of(v)[0] >= 100]
    blocks = []
    for idx, verts in enumerate((low, high)):
        top = image(g, set(verts), 1)
        block = PartitionBlock(idx, tuple(verts), Fraction(5, 4), g, tuple(sorted(top)), False)
        assert block.subgraph == channel(g, set(verts), top)
        blocks.append(block)
    tampered = PartitionResult(g, tuple(blocks))
    check = verify_partition(tampered)
    assert check.disjoint_cover
    assert check.blocks_tight
    assert check.subgraphs_disjoint
    assert check.top_accounted
    assert not check.ratios_increasing
    assert not check.ok


def test_wrong_ratio_fails_tightness():
    g = build_addition_graph(gs(0, 1, 2, 3, 100), gs(0, 1), 1)
    part = partition_graph(g)
    blk = part.blocks[1]
    tampered = PartitionResult(
        g,
        (
            part.blocks[0],
            PartitionBlock(1, blk.vertices, Fraction(3), g, blk.top, False),
        ),
    )
    assert not verify_partition(tampered).blocks_tight


def test_random_partitions_verify():
    rng = rng_for(20260814, "partition")
    for _ in range(80):
        a, b = random_pair(rng, a_hi=7, b_hi=3)
        h = rng.randint(1, 3)
        part = partition_graph(build_addition_graph(a, b, h))
        check = verify_partition(part)
        assert check.ok, check
        assert 1 <= part.k <= len(a)


def peel_rows(part):
    """(vertices, ratio, degenerate, subgraph vertex set) per block, the
    shape `naive_peel` returns."""
    return [
        (
            blk.vertices,
            blk.ratio,
            blk.degenerate,
            frozenset(v for layer in blk.subgraph.layers for v in layer),
        )
        for blk in part.blocks
    ]


def random_layered(rng):
    """A general layered graph whose sparse random edges strand some bottom
    vertices, at once or once earlier blocks claim the top they reach."""
    h = rng.randint(1, 3)
    layers, start = [], 0
    for level in range(h + 1):
        size = rng.randint(1 if level == 0 else 0, 6)
        layers.append(tuple(range(start, start + size)))
        start += size
    p = rng.choice([0.2, 0.35, 0.6])
    edges = tuple(
        (u, v)
        for lower, upper in zip(layers, layers[1:])
        for u in lower
        for v in upper
        if rng.random() < p
    )
    return LayeredGraph(h, tuple(layers), edges)


def test_peel_matches_naive_peel_on_addition_graphs():
    rng = rng_for(20261018, "naive-peel")
    for _ in range(120):
        a, b = random_pair(rng, a_hi=9, b_hi=4)
        g = build_addition_graph(a, b, rng.randint(1, 3))
        assert peel_rows(partition_graph(g)) == naive_peel(g.layers, g.edges)


def test_peel_matches_naive_peel_on_stranded_graphs():
    rng = random.Random(20261018)
    stranded = late = 0
    for _ in range(300):
        g = random_layered(rng)
        rows = peel_rows(partition_graph(g))
        assert rows == naive_peel(g.layers, g.edges)
        flags = [degenerate for _, _, degenerate, _ in rows]
        stranded += any(flags)
        live = [k for k, degenerate in enumerate(flags) if not degenerate]
        late += bool(live) and any(flags[live[0]:])
    # both kinds of degenerate block occur: stranded from the start, and
    # stranded once earlier blocks claimed the top they reach
    assert stranded > 20
    assert late > 5


@pytest.mark.parametrize("seed, index", [(1, 80), (3, 53)])
def test_peel_matches_naive_peel_where_ratios_fall(seed, index):
    # Suite instances on which the peel's level-1 rule (ROADMAP item 1)
    # lets a later block's ratio fall below an earlier one.
    _, _, _, g = _partition_instance(seed, index)
    part = partition_graph(g)
    assert peel_rows(part) == naive_peel(g.layers, g.edges)
    assert not verify_partition(part).ratios_increasing


def test_one_channel_per_block(monkeypatch):
    # A block's channel is made the first time its subgraph is read, and
    # kept: the peel itself makes none.
    calls = []
    real = channel

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr("sumsetlab.partition.channel", counting)
    rng = random.Random(7)
    graphs = [random_layered(rng) for _ in range(40)]
    graphs.append(_partition_instance(1, 80)[3])
    graphs.append(build_addition_graph(gs(0, 1, 2, 3, 100), gs(0, 1), 2))
    for g in graphs:
        calls.clear()
        part = partition_graph(g)
        assert calls == []
        first = [blk.subgraph for blk in part.blocks]
        again = [blk.subgraph for blk in part.blocks]
        assert len(calls) == sum(not blk.degenerate for blk in part.blocks)
        assert all(map(is_, first, again))


def eager_subgraphs(g, part):
    """Each block's subgraph and claimed top as the peel once built them
    while it ran: the channel from the block to the top vertices it is the
    first to reach, or a degenerate block's lone vertex under the checking
    constructor."""
    unclaimed = set(g.layers[-1])
    rows = []
    for blk in part.blocks:
        if blk.degenerate:
            (v,) = blk.vertices
            labels = None if g.labels is None else {v: g.label_of(v)}
            lone = LayeredGraph(g.height, [[v]] + [[]] * g.height, [], labels)
            rows.append((lone, ()))
            continue
        claimed = image(g, blk.vertices, g.height) & unclaimed
        unclaimed -= claimed
        rows.append((channel(g, blk.vertices, claimed), tuple(sorted(claimed))))
    return rows


def test_lazy_subgraphs_equal_the_eager_ones():
    rng = rng_for(20261019, "lazy blocks")
    graphs = [random_layered(rng) for _ in range(60)]
    graphs += [_partition_instance(seed, index)[3] for seed, index in ((1, 80), (3, 53))]
    for _ in range(40):
        a, b = random_pair(rng, a_hi=9, b_hi=4)
        graphs.append(build_addition_graph(a, b, rng.randint(1, 3)))
    degenerate = 0
    for g in graphs:
        part = partition_graph(g)
        want = eager_subgraphs(g, part)
        assert [(blk.subgraph, blk.top) for blk in part.blocks] == want
        degenerate += sum(blk.degenerate for blk in part.blocks)
    assert degenerate > 20
