"""The ratio-network kernel against the reference Dinic engine, and that
engine's own max-flow and residual-cut checks."""

import random

import pytest

from sumsetlab.maxflow import ratio_cut

from oracles import FlowNetwork, naive_min_cut


def build(n, edges):
    net = FlowNetwork(n)
    for u, v, c in edges:
        net.add_edge(u, v, c)
    return net


def test_two_path_network():
    # s=0, t=1; parallel 3-cap and 2-cap routes with tighter exits
    edges = [(0, 2, 3), (0, 3, 2), (2, 1, 2), (3, 1, 3)]
    assert build(4, edges).max_flow(0, 1) == 4


def test_classic_textbook_network():
    # well-known 6-vertex instance with maximum flow 23
    edges = [
        (0, 2, 16),
        (0, 3, 13),
        (2, 4, 12),
        (3, 2, 4),
        (3, 5, 14),
        (4, 3, 9),
        (4, 1, 20),
        (5, 4, 7),
        (5, 1, 4),
    ]
    assert build(6, edges).max_flow(0, 1) == 23


def test_zero_flow_when_disconnected():
    net = build(4, [(0, 2, 5), (3, 1, 5)])
    assert net.max_flow(0, 1) == 0


def test_residual_reaches_sink_on_saturated_path():
    net = build(3, [(0, 2, 2), (2, 1, 1)])
    assert net.max_flow(0, 1) == 1
    # only the sink itself can still reach the sink
    assert net.residual_reaches_sink(1) == {1}


def test_residual_separates_saturated_branch():
    # branch via 2 saturates at its exit; branch via 3 keeps slack
    net = build(4, [(0, 2, 5), (2, 1, 1), (0, 3, 1), (3, 1, 5)])
    assert net.max_flow(0, 1) == 2
    reach = net.residual_reaches_sink(1)
    assert 3 in reach and 1 in reach
    assert 2 not in reach and 0 not in reach


def test_bipartite_matching_as_flow():
    # 3x3 bipartite graph with a perfect matching
    left = [2, 3, 4]
    right = [5, 6, 7]
    pairs = [(2, 5), (2, 6), (3, 5), (4, 7)]
    net = FlowNetwork(8)
    for u in left:
        net.add_edge(0, u, 1)
    for v in right:
        net.add_edge(v, 1, 1)
    for u, v in pairs:
        net.add_edge(u, v, 1)
    assert net.max_flow(0, 1) == 3


def test_max_flow_equals_min_cut_random():
    rng = random.Random("maxflow:oracle")
    for _ in range(150):
        n = rng.randint(2, 6)
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and v != 0 and u != 1 and rng.random() < 0.45:
                    edges.append((u, v, rng.randint(0, 5)))
        flow = build(n, edges).max_flow(0, 1)
        assert flow == naive_min_cut(n, edges, 0, 1)


def test_residual_cut_is_minimum_random():
    rng = random.Random("maxflow:cut")
    for _ in range(100):
        n = rng.randint(2, 6)
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and v != 0 and u != 1 and rng.random() < 0.45:
                    edges.append((u, v, rng.randint(0, 5)))
        net = build(n, edges)
        flow = net.max_flow(0, 1)
        reach = net.residual_reaches_sink(1)
        assert 1 in reach
        assert 0 not in reach or flow == 0
        if 0 in reach:
            continue
        # complement of the reaching side is a source-side cut of value = flow
        cut = sum(c for u, v, c in edges if u not in reach and v in reach)
        assert cut == flow


def test_long_zigzag_augmenting_path():
    # Bottom i (node 2 + i) lists top i + 1 before top i, so the first phase
    # matches bottom i to top i + 1 and strands bottom n - 1; its augmenting
    # path then zig-zags through every reverse edge, about 2n edges long.
    n = 2000
    net = FlowNetwork(2 + 2 * n)
    top = [2 + n + j for j in range(n)]
    for i in range(n):
        net.add_edge(0, 2 + i, 1)
        if i + 1 < n:
            net.add_edge(2 + i, top[i + 1], 1)
        net.add_edge(2 + i, top[i], 1)
    for w in top:
        net.add_edge(w, 1, 1)
    assert net.max_flow(0, 1) == n
    assert net.residual_reaches_sink(1) == {1}


def test_reset_matches_fresh_network_random():
    rng = random.Random("maxflow:reset")
    for _ in range(60):
        n = rng.randint(2, 6)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and v != 0 and u != 1 and rng.random() < 0.45
        ]
        net = FlowNetwork(n)
        for u, v in pairs:
            net.add_edge(u, v, 0)
        for _ in range(3):
            caps = [rng.randint(0, 5) for _ in pairs]
            net.reset(caps)
            edges = [(u, v, c) for (u, v), c in zip(pairs, caps)]
            fresh = build(n, edges)
            assert net.max_flow(0, 1) == fresh.max_flow(0, 1)
            assert net.residual_reaches_sink(1) == fresh.residual_reaches_sink(1)
        with pytest.raises(ValueError):
            net.reset([1] * (len(pairs) + 1))
        if pairs:
            with pytest.raises(ValueError):
                net.reset([1] * (len(pairs) - 1) + [-1])


def oracle_ratio_cut(masks, p, q):
    """`ratio_cut` on a network of explicit arcs built for the reference engine."""
    n = len(masks)
    width = max((mask.bit_length() for mask in masks), default=0)
    net = FlowNetwork(2 + n + width)
    for k, mask in enumerate(masks):
        net.add_edge(0, 2 + k, p)
        for w in range(width):
            if mask >> w & 1:
                net.add_edge(2 + k, 2 + n + w, p * n + 1)
    for w in range(width):
        net.add_edge(2 + n + w, 1, q)
    flow = net.max_flow(0, 1)
    reaches = net.residual_reaches_sink(1)
    return flow == p * n, [k for k in range(n) if 2 + k not in reaches]


def zigzag_masks(n, backwards):
    # Bottom i reaches tops i and i + 1; numbered backwards, the greedy start
    # strands one unit on every bottom but the first.
    top = [n - j for j in range(n + 1)] if backwards else list(range(n + 1))
    return [1 << top[i] | 1 << top[i + 1] for i in range(n)]


def level_one_masks(rng, n):
    # x -> x + B on |A| = n points of a short interval, tops numbered in order
    a = sorted(rng.sample(range(3 * n + 8), n))
    b = rng.sample(range(8), rng.randint(1, 4))
    return [sum(1 << (x + y) for y in b) for x in a]


def dense_masks(rng, n):
    width = rng.randint(500, 700)
    density = rng.choice((0.05, 0.5, 0.95))
    return [
        sum(1 << w for w in range(width) if rng.random() < density) for _ in range(n)
    ]


def ratio_near(rng, masks):
    """p/q at, just below or just above the ratio of a random subset."""
    n = len(masks)
    z = rng.sample(range(n), rng.randint(1, n))
    image = 0
    for k in z:
        image |= masks[k]
    p, q = image.bit_count(), len(z)
    return max(0, p + rng.choice((-1, 0, 0, 1))), q


def kernel_cases():
    rng = random.Random("maxflow:kernel")
    for _ in range(400):  # tiny masks, empty ones included
        n = rng.randint(1, 7)
        masks = [rng.getrandbits(rng.randint(0, 9)) for _ in range(n)]
        yield masks, *ratio_near(rng, masks)
        yield masks, rng.randint(0, 9), rng.randint(1, 4)
    for _ in range(60):  # p = 0, empty masks and a single bottom vertex
        masks = [rng.getrandbits(6) for _ in range(rng.randint(1, 5))]
        yield masks, 0, rng.randint(1, 3)
        yield [0] * rng.randint(1, 4), rng.randint(0, 3), rng.randint(1, 3)
        yield [rng.getrandbits(12)], rng.randint(0, 14), rng.randint(1, 3)
    for _ in range(150):
        masks = level_one_masks(rng, rng.randint(2, 40))
        yield masks, *ratio_near(rng, masks)
    for _ in range(30):
        masks = dense_masks(rng, rng.randint(1, 8))
        yield masks, *ratio_near(rng, masks)
    for n in (1, 2, 3, 7, 40, 120, 200):
        for backwards in (False, True):
            masks = zigzag_masks(n, backwards)
            for p, q in ((n + 1, n), (n, n), (n + 2, n), (2, 1)):
                yield masks, p, q


def test_kernel_matches_reference_engine():
    count = 0
    for masks, p, q in kernel_cases():
        assert ratio_cut(masks, p, q) == oracle_ratio_cut(masks, p, q), (masks, p, q)
        count += 1
    assert count >= 1000
