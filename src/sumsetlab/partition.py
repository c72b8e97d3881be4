"""Peeling a layered graph into channels by level-1 magnification.

The peel runs on the graph's reachability masks (`graphs._sweep`), whose
bits it decodes only for a block's claim.  With U the top vertices no block
has claimed yet, a round keeps the level-1 vertices whose top image meets U
(alive); remaining bottom vertices with no level-1 neighbour in alive become
degenerate singleton blocks of ratio 0, in sorted order, so the bottom layer
stays exactly covered.  The block is the maximal tight set Z of the others
under level-1 images cut down to alive, from the Dinkelbach loop of
`magnification`, and it claims the part of U that Z reaches.  Its subgraph,
the channel from Z to that part (a degenerate block's lone vertex), is made
the first time it is read and then kept: `verify_partition` reads every
one, while the bound report reads none.  Blocks share no vertex at any
level, so top-layer images add up block by block.  The alive rule is too
loose: a later ratio can fall below an earlier one, even with a degenerate
block in a sumset graph (suite seed 1, instance 80); `verify_partition`
reports it, and ROADMAP item 1 plans the fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import or_

from .errors import InputError
from .graphs import LayeredGraph, _sweep, channel, image
from .groups import _plain
from .magnification import Ratio, _tight, magnification_flow

__all__ = [
    "PartitionBlock",
    "PartitionResult",
    "PartitionCheck",
    "partition_graph",
    "verify_partition",
    "partition_to_json",
]


@dataclass(frozen=True)
class PartitionBlock:
    """One block of a peel: its bottom vertices, its level-1 ratio, and the
    top vertices of `graph` it claims (none for a degenerate block).

    `subgraph` is the channel from the block's vertices to the top it
    claims, or for a degenerate block its vertices alone; it is made the
    first time it is read, then kept.
    """

    index: int
    vertices: tuple[int, ...]
    ratio: Ratio
    graph: LayeredGraph = field(repr=False)
    top: tuple[int, ...]
    degenerate: bool

    @cached_property
    def subgraph(self) -> LayeredGraph:
        graph = self.graph
        if not self.degenerate:
            return channel(graph, self.vertices, self.top)
        lone = tuple(sorted(set(self.vertices)))
        flat = None
        if graph._flat is not None and lone:
            flat = tuple(chain.from_iterable(map(graph.label_of, lone)))
        return LayeredGraph._trusted(graph.height, (lone,) + ((),) * graph.height, (), flat)


@dataclass(frozen=True)
class PartitionResult:
    graph: LayeredGraph
    blocks: tuple[PartitionBlock, ...]

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def ratios(self) -> tuple[Ratio, ...]:
        return tuple(block.ratio for block in self.blocks)


def partition_to_json(result: PartitionResult) -> dict:
    return {
        "blocks": [list(block.vertices) for block in result.blocks],
        "ratios": _plain(result.ratios),
    }


def partition_graph(graph: LayeredGraph) -> PartitionResult:
    if not graph.layers[0]:
        raise InputError("cannot partition a graph with an empty bottom layer")
    top = graph.layers[graph.height]
    far = _sweep(graph, graph.height)
    near = _sweep(graph, 1)
    middle = graph.layers[1]
    blocks: list[PartitionBlock] = []
    remaining = list(graph.layers[0])
    # A vertex's own mask at its level is its bit in that level's masks.
    unclaimed = sum(map(far.__getitem__, top))
    while remaining:
        # The level-1 vertices a block may still use: those that reach an
        # unclaimed top vertex (ROADMAP item 1 asks for a stricter rule).
        alive = sum(near[w] for w in middle if far[w] & unclaimed)
        live = []
        for x in remaining:
            if near[x] & alive:
                live.append(x)
            else:
                blocks.append(PartitionBlock(len(blocks), (x,), Fraction(0), graph, (), True))
        if not live:
            break
        ratio, idx, _ = _tight([near[x] & alive for x in live])
        tight = tuple(live[k] for k in idx)
        claimed = reduce(or_, (far[x] for x in tight)) & unclaimed
        claim = tuple(graph._decode(graph.height, claimed))
        blocks.append(PartitionBlock(len(blocks), tight, ratio, graph, claim, False))
        unclaimed ^= claimed
        taken = set(tight)
        remaining = [x for x in live if x not in taken]
    return PartitionResult(graph, tuple(blocks))


@dataclass(frozen=True)
class PartitionCheck:
    disjoint_cover: bool
    blocks_tight: bool
    ratios_increasing: bool
    subgraphs_disjoint: bool
    top_accounted: bool

    @property
    def ok(self) -> bool:
        return all(vars(self).values())


def verify_partition(result: PartitionResult) -> PartitionCheck:
    """Re-derive every claimed property of a partition from scratch.

    top_accounted compares the sum of per-block top-layer image sizes with
    |V_h| of the original graph; equality holds for graphs of sumsets, but a
    general graph can fail it (say, with a top vertex no path reaches), and
    `PartitionCheck.ok` requires it as it does the four structural checks.
    """
    graph = result.graph
    blocks = result.blocks
    seen = [v for block in blocks for v in block.vertices]
    disjoint_cover = len(seen) == len(set(seen)) and set(seen) == set(graph.layers[0])
    blocks_tight = True
    top_total = 0
    for block in blocks:
        if block.degenerate:
            if block.ratio != 0 or len(block.vertices) != 1:
                blocks_tight = False
            continue
        first = image(block.subgraph, set(block.vertices), 1)
        if len(first) != block.ratio * len(block.vertices):
            blocks_tight = False
        if magnification_flow(block.subgraph, 1).value != block.ratio:
            blocks_tight = False
        top_total += len(image(block.subgraph, set(block.vertices), graph.height))
    live = [block.ratio for block in blocks if not block.degenerate]
    ratios_increasing = all(x < y for x, y in zip(live, live[1:]))
    # ids are unique inside each subgraph, so a repeat joins two subgraphs
    used = [v for block in blocks for layer in block.subgraph.layers for v in layer]
    subgraphs_disjoint = len(used) == len(set(used))
    top_accounted = top_total == len(graph.layers[graph.height])
    return PartitionCheck(
        disjoint_cover, blocks_tight, ratios_increasing, subgraphs_disjoint, top_accounted
    )
