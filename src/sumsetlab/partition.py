"""Peeling a layered graph into channels with increasing magnification.

Repeatedly take the maximal tight set Z at level 1 of the working graph,
record the channel it spans to the top layer, then restart on the rest of
the bottom layer with the already-claimed top vertices removed.  Each block
is tight for its own subgraph (|image(Z, 1)| = alpha |Z| exactly), the
ratios strictly increase, and distinct blocks share no vertices at any
level, so top-layer images can be summed block by block.

A bottom vertex whose image becomes empty after earlier blocks claimed the
whole top layer cannot seed a channel; such vertices are emitted as
degenerate singleton blocks with ratio 0 so the bottom layer is still
exactly covered.  Graphs built from sumsets never produce degenerate
blocks; general layered graphs may.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .graphs import LayeredGraph, channel, image
from .magnification import Ratio, magnification_flow

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
    index: int
    vertices: tuple[int, ...]
    ratio: Ratio
    subgraph: LayeredGraph
    degenerate: bool


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
        "ratios": [
            [block.ratio.numerator, block.ratio.denominator]
            for block in result.blocks
        ],
    }


def _singleton_block(
    graph: LayeredGraph, index: int, vertex: int
) -> PartitionBlock:
    lone = LayeredGraph(
        height=graph.height,
        layers=((vertex,),) + ((),) * graph.height,
        edges=(),
        labels=None if graph.labels is None else {vertex: graph.labels[vertex]},
    )
    return PartitionBlock(index, (vertex,), Fraction(0), lone, True)


def partition_graph(graph: LayeredGraph) -> PartitionResult:
    if not graph.layers[0]:
        raise InputError("cannot partition a graph with an empty bottom layer")
    blocks: list[PartitionBlock] = []
    remaining = set(graph.layers[0])
    top_left = set(graph.layers[graph.height])
    while remaining:
        # Channelling against the unclaimed top vertices silently drops the
        # bottom vertices with no remaining path; those become degenerate
        # singleton blocks.  Rebuilding from the original graph each round is
        # equivalent to channelling the previous working graph, because every
        # path between surviving endpoints survives whole inside a channel.
        if top_left:
            sub = channel(graph, remaining, top_left)
            live = set(sub.layers[0])
        else:
            live = set()
        for v in sorted(remaining - live):
            blocks.append(_singleton_block(graph, len(blocks), v))
        remaining &= live
        if not remaining:
            break
        # Every vertex of sub reaches its top, so the channel keeps the level-1
        # images of the subsets of tight, and with them the ratio.
        flow = magnification_flow(sub, 1)
        tight = flow.maximal_tight_set
        block_graph = channel(sub, set(tight), set(sub.layers[sub.height]))
        blocks.append(
            PartitionBlock(len(blocks), tight, flow.value, block_graph, False)
        )
        remaining -= set(tight)
        top_left -= set(block_graph.layers[block_graph.height])
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
        return (
            self.disjoint_cover
            and self.blocks_tight
            and self.ratios_increasing
            and self.subgraphs_disjoint
            and self.top_accounted
        )


def verify_partition(result: PartitionResult) -> PartitionCheck:
    """Re-derive every claimed property of a partition from scratch.

    top_accounted compares the sum of per-block top-layer image sizes with
    |V_h| of the original graph; equality holds for graphs of sumsets and
    is reported, not required, for general graphs (the other four checks
    are structural and must hold always).
    """
    graph = result.graph
    blocks = result.blocks
    seen: list[int] = []
    for block in blocks:
        seen.extend(block.vertices)
    disjoint_cover = len(seen) == len(set(seen)) and set(seen) == set(
        graph.layers[0]
    )
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
    used: set[int] = set()
    subgraphs_disjoint = True
    for block in blocks:
        verts = {
            v for layer in block.subgraph.layers for v in layer
        }
        if used & verts:
            subgraphs_disjoint = False
        used |= verts
    top_accounted = top_total == len(graph.layers[graph.height])
    return PartitionCheck(
        disjoint_cover,
        blocks_tight,
        ratios_increasing,
        subgraphs_disjoint,
        top_accounted,
    )
