"""Layered graphs over sumsets: construction, channels, commutativity checks.

A layered graph has vertex layers V_0..V_h and edges only between consecutive
layers.  The addition graph of finite sets A, B places A+iB at layer i with an
edge x -> y exactly when y - x lands in B.  The restricted variant removes
C+(i-1)B from layer i (i >= 1), which models sums that must avoid a forbidden
region; its layers still connect by the same edge rule.

A graph is commutative when two local exchange conditions hold with DISTINCT
witnesses:

  upward:   for every edge (u, v) and out-neighbours w_1..w_k of v there are
            k distinct v_1..v_k with (u, v_i) and (v_i, w_i) edges;
  downward: for every edge (v, w) and in-neighbours u_1..u_k of v there are
            k distinct v_1..v_k with (u_i, v_i) and (v_i, w) edges.

Distinctness makes each condition a matching question per (edge,
neighbourhood) pair, decided on bitmasks: bit k stands for the k-th vertex
of a layer, each target's candidate middles are one mask, and the targets
take distinct bits, greedily lowest-free-bit first, with an augmenting path
search only when no bit is free.  A violation names the first target,
in ascending id order, whose prefix of the target list cannot take
distinct middles.  That target is the same whichever paths the search
takes, since a matching of the earlier targets extends to the next one
exactly when the prefix up to it can be matched.  The single-layer fan
u -> v -> {w1, w2} is therefore an upward violation: both targets compete
for the only middle vertex.

Reachability has one form, the sweep (`_sweep`): for a level j, every
vertex of layers 0..j has its image in layer j as a bitmask, made once per
graph and level.  Images im_i(Z) are ORs of these masks, and the ratios,
the peel and the bounds read the same masks.  In a sum graph built on the
lift, a vertex x of layer i reaches the translate x + (j-i)B, cut to layer
j, so its mask is one shift and one fold of (j-i)B, and its bits are box
positions; in any other graph one top-down pass along the edges makes the
masks, and a bit is a vertex's rank in its layer.  `LayeredGraph._decode`
reads the vertices of a mask back.  A channel between U in layer i and W in
layer j (i < j) is the subgraph of all vertices and edges lying on some
U-to-W path: the vertices reached forward from U whose level-j mask meets
W's bits.  Channels of commutative graphs stay commutative, and they
re-root their layers to 0..j-i while keeping original vertex ids and
labels.

A graph stores its edges once, as a sorted tuple of int keys, one per
edge: (u - lo) * span + (v - lo), with lo the least vertex id and span the
id range, so ascending keys are ascending (u, v) pairs.  The builders,
channels and the checking constructor emit keys; the adjacency, the
commutativity masks and the graph writer read them.  Labels are stored once
too, as flat ints in vertex order, which the builders fill from the sumset
layout's coordinate columns and channels and the writer gather rows from.
A sum graph built on the lift makes both stores only when one is first
read, from its layer ints, so a graph that only its masks are asked of
makes no edge; a channel of it makes its own stores from the positions of
the vertices it keeps.  The pairs (`LayeredGraph.edges`) and the id-to-label
dict (`LayeredGraph.labels`) are views made only when asked for.  The
writer streams a document in chunks of rows: each chunk of edge rows comes
from one slice of the keys, and each chunk of label rows from one slice of
the vertices in decimal key order, so no whole document is ever held.

A graph is validated once.  The `LayeredGraph` constructor, and so every
graph document, checks and normalizes its input.  A document loads in one
pass of those checks over its own fields: each vertex finds its label row
under its decimal id, and a count shows that every key names a vertex.
A document that fails a check is named by that same pass, label keys
first.  Graphs the package builds itself (addition and restricted graphs,
channels, the peel's singleton blocks) come out already normalized, so the
private `LayeredGraph._trusted` takes them as they are.  Every graph
builds its adjacency (the layer of each vertex, its out-neighbours) and
its masks on first use, so writing a graph out builds neither, nor either
view.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import accumulate, chain, count, islice, pairwise, repeat
from math import inf
from operator import add, eq, floordiv, itemgetter, lt, mod, mul, or_, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import GuardError, InputError
from .groups import (
    Coords,
    GSet,
    _Box,
    _Lift,
    _bit_positions,
    _document,
    _fill_rows,
    _int_rows,
    _is_int,
    _layers,
    _layout,
    _read_json,
    _row_template,
    _write_text,
)

__all__ = [
    "LayeredGraph",
    "CommutativityReport",
    "build_addition_graph",
    "build_restricted_graph",
    "channel",
    "channel_of",
    "image",
    "image_masks",
    "subset_rows",
    "check_commutative",
    "graph_to_json",
    "graph_from_json",
    "dump_graph",
    "load_graph",
]

DEFAULT_EDGE_GUARD = 10_000
# Most bottom vertices whose subsets are enumerated (2^22 of them).
SUBSET_GUARD = 22


@dataclass(frozen=True, init=False)
class LayeredGraph:
    """Immutable layered graph; vertex ids are unique across all layers.

    The edges are stored once, as the sorted int keys `_keys` (see the
    module docstring); graphs the package builds number their vertices
    0..|V|-1, so a key is u * |V| + v.  The labels are stored once, as the
    flat ints `_flat`: `_rank` coordinates per vertex, in the order of
    `chain(*layers)`, or None without labels or without vertices.  Equality
    and hashing compare these stores, which pickling keeps.  The views
    `edges`, the (from, to) pairs, and `labels`, each id's coordinate tuple,
    are made on first use.

    The constructor checks and normalizes its input, and `_fill` runs its
    checks on a document's fields too; `_trusted` takes a graph the package
    built itself as it is.  Either way the adjacency (`_layer_of`, `_out`)
    and the sweeps (`_sweeps`) are built on first use.  A sum graph built
    on the lift keeps its layer ints (`_lift`, a `_Lifted`) instead of its
    stores, and `__getattr__` makes each store on its first read.
    Asking for a vertex the graph lacks raises `InputError`.
    """

    height: int
    layers: tuple[tuple[int, ...], ...]
    _keys: tuple[int, ...]
    _flat: tuple[int, ...] | None

    def __init__(
        self, height: int, layers: Iterable, edges: Iterable, labels: Mapping | None = None
    ) -> None:
        self._fill(height, layers, edges, labels, None)

    def _fill(
        self,
        height: int,
        layers: Iterable,
        edges: Iterable,
        labels: Mapping | None,
        name: Callable[[int], object] | None,
    ) -> None:
        # The checks and the normal form of the constructor.  Vertex v's
        # label row is labels[v], or labels[name(v)] when name is given, as
        # `graph_from_json` gives str to read a document's decimal keys.
        if not _is_int(height) or height < 1:
            raise InputError("layered graph height must be >= 1")
        layers = tuple(tuple(sorted(layer)) for layer in layers)
        if len(layers) != height + 1:
            raise InputError(
                f"height {height} needs {height + 1} layers, got {len(layers)}"
            )
        layer_of = {v: idx for idx, layer in enumerate(layers) for v in layer}
        if set(map(type, layer_of)) - {int}:
            raise InputError("vertex ids must be integers")
        if len(layer_of) < sum(map(len, layers)):
            seen: set[int] = set()
            for v in chain.from_iterable(layers):
                if v in seen:
                    raise InputError(f"vertex id {v} appears twice")
                seen.add(v)
        # Whole-list tests first; the per-edge loop only names the culprit.
        rows = list(edges)
        ends = _int_rows(rows) if rows else ()
        levels = list(map(layer_of.get, ends or ()))
        if (
            ends is None
            or set(map(len, rows)) - {2}
            or None in levels
            or list(map(add, levels[::2], repeat(1))) != levels[1::2]
        ):
            for row in rows:
                if type(row) not in (list, tuple) or len(row) != 2 or not all(
                    map(_is_int, row)
                ):
                    raise InputError("'edges' entries must be [from, to] integer pairs")
                u, v = row
                if u not in layer_of or v not in layer_of:
                    raise InputError(f"edge ({u}, {v}) uses unknown vertex ids")
                if layer_of[v] != layer_of[u] + 1:
                    raise InputError(
                        f"edge ({u}, {v}) does not join consecutive layers"
                    )
        # u * span + v is the key plus lo * (span + 1).  Sorted rows (as
        # documents hold them) sort in one pass; only equal neighbours repeat.
        lo, span = _frame(layers)
        keys = list(map(add, map(mul, ends[::2], repeat(span)), ends[1::2]))
        keys.sort()
        if not all(map(lt, keys, islice(keys, 1, None))):
            keys = sorted(set(keys))
        if lo:
            keys = map(sub, keys, repeat(lo * (span + 1)))
        flat = None if labels is None else _label_store(labels, layer_of, name)
        if not layer_of:  # no vertices, so no labels, as its document reads
            flat = None
        self.__dict__.update(
            height=height, layers=layers, _keys=tuple(keys), _flat=flat, _layer_of=layer_of
        )

    @classmethod
    def _trusted(
        cls,
        height: int,
        layers: tuple[tuple[int, ...], ...],
        keys: tuple[int, ...],
        flat: tuple[int, ...] | None,
    ) -> "LayeredGraph":
        # For graphs the package builds itself, already in the constructor's
        # normal form: each layer a sorted tuple of distinct ids, keys the
        # sorted distinct keys (over these layers' lo and span) of edges
        # joining consecutive layers, flat the labels of exactly the
        # vertices, in vertex order, distinct inside each layer, or None if
        # there are no vertices.  Skips the checks.
        graph = object.__new__(cls)
        graph.__dict__.update(height=height, layers=layers, _keys=keys, _flat=flat)
        return graph

    def __getattr__(self, name: str) -> tuple[int, ...]:
        # Only a lifted sum graph lacks a store; it makes it on first read.
        lift = self.__dict__.get("_lift")
        if lift is None or name not in ("_keys", "_flat"):
            raise AttributeError(name)
        positions = list(map(lift.positions, range(len(self.layers))))
        if name == "_keys":
            value = _sum_keys(lift.layout, positions, self.layers, lift.cut)
        else:
            value = _sum_labels(lift.layout, positions, 0)
        self.__dict__[name] = value
        return value

    def __reduce__(self) -> tuple:
        # A copy holds the stores alone, as a graph loaded from them would.
        return LayeredGraph._trusted, (self.height, self.layers, self._keys, self._flat)

    def _ends(self, start: int = 0, stop: int | None = None) -> tuple[list[int], list[int]]:
        # The tails and the heads of the edges start..stop-1, in key order.
        lo, span = _frame(self.layers)
        keys = self._keys[start:stop]
        tails = map(floordiv, keys, repeat(span))
        heads = map(mod, keys, repeat(span))
        if lo:
            tails, heads = map(add, tails, repeat(lo)), map(add, heads, repeat(lo))
        return list(tails), list(heads)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self._ends()))

    @cached_property
    def labels(self) -> dict[int, Coords] | None:
        if self._flat is None:
            return None
        rows = zip(*[iter(self._flat)] * self._rank) if self._rank else repeat(())
        return dict(zip(chain.from_iterable(self.layers), rows))

    @property
    def _rank(self) -> int:
        # The label length; 0 without labels or vertices.
        return len(self._flat) // self.vertex_count if self._flat else 0

    @cached_property
    def _index(self) -> dict[int, int]:
        # Each vertex id to its row in the label store.
        return dict(zip(chain.from_iterable(self.layers), count()))

    @cached_property
    def _layer_of(self) -> dict[int, int]:
        return {v: idx for idx, layer in enumerate(self.layers) for v in layer}

    @cached_property
    def _out(self) -> dict[int, tuple[int, ...]]:
        # Ascending keys give each vertex its out-neighbours ascending.
        adj: dict[int, list[int]] = {v: [] for v in self._layer_of}
        for v, w in zip(*self._ends()):
            adj[v].append(w)
        return {v: tuple(ns) for v, ns in adj.items()}

    @cached_property
    def _sweeps(self) -> dict[int, dict[int, int]]:
        # level -> the `_sweep` masks of that level, each made on first use
        return {}

    def _decode(self, level: int, mask: int) -> tuple[int, ...]:
        """The vertices of layer `level` at the set bits of `mask`, a mask of
        that level (see `_sweep`), ascending: a bit is a box position less
        the layer's least in a lifted sum graph, else a rank."""
        bits = _bit_positions(mask)
        lift = self.__dict__.get("_lift")
        if lift is not None:
            lo = lift.lows[level]
            spots = map(add, bits, repeat(lo)) if lo else bits
            bits = map(bisect_left, repeat(lift.positions(level)), spots)
        return tuple(map(self.layers[level].__getitem__, bits))

    # -- structure queries --------------------------------------------------

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._out[v]
        except KeyError:
            raise _not_a_vertex(v) from None

    def layer_of(self, v: int) -> int:
        try:
            return self._layer_of[v]
        except KeyError:
            raise _not_a_vertex(v) from None

    @property
    def vertex_count(self) -> int:
        return sum(map(len, self.layers))

    @property
    def edge_count(self) -> int:
        return len(self._keys)

    @property
    def is_empty(self) -> bool:
        return self.vertex_count == 0

    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    def label_of(self, v: int) -> Coords:
        if self._flat is None:
            raise InputError("graph carries no labels")
        rank = self._rank
        try:
            start = self._index[v] * rank
        except KeyError:
            raise _not_a_vertex(v) from None
        return self._flat[start : start + rank]


def _not_a_vertex(v: object) -> InputError:
    return InputError(f"vertex id {v!r} is not in the graph")


def _label_store(
    labels: Mapping, layer_of: dict[int, int], name: Callable[[int], object] | None
) -> tuple[int, ...]:
    # The labels of the vertices of layer_of, in its order, as flat ints,
    # checked; v's row is labels[v], or labels[name(v)] when name is given.
    # Whole-list tests first; the loops only name the culprit.  Each vertex
    # finds its own row, so with as many rows as vertices every key names one.
    rows = list(map(labels.get, map(name, layer_of) if name else layer_of))
    flat = _int_rows(rows) if rows else ()
    if flat is None or len(labels) > len(rows) or len(set(map(len, rows))) > 1:
        for row in labels.values():
            if type(row) not in (list, tuple) or not all(map(_is_int, row)):
                raise InputError("'labels' values must be integer coordinate lists")
        ranks = sorted(set(map(len, labels.values())))
        if len(ranks) > 1:
            raise InputError(
                f"'labels' coordinate lists differ in length: {ranks[0]} and {ranks[-1]}"
            )
        missing = [v for v, row in zip(layer_of, rows) if row is None]
        if missing:
            raise InputError(f"labels missing for vertex ids {missing[:5]}")
        flat = tuple(chain.from_iterable(rows))
    # One (layer, coordinates...) tuple per vertex: a repeat is a label
    # used twice inside one layer.
    levels = layer_of.values()
    rank = len(rows[0]) if rows else 0
    if len(set(zip(levels, *[iter(flat)] * rank))) < len(rows):
        seen: set[tuple[int, Coords]] = set()
        for level, row in zip(levels, map(tuple, rows)):
            if (level, row) in seen:
                raise InputError(f"duplicate label {row} inside one layer")
            seen.add((level, row))
    if len(labels) > len(rows):
        known = set(map(name, layer_of)) if name else layer_of
        key = next(k for k in labels if k not in known)
        raise InputError(f"label key '{key}' names no vertex")
    return flat


def _label_rows(graph: LayeredGraph, picks: Sequence[int], *lead: Iterable[int]) -> list[int]:
    # The rows of the label store at the vertex indices `picks`, in that
    # order, as flat ints; each row starts with the next int of each `lead`.
    # Only the picked rows are read, so the cost follows len(picks): row k
    # starts at flat[k * rank].
    flat, rank = graph._flat, graph._rank
    width = len(lead) + rank
    rows = [0] * (len(picks) * width)
    for j, column in enumerate(lead):
        rows[j::width] = column
    starts = list(map(mul, picks, repeat(rank))) if rank > 1 else picks
    for j in range(rank):
        at = map(add, starts, repeat(j)) if j else starts
        rows[len(lead) + j :: width] = map(flat.__getitem__, at)
    return rows


def _frame(layers: Sequence[Sequence[int]]) -> tuple[int, int]:
    # (lo, span) of the keys over these sorted layers: least id, id range.
    ends = [v for layer in layers if layer for v in (layer[0], layer[-1])] or [0]
    return min(ends), max(ends) - min(ends) + 1


def _sweep(graph: LayeredGraph, level: int) -> dict[int, int]:
    """Each vertex of layers 0..level to its image in the level layer as a
    bitmask, made once per graph and level and kept.

    The bits are the graph's own.  In a sum graph built on the lift a
    vertex's bit is its box position less the least position of the level
    layer, and a layer's masks come from translates (`_Lifted.masks`) when
    one of its vertices is first read.  In any other graph bit k is the
    layer's k-th vertex, and one top-down sweep along the edges makes every
    mask.  Either way ascending bits are ascending ids, and
    `LayeredGraph._decode` reads a mask's vertices back."""
    if not _is_int(level) or not 0 <= level <= graph.height:
        raise InputError(f"step count {level!r} outside 0..{graph.height}")
    sweeps = graph._sweeps
    if level not in sweeps:
        lift = graph.__dict__.get("_lift")
        if lift is not None:
            sweeps[level] = _LevelMasks(lift, level)
            return sweeps[level]
        out = graph._out
        masks = {v: 1 << k for k, v in enumerate(graph.layers[level])}
        for lvl in range(level - 1, -1, -1):
            for v in graph.layers[lvl]:
                acc = 0
                for w in out[v]:
                    acc |= masks[w]
                masks[v] = acc
        sweeps[level] = masks
    return sweeps[level]


def image(graph: LayeredGraph, zset: Iterable[int], steps: int) -> frozenset:
    """Vertices reachable from Z in exactly `steps` edge traversals.

    Z must sit inside the bottom layer; steps ranges over 0..height.
    """
    z = set(zset)
    bottom = set(graph.layers[0])
    if not z <= bottom:
        raise InputError("image source must be a subset of the bottom layer")
    reached = reduce(or_, map(_sweep(graph, steps).__getitem__, z), 0)
    return frozenset(graph._decode(steps, reached))


def image_masks(graph: LayeredGraph, level: int) -> list[int]:
    """The `_sweep` masks of the bottom layer, in layer order; level ranges
    over 0..height.  A mask's bits are the graph's own (see `_sweep`), so
    equal graphs may use different bits; `graph._decode(level, mask)`
    gives a mask's vertices."""
    masks = _sweep(graph, level)
    if isinstance(masks, _LevelMasks):
        return list(masks.row(0))
    return list(map(masks.__getitem__, graph.layers[0]))


# A row of `subset_rows` holds at most 2^_ROW_BITS images.
_ROW_BITS = 12


def subset_rows(masks: Sequence[int]) -> Iterator[tuple[int, list[int]]]:
    """Yield (base, row) with row[i] the image of the subset base | i of
    range(len(masks)): the OR of masks[k] over its bits k.

    Subsets are bitmasks.  The rows cover every non-empty subset once, in
    ascending order; a row's length is a power of two that divides its
    base, so base's bit count plus i's is the subset's size (see
    `_row_sizes`).  The first rows double one table of the first
    `_ROW_BITS` masks' images, a mask at a time, so every subset of the
    masks before k comes before mask k is read; each later row ORs one
    image of the remaining masks into that whole table.  Each image costs
    one OR.
    """
    width = min(len(masks), _ROW_BITS)
    table = [0]
    for k, mask in enumerate(masks[:width]):
        row = [acc | mask for acc in table]
        yield 1 << k, row
        table += row
    highs = [0]
    for mask in masks[width:]:
        highs += [acc | mask for acc in highs]
    for high in range(1, len(highs)):
        image = highs[high]
        yield high << width, [acc | image for acc in table]


@cache
def _row_sizes(length: int) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """For the rows of `length` images, a power of two: each index's bit
    count, and per bit count the ascending indices with it and a getter
    that reads those entries of a row as one sequence."""
    sizes = tuple(map(int.bit_count, range(length)))
    groups: list[list[int]] = [[] for _ in range(length.bit_length())]
    for i, size in enumerate(sizes):
        groups[size].append(i)
    # A lone index makes itemgetter return its entry, so it reads a slice.
    getters = [
        itemgetter(*idx) if len(idx) > 1 else itemgetter(slice(idx[0], idx[0] + 1))
        for idx in groups
    ]
    return sizes, tuple(zip(map(tuple, groups), getters))


# -- constructions -----------------------------------------------------------


class _Lifted:
    """A sum graph's layers on the lift: layer i is the layout's int
    grown[i], and its vertices take the ids starts[i]..starts[i+1]-1 in
    ascending position order.  Masks, edge keys and labels are made from
    these ints when first asked for.

    In the masks of level k, a vertex's bit is its position less lows[k],
    the least position of layer k, so masks are no wider than the layer's
    span.  A vertex x of layer i reaches the translate x + (k-i)B, cut to
    layer k (with C non-empty, a path through a removed vertex ends in a
    removed vertex, so no other vertex of the translate is lost): its mask
    is (k-i)B, folded once from bit 0, shifted to x's position and folded,
    one `translates` row per layer.
    """

    def __init__(self, layout: _Lift, grown: list[int], starts: list[int], cut: bool) -> None:
        self.layout, self.grown, self.starts, self.cut = layout, grown, starts, cut
        self.lows = [(x & -x).bit_length() - 1 if x else 0 for x in grown]
        self.spots: dict[int, list[int]] = {}  # level -> its positions, ascending
        self.reaches = [1]  # jB folded from bit 0, j = 0, 1, ...

    def positions(self, level: int, ids: Sequence[int] | None = None) -> list[int]:
        # The positions of the vertices `ids` (all by default) of a layer.
        if level not in self.spots:
            self.spots[level] = _bit_positions(self.grown[level])
        spots = self.spots[level]
        if ids is None or len(ids) == len(spots):
            return spots
        return list(map(spots.__getitem__, map(sub, ids, repeat(self.starts[level]))))

    def masks(self, level: int, lvl: int) -> list[int]:
        # The level masks of the vertices of layer lvl <= level, in order.
        spots, lo = self.positions(lvl), self.lows[level]
        if lvl == level:
            return [1 << p - lo for p in spots]
        layout, reaches = self.layout, self.reaches
        while len(reaches) <= level - lvl:
            reaches.append(layout.step(reaches[-1], layout.shifts, inf))
        row = layout.translates(reaches[level - lvl], spots)
        if self.cut:
            keep = self.grown[level] >> lo
            return [x >> lo & keep for x in row]
        return [x >> lo for x in row] if lo else row


class _LevelMasks(dict):
    """The `_sweep` of one level of a lifted sum graph.  `row` makes the
    masks of one layer's vertices, in layer order, once; reading a vertex
    that is not in yet puts in its whole layer's row."""

    def __init__(self, lift: _Lifted, level: int) -> None:
        self.lift, self.level = lift, level
        self.rows: dict[int, list[int]] = {}

    def row(self, lvl: int) -> list[int]:
        if lvl not in self.rows:
            self.rows[lvl] = self.lift.masks(self.level, lvl)
        return self.rows[lvl]

    def __missing__(self, v: int) -> int:
        starts = self.lift.starts
        lvl = bisect_right(starts, v) - 1
        if not 0 <= lvl <= self.level or v not in range(starts[lvl], starts[lvl + 1]):
            raise KeyError(v)
        self.update(zip(range(starts[lvl], starts[lvl + 1]), self.row(lvl)))
        return self[v]


def _sum_graph(
    a: GSet, b: GSet, forbidden: Sequence[Coords], h: int, max_size: int | None
) -> LayeredGraph:
    # Layers A and (A+iB) \ (C+(i-1)B) for i = 1..h, C = forbidden, with an
    # edge x -> x+b wherever both ends are kept.  C's fold starts one level
    # up, so C+(i-1)B shares the layout of A+iB.  Ids run layer by layer, in
    # sorted label order inside a layer, as the layout yields each layer.
    # As A+(i+1)B = (A+iB)+B, with C empty every sum is a vertex one layer
    # up, so C is folded only when it is non-empty.  On the lift the graph
    # keeps its layer ints, and its stores wait for their first read; the
    # set container's layers go at once, into the stores.
    starts = ((a.elements, 0), (forbidden, 1)) if forbidden else ((a.elements, 0),)
    layout = _layout(a.space, b.elements, h, starts, h + 1)
    grown = _layers(layout, a.elements, 0, h, max_size)
    if forbidden:
        cuts = _layers(layout, forbidden, 1, h - 1, max_size)
        grown = map(layout.minus, grown, chain([layout.encode((), 0)], cuts))
    if isinstance(layout, _Lift):
        grown = list(grown)
        sizes = list(map(int.bit_count, grown))
    else:
        positions = list(map(layout.ascending, grown))
        sizes = list(map(len, positions))
    starts = list(accumulate(sizes, initial=0))
    layers = tuple(map(tuple, map(range, starts, starts[1:])))
    if isinstance(layout, _Lift):
        graph = object.__new__(LayeredGraph)
        lift = _Lifted(layout, grown, starts, bool(forbidden))
        graph.__dict__.update(height=h, layers=layers, _lift=lift)
        return graph
    keys = _sum_keys(layout, positions, layers, bool(forbidden))
    return LayeredGraph._trusted(h, layers, keys, _sum_labels(layout, positions, 0))


def _sum_keys(
    layout: _Box, positions: Sequence[list[int]], layers: Sequence[Sequence[int]], cut: bool
) -> tuple[int, ...]:
    # The edge keys of the sum graph whose layer i holds the points at
    # positions[i], with the ids layers[i] in the same order.  Sums come
    # folded, onto the positions the next layer's ids are keyed by.  The
    # edges x -> x+b out of a layer have keys (u - lo) * span + v - lo for
    # its ids u, one run per b; one sort merges the runs.  Only a cut (a
    # subset of the sums) drops sums from the next layer; such a sum's
    # v - lo is -span * span, so its key is negative.
    lo, span = _frame(layers)
    miss = -span * span
    keys: list[int] = []
    for (here, above), (ids, up) in zip(pairwise(positions), pairwise(layers)):
        found = dict(zip(above, map(sub, up, repeat(lo)) if lo else up))
        bases = list(map(mul, map(sub, ids, repeat(lo)) if lo else ids, repeat(span)))
        for targets in layout.sums(here):
            if cut:
                run = map(add, bases, map(found.get, targets, repeat(miss)))
                keys.extend(filter((0).__le__, run))
            else:
                keys.extend(map(add, bases, map(found.__getitem__, targets)))
    keys.sort()
    return tuple(keys)


def _sum_labels(layout: _Box, positions: Iterable[list[int]], first: int) -> tuple[int, ...]:
    # The label store of the points at positions[i] of level first + i,
    # from the layout's coordinate columns.
    rank = len(layout.widths)
    flat: list[int] = []
    for level, here in enumerate(positions, first):
        rows = [0] * (len(here) * rank)
        for j, column in enumerate(layout.columns(here, level)):
            rows[j::rank] = column
        flat += rows
    return tuple(flat)


def build_addition_graph(
    a: GSet, b: GSet, h: int, max_size: int | None = None
) -> LayeredGraph:
    """Layered graph with V_i = A+iB and edges x -> x+b."""
    if not _is_int(h) or h < 1:
        raise InputError(f"graph height must be an integer >= 1, got {h!r}")
    if a.space != b.space:
        raise InputError("A and B must share a space")
    if a.is_empty or b.is_empty:
        raise InputError("addition graph needs non-empty A and B")
    return _sum_graph(a, b, (), h, max_size)


def build_restricted_graph(
    a: GSet, b: GSet, c: GSet, h: int, max_size: int | None = None
) -> LayeredGraph:
    """Layers V_0 = A and V_i = (A+iB) \\ (C+(i-1)B); same edge rule as above.

    C may be empty, in which case the result coincides with the addition
    graph.  Vertices that lose all their outgoing sums to the forbidden
    region simply have no out-edges; every vertex kept in layer i >= 1 still
    has an in-edge, because a fully orphaned sum would itself lie in the
    forbidden region one level up.
    """
    if not _is_int(h) or h < 1:
        raise InputError(f"graph height must be an integer >= 1, got {h!r}")
    if a.space != b.space or a.space != c.space:
        raise InputError("A, B and C must share a space")
    if a.is_empty or b.is_empty:
        raise InputError("restricted graph needs non-empty A and B")
    return _sum_graph(a, b, c.elements, h, max_size)


def channel(graph: LayeredGraph, u_set: Iterable[int], w_set: Iterable[int]) -> LayeredGraph:
    """Subgraph of all paths from U (one layer) to W (a strictly higher layer).

    With W in layer j, one forward walk from U keeps each vertex whose
    level-j sweep mask meets W's bits, so it reads the graph's kept sweep
    and needs no backward walk.  On a sum graph built on the lift the walk
    steps by the masks one level up, and the edges and labels come from the
    kept vertices' positions, so the graph makes neither store.  The result
    re-roots layers to 0..j-i, keeps original vertex ids and labels, and is
    flagged empty (no vertices at all) when no path exists.
    """
    u = sorted(set(u_set))
    w = sorted(set(w_set))
    if not u or not w:
        raise InputError("channel endpoints must be non-empty")
    i, j = graph.layer_of(u[0]), graph.layer_of(w[0])
    if set(map(graph.layer_of, u)) != {i}:
        raise InputError("channel source vertices must share one layer")
    if set(map(graph.layer_of, w)) != {j}:
        raise InputError("channel target vertices must share one layer")
    if not i < j:
        raise InputError(f"channel needs source layer below target layer ({i} >= {j})")
    masks = _sweep(graph, j)
    target = reduce(or_, map(masks.__getitem__, w))
    layers = [tuple(v for v in u if masks[v] & target)]
    lift = graph.__dict__.get("_lift")
    if lift is not None:
        # A layer is the image of the one below, where it meets W's masks;
        # the edges and labels come from the kept vertices' positions.
        for level in range(i + 1, j + 1):
            near = _sweep(graph, level)
            reach = reduce(or_, map(near.__getitem__, layers[-1]), 0)
            layers.append(tuple(t for t in graph._decode(level, reach) if masks[t] & target))
        positions = list(map(lift.positions, count(i), layers))
        keys = _sum_keys(lift.layout, positions, layers, True)
        flat = _sum_labels(lift.layout, positions, i) if layers[0] else None
        return LayeredGraph._trusted(j - i, tuple(layers), keys, flat)
    out = graph._out
    for _ in range(j - i):
        step = {t for v in layers[-1] for t in out[v] if masks[t] & target}
        layers.append(tuple(sorted(step)))
    lo, span = _frame(layers)
    keys = sorted(
        (v - lo) * span + t - lo
        for layer in layers[:-1] for v in layer for t in out[v] if masks[t] & target
    )
    flat = None
    if graph._flat is not None and layers[0]:
        picks = list(map(graph._index.__getitem__, chain.from_iterable(layers)))
        flat = tuple(_label_rows(graph, picks))
    return LayeredGraph._trusted(j - i, tuple(layers), tuple(keys), flat)


def channel_of(graph: LayeredGraph, zset: Iterable[int]) -> LayeredGraph:
    """Channel from Z in the bottom layer to the whole top layer."""
    top = graph.layers[-1]
    if not top:
        raise InputError("channel target layer is empty")
    return channel(graph, zset, top)


# -- commutativity ------------------------------------------------------------


@dataclass(frozen=True)
class CommutativityReport:
    upward_ok: bool
    downward_ok: bool
    violations: tuple[tuple[tuple[int, int, int], str], ...]

    @property
    def is_commutative(self) -> bool:
        return self.upward_ok and self.downward_ok


def _first_unmatched(cands: Sequence[int]) -> int | None:
    """Index of the first mask in cands that cannot take a bit distinct from
    the bits taken by the masks before it, or None if all can.

    Each mask takes its lowest free bit; when none is free, one augmenting
    path search shifts earlier masks to other bits.  It walks an explicit
    stack, since alternating paths can be as long as the mask list.  The
    index it returns is the first j for which masks 0..j have no distinct
    bits, so it does not depend on which paths the search takes.
    """
    owner: dict[int, int] = {}  # bit -> index of the mask holding it
    used = 0
    for j, mask in enumerate(cands):
        free = mask & ~used
        if free:
            bit = free & -free
            owner[bit] = j
            used |= bit
            continue
        seen = 0
        stack = [j]
        via: list[int] = []  # via[k] leads from stack[k] to stack[k + 1]
        while stack:
            open_bits = cands[stack[-1]] & ~seen
            if not open_bits:
                stack.pop()
                if via:
                    via.pop()
                continue
            bit = open_bits & -open_bits
            seen |= bit
            if bit & used:
                via.append(bit)
                stack.append(owner[bit])
                continue
            used |= bit
            owner[bit] = stack[-1]
            for k, taken in zip(stack, via):
                owner[taken] = k
            break
        else:
            return j
    return None


def _exchange_failures(
    xs: Sequence[int], ys: Sequence[int], mids: Mapping[int, int], masks: Mapping[int, int]
) -> Iterator[tuple[int, int, int]]:
    """(x, y, j) for each pair (xs[k], ys[k]) whose targets, cut down to the
    middle mask mids[x], cannot take distinct bits; j indexes the target
    left unmatched.  The targets of y are the masks[z] over the pairs
    (y, z), in pair order, so sorted pairs list them ascending.  A greedy
    lowest-free-bit pass settles most pairs.  Upward reads the edges (u, v)
    with out-masks as mids and in-masks as targets; downward reads (w, v)
    for each edge (v, w), roles swapped."""
    rows: dict[int, list[int]] = {v: [] for v in masks}
    for x, y in zip(xs, ys):
        rows[x].append(masks[y])
    for x, y in zip(xs, ys):
        row = rows[y]
        avail = mids[x]
        for mask in row:
            free = mask & avail
            if not free:
                break
            avail ^= free & -free
        else:
            continue
        mid = mids[x]
        j = _first_unmatched([mask & mid for mask in row])
        if j is not None:
            yield x, y, j


def _nth_bit_vertex(layer: Sequence[int], mask: int, n: int) -> int:
    # The vertex of layer at the n-th set bit of mask, counting from 0.
    for _ in range(n):
        mask &= mask - 1
    return layer[(mask & -mask).bit_length() - 1]


def check_commutative(
    graph: LayeredGraph, max_edges: int = DEFAULT_EDGE_GUARD
) -> CommutativityReport:
    """Check both exchange conditions, requiring distinct middle vertices.

    Scans edges in sorted order, so the violation list is deterministic.
    Graphs above the edge cap are refused; pass a larger max_edges to force.
    """
    if graph.edge_count > max_edges:
        raise GuardError(
            f"commutativity edge guard: {graph.edge_count} edges exceed cap {max_edges}"
        )
    # Each vertex's out- and in-neighbours as a bitmask over their layer: bit
    # k stands for the layer's k-th vertex, so ascending bits are ascending
    # ids.  Edges are read in key order, as (u, v) upward and (v, u) downward.
    layers, layer_of = graph.layers, graph.layer_of
    bit = {v: 1 << k for layer in layers for k, v in enumerate(layer)}
    out_mask = dict.fromkeys(bit, 0)
    in_mask = dict.fromkeys(bit, 0)
    tails, heads = graph._ends()
    for u, v in zip(tails, heads):
        out_mask[u] |= bit[v]
        in_mask[v] |= bit[u]
    upward = [
        ((u, v, _nth_bit_vertex(layers[layer_of(v) + 1], out_mask[v], j)), "upward")
        for u, v, j in _exchange_failures(tails, heads, out_mask, in_mask)
    ]
    downward = [
        ((_nth_bit_vertex(layers[layer_of(v) - 1], in_mask[v], j), v, w), "downward")
        for w, v, j in _exchange_failures(heads, tails, in_mask, out_mask)
    ]
    return CommutativityReport(not upward, not downward, tuple(upward + downward))


# -- JSON interchange ---------------------------------------------------------
#
# {"height": h, "layers": [[id, ...], ...], "labels": {"id": [c, ...], ...},
#  "edges": [[from, to], ...]}


def graph_to_json(graph: LayeredGraph) -> dict:
    labels = graph.labels or {}
    ids = sorted(labels)
    return {
        "height": graph.height,
        "layers": list(map(list, graph.layers)),
        "labels": dict(zip(map(str, ids), map(list, map(labels.__getitem__, ids)))),
        "edges": list(map(list, zip(*graph._ends()))),
    }


def _graph_pieces(graph: LayeredGraph) -> Iterator[str]:
    # `graph_to_json(graph)` as `_write_json` writes it, keys sorted, in
    # pieces of at most one chunk of rows: the edge rows filled from the
    # ends of a slice of the keys, the "labels" object, one `"%d": [...]`
    # row per vertex in `sort_keys` order of the decimal keys, from the
    # label store, and one row per layer ("[]" if empty) from its ids.
    def edge_ends(start: int, stop: int) -> list[int]:
        tails, heads = graph._ends(start, stop)
        ends = tails * 2
        ends[1::2] = heads
        ends[::2] = tails
        return ends

    def label_rows(start: int, stop: int) -> list[int]:
        picks = order[start:stop]
        return _label_rows(graph, picks, map(ids.__getitem__, picks))

    yield '{\n  "edges": '
    yield from _fill_rows(_row_template(2, "    "), graph.edge_count, edge_ends, "  ")
    yield f',\n  "height": {graph.height},\n  "labels": '
    ids = list(chain.from_iterable(graph.layers)) if graph._flat is not None else []
    # The vertices' rows in the label store, in decimal key order.  Where
    # the ids are the rows, as the package's own graphs number them, the
    # order holds the ids themselves, so it makes no int of its own.
    rows = ids if all(map(eq, ids, count())) else range(len(ids))
    order = sorted(rows, key=list(map(str, ids)).__getitem__)
    rank = graph._rank
    row = '"%d": ' + (_row_template(rank, "    ") if rank else "[]")
    yield from _fill_rows(row, len(ids), label_rows, "  ", "{}")
    yield ',\n  "layers": '
    layers = graph.layers
    yield from _fill_rows(
        [_row_template(len(layer), "    ") if layer else "[]" for layer in layers],
        len(layers),
        lambda start, stop: tuple(chain.from_iterable(layers[start:stop])),
        "  ",
    )
    yield "\n}\n"


def _vertex_key(key: object) -> bool:
    # A label key is a vertex id in canonical decimal: "7" or "-3", never
    # "07", "+7", " 7" or "0_7", which `int` would read as another key's id.
    try:
        return type(key) is str and str(int(key)) == key
    except ValueError:
        return False


def graph_from_json(obj: object) -> LayeredGraph:
    """The graph of a JSON document; every field is checked once.

    Each list is first tested whole; only when that test fails does a loop
    over its entries find the one to name in the error.  The constructor's
    checks then run on the document's own fields, each vertex reading its
    label row under its decimal id.  If any check fails, a label key that is
    not a vertex id in canonical decimal is named first; otherwise the failed
    check's own error is raised.  With canonical keys, labels[str(v)] is the
    row the constructor reads at labels[v], so an error names the same
    culprit as the constructor would on int keys.  Duplicate edges are
    merged.
    """
    height, layers, edges = _document(obj, "graph", ("height", "layers", "edges"))
    if not _is_int(height) or height < 1:
        raise InputError("'height' must be an integer >= 1")
    if not isinstance(layers, list):
        raise InputError("'layers' must be a list of id lists")
    if layers and _int_rows(layers) is None:
        for layer in layers:
            if not isinstance(layer, list) or not all(map(_is_int, layer)):
                raise InputError("'layers' entries must be lists of integer ids")
    if not isinstance(edges, list):
        raise InputError("'edges' must be a list of [from, to] pairs")
    labels = {} if obj.get("labels") is None else obj["labels"]
    if not isinstance(labels, dict):
        raise InputError("'labels' must be an object keyed by vertex id")
    graph = object.__new__(LayeredGraph)
    try:
        graph._fill(height, layers, edges, labels or None, str)
    except Exception as exc:  # a bad label key first, then the failed check
        for key in labels:
            if not _vertex_key(key):
                raise InputError(f"label key {key!r} is not a vertex id") from None
        if isinstance(exc, InputError):
            raise
        raise InputError(f"inconsistent graph document: {exc}") from exc
    return graph


def dump_graph(graph: LayeredGraph, path: str | None) -> None:
    """Write graph_to_json(graph) to path, or to stdout if path is None."""
    _write_text(_graph_pieces(graph), path)


def load_graph(path: str) -> LayeredGraph:
    return graph_from_json(_read_json(path, "graph"))
