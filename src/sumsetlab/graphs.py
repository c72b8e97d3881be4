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

Distinctness makes each condition a system-of-distinct-representatives
question, decided here by bipartite matching per (edge, neighbourhood) pair.
The single-layer fan u -> v -> {w1, w2} is therefore an upward violation:
both targets compete for the only middle vertex.

A channel between U in layer i and W in layer j (i < j) is the subgraph of
all vertices and edges lying on some U-to-W path; channels of commutative
graphs stay commutative, and they re-root their layers to 0..j-i while
keeping original vertex ids and labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import is_not
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import GuardError, InputError
from .groups import (
    Coords,
    GSet,
    _document,
    _is_int,
    _layers,
    _layout,
    _read_json,
    _write_json,
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
    "subset_images",
    "check_commutative",
    "graph_to_json",
    "graph_from_json",
    "dump_graph",
    "load_graph",
]

DEFAULT_EDGE_GUARD = 10_000


@dataclass(frozen=True, eq=True)
class LayeredGraph:
    """Immutable layered graph; vertex ids are unique across all layers."""

    height: int
    layers: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    labels: dict[int, Coords] | None = None
    _out: dict = field(init=False, repr=False, compare=False, hash=False)
    _in: dict = field(init=False, repr=False, compare=False, hash=False)
    _layer_of: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.height < 1:
            raise InputError("layered graph height must be >= 1")
        layers = tuple(tuple(sorted(layer)) for layer in self.layers)
        if len(layers) != self.height + 1:
            raise InputError(
                f"height {self.height} needs {self.height + 1} layers, got {len(layers)}"
            )
        object.__setattr__(self, "layers", layers)
        layer_of: dict[int, int] = {}
        for idx, layer in enumerate(layers):
            for v in layer:
                if v in layer_of:
                    raise InputError(f"vertex id {v} appears twice")
                layer_of[v] = idx
        out: dict[int, list[int]] = {v: [] for v in layer_of}
        inn: dict[int, list[int]] = {v: [] for v in layer_of}
        edges = tuple(sorted(set(map(tuple, self.edges))))
        for u, v in edges:
            if u not in layer_of or v not in layer_of:
                raise InputError(f"edge ({u}, {v}) uses unknown vertex ids")
            if layer_of[v] != layer_of[u] + 1:
                raise InputError(
                    f"edge ({u}, {v}) does not join consecutive layers"
                )
            out[u].append(v)
            inn[v].append(u)
        object.__setattr__(self, "edges", edges)
        if self.labels is not None:
            missing = [v for v in layer_of if v not in self.labels]
            if missing:
                raise InputError(f"labels missing for vertex ids {missing[:5]}")
            labels = {v: tuple(self.labels[v]) for v in layer_of}
            for layer in layers:
                seen = set()
                for v in layer:
                    if labels[v] in seen:
                        raise InputError(
                            f"duplicate label {labels[v]} inside one layer"
                        )
                    seen.add(labels[v])
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_out", {v: tuple(ns) for v, ns in out.items()})
        object.__setattr__(self, "_in", {v: tuple(ns) for v, ns in inn.items()})
        object.__setattr__(self, "_layer_of", layer_of)

    # -- structure queries --------------------------------------------------

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def layer_of(self, v: int) -> int:
        return self._layer_of[v]

    def has_vertex(self, v: int) -> bool:
        return v in self._layer_of

    @property
    def vertex_count(self) -> int:
        return len(self._layer_of)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_empty(self) -> bool:
        return self.vertex_count == 0

    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    def label_of(self, v: int) -> Coords:
        if self.labels is None:
            raise InputError("graph carries no labels")
        return self.labels[v]


def _walk(
    start: Iterable[int], steps: int, neighbors: Callable[[int], Iterable[int]]
) -> list[set[int]]:
    """Frontiers F_0 = start, F_1, ..., F_steps, each the neighbours of the last."""
    frontiers = [set(start)]
    for _ in range(steps):
        nxt: set[int] = set()
        for v in frontiers[-1]:
            nxt.update(neighbors(v))
        frontiers.append(nxt)
    return frontiers


def image(graph: LayeredGraph, zset: Iterable[int], steps: int) -> frozenset:
    """Vertices reachable from Z in exactly `steps` edge traversals.

    Z must sit inside the bottom layer; steps ranges over 0..height.
    """
    z = set(zset)
    bottom = set(graph.layers[0])
    if not z <= bottom:
        raise InputError("image source must be a subset of the bottom layer")
    if not 0 <= steps <= graph.height:
        raise InputError(
            f"step count {steps} outside 0..{graph.height}"
        )
    return frozenset(_walk(z, steps, graph.out_neighbors)[-1])


def _sweep(graph: LayeredGraph, level: int) -> dict[int, int]:
    """Each vertex of layers 0..level to its image in the level layer as a
    bitmask (bit k: that layer's k-th vertex), in one top-down sweep."""
    masks = {v: 1 << k for k, v in enumerate(graph.layers[level])}
    for lvl in range(level - 1, -1, -1):
        for v in graph.layers[lvl]:
            acc = 0
            for w in graph.out_neighbors(v):
                acc |= masks[w]
            masks[v] = acc
    return masks


def image_masks(graph: LayeredGraph, level: int) -> tuple[list[int], list[int]]:
    """The `_sweep` masks of the bottom layer, in order, and the level layer."""
    masks = _sweep(graph, level)
    return [masks[v] for v in graph.layers[0]], list(graph.layers[level])


def _or_table(masks: Sequence[int]) -> list[int]:
    # table[s] is the OR of masks[k] over the bits k of s.
    table = [0]
    for mask in masks:
        table += [acc | mask for acc in table]
    return table


def subset_images(masks: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Yield (subset, image) for every non-empty subset of range(len(masks)).

    Subsets are bitmasks, yielded in ascending order; image is the OR of
    masks[k] over the bits k of subset.  The images of the low and the high
    half of the bits come from two precomputed OR tables, so each subset
    costs one OR.
    """
    half = len(masks) // 2
    low_table = _or_table(masks[:half])
    start = 1  # skip the empty subset
    for high, high_image in enumerate(_or_table(masks[half:])):
        base = high << half
        for low in range(start, len(low_table)):
            yield base | low, high_image | low_table[low]
        start = 0


# -- constructions -----------------------------------------------------------


def _sum_graph(
    a: GSet, b: GSet, forbidden: Sequence[Coords], h: int, max_size: int | None
) -> LayeredGraph:
    # Layers A and (A+iB) \ (C+(i-1)B) for i = 1..h, C = forbidden, with an
    # edge x -> x+b wherever both ends are kept.  C's fold starts one level
    # up, so C+(i-1)B shares the layout of A+iB.  Ids run layer by layer, in
    # sorted label order inside a layer, as the layout yields each layer.
    layout = _layout(
        a.space, b.elements, h, ((a.elements, 0), (forbidden, 1)), h + 1
    )
    grown = _layers(layout, a.elements, 0, h, max_size)
    cuts = _layers(layout, forbidden, 1, h - 1, max_size)
    removed = chain([layout.encode((), 0)], cuts)
    layers: list[range] = []
    labels: dict[int, Coords] = {}
    edges: list[tuple[int, int]] = []
    prev_keys: list = []
    prev_ids = range(0)
    for level, (layer, cut) in enumerate(zip(grown, removed)):
        kept = layout.minus(layer, cut)
        keys, coords = layout.members(kept, level)
        ids = range(len(labels), len(labels) + len(keys))
        labels.update(zip(ids, coords))
        layers.append(ids)
        get = layout.lookup(dict(zip(keys, ids)), kept).get
        for targets in layout.sums(prev_keys):
            found = list(map(get, targets))
            hits = map(is_not, found, repeat(None))
            edges.extend(compress(zip(prev_ids, found), hits))
        prev_keys, prev_ids = keys, ids
    return LayeredGraph(h, tuple(layers), edges, labels)


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

    The result re-roots layers to 0..j-i, keeps original vertex ids and
    labels, and is flagged empty (no vertices at all) when no path exists.
    """
    u = sorted(set(u_set))
    w = sorted(set(w_set))
    if not u or not w:
        raise InputError("channel endpoints must be non-empty")
    for v in u + w:
        if not graph.has_vertex(v):
            raise InputError(f"channel endpoint {v} is not a vertex")
    i = graph.layer_of(u[0])
    j = graph.layer_of(w[0])
    if any(graph.layer_of(v) != i for v in u):
        raise InputError("channel source vertices must share one layer")
    if any(graph.layer_of(v) != j for v in w):
        raise InputError("channel target vertices must share one layer")
    if not i < j:
        raise InputError(f"channel needs source layer below target layer ({i} >= {j})")
    fwd = _walk(u, j - i, graph.out_neighbors)
    bwd = _walk(w, j - i, graph.in_neighbors)[::-1]
    kept = [f & b for f, b in zip(fwd, bwd)]
    layers = tuple(tuple(sorted(layer)) for layer in kept)
    edges = []
    for lvl in range(j - i):
        nxt = kept[lvl + 1]
        for v in kept[lvl]:
            edges.extend((v, t) for t in graph.out_neighbors(v) if t in nxt)
    labels = None
    if graph.labels is not None:
        labels = {v: graph.labels[v] for layer in kept for v in layer}
    return LayeredGraph(j - i, layers, tuple(edges), labels)


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


def _augment(
    root: int, candidates: Mapping[int, Sequence[int]], owner: dict[int, int]
) -> bool:
    """Give root a candidate along an alternating path, re-assigning each
    candidate on it; False if none exists.  Walks an explicit stack, since
    alternating paths can be as long as the target list."""
    seen: set[int] = set()
    stack = [(root, iter(candidates[root]))]
    via: list[int] = []  # via[k] leads from stack[k] to its owner stack[k + 1]
    while stack:
        t, cands = stack[-1]
        for c in cands:
            if c in seen:
                continue
            seen.add(c)
            if c not in owner:
                owner[c] = t
                for (u, _), d in zip(stack, via):
                    owner[d] = u
                return True
            via.append(c)
            stack.append((owner[c], iter(candidates[owner[c]])))
            break
        else:
            stack.pop()
            if via:
                via.pop()
    return False


def _saturating_matching(
    targets: Sequence[int], candidates: Mapping[int, Sequence[int]]
) -> int | None:
    """Match every target to a distinct candidate; return an unmatched target
    id if impossible, else None.  Classic augmenting-path search."""
    owner: dict[int, int] = {}
    for t in targets:
        if not _augment(t, candidates, owner):
            return t
    return None


def _exchange_failures(
    pairs: Iterable[tuple[int, int]],
    fwd: Callable[[int], Sequence[int]],
    bwd: Callable[[int], Sequence[int]],
) -> Iterator[tuple[int, int, int]]:
    """(x, y, t) for each pair whose targets fwd(y) cannot take distinct
    middles, target t from fwd(x) & bwd(t); t is the one left unmatched.
    Upward reads edges (u, v) with fwd = out, bwd = in; downward reads
    (w, v) for each edge (v, w) with the roles swapped."""
    for x, y in pairs:
        targets = fwd(y)
        if targets:
            mid_set = set(fwd(x))
            cand = {t: tuple(m for m in bwd(t) if m in mid_set) for t in targets}
            unmatched = _saturating_matching(targets, cand)
            if unmatched is not None:
                yield x, y, unmatched


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
    out, inn = graph.out_neighbors, graph.in_neighbors
    upward = [
        ((u, v, t), "upward") for u, v, t in _exchange_failures(graph.edges, out, inn)
    ]
    flipped = ((w, v) for v, w in graph.edges)
    downward = [
        ((t, v, w), "downward") for w, v, t in _exchange_failures(flipped, inn, out)
    ]
    return CommutativityReport(not upward, not downward, tuple(upward + downward))


# -- JSON interchange ---------------------------------------------------------
#
# {"height": h, "layers": [[id, ...], ...], "labels": {"id": [c, ...], ...},
#  "edges": [[from, to], ...]}


def graph_to_json(graph: LayeredGraph) -> dict:
    labels = graph.labels or {}
    return {
        "height": graph.height,
        "layers": [list(layer) for layer in graph.layers],
        "labels": {str(v): list(c) for v, c in sorted(labels.items())},
        "edges": [list(e) for e in graph.edges],
    }


def graph_from_json(obj: object) -> LayeredGraph:
    height, layers_raw, edges_raw = _document(
        obj, "graph", ("height", "layers", "edges")
    )
    if not _is_int(height) or height < 1:
        raise InputError("'height' must be an integer >= 1")
    if not isinstance(layers_raw, list):
        raise InputError("'layers' must be a list of id lists")
    layers = []
    for layer in layers_raw:
        if not isinstance(layer, list) or not all(map(_is_int, layer)):
            raise InputError("'layers' entries must be lists of integer ids")
        layers.append(tuple(layer))
    if not isinstance(edges_raw, list):
        raise InputError("'edges' must be a list of [from, to] pairs")
    edges = []
    for e in edges_raw:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(map(_is_int, e))
        ):
            raise InputError("'edges' entries must be [from, to] integer pairs")
        edges.append((e[0], e[1]))
    labels_raw = obj.get("labels") or {}
    if not isinstance(labels_raw, dict):
        raise InputError("'labels' must be an object keyed by vertex id")
    labels = None
    if labels_raw:
        labels = {}
        for key, coords in labels_raw.items():
            try:
                vid = int(key)
            except ValueError:
                raise InputError(f"label key {key!r} is not a vertex id") from None
            if not isinstance(coords, list) or not all(map(_is_int, coords)):
                raise InputError("'labels' values must be integer coordinate lists")
            labels[vid] = tuple(coords)
        ranks = sorted({len(c) for c in labels.values()})
        if len(ranks) > 1:
            raise InputError(
                f"'labels' coordinate lists differ in length: {ranks[0]} and {ranks[-1]}"
            )
    try:
        return LayeredGraph(height, tuple(layers), tuple(edges), labels)
    except InputError:
        raise
    except Exception as exc:  # defensive: malformed structure
        raise InputError(f"inconsistent graph document: {exc}") from exc


def dump_graph(graph: LayeredGraph, path: str) -> None:
    _write_json(graph_to_json(graph), path)


def load_graph(path: str) -> LayeredGraph:
    return graph_from_json(_read_json(path, "graph"))
