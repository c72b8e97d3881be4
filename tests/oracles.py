"""Naive reference implementations the tests compare against.

Everything here works on plain tuples, frozensets and edge lists, favours
clarity over speed, and imports nothing from sumsetlab, so a bug in the
package cannot hide inside its own oracle.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import factorial, inf, nextafter


def naive_normalize(coords, moduli):
    return tuple(c % m if m else c for c, m in zip(coords, moduli))


def naive_sumset(a, b, moduli):
    """Pairwise sums of two coordinate-tuple collections."""
    out = set()
    for x in a:
        for y in b:
            out.add(naive_normalize([p + q for p, q in zip(x, y)], moduli))
    return frozenset(out)


def naive_iterated(a, b, h, moduli):
    cur = frozenset(naive_normalize(x, moduli) for x in a)
    for _ in range(h):
        cur = naive_sumset(cur, b, moduli)
    return cur


def naive_layer_edges(layers, b, moduli):
    """Edges (i, x, x+b) of a layered sum graph whose layer i holds the label
    set layers[i]: one for every x in layer i and b in B with x+b kept in
    layer i+1."""
    return {
        (i, x, y)
        for i in range(len(layers) - 1)
        for x in layers[i]
        for y in naive_sumset([x], b, moduli)
        if y in layers[i + 1]
    }


def successor_map(edges):
    succ = {}
    for u, v in edges:
        succ.setdefault(u, set()).add(v)
    return succ


def predecessor_map(edges):
    pred = {}
    for u, v in edges:
        pred.setdefault(v, set()).add(u)
    return pred


def naive_image(edges, zset, steps):
    """Forward reachability in exactly `steps` edge traversals."""
    succ = successor_map(edges)
    cur = set(zset)
    for _ in range(steps):
        nxt = set()
        for u in cur:
            nxt |= succ.get(u, set())
        cur = nxt
    return frozenset(cur)


def random_layered(rng):
    """(height, layers, edges) of a random layered graph: 1 to 3 levels of
    1 to 9 vertices with ids drawn from 0..99, and each possible edge
    between consecutive layers kept with one drawn probability."""
    h = rng.randint(1, 3)
    sizes = [rng.randint(1, 9) for _ in range(h + 1)]
    ids = rng.sample(range(100), sum(sizes))
    layers, at = [], 0
    for size in sizes:
        layers.append(tuple(ids[at:at + size]))
        at += size
    density = rng.random()
    edges = tuple(
        (u, v)
        for lower, upper in zip(layers, layers[1:])
        for u in lower
        for v in upper
        if rng.random() < density
    )
    return h, tuple(layers), edges

def naive_magnification(edges, bottom, steps):
    """min |image(Z)| / |Z| over nonempty Z, by full subset enumeration.

    Also returns the union of all minimizing subsets, which is itself a
    minimizer (the set the flow method is expected to report).
    """
    best = None
    union = set()
    for r in range(1, len(bottom) + 1):
        for zs in combinations(sorted(bottom), r):
            ratio = Fraction(len(naive_image(edges, zs, steps)), r)
            if best is None or ratio < best:
                best = ratio
                union = set(zs)
            elif ratio == best:
                union |= set(zs)
    return best, frozenset(union)


def _injective_assignment(targets, candidates):
    """Brute-force distinct-representative search, no matching theory."""
    targets = list(targets)

    def rec(i, used):
        if i == len(targets):
            return True
        for c in candidates[targets[i]]:
            if c not in used and rec(i + 1, used | {c}):
                return True
        return False

    return rec(0, frozenset())


def _first_unmatched_target(targets, candidates):
    """The first target whose prefix of targets has no injective
    assignment, or None."""
    for k, target in enumerate(targets, 1):
        if not _injective_assignment(targets[:k], candidates):
            return target
    return None


def naive_violations(edges):
    """Both exchange conditions, as the ordered ((x, y, z), direction) list:
    upward for each edge (u, v) in sorted order, naming the first
    out-neighbour of v whose prefix cannot take distinct middles; then
    downward for each edge (v, w), naming such an in-neighbour of v."""
    edges = sorted(set(map(tuple, edges)))
    succ = successor_map(edges)
    pred = predecessor_map(edges)
    found = []
    for u, v in edges:
        targets = sorted(succ.get(v, set()))
        mids = succ.get(u, set())
        cand = {w: sorted(pred[w] & mids) for w in targets}
        w = _first_unmatched_target(targets, cand)
        if w is not None:
            found.append(((u, v, w), "upward"))
    for v, w in edges:
        sources = sorted(pred.get(v, set()))
        mids = pred.get(w, set())
        cand = {s: sorted(succ[s] & mids) for s in sources}
        s = _first_unmatched_target(sources, cand)
        if s is not None:
            found.append(((s, v, w), "downward"))
    return found


def naive_commutative(edges):
    """Both exchange conditions, checked by exhaustive assignment search."""
    return not naive_violations(edges)


def naive_min_cut(n, cap_edges, s, t):
    """Minimum s-t cut value by enumerating all vertex bipartitions."""
    others = [v for v in range(n) if v not in (s, t)]
    best = None
    for r in range(len(others) + 1):
        for side in combinations(others, r):
            source_side = set(side) | {s}
            val = sum(
                c for u, v, c in cap_edges if u in source_side and v not in source_side
            )
            if best is None or val < best:
                best = val
    return best


class FlowNetwork:
    """Generic Dinic max flow on integer capacities: the reference engine for
    `sumsetlab.maxflow.ratio_cut`.

    `reset` clears the flow and sets every arc's capacity in place.  The
    blocking-flow search walks an explicit path stack instead of recursing,
    since augmenting paths that zig-zag through reverse arcs can be as long
    as the network is large.  After `max_flow`, `residual_reaches_sink`
    yields the maximal minimum cut, whose source side is every node that no
    longer reaches the sink.
    """

    def __init__(self, n):
        self.n = n
        # adjacency of [to, remaining_capacity, index_of_reverse_edge]
        self.graph = [[] for _ in range(n)]
        # (forward, reverse) edge pairs in the order they were added
        self._arcs = []

    def add_edge(self, u, v, cap):
        if cap < 0:
            raise ValueError("capacities must be non-negative")
        fwd = [v, cap, len(self.graph[v])]
        bwd = [u, 0, len(self.graph[u])]
        self.graph[u].append(fwd)
        self.graph[v].append(bwd)
        self._arcs.append((fwd, bwd))

    def reset(self, caps):
        """Clear the flow and give the k-th added edge capacity caps[k]."""
        if len(caps) != len(self._arcs):
            raise ValueError(f"{len(caps)} capacities for {len(self._arcs)} edges")
        if caps and min(caps) < 0:
            raise ValueError("capacities must be non-negative")
        for (fwd, bwd), cap in zip(self._arcs, caps):
            fwd[1] = cap
            bwd[1] = 0

    def _bfs_levels(self, s, t):
        # Stops once t is labelled: every node on a shortest s-t path is
        # labelled by then, and no other node is needed.
        graph = self.graph
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            nxt = level[u] + 1
            for v, cap, _ in graph[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = nxt
                    if v == t:
                        return level
                    queue.append(v)
        return None

    def _blocking_flow(self, s, t, level):
        """Saturate every s-t path of the level graph; return the flow added."""
        graph = self.graph
        nxt = [0] * self.n  # next edge to try at each node
        path = []  # edges from s to the current node u
        u = s
        total = 0
        while True:
            if u == t:
                pushed = min(edge[1] for edge in path)
                total += pushed
                first_full = None
                for k, edge in enumerate(path):
                    edge[1] -= pushed
                    graph[edge[0]][edge[2]][1] += pushed
                    if first_full is None and edge[1] == 0:
                        first_full = k
                # resume from the tail of the first saturated edge
                del path[first_full:]
                u = path[-1][0] if path else s
                continue
            adj = graph[u]
            i = nxt[u]
            end = len(adj)
            want = level[u] + 1
            while i < end:
                edge = adj[i]
                if edge[1] > 0 and level[edge[0]] == want:
                    break
                i += 1
            nxt[u] = i
            if i < end:
                path.append(edge)
                u = edge[0]
            elif path:
                # dead end: retreat and skip the edge that led here
                path.pop()
                u = path[-1][0] if path else s
                nxt[u] += 1
            else:
                return total

    def max_flow(self, s, t):
        if s == t:
            raise ValueError("source and sink must differ")
        flow = 0
        while True:
            level = self._bfs_levels(s, t)
            if level is None:
                return flow
            flow += self._blocking_flow(s, t, level)

    def residual_reaches_sink(self, t):
        """Nodes with a residual path to t (t included); call after max_flow."""
        seen = {t}
        queue = deque([t])
        while queue:
            y = queue.popleft()
            for x, _, rev in self.graph[y]:
                # residual edge x -> y exists iff the paired edge at x has
                # remaining capacity
                if self.graph[x][rev][1] > 0 and x not in seen:
                    seen.add(x)
                    queue.append(x)
        return seen


def smallest_feasible_fraction(feasible, max_den):
    """Smallest fraction p/q with q <= max_den accepted by a monotone predicate.

    The reference ratio search: fed a min-cut feasibility test, it finds a
    magnification ratio independently of the Dinkelbach iteration.

    Requires: feasible(p, q) depends only on p/q and is monotone (accepting
    t implies accepting every t' > t), the infimum D of accepted values is
    itself a fraction with denominator <= max_den, and feasible(D) is true.

    Walks the Stern-Brocot tree with a rejected left neighbour a/b and an
    accepted right neighbour c/d (sentinel 1/0).  The mediant is the unique
    smallest-denominator fraction strictly between tree neighbours, so once
    its denominator passes max_den the accepted endpoint is the answer.
    Runs of same-direction steps are replaced by one jump found with
    doubling plus binary search.
    """
    if max_den < 1:
        raise ValueError("denominator bound must be >= 1")
    if feasible(0, 1):
        return Fraction(0, 1)
    a, b = 0, 1  # rejected
    c, d = 1, 0  # accepted sentinel
    while b + d <= max_den:
        if feasible(a + c, b + d):
            cap = (max_den - d) // b
            k = _last_true(lambda k: feasible(k * a + c, k * b + d), cap)
            c, d = k * a + c, k * b + d
        else:
            cap = None if d == 0 else (max_den - b) // d
            k = _last_true(lambda k: not feasible(a + k * c, b + k * d), cap)
            a, b = a + k * c, b + k * d
    return Fraction(c, d)


def _last_true(pred, cap):
    """Largest k with pred(k), given pred(1) and that pred is a true prefix.

    cap, when given, is an inclusive upper bound on k (cap >= 1).
    """
    k = 1
    while (cap is None or 2 * k <= cap) and pred(2 * k):
        k *= 2
    lo = k
    hi = 2 * k - 1 if cap is None else min(2 * k - 1, cap)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def naive_channel(edges, sources, targets, steps):
    """Per level, the vertices on some path of `steps` edges from sources to
    targets (empty levels when there is none)."""
    succ = successor_map(edges)
    pred = predecessor_map(edges)
    fwd = [set(sources)]
    bwd = [set(targets)]
    for _ in range(steps):
        fwd.append(set().union(*(succ.get(v, set()) for v in fwd[-1])))
        bwd.append(set().union(*(pred.get(v, set()) for v in bwd[-1])))
    return [f & b for f, b in zip(fwd, reversed(bwd))]


def naive_peel(layers, edges):
    """The channel-based peel, one working graph per round.

    Each round channels the remaining bottom vertices against the top
    vertices no block has claimed yet; bottom vertices left outside that
    working graph become degenerate singletons (ratio 0), in sorted order.
    The block is the maximal tight set at level 1 of the working graph, by
    subset enumeration, and it claims the top of its channel inside the
    working graph.  Returns (vertices, ratio, degenerate, subgraph vertex
    set) per block.
    """
    h = len(layers) - 1
    remaining = set(layers[0])
    top_left = set(layers[h])
    blocks = []
    while remaining:
        kept = naive_channel(edges, remaining, top_left, h)
        for v in sorted(remaining - kept[0]):
            blocks.append(((v,), Fraction(0), True, frozenset([v])))
        remaining &= kept[0]
        if not remaining:
            break
        inside = set().union(*kept)
        work = [(u, v) for u, v in edges if u in inside and v in inside]
        ratio, tight = naive_magnification(work, remaining, 1)
        block = naive_channel(work, tight, kept[h], h)
        blocks.append(
            (tuple(sorted(tight)), ratio, False, frozenset().union(*block))
        )
        remaining -= tight
        top_left -= block[h]
    return blocks


class DocumentError(ValueError):
    """A graph document the checking loader refuses; the message names the
    first culprit."""


def _plain_int(v):
    return type(v) is int


def checking_graph_loader(doc):
    """The checks and normal form of a graph document, one entry at a time.

    Returns (height, layers, keys, flat): the layers as sorted tuples, the
    edges as the sorted distinct keys (u - lo) * span + (v - lo) over the
    least id lo and the id range span, and the labels as flat ints in the
    order of the layers' vertices (None without labels or vertices).  A
    malformed document raises DocumentError with the message of the first
    check it fails, in the order: document keys, height, layers, edges,
    labels object, label keys, layer count, repeated ids, edge rows, label
    values, label ranks, missing labels, repeated labels, unknown keys.
    """
    if not isinstance(doc, dict):
        raise DocumentError("graph document must be a JSON object")
    for key in ("height", "layers", "edges"):
        if key not in doc:
            raise DocumentError(f"graph document missing key '{key}'")
    height, layers, edges = doc["height"], doc["layers"], doc["edges"]
    if not _plain_int(height) or height < 1:
        raise DocumentError("'height' must be an integer >= 1")
    if not isinstance(layers, list):
        raise DocumentError("'layers' must be a list of id lists")
    for layer in layers:
        if not isinstance(layer, list) or not all(map(_plain_int, layer)):
            raise DocumentError("'layers' entries must be lists of integer ids")
    if not isinstance(edges, list):
        raise DocumentError("'edges' must be a list of [from, to] pairs")
    raw = {} if doc.get("labels") is None else doc["labels"]
    if not isinstance(raw, dict):
        raise DocumentError("'labels' must be an object keyed by vertex id")
    labels = {}
    for key, row in raw.items():
        try:
            canonical = str(int(key)) == key
        except ValueError:
            canonical = False
        if not canonical:
            raise DocumentError(f"label key {key!r} is not a vertex id")
        labels[int(key)] = row
    layers = [sorted(layer) for layer in layers]
    if len(layers) != height + 1:
        raise DocumentError(f"height {height} needs {height + 1} layers, got {len(layers)}")
    level = {}
    for k, layer in enumerate(layers):
        for v in layer:
            if v in level:
                raise DocumentError(f"vertex id {v} appears twice")
            level[v] = k
    pairs = set()
    for row in edges:
        if not isinstance(row, list) or len(row) != 2 or not all(map(_plain_int, row)):
            raise DocumentError("'edges' entries must be [from, to] integer pairs")
        u, v = row
        if u not in level or v not in level:
            raise DocumentError(f"edge ({u}, {v}) uses unknown vertex ids")
        if level[v] != level[u] + 1:
            raise DocumentError(f"edge ({u}, {v}) does not join consecutive layers")
        pairs.add((u, v))
    ids = [v for layer in layers for v in layer]
    lo, hi = (min(ids), max(ids)) if ids else (0, 0)
    keys = tuple(sorted((u - lo) * (hi - lo + 1) + v - lo for u, v in pairs))
    flat = None
    if labels:
        for row in labels.values():
            if not isinstance(row, list) or not all(map(_plain_int, row)):
                raise DocumentError("'labels' values must be integer coordinate lists")
        ranks = sorted({len(row) for row in labels.values()})
        if len(ranks) > 1:
            raise DocumentError(
                f"'labels' coordinate lists differ in length: {ranks[0]} and {ranks[-1]}"
            )
        missing = [v for v in ids if v not in labels]
        if missing:
            raise DocumentError(f"labels missing for vertex ids {missing[:5]}")
        seen = set()
        for v in ids:
            if (level[v], tuple(labels[v])) in seen:
                raise DocumentError(f"duplicate label {tuple(labels[v])} inside one layer")
            seen.add((level[v], tuple(labels[v])))
        for key in labels:
            if key not in level:
                raise DocumentError(f"label key '{key}' names no vertex")
        flat = tuple(c for v in ids for c in labels[v]) if ids else None
    return height, tuple(map(tuple, layers)), keys, flat


def naive_restricted_sumset(x, b, j_set, j, h, samples, moduli):
    """The restricted-sumset statement, sum by sum and subset by subset.

    With alpha_j = |(X+jB) \\ (J+jB)| / |X|, the hypothesis is that no
    non-empty Z in X has |(Z+jB) \\ (J+jB)| / |Z| below alpha_j; under it
    the conclusion is |(X+hB) \\ (J+hB)| <= alpha_j^(h/j) |X|, and each S in
    samples is checked for |(X+S+jB) \\ (J+S+jB)| <= alpha_j^(1/j)
    |(X+S+(j-1)B) \\ (J+S+(j-1)B)|.  Returns (hypothesis_ok, alpha_j,
    observed, conclusion_ok or None, reiher verdicts).
    """

    def rest(base, forbidden, steps):
        return naive_iterated(base, b, steps, moduli) - naive_iterated(
            forbidden, b, steps, moduli
        )

    x = sorted(x)
    size = len(x)
    c = len(rest(x, j_set, j))
    hypothesis = all(
        c * r <= len(rest(z, j_set, j)) * size
        for r in range(1, size + 1)
        for z in combinations(x, r)
    )
    observed = len(rest(x, j_set, h))
    conclusion = observed**j * size ** (h - j) <= c**h if hypothesis else None
    reiher = []
    for s in samples:
        xs = naive_sumset(x, s, moduli)
        js = naive_sumset(j_set, s, moduli)
        lhs = len(rest(xs, js, j))
        rhs = len(rest(xs, js, j - 1))
        reiher.append(lhs**j * size <= c * rhs**j)
    return hypothesis, Fraction(c, size), observed, conclusion, tuple(reiher)


def naive_rising_binomial(x, h):
    """C(x+h-1, h) = prod_{i<h} (x+i) / h!, multiplied out in Fractions."""
    prod = Fraction(1)
    x = Fraction(x)
    for i in range(h):
        prod *= x + i
    return prod / factorial(h)


def naive_pseudo_cardinality(n, h):
    """(n, h, beta, lo, hi, exact) for C(beta+h-1, h) = n by Fraction
    bisection: an integer bracket first, then halving until the width is at
    most max(1, lo) / 10^12."""
    rel_tol = Fraction(1, 10**12)
    hi_int = 1
    while naive_rising_binomial(hi_int, h) < n:
        hi_int *= 2
    lo_int, cand = 1, hi_int
    while lo_int < cand:
        mid = (lo_int + cand) // 2
        if naive_rising_binomial(mid, h) >= n:
            cand = mid
        else:
            lo_int = mid + 1
    exact_val = naive_rising_binomial(cand, h)
    if exact_val == n:
        r = Fraction(cand)
        return n, h, float(cand), r, r, True
    lo, hi = Fraction(cand - 1), Fraction(cand)
    while hi - lo > rel_tol * max(Fraction(1), lo):
        mid = (lo + hi) / 2
        if naive_rising_binomial(mid, h) >= n:
            hi = mid
        else:
            lo = mid
    return n, h, float((lo + hi) / 2), lo, hi, False


def interval_quotient_up(factors, lo, hi):
    """The least float >= the upper end of the 80-bit interval product of
    the int factors divided by the bracket [lo, hi] of Fractions: the
    interval expression that gave the top bounds and s before they were
    rounded once exactly."""
    import mpmath

    iv = type(mpmath.iv)()
    iv.prec = 80

    def ival(x):
        x = Fraction(x)
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)

    num = iv.mpf(1)
    for f in factors:
        num *= ival(f)
    end = (num / iv.mpf([ival(lo).a, ival(hi).b])).b
    up = float(end)
    while mpmath.mpf(up) < end:
        up = nextafter(up, inf)
    return up


def naive_large_subset(edges, bottom, n, h, t, alpha_1=None):
    """(found, subset, image size, bound, checked): the first X of the
    sorted bottom, in ascending bitmask order, with |X| > t and
    |image(X, h)| within its budget, the budget rebuilt as a Fraction for
    every subset: (|X| - t) (n / (m - t))^h, or with alpha_1
    alpha_1^h t + (|X| - t) ((n - alpha_1 t) / (m - t))^h."""
    bottom = sorted(bottom)
    m = len(bottom)
    t = Fraction(t)
    images = [naive_image(edges, [v], h) for v in bottom]
    checked = 0
    for mask in range(1, 1 << m):
        idx = [k for k in range(m) if mask >> k & 1]
        if len(idx) <= t:
            continue
        checked += 1
        if alpha_1 is None:
            budget = (len(idx) - t) * (Fraction(n) / (m - t)) ** h
        else:
            scale = ((n - alpha_1 * t) / (m - t)) ** h
            budget = alpha_1**h * t + (len(idx) - t) * scale
        size = len(frozenset().union(*(images[k] for k in idx)))
        if size <= budget:
            return True, tuple(bottom[k] for k in idx), size, budget, checked
    return False, None, None, None, checked


def reference_layout(moduli, b_elems, h, starts, decoded):
    """The box layout the sumset fold uses, rebuilt one coordinate and one
    bit at a time: (container, widths, lows, b_lows, strides, shifts,
    folds), container "lift" or "sparse" and folds None for "sparse".

    Starts are (coords, level) pairs.  A free coordinate's box holds every
    start from its level up to h; a cyclic one of modulus m has width
    2m - 1.  The lift is chosen when its passes over the box's bits, 2^13
    bits a pass and 2^5 passes a decoded layer, cost no more than the
    set container's least point additions.  A fold is (mask, jump): the
    bits whose cyclic digit is m or more, and m times the digit's stride.
    """
    widths, lows, b_lows = [], [], []
    for j, m in enumerate(moduli):
        if m:
            widths.append(2 * m - 1)
            lows.append(0)
            b_lows.append(0)
            continue
        b_low = min((b[j] for b in b_elems), default=0)
        spread = max((b[j] for b in b_elems), default=0) - b_low
        points = [(x[j], level) for coords, level in starts for x in coords]
        low = min(c - level * b_low for c, level in points)
        high = max(c - level * b_low + (h - level) * spread for c, level in points)
        widths.append(high - low + 1)
        lows.append(low)
        b_lows.append(b_low)
    rank = len(moduli)
    strides = [1] * rank
    for j in range(rank):
        for w in widths[j + 1 :]:
            strides[j] *= w
    bits = strides[0] * widths[0]
    shifts = [
        sum((b[j] - b_lows[j]) * strides[j] for j in range(rank)) for b in b_elems
    ]
    cyclic = sum(1 for m in moduli if m)
    passes = pairs = 0
    for coords, level in starts:
        passes += 3
        steps = h - level
        if coords and steps:
            passes += steps * (len(b_elems) + 2 * cyclic + 2)
            pairs += len(b_elems) * (
                len(coords) + (steps - 1) * max(len(coords), len(b_elems))
            )
    if bits * (passes + decoded * 2**5) > pairs * 2**13:
        return "sparse", widths, lows, b_lows, strides, shifts, None
    folds = []
    for j, m in enumerate(moduli):
        if m:
            mask = 0
            for p in range(bits):
                if p // strides[j] % widths[j] >= m:
                    mask |= 1 << p
            folds.append((mask, m * strides[j]))
    return "lift", widths, lows, b_lows, strides, shifts, folds
