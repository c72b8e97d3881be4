"""Reference computations the benchmark checks program outputs against.

Nothing here imports sumsetlab, so a defect in the package cannot hide in
its own check.  Sets are plain collections of coordinate tuples in a space
given by per-coordinate moduli (0 = free integer coordinate, m > 0 = Z_m).
"""

from __future__ import annotations

from fractions import Fraction


def normalize(coords, moduli):
    return tuple(c % m if m else c for c, m in zip(coords, moduli))


def add(x, y, moduli):
    return tuple((p + q) % m if m else p + q for p, q, m in zip(x, y, moduli))


def sumset_layers(a, b, h, moduli):
    """[A, A+B, ..., A+hB] as sorted lists of normalized coordinate tuples.

    Each layer is a dict from the trailing coordinates to a bitset over the
    first coordinate, so one fold costs a few big-integer shifts per key
    instead of |X| * |B| tuple additions.  This is a different algorithm
    from the package's tuple-set kernel, which is the point of using it.
    """
    a = {normalize(x, moduli) for x in a}
    b = {normalize(y, moduli) for y in b}
    m0, rest = moduli[0], moduli[1:]
    base = 0 if m0 else min(x[0] for x in a)
    b_lo = 0 if m0 else min(y[0] for y in b)
    shifts: dict[tuple, list[int]] = {}
    for y in b:
        shifts.setdefault(y[1:], []).append(y[0] - b_lo)
    cur: dict[tuple, int] = {}
    for x in a:
        cur[x[1:]] = cur.get(x[1:], 0) | 1 << (x[0] - base)
    layers = [cur]
    low = (1 << m0) - 1
    for _ in range(h):
        nxt: dict[tuple, int] = {}
        for key, bits in cur.items():
            for dkey, ds in shifts.items():
                acc = 0
                for d in ds:
                    acc |= bits << d
                if m0:
                    acc = (acc & low) | (acc >> m0)
                k2 = add(key, dkey, rest)
                nxt[k2] = nxt.get(k2, 0) | acc
        cur = nxt
        layers.append(cur)
    return [_decode(layer, i, base, b_lo) for i, layer in enumerate(layers)]


def _decode(layer, i, base, b_lo):
    offset = base + i * b_lo
    out = []
    for key, bits in layer.items():
        text = bin(bits)[:1:-1]
        pos = text.find("1")
        while pos >= 0:
            out.append((pos + offset,) + key)
            pos = text.find("1", pos + 1)
    out.sort()
    return out


def addition_graph(layers, b, moduli):
    """Graph document for the addition graph on precomputed layers.

    Vertex ids run consecutively through the layers in sorted label order;
    edges x -> x + b join consecutive layers.
    """
    ids = []
    labels = {}
    nxt = 0
    for layer in layers:
        id_of = {}
        for coords in layer:
            id_of[coords] = nxt
            labels[str(nxt)] = list(coords)
            nxt += 1
        ids.append(id_of)
    edges = []
    for i in range(len(layers) - 1):
        for coords, u in ids[i].items():
            for y in b:
                edges.append([u, ids[i + 1][add(coords, y, moduli)]])
    edges.sort()
    return {
        "height": len(layers) - 1,
        "layers": [sorted(id_of.values()) for id_of in ids],
        "labels": labels,
        "edges": edges,
    }


def fraction(pair):
    return Fraction(pair[0], pair[1])


def image_size(zset, hb, moduli):
    """|Z + hB|, the level-h image of Z in an addition graph."""
    return len({add(x, y, moduli) for x in zset for y in hb})
