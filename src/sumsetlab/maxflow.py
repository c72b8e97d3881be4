"""The min cut of the ratio network, on bitmasks.

The network is  source -(p)-> V_0 -(inf)-> V_i -(q)-> sink,  bottom vertex
k having an arc to each top in the bitmask `vertex_masks[k]`; no arc list
is built.  The state is one int of the tops with room left, per bottom a
dict of flow amounts and a `carry` mask of the tops it feeds, and per top
an `into` mask of the bottoms feeding it.  A greedy start fills tops in
ascending bit order; Dinic phases then build level masks breadth first
from the bottoms with supply left and saturate them by a depth-first walk
on an explicit path, as augmenting paths can be as long as the network.
The maximal min cut, read off the residual graph, does not depend on
which maximum flow was found.  Amounts are ints, hence exact.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["ratio_cut"]


def ratio_cut(vertex_masks: Sequence[int], p: int, q: int) -> tuple[bool, list[int]]:
    """Max flow of the ratio network with source arcs p >= 0 and sink arcs q >= 1.

    Returns whether every source arc is saturated (the flow is p * n) and
    the ascending bottom indices that no longer reach the sink: the maximal
    minimizer of q|image(Z)| - p|Z|.
    """
    n = len(vertex_masks)
    room = 0
    for mask in vertex_masks:
        room |= mask
    left = [q] * room.bit_length()  # capacity left on each sink arc
    into = [0] * room.bit_length()
    supply = [p] * n  # capacity left on each source arc
    flow: list[dict[int, int]] = [{} for _ in range(n)]
    carry = [0] * n
    live = 0  # bottoms with supply left
    for k, mask in enumerate(vertex_masks):
        avail = start = mask & room
        rest = p
        while avail and rest:
            low = avail & -avail
            avail ^= low
            w = low.bit_length() - 1
            amount = left[w]
            if amount > rest:
                amount = rest
            else:
                room ^= low
            flow[k][w] = amount
            into[w] |= 1 << k
            left[w] -= amount
            rest -= amount
        carry[k] = start & ~avail
        supply[k] = rest
        if rest:
            live |= 1 << k
    while live:
        # levels[j] holds bottoms for even j and tops for odd j, reached from
        # levels[j - 1] by images or by flow; the last one holds tops with room.
        levels, seen = [live], [live, 0]
        while levels[-1]:
            side = len(levels) & 1  # 1 if the next level holds tops
            table = vertex_masks if side else into
            rest, reached = levels[-1], 0
            while rest:
                k = rest.bit_length() - 1
                rest ^= 1 << k
                reached |= table[k]
            reached ^= reached & seen[side]
            seen[side] |= reached
            hit = reached & room if side else 0
            levels.append(hit or reached)
            if hit:
                break
        if not levels[-1]:
            break  # no augmenting path: the flow is maximum
        last = len(levels) - 1
        for j in range(last - 1, -1, -2):  # keep what reaches the last level
            rest = levels[j]
            levels[j] = useful = 0
            while rest:
                k = rest.bit_length() - 1
                rest ^= 1 << k
                if vertex_masks[k] & levels[j + 1]:
                    levels[j] |= 1 << k
                    useful |= carry[k]
            if j:
                levels[j - 1] &= useful
        path: list[int] = []  # b_0, t_0, b_1, t_1, ..., path[j] in levels[j]
        while levels[0]:
            if not path:
                path.append(levels[0].bit_length() - 1)
            j, u = len(path) - 1, path[-1]
            nxt = vertex_masks[u] & levels[j + 1]
            if not nxt:  # dead end: drop u and retreat to the bottom before
                levels[j] &= ~(1 << u)
                del path[-2:]
                continue
            t = nxt.bit_length() - 1
            if j + 1 < last:
                nxt = into[t] & levels[j + 2]
                if nxt:
                    path += (t, nxt.bit_length() - 1)
                else:
                    levels[j + 1] &= ~(1 << t)
                continue
            path.append(t)
            amount = min(supply[path[0]], left[t])
            for j in range(2, len(path), 2):
                amount = min(amount, flow[path[j]][path[j - 1]])
            keep = len(path) - 1  # the walk resumes before its first full arc
            for j in range(0, len(path), 2):
                b, w = path[j], path[j + 1]
                out = flow[b]
                if w not in out:
                    carry[b] |= 1 << w
                    into[w] |= 1 << b
                out[w] = out.get(w, 0) + amount
                if j:
                    w = path[j - 1]
                    out[w] -= amount
                    if not out[w]:
                        del out[w]
                        carry[b] &= ~(1 << w)
                        into[w] &= ~(1 << b)
                        keep = min(keep, j - 1)
            left[t] -= amount
            if not left[t]:
                room &= ~(1 << t)
                levels[last] &= ~(1 << t)
            supply[path[0]] -= amount
            if not supply[path[0]]:
                live &= ~(1 << path[0])
                levels[0] &= ~(1 << path[0])
                keep = 0
            del path[keep:]
    # The sink is reached from the tops with room, and from any top that
    # carries flow from a bottom that reaches it.
    rest, reach, fresh = list(range(n)), room, room
    while fresh and rest:
        kept, fresh = [], 0
        for k in rest:
            if vertex_masks[k] & reach:
                fresh |= carry[k]
            else:
                kept.append(k)
        rest, fresh = kept, fresh & ~reach
        reach |= fresh
    return not live, rest
