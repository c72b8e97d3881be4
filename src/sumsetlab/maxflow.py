"""Dinic max flow on integer capacities, with residual-cut extraction.

The networks cut here are three-level DAGs (source, bottom layer, image
layer, sink) that a parametric search cuts several times with different
capacities.  `reset` clears the flow and sets every arc's capacity in place,
so such a network is built once and cut as often as needed.  Capacities are
Python ints, hence exact.

The blocking-flow search walks an explicit path stack instead of recursing:
augmenting paths that zig-zag through reverse arcs can be as long as the
network is large.  After `max_flow`, `residual_reaches_sink` yields the
maximal minimum cut, whose source side is every node that no longer reaches
the sink; it does not depend on which maximum flow was found.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

__all__ = ["FlowNetwork"]


class FlowNetwork:
    def __init__(self, n: int) -> None:
        self.n = n
        # adjacency of [to, remaining_capacity, index_of_reverse_edge]
        self.graph: list[list[list[int]]] = [[] for _ in range(n)]
        # (forward, reverse) edge pairs in the order they were added
        self._arcs: list[tuple[list[int], list[int]]] = []

    def add_edge(self, u: int, v: int, cap: int) -> None:
        if cap < 0:
            raise ValueError("capacities must be non-negative")
        fwd = [v, cap, len(self.graph[v])]
        bwd = [u, 0, len(self.graph[u])]
        self.graph[u].append(fwd)
        self.graph[v].append(bwd)
        self._arcs.append((fwd, bwd))

    def reset(self, caps: Sequence[int]) -> None:
        """Clear the flow and give the k-th added edge capacity caps[k]."""
        if len(caps) != len(self._arcs):
            raise ValueError(f"{len(caps)} capacities for {len(self._arcs)} edges")
        if caps and min(caps) < 0:
            raise ValueError("capacities must be non-negative")
        for (fwd, bwd), cap in zip(self._arcs, caps):
            fwd[1] = cap
            bwd[1] = 0

    def _bfs_levels(self, s: int, t: int) -> list[int] | None:
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

    def _blocking_flow(self, s: int, t: int, level: list[int]) -> int:
        """Saturate every s-t path of the level graph; return the flow added."""
        graph = self.graph
        nxt = [0] * self.n  # next edge to try at each node
        path: list[list[int]] = []  # edges from s to the current node u
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

    def max_flow(self, s: int, t: int) -> int:
        if s == t:
            raise ValueError("source and sink must differ")
        flow = 0
        while True:
            level = self._bfs_levels(s, t)
            if level is None:
                return flow
            flow += self._blocking_flow(s, t, level)

    def residual_reaches_sink(self, t: int) -> set[int]:
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
