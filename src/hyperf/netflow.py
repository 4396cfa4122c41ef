"""Integral max-flow with a min-cut witness.

The kernel is Dinic's blocking-flow algorithm (Dinitz 1970).  Each phase
runs one breadth-first level pass from the source, then pushes a blocking
flow along the level graph with one iterative depth-first search.  Both
scan every node's arcs in insertion order and the search takes the
lowest-numbered admissible arc first, so the flow a network gets is a
function of the order its arcs were added in.  After a run, the source
side of a min cut is the residual-reachable set: the unique smallest
min-cut source side, whichever maximum flow was found.
"""

from __future__ import annotations

from collections import deque

from .hypercore import BadParams


class FlowNetwork:
    """Directed network with integer capacities; parallel arcs allowed.

    `phases` is the number of level passes the last `max_flow` ran,
    counting the final one that finds the sink unreachable.
    """

    def __init__(self, num_nodes: int, source: int, sink: int):
        if not (0 <= source < num_nodes and 0 <= sink < num_nodes) or source == sink:
            raise BadParams(f"bad source/sink {source}/{sink} for {num_nodes} nodes")
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.phases = 0
        self._to: list[int] = []
        self._cap: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_arc(self, u: int, v: int, cap: int) -> int:
        """Add u->v with the given capacity; returns the arc id."""
        if cap < 0:
            raise BadParams(f"negative capacity {cap}")
        for x in (u, v):
            if not (0 <= x < self.num_nodes):
                raise BadParams(f"node {x} out of range")
        arc = len(self._to)
        # forward arc at even id, residual reverse arc at arc ^ 1
        self._to.extend((v, u))
        self._cap.extend((cap, 0))
        self._adj[u].append(arc)
        self._adj[v].append(arc ^ 1)
        return arc

    def max_flow(self) -> int:
        """Run Dinic's algorithm to completion; returns the flow value added."""
        to, cap, adj = self._to, self._cap, self._adj
        source, sink, n = self.source, self.sink, self.num_nodes
        total = phases = 0
        while True:
            # level pass; it stops once the sink is labelled, since no node
            # at or beyond the sink's level lies on a shortest path
            phases += 1
            level = [-1] * n
            level[source] = 0
            queue = [source]
            for u in queue:
                below = level[u] + 1
                for arc in adj[u]:
                    v = to[arc]
                    if cap[arc] and level[v] < 0:
                        level[v] = below
                        queue.append(v)
                if level[sink] >= 0:
                    break
            else:  # the sink is unreachable, so the flow is maximum
                self.phases = phases
                return total
            # blocking flow: follow each node's current arc, push at the
            # sink and restart from the source; a node with no admissible
            # arc left is a dead end and leaves the level graph
            current = [0] * n
            path = []
            u = source
            while True:
                if u == sink:
                    push = cap[path[0]]
                    for arc in path:
                        if cap[arc] < push:
                            push = cap[arc]
                    for arc in path:
                        cap[arc] -= push
                        cap[arc ^ 1] += push
                    total += push
                    path.clear()
                    u = source
                arcs = adj[u]
                i, end, below = current[u], len(arcs), level[u] + 1
                while i < end:
                    arc = arcs[i]
                    if cap[arc] and level[to[arc]] == below:
                        break
                    i += 1
                current[u] = i
                if i < end:
                    path.append(arc)
                    u = to[arc]
                elif u == source:
                    break
                else:
                    level[u] = -1
                    u = to[path.pop() ^ 1]
                    current[u] += 1

    def flow_on(self, arc: int) -> int:
        """Flow carried by a forward arc (its reverse residual capacity)."""
        if not (0 <= arc < len(self._to)) or arc % 2 == 1:
            raise BadParams(f"{arc} is not a forward arc id")
        return self._cap[arc ^ 1]

    def min_cut_source_side(self) -> set[int]:
        """Residual-reachable nodes from the source; call after max_flow."""
        seen = {self.source}
        queue = deque([self.source])
        while queue:
            u = queue.popleft()
            for arc in self._adj[u]:
                v = self._to[arc]
                if self._cap[arc] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen
