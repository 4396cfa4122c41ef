"""Integral max-flow with a min-cut witness.

The kernel is Dinic's blocking-flow algorithm (Dinitz 1970).  Each phase
runs one breadth-first level pass from the source, then pushes a blocking
flow along the level graph with one iterative depth-first search.  Both
scan every node's arcs in insertion order and the search takes the
lowest-numbered admissible arc first, so the flow a network gets is a
function of the order its arcs were added in.  Arcs are added in bulk by
`add_arcs`; `add_arc` adds one through it.  After a run, the nodes the
source reaches in the residual graph are the unique smallest min-cut
source side, and the nodes that reach the sink are the unique smallest
min-cut sink side, whichever maximum flow was found; the rest of the
network is the largest min-cut source side.
"""

from __future__ import annotations

from typing import Sequence

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
        return self.add_arcs((u,), (v,), (cap,))

    def add_arcs(self, tails: Sequence[int], heads: Sequence[int], caps: Sequence[int]) -> int:
        """Add tails[i]->heads[i] with capacity caps[i] for each i, in that
        order; returns the first arc's id, and arc i gets that id + 2i."""
        count, n = len(tails), self.num_nodes
        if not len(heads) == len(caps) == count:
            raise BadParams(f"{count} tails, {len(heads)} heads and {len(caps)} capacities")
        if count == 0:
            return len(self._to)
        if min(caps) < 0:
            raise BadParams(f"negative capacity {min(caps)}")
        if not (0 <= min(min(tails), min(heads)) and max(max(tails), max(heads)) < n):
            bad = next(x for pair in zip(tails, heads) for x in pair if not 0 <= x < n)
            raise BadParams(f"node {bad} out of range")
        to, cap, adj = self._to, self._cap, self._adj
        first = len(to)
        # forward arc at even id, residual reverse arc at arc ^ 1
        ends = [0] * (2 * count)
        ends[::2], ends[1::2] = heads, tails
        to += ends
        residual = [0] * (2 * count)
        residual[::2] = caps
        cap += residual
        for arc, u, v in zip(range(first, first + 2 * count, 2), tails, heads):
            adj[u].append(arc)
            adj[v].append(arc + 1)
        return first

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
        return self._residual_reach(self.source, 0)

    def min_cut_sink_side(self) -> set[int]:
        """Nodes that reach the sink in the residual graph; call after
        max_flow.  Every other node is on the largest min-cut source side."""
        return self._residual_reach(self.sink, 1)

    def _residual_reach(self, start: int, backward: int) -> set[int]:
        """Nodes that start reaches along residual arcs or, with backward = 1,
        the nodes that reach start.  Each id in u's list is an arc from u to
        to[arc] with residual capacity cap[arc]; the opposite direction's
        residual capacity is cap[arc ^ 1]."""
        to, cap = self._to, self._cap
        seen = {start}
        queue = [start]
        for u in queue:
            for arc in self._adj[u]:
                v = to[arc]
                if cap[arc ^ backward] and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen
