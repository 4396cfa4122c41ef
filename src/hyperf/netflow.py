"""Integral max-flow with a min-cut witness.

Deterministic by construction: breadth-first augmentation scans arcs in
insertion order, so ties always resolve toward the lowest-numbered arc.
After a run, the source side of a min cut is the residual-reachable set.
"""

from __future__ import annotations

from collections import deque

from .hypercore import BadParams


class FlowNetwork:
    """Directed network with integer capacities; parallel arcs allowed."""

    def __init__(self, num_nodes: int, source: int, sink: int):
        if not (0 <= source < num_nodes and 0 <= sink < num_nodes) or source == sink:
            raise BadParams(f"bad source/sink {source}/{sink} for {num_nodes} nodes")
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
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
        """Run shortest-augmenting-path flow to completion; returns the value."""
        total = 0
        while True:
            parent_arc = self._bfs()
            if parent_arc is None:
                return total
            # walk sink -> source to find the bottleneck, then push
            bottleneck = None
            v = self.sink
            while v != self.source:
                arc = parent_arc[v]
                if bottleneck is None or self._cap[arc] < bottleneck:
                    bottleneck = self._cap[arc]
                v = self._to[arc ^ 1]
            v = self.sink
            while v != self.source:
                arc = parent_arc[v]
                self._cap[arc] -= bottleneck
                self._cap[arc ^ 1] += bottleneck
                v = self._to[arc ^ 1]
            total += bottleneck

    def _bfs(self):
        parent_arc = [-1] * self.num_nodes
        parent_arc[self.source] = -2
        queue = deque([self.source])
        while queue:
            u = queue.popleft()
            for arc in self._adj[u]:
                v = self._to[arc]
                if self._cap[arc] > 0 and parent_arc[v] == -1:
                    parent_arc[v] = arc
                    if v == self.sink:
                        return parent_arc
                    queue.append(v)
        return None

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
