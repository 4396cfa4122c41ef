"""Constructing orientations with bounded or forbidden coordinates.

Bounded position-0 degrees are Hakimi's theorem: an orientation putting
each vertex v first in at most caps(v) edges exists exactly when every
vertex set F spans at most caps(F) edges.  ``_reorient`` is its
constructive side: it gives each edge one of its vertices, repairs
overloads along breadth-first reorientation paths, and otherwise returns
the smallest F with the most edges over its capacity, which is exactly
the obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .hypercore import (
    BadParams,
    BadPSet,
    Hypergraph,
    HyperfError,
    Orientation,
    _check_count,
    _check_index,
    _check_p,
    _check_pset,
)


class BudgetDomainMismatch(HyperfError):
    """A per-vertex budget must cover every vertex exactly once."""


class PartsNotDisjoint(HyperfError):
    pass


class PartNotSparse(HyperfError):
    """A part is too dense for the requested within-part degree bound."""


class StuckEdge(HyperfError):
    """No ordering of the named edge avoids all forbidden placements."""

    def __init__(self, edge):
        super().__init__(f"no admissible ordering for edge {edge}")
        self.edge = edge


@dataclass(frozen=True)
class Infeasible:
    """Witness that no orientation fits: the edges inside `witness` outnumber
    the total first-position capacity of `witness`."""

    witness: tuple[int, ...]
    edges_inside: int
    capacity: int


def _reorient(edges, edge_ids, caps, owner) -> set[int]:
    """Give each listed edge one of its vertices, at most caps[v] per vertex v.

    owner[ei], a vertex of edges[ei], is mended in place.  An edge keeps its
    owner while that vertex has room; any other edge is placed along a
    breadth-first reorientation path, which moves edges from full vertices
    to other vertices of those edges until one has room.  A search with no
    path reached a set R of full vertices holding only edges inside R (their
    vertices were reached), as the searched edge is.  R is marked dead and
    later searches skip it, losing no path (from R only R is reached) and
    never changing R.  The union D of the dead sets is returned, empty when
    every edge was placed: no vertex of D has room, and D is what the
    unplaced edges reach through the edges its vertices hold, i.e. the
    residual-reachable set of a maximum flow from edges into capped
    vertices.  So D is the unique smallest F maximizing e(F) - caps(F).
    """
    held = [[] for _ in caps]
    loose = []
    for ei in edge_ids:
        v = owner[ei]
        if len(held[v]) < caps[v]:
            held[v].append(ei)
        else:
            loose.append(ei)
    dead: set[int] = set()
    for ei in loose:
        # via[w] = (edge that moves to w, vertex it leaves or -1 for ei)
        via = {v: (ei, -1) for v in edges[ei] if v not in dead}
        queue = list(via)
        for w in queue:
            if len(held[w]) < caps[w]:
                while True:
                    f, u = via[w]
                    owner[f] = w
                    held[w].append(f)
                    if u < 0:
                        break
                    held[u].remove(f)
                    w = u
                break
            for f in held[w]:
                for x in edges[f]:
                    if x not in via and x not in dead:
                        via[x] = (f, w)
                        queue.append(x)
        else:
            dead.update(queue)
    return dead


def orient_budget(h: Hypergraph, budget: Mapping[int, int]) -> Orientation | Infeasible:
    """Orientation with at most budget[v] edges putting v at position 0.

    Feasible exactly when every vertex set F spans at most sum(budget over F)
    edges; otherwise the returned Infeasible carries such an F.
    """
    if set(budget) != set(range(h.n)):
        missing = [v for v in range(h.n) if v not in budget]
        extra = [v for v in budget if v not in range(h.n)]
        raise BudgetDomainMismatch(
            f"budget domain must be 0..{h.n - 1}; missing {missing}, extra {extra}"
        )
    caps = [budget[v] for v in range(h.n)]
    for v, cap in enumerate(caps):
        _check_count(f"budget[{v}]", cap, 0)
    owner = [edge[0] for edge in h.edges]
    dead = _reorient(h.edges, range(h.e), caps, owner)
    if dead:
        witness = tuple(sorted(dead))
        inside = len(h.edges_inside(witness))
        cap = sum(caps[v] for v in witness)
        assert inside > cap, "a dead set must violate the capacity condition"
        return Infeasible(witness, inside, cap)
    orders = [(v,) + tuple(u for u in edge if u != v) for v, edge in zip(owner, h.edges)]
    return Orientation(h, tuple(orders))


def orient_max_outdeg(h: Hypergraph, k: int) -> Orientation | Infeasible:
    """Orientation with every position-0 degree at most k, if one exists."""
    _check_count("k", k, 0)
    return orient_budget(h, {v: k for v in range(h.n)})


def orient_from_partition(h: Hypergraph, k: int, parts: Sequence[Iterable[int]]) -> Orientation:
    """Orientation leaving every vertex of part i deficient at coordinate i.

    Needs each part sparse enough to orient internally with position-0
    degrees <= k-1 (equivalently Mad of the induced part <= r(k-1)).  Edges
    inside part i get that internal orientation rotated so the bounded
    position is i; every other edge takes its lexicographically first
    ordering in which no vertex of part i stands at position i (the
    lowest-index rule of orient_forbidden), which is ascending for an edge
    meeting no part.  The result has deg_i(v) <= k-1 for all v in part i.
    """
    _check_count("k", k, 1)
    try:
        count = len(parts)
    except TypeError:
        raise BadParams(f"parts {parts!r} are not a sequence of parts") from None
    if count > h.r:
        raise BadParams(f"at most r={h.r} parts allowed, got {count}")
    part_of = {}  # each part read once; the first bad vertex in part order names the error
    for i, part in enumerate(parts):
        try:
            vertices = iter(part)
        except TypeError:
            raise BadParams(f"part {part!r} is not an iterable of vertices") from None
        for v in vertices:
            _check_index("part vertex", v, h.n)
            if part_of.setdefault(v, i) != i:
                raise PartsNotDisjoint(f"vertex {v} is in two parts")

    # per edge the part each vertex is in, or -1; the part an edge lies inside, or -1
    get, unplaced = part_of.get, (-1,) * h.r
    patterns = [tuple(map(get, edge, unplaced)) for edge in h.edges]
    inside = [bar[0] if bar.count(bar[0]) == h.r else -1 for bar in patterns]
    internal = [ei for ei, i in enumerate(inside) if i >= 0]
    # a reorientation path from an edge inside part i stays in part i, so
    # one pass over all parts gives each part its own owners and dead set
    owner = [edge[0] for edge in h.edges]
    dead = _reorient(h.edges, internal, [k - 1] * h.n, owner) if internal else ()
    if dead:
        i = min(part_of[v] for v in dead)
        raise PartNotSparse(
            f"part {i} cannot bound coordinate {i} by {k - 1}; "
            f"dense subset {tuple(sorted(v for v in dead if part_of[v] == i))}"
        )
    orders = []
    for edge, bar, i, first in zip(h.edges, patterns, inside, owner):
        if i < 0:
            orders.append(tuple([edge[j] for j in _pattern_order(bar)]))
        else:
            base = (first,) + tuple(v for v in edge if v != first)
            orders.append(tuple(base[(j - i) % h.r] for j in range(h.r)))

    load = [0] * h.n
    for order in orders:
        for i, v in enumerate(order):
            if part_of.get(v) == i:
                load[v] += 1
    assert max(load, default=0) <= k - 1, "partition orientation must bound its coordinate"
    return Orientation(h, tuple(orders))


@lru_cache(maxsize=1 << 14)
def _pattern_order(bar: tuple[int, ...]) -> tuple[int, ...] | None:
    """The pattern table: for the pattern bar (index i barred from position
    bar[i], or -1), the lexicographically first ordering of the indices
    that puts no index at its barred position, or None.  It fills as
    patterns are met; 2**14 entries hold all (r+1)**r patterns for every r
    up to 5, so the table stays bounded however many patterns arrive.

    A scan of the r! orderings would state this directly but can try
    nearly all of them before one fits, so the ordering is built one
    position at a time in O(r**3) steps.  Each index bars at most one
    position, so the unused indices fit the unfilled positions unless all
    of them are barred from one same later position; position j takes the
    lowest allowed index that avoids that.  Only a pattern barring every
    index from one position has no ordering.
    """
    left = list(range(len(bar)))
    order = []
    for j in range(len(bar)):
        for i in left:
            barred = {bar[u] for u in left if u != i}
            stalls = len(barred) == 1 and max(barred) > j
            if bar[i] != j and not stalls:
                break
        else:
            return None
        order.append(i)
        left.remove(i)
    return tuple(order)


def orient_forbidden(h: Hypergraph, coloring: Mapping, p: int) -> Orientation:
    """Orientation avoiding, for every colored p-set, its color coordinate.

    A p-set colored c must never occupy the rank-c position subset.  Each
    edge takes its lexicographically first ordering with no forbidden
    placement, and StuckEdge names the first edge with none.  So each
    vertex is barred from at most one position: v from its color at
    p = 1, and from r-1-c at p = r-1 if the rest of the edge is colored c.
    Only p = 1 and p = r-1 are accepted.  They guarantee an ordering of
    every edge only for colorings in which no fully colored edge is
    p-monochromatic, such as b_value's; any other coloring may raise
    StuckEdge.  `coloring` is the mapping from p-set to color itself (a
    PSetColoring's `colored`, not the PSetColoring).  Every key must be a
    sorted p-set of h's vertices (BadPSet otherwise); only the keys inside
    some edge are read.
    """
    _check_p(p, h.r)
    if p not in (1, h.r - 1):
        raise BadPSet(f"forbidden-coordinate orientations need p in {{1, r-1}}, got {p}")
    for pset, c in coloring.items():
        _check_pset(pset, h.n, h.r)
        if len(pset) != p:
            raise BadPSet(f"{pset} is not a {p}-set")
        _check_index(f"color of {pset}", c, h.r)
    orders = []
    for edge in h.edges:
        # the edge's pattern: the position each vertex is barred from, or -1
        if p == 1:
            bar = tuple([coloring.get((v,), -1) for v in edge])
        else:
            rests = (edge[:i] + edge[i + 1:] for i in range(h.r))
            bar = tuple([h.r - 1 - coloring[a] if a in coloring else -1 for a in rests])
        picks = _pattern_order(bar)
        if picks is None:
            raise StuckEdge(edge)
        orders.append(tuple([edge[j] for j in picks]))
    return Orientation(h, tuple(orders))
