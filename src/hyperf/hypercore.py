"""Core data model for r-uniform hypergraphs and their orientations.

Vertices are the integers 0..n-1.  An edge is a sorted tuple of r distinct
vertices; the edge list is lexicographically sorted and holds no edge twice
(a repeated edge raises DuplicateEdge), so a hypergraph has exactly one
stored representation.  An orientation assigns to each edge an ordering
of its r vertices; the vertex at index i of that ordering occupies
position i (0-based, positions 0..r-1).

For 1 <= p <= r-1, the p-subsets of the position set {0..r-1} are ranked
lexicographically (rank 0 is {0..p-1}); the degree vector of a p-set A of
vertices has one coordinate per position-subset, counting the edges in
which A occupies exactly that set of positions (`_placements`).  The
p-sets inside some edge are numbered, in lexicographic order, by
`_touched_psets` alone, and `_full_psets` alone recounts the p-sets that
are full at level k (every coordinate >= k) under an orientation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, product, repeat
from typing import Iterable, Iterator, Sequence


class HyperfError(Exception):
    """Base class for all errors raised by this package."""


class BadParams(HyperfError):
    """Parameters outside the documented domain."""


class VertexOutOfRange(HyperfError):
    pass


class RepeatedVertexInEdge(HyperfError):
    pass


class DuplicateEdge(HyperfError):
    """Raised with the offending edge; duplicates are never dropped silently."""


class BadPSet(HyperfError):
    """A p-set argument is not a sorted tuple of distinct in-range vertices."""


class FormatError(HyperfError):
    """Malformed hypergraph/orientation text."""


class BudgetExceeded(HyperfError):
    """An enumeration or search outgrew its explicit budget.

    Carries whatever partial knowledge the search had: `best` (incumbent
    value), and `lower`/`upper` bracketing the true answer when known.
    """

    def __init__(self, message, best=None, lower=None, upper=None):
        super().__init__(message)
        self.best = best
        self.lower = lower
        self.upper = upper


DEFAULT_NODE_BUDGET = 10**7


def _check_count(name: str, value, least: int, error: type[HyperfError] = BadParams):
    """The one rule for a count argument (n, r, p, k, t, d, m, a class size,
    a cap, a budget): an integer no smaller than `least`.  Every public
    search, or the first search it calls, checks its budget here first."""
    if not isinstance(value, int) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


def _check_index(name: str, value, size: int, error: type[HyperfError] = BadParams):
    """The one rule for an index argument outside an edge (a position, a
    part vertex, a p-set vertex, a colour): an integer in 0..size-1."""
    if not isinstance(value, int) or not (0 <= value < size):
        raise error(f"{name} must be an integer in 0..{size - 1}, got {value!r}")


def _check_p(p: int, r: int):
    _check_count("p", p, 1, BadPSet)
    if p > r - 1:
        raise BadPSet(f"need p <= r-1 = {r - 1}, got p={p}")


def _check_sizes(sizes: Sequence[int]):
    """The class sizes of a complete multipartite graph: at least one, each >= 1."""
    try:
        classes = len(sizes)
    except TypeError:
        raise BadParams(f"class sizes {sizes!r} are not a sequence") from None
    _check_count("number of classes", classes, 1)
    for size in sizes:
        _check_count("class size", size, 1)


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph.  Edges come in any order and are stored
    canonically: each is checked (length, range, repeats) and sorted, the
    list is sorted, and an edge given twice raises DuplicateEdge."""

    n: int
    r: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_count("n", self.n, 0)
        _check_count("r", self.r, 2)
        try:
            raws = iter(self.edges)
        except TypeError:
            raise BadParams(f"edges {self.edges!r} are not an iterable of edges") from None
        edges = []
        for raw in raws:
            _check_edge(raw, self.n, self.r)
            edges.append(tuple(sorted(raw)))
        edges.sort()
        for e, after in zip(edges, edges[1:]):
            if e == after:
                raise DuplicateEdge(f"duplicate edge {e}")
        object.__setattr__(self, "edges", tuple(edges))

    @property
    def e(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        degs = [0] * self.n
        for edge in self.edges:
            for v in edge:
                degs[v] += 1
        return degs

    def edges_inside(self, vertices: Iterable[int]) -> list[int]:
        """Indices of edges entirely contained in the given vertex set."""
        vs = set(vertices)
        return [i for i, edge in enumerate(self.edges) if vs.issuperset(edge)]


def _check_edge(e: Sequence[int], n: int, r: int):
    try:
        size = len(e)
    except TypeError:
        raise BadParams(f"edge {e!r} is not a sequence of vertices") from None
    if size != r:
        raise BadParams(f"edge {tuple(e)} does not have {r} vertices")
    for v in e:
        if not isinstance(v, int) or not (0 <= v < n):  # inline: this runs on every vertex
            _check_index("vertex", v, n, VertexOutOfRange)
    if len(set(e)) != r:
        raise RepeatedVertexInEdge(f"repeated vertex in edge {tuple(e)}")


def canonicalize(raw_edges: Iterable[Sequence[int]], n: int, r: int) -> Hypergraph:
    """Build a Hypergraph from unordered edge tuples (see Hypergraph)."""
    return Hypergraph(n, r, tuple(raw_edges))


@dataclass(frozen=True)
class Orientation:
    """An orientation: one ordering per edge, aligned with base.edges."""

    base: Hypergraph
    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            orders = tuple(tuple(o) for o in self.orders)
        except TypeError:
            raise BadParams("orders must be one sequence of vertices per edge") from None
        object.__setattr__(self, "orders", orders)
        if len(self.orders) != self.base.e:
            raise BadParams("one order per edge required")
        for edge, order in zip(self.base.edges, self.orders):
            try:
                if tuple(sorted(order)) == edge:
                    continue
            except TypeError:  # a vertex that does not compare with integers
                pass
            raise BadParams(f"order {order} is not a permutation of edge {edge}")


def ascending_orientation(h: Hypergraph) -> Orientation:
    """Every edge ordered by increasing vertex number."""
    return Orientation(h, h.edges)


def random_orientation(h: Hypergraph, seed: int) -> Orientation:
    rng = random.Random(seed)
    orders = []
    for edge in h.edges:
        order = list(edge)
        rng.shuffle(order)
        orders.append(tuple(order))
    return Orientation(h, tuple(orders))


@dataclass(frozen=True)
class DegreeVector:
    """The C(r,p) position-subset counts of one p-set of vertices."""

    pset: tuple[int, ...]
    coords: tuple[int, ...]


def _check_pset(pset: Sequence[int], n: int, r: int) -> tuple[int, ...]:
    try:
        t = tuple(pset)
    except TypeError:
        raise BadPSet(f"p-set {pset!r} is not a sequence of vertices") from None
    p = len(t)
    if not (1 <= p <= r - 1):
        raise BadPSet(f"p-set size must be in 1..{r - 1}, got {t}")
    for v in t:  # before sorting, which a non-integer vertex may break
        _check_index("p-set vertex", v, n, BadPSet)
    if list(t) != sorted(set(t)):
        raise BadPSet(f"p-set {t} must be sorted and distinct")
    return t


def _placements(orders: Iterable[Sequence[int]], r: int, p: int) -> Iterator[list[tuple[int, ...]]]:
    """Per ordered edge, the sorted p-set at each position subset, in rank order.

    At p = 1 rank i is position i.  At p = r-1 rank i leaves out position
    r-1-i, so its p-set is the sorted edge without the vertex there.
    """
    if p == 1:
        for order in orders:
            yield [(v,) for v in order]
    elif p == r - 1:
        for order in orders:
            edge = tuple(sorted(order))
            yield [edge[:j] + edge[j + 1:] for j in map(edge.index, reversed(order))]
    else:
        subsets = list(combinations(range(r), p))
        for order in orders:
            yield [tuple(sorted([order[i] for i in s])) for s in subsets]


def _touched_psets(h: Hypergraph, p: int) -> dict[tuple[int, ...], int]:
    """The p-sets inside some edge, each mapped to its id: its index in
    lexicographic order."""
    psets = sorted({a for edge in h.edges for a in combinations(edge, p)})
    return {a: i for i, a in enumerate(psets)}


def _full_psets(d: Orientation, p: int, k: int) -> set[tuple[int, ...]]:
    """The p-sets whose coordinates are all >= k >= 1 under d, in one pass
    over the placements: only a p-set inside some edge can be full."""
    npos = math.comb(d.base.r, p)
    rows = _placements(d.orders, d.base.r, p)
    # how many ordered edges place each p-set at each rank
    placed = Counter(chain.from_iterable(map(zip, rows, repeat(range(npos)))))
    reached = Counter(a for (a, _), count in placed.items() if count >= k)
    return {a for a, ranks in reached.items() if ranks == npos}


def degree_vector(d: Orientation, pset: Sequence[int]) -> DegreeVector:
    """Degree vector of one p-set under the orientation."""
    h = d.base
    a = _check_pset(pset, h.n, h.r)
    coords = [0] * math.comb(h.r, len(a))
    aset = set(a)
    orders = [order for edge, order in zip(h.edges, d.orders) if aset.issubset(edge)]
    for placed in _placements(orders, h.r, len(a)):
        coords[placed.index(a)] += 1
    return DegreeVector(a, tuple(coords))


def degree_vectors(d: Orientation, p: int) -> dict[tuple[int, ...], list[int]]:
    """Degree vectors of all C(n,p) p-sets, keyed by sorted tuple.

    p-sets contained in no edge get all-zero coordinates.
    """
    h = d.base
    _check_p(p, h.r)
    npos = math.comb(h.r, p)
    vecs = {a: [0] * npos for a in combinations(range(h.n), p)}
    for placed in _placements(d.orders, h.r, p):
        for rank, a in enumerate(placed):
            vecs[a][rank] += 1
    return vecs


def max_coordinate(d: Orientation, i: int) -> int:
    """Max over vertices of the number of edges placing the vertex at position i."""
    h = d.base
    _check_index("position", i, h.r)
    cnt = [0] * h.n
    for order in d.orders:
        cnt[order[i]] += 1
    return max(cnt, default=0)


# ---------------------------------------------------------------- generators


def complete(n: int, r: int) -> Hypergraph:
    """All C(n,r) edges on n vertices."""
    _check_count("n", n, 0)  # before range(n) and combinations read them
    _check_count("r", r, 2)
    return Hypergraph(n, r, combinations(range(n), r))


def complete_multipartite(sizes: Sequence[int]) -> Hypergraph:
    """Complete multipartite graph; classes are consecutive vertex ranges."""
    _check_sizes(sizes)
    starts = list(accumulate(sizes, initial=0))
    classes = [range(a, b) for a, b in zip(starts, starts[1:])]
    edges = [e for one, other in combinations(classes, 2) for e in product(one, other)]
    return canonicalize(edges, starts[-1], 2)


def mop_fan(n: int) -> Hypergraph:
    """Fan maximal outerplanar graph: cycle 0..n-1 plus all chords from 0."""
    _check_count("n", n, 3)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    edges += [(0, i) for i in range(2, n - 1)]
    return canonicalize(edges, n, 2)


def mop_random(n: int, seed: int) -> Hypergraph:
    """Random maximal outerplanar graph: seeded triangulation of an n-cycle."""
    _check_count("n", n, 3)
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]

    def tri(a, b):
        # triangulate the polygon arc a..b closed by the chord (a, b)
        if b - a < 2:
            return
        m = rng.randrange(a + 1, b)
        if m - a >= 2:
            edges.append((a, m))
        if b - m >= 2:
            edges.append((m, b))
        tri(a, m)
        tri(m, b)

    tri(0, n - 1)
    return canonicalize(edges, n, 2)


def _check_kind(value, kind: type, name: str):
    """The one rule for a whole argument, such as a hypergraph or an
    orientation: an instance of its class."""
    if not isinstance(value, kind):
        raise BadParams(f"{name} expects {kind.__name__}, got {type(value).__name__}")


def _check_graph(g, name: str):
    """The one graph rule: a graph-only routine takes a Hypergraph with r = 2."""
    if not isinstance(g, Hypergraph) or g.r != 2:
        raise BadParams(f"{name} is defined for graphs (r=2)")


def _neighbours(g: Hypergraph) -> list[set[int]]:
    """Each vertex's neighbour set in the graph g."""
    adjacent = [set() for _ in range(g.n)]
    for u, w in g.edges:
        adjacent[u].add(w)
        adjacent[w].add(u)
    return adjacent


def join_k2(g: Hypergraph) -> Hypergraph:
    """Two copies of a graph with every cross pair added (the join with K2)."""
    _check_graph(g, "join_k2")
    n = g.n
    edges = list(g.edges)
    edges += [(u + n, w + n) for u, w in g.edges]
    edges += [(u, w + n) for u in range(n) for w in range(n)]
    return canonicalize(edges, 2 * n, 2)


def complement(g: Hypergraph) -> Hypergraph:
    _check_graph(g, "complement")
    present = set(g.edges)
    edges = [e for e in combinations(range(g.n), 2) if e not in present]
    return canonicalize(edges, g.n, 2)


def random_hypergraph(n: int, r: int, m: int, seed: int) -> Hypergraph:
    """m distinct edges drawn uniformly from the C(n,r) possibilities, seeded."""
    _check_count("r", r, 2)
    _check_count("n", n, r)
    _check_count("m", m, 0)
    total = math.comb(n, r)
    if m > total:
        raise BadParams(f"need m <= C({n},{r}) = {total}, got m={m}")
    rng = random.Random(seed)
    edges = []
    # each pick ranks an r-subset in lexicographic order; unrank it vertex by
    # vertex: of the t-subsets of lo..n-1, C(n-lo,t) - C(n-v,t) start below v,
    # so the next vertex is the largest v with at most rank of them
    for rank in sorted(rng.sample(range(total), m)):
        edge, lo = [], 0
        for t in range(r, 0, -1):
            span = math.comb(n - lo, t)
            v = lo - 1 + bisect_right(range(lo, n - t + 1), rank, key=lambda u: span - math.comb(n - u, t))
            rank -= span - math.comb(n - v, t)
            edge.append(v)
            lo = v + 1
        edges.append(tuple(edge))
    return Hypergraph(n, r, tuple(edges))


GENERATORS = {
    "complete": complete,
    "multipartite": complete_multipartite,
    "mop-fan": mop_fan,
    "mop-random": mop_random,
    "join-k2": join_k2,
    "complement": complement,
    "random": random_hypergraph,
}


def generate(family: str, **params) -> Hypergraph:
    """Dispatch to a generator by family name (see GENERATORS)."""
    if family not in GENERATORS:
        raise BadParams(f"unknown family {family!r}; choose from {sorted(GENERATORS)}")
    return GENERATORS[family](**params)


# ------------------------------------------------------------------ file I/O
#
# Line 1: "hypergraph n=<int> r=<int>" or "oriented n=<int> r=<int>".
# Then one line per edge: "e v1 .. vr" (unordered) or "o v1 .. vr" (the
# ordering, position 0 first).  '#' starts a comment, blank lines ignored.
# Writers emit canonical edge order; readers accept any order.


def to_text(obj: Hypergraph | Orientation) -> str:
    lines = []
    if isinstance(obj, Orientation):
        h = obj.base
        lines.append(f"oriented n={h.n} r={h.r}")
        for order in obj.orders:
            lines.append("o " + " ".join(str(v) for v in order))
    elif isinstance(obj, Hypergraph):
        lines.append(f"hypergraph n={obj.n} r={obj.r}")
        for edge in obj.edges:
            lines.append("e " + " ".join(str(v) for v in edge))
    else:
        raise BadParams(f"cannot serialize {type(obj).__name__}")
    return "\n".join(lines) + "\n"


def to_json(obj) -> str:
    """One JSON document, indented by 2 with sorted keys, for any report.

    A dataclass becomes the object of its fields (None prints as null),
    except an Orientation, which becomes {n, r, orders}.  A Fraction
    becomes "a/b".  A map keyed by tuples (a p-set colouring) becomes its
    sorted [key, value] pairs; any other map stays an object.  A tuple
    becomes a list.
    """
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True)


def _jsonable(obj):
    if obj is None or isinstance(obj, (int, str)):
        return obj  # before is_dataclass, which is slow on each of many leaves
    if isinstance(obj, Orientation):
        obj = {"n": obj.base.n, "r": obj.base.r, "orders": obj.orders}
    elif dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        if any(isinstance(key, tuple) for key in obj):
            return [[_jsonable(k), _jsonable(v)] for k, v in sorted(obj.items())]
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _content_lines(text: str) -> list[tuple[int, str]]:
    """The numbered non-blank lines of a text, each without its '#' comment."""
    stripped = ((no, raw.split("#", 1)[0].strip()) for no, raw in enumerate(text.splitlines(), 1))
    return [(no, line) for no, line in stripped if line]


def from_text(text: str) -> Hypergraph | Orientation:
    lines = [line for _, line in _content_lines(text)]
    if not lines:
        raise FormatError("empty input")
    header = lines[0].split()
    if len(header) != 3 or header[0] not in ("hypergraph", "oriented"):
        raise FormatError(f"bad header line {lines[0]!r}")
    try:
        if not header[1].startswith("n=") or not header[2].startswith("r="):
            raise ValueError
        n = int(header[1][2:])
        r = int(header[2][2:])
    except ValueError:
        raise FormatError(f"bad header line {lines[0]!r}") from None
    kind = header[0]
    tag = "e" if kind == "hypergraph" else "o"
    rows = []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] != tag:
            raise FormatError(f"expected {tag!r} lines in a {kind} file, got {line!r}")
        try:
            row = [int(x) for x in parts[1:]]
        except ValueError:
            raise FormatError(f"non-integer vertex in {line!r}") from None
        if len(row) != r:
            raise FormatError(f"row {line!r} does not have {r} vertices")
        rows.append(tuple(row))
    if kind == "hypergraph":
        return canonicalize(rows, n, r)
    return orientation_from_rows(rows, n, r)


def orientation_from_rows(rows: Iterable[Sequence[int]], n: int, r: int) -> Orientation:
    """Orientation from edge orderings given in any edge order."""
    rows = list(rows)
    base = canonicalize(rows, n, r)  # checks each row before it is sorted here
    order_of = {tuple(sorted(row)): tuple(row) for row in rows}
    return Orientation(base, tuple(order_of[edge] for edge in base.edges))


def _read_text(path) -> str:
    """A UTF-8 text file's contents; FormatError when it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_path(path) -> Hypergraph | Orientation:
    return from_text(_read_text(path))


def write_path(obj: Hypergraph | Orientation, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(obj))
