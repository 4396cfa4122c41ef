"""Density and partition invariants of r-uniform hypergraphs.

Mad(H) is the maximum over nonempty vertex sets F of r*e(F)/|F|, an exact
rational.  A sub-hypergraph induced by F keeps only edges entirely inside
F; independence means containing no full edge; degeneracy is the largest
min-degree over induced sub-hypergraphs.  M(H,k) is the largest union of
r disjoint vertex sets whose induced parts all satisfy Mad <= r*k.

alpha, beta, M(H,k) and (in ``ramsey``) b(H,p) are one problem:
the largest union of q disjoint vertex sets, each with a hereditary
sparsity property.  ``_sparse_parts`` is the single branch and bound that
solves it.  ``chromatic_exact`` runs it once per palette size q (a proper
q-coloring is q independent sets covering V) and ``hit_triangles`` is n
minus the independence number of the triangle hypergraph.
All searches have explicit node budgets and deterministic orderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from heapq import heappop, heappush
from operator import add, and_
from typing import Iterable

from .hypercore import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    Hypergraph,
    HyperfError,
    _check_count,
    _check_graph,
    _check_kind,
    _neighbours,
)
from .netflow import FlowNetwork
from .orient import _reorient


class NotDegenerateEnough(HyperfError):
    """Hypergraph too degenerate-dense to split into r sparse parts."""


# --------------------------------------------------------- maximum average degree


def mad_bruteforce(h: Hypergraph) -> Fraction:
    """Mad by scanning all vertex subsets (n <= 20).

    cnt[m] counts the edges inside the subset with bitmask m: each edge
    marks its own mask, and one pass per vertex b adds the lower half of
    every block of 2^(b+1) masks into its upper half, where bit b is set.
    The densest subset is kept as a pair (edges, size), compared by cross
    multiplication, so one Fraction is built at the end.
    """
    if h.n > 20:
        raise BudgetExceeded(f"subset scan needs n <= 20, got {h.n}")
    if h.e == 0 or h.n == 0:
        return Fraction(0)
    size = 1 << h.n
    cnt = [0] * size
    for edge in h.edges:
        cnt[_mask(edge)] += 1
    for b in range(h.n):
        half = 1 << b
        for lo in range(0, size, 2 * half):
            mid, hi = lo + half, lo + 2 * half
            cnt[mid:hi] = map(add, cnt[mid:hi], cnt[lo:mid])
    edges, verts = 0, 1
    for m, c in enumerate(cnt):
        if c * verts > edges * m.bit_count():
            edges, verts = c, m.bit_count()
    return Fraction(h.r * edges, verts)


def _mad_feasible(h: Hypergraph, value: Fraction) -> tuple[bool, FlowNetwork]:
    """Whether Mad(H) <= value = a/b, and the flow network that decides it,
    after its max flow.

    Node v < n is vertex v, n the source, n + 1 + i edge i and n + 1 + e
    the sink.  Each edge node gets r*b units from the source and may ship
    them to its vertices, and each vertex absorbs at most a; Mad <= a/b
    exactly when all r*b*e units arrive.  The arcs are added in one call,
    per edge its source arc and then its vertices in order, and then the
    sink arcs, so edge i's arc to its j-th vertex has id 2*((r+1)*i + 1 + j).
    """
    a, b = value.numerator, value.denominator
    r, e, n = h.r, h.e, h.n
    supply = r * b
    source, sink = n, n + 1 + e
    per_edge = r + 1
    nodes = range(n + 1, sink)
    tails = [source] * (per_edge * e)
    heads = tails[:]
    heads[::per_edge] = nodes
    for j, column in enumerate(zip(*h.edges), 1):
        tails[j::per_edge] = nodes
        heads[j::per_edge] = column
    tails += range(n)
    heads += [sink] * n
    net = FlowNetwork(sink + 1, source, sink)
    net.add_arcs(tails, heads, [supply] * (per_edge * e) + [a] * n)
    return net.max_flow() == supply * e, net


def _mad_certified(h: Hypergraph) -> tuple[Fraction, tuple[int, ...], FlowNetwork | None]:
    """Mad, its witness and the network of the flow that certifies it
    (None without edges); see `mad_exact`."""
    if h.e == 0:
        return Fraction(0), tuple(range(min(1, h.n))), None
    _, _, deleted = _peel(h, range(h.n))
    left, size = h.e, h.n
    best = (left, size)
    for d in deleted[:-1]:
        left -= d
        size -= 1
        if left * best[1] > best[0] * size:
            best = (left, size)
    value = Fraction(h.r * best[0], best[1])
    while True:
        feasible, net = _mad_feasible(h, value)
        if feasible:
            break
        side = net.min_cut_source_side()
        denser = [v for v in range(h.n) if v in side]
        value = Fraction(h.r * len(h.edges_inside(denser)), len(denser))
    reach = net.min_cut_sink_side()
    return value, tuple(v for v in range(h.n) if v not in reach), net


def mad_exact(h: Hypergraph) -> tuple[Fraction, tuple[int, ...]]:
    """Exact Mad and the largest vertex set attaining it (Dinkelbach).

    The start is the densest suffix of the min-degree peeling order
    (Charikar 2000), a lower bound on Mad that often attains it.  At a
    value a/b below Mad the flow test's min cut (`_mad_feasible`) leaves
    the smallest set F maximising r*b*e(F) - a*|F|, which is denser than
    a/b, and the next step runs at its density.  A flow that ships every
    unit certifies Mad <= value, so value = Mad.  In its residual graph
    the vertices that cannot reach the sink form the largest maximiser of
    r*b*e(F) - a*|F|; at a/b = Mad the maximum is 0 and the maximisers
    are the densest sets and the empty set, so that is the largest
    densest set, the union of them all.  Without edges the witness is
    vertex 0 alone.
    """
    value, witness, _ = _mad_certified(h)
    return value, witness


def mad_certificate(h: Hypergraph) -> tuple[Fraction, tuple[int, ...], list[tuple[int, ...]]]:
    """Mad = a/b, the largest densest set and the spread that proves
    Mad <= a/b: one row per edge of h.edges, the amounts the certifying
    flow ships to the edge's vertices in order.  Each row sums to r*b and
    no vertex receives more than a in all, so summing over the edges inside
    any vertex set F gives r*b*e(F) <= a*|F|.
    """
    value, witness, net = _mad_certified(h)
    r = h.r
    spread = [tuple(net.flow_on(2 * ((r + 1) * i + 1 + j)) for j in range(r)) for i in range(h.e)]
    return value, witness, spread


# ------------------------------------------------------ degeneracy and coloring


def degeneracy(h: Hypergraph) -> tuple[int, list[int]]:
    """Degeneracy and a min-degree elimination order (lowest index on ties)."""
    d, order, _ = _peel(h, range(h.n))
    return d, order


def _peel(h: Hypergraph, vertices: Iterable[int]) -> tuple[int, list[int], list[int]]:
    """Degeneracy of the sub-hypergraph induced by the given vertices, its
    min-degree elimination order (lowest index on ties) and the number of
    edges each removal deletes, which is the vertex's degree when it goes.

    Vertices are held at their positions in ascending order, and the heap
    key d*m + p of position p at degree d orders as (d, p), so ties break
    as on (degree, vertex).  An edge is alive until its first vertex goes,
    and a vertex's degree counts its live edges.
    """
    verts = sorted(vertices)
    m = len(verts)
    pos = [-1] * h.n
    for i, v in enumerate(verts):
        pos[v] = i
    # the edges inside, as position tuples, mapped column by column
    at = pos.__getitem__
    members = [ps for ps in zip(*(map(at, col) for col in zip(*h.edges))) if -1 not in ps]
    incident: list[list[int]] = [[] for _ in verts]
    for ei, ps in enumerate(members):
        for p in ps:
            incident[p].append(ei)
    alive = [True] * len(members)
    deg = [len(edges) for edges in incident]
    # a sorted list is a heap; an entry left behind by a decrement is stale,
    # and a removed vertex's degree is -1
    heap = sorted(d * m + p for p, d in enumerate(deg))
    order, deleted = [], []
    dmax = 0
    while heap:
        d, p = divmod(heappop(heap), m)
        if d != deg[p]:
            continue
        if d > dmax:
            dmax = d
        order.append(verts[p])
        deleted.append(d)
        deg[p] = -1
        for ei in incident[p]:
            if alive[ei]:
                alive[ei] = False
                for u in members[ei]:
                    if u != p:
                        deg[u] -= 1
                        heappush(heap, deg[u] * m + u)
    return dmax, order, deleted


def _first_fit(h: Hypergraph, order: list[int], cap: int) -> list[int]:
    """Label each vertex, taken from the end of the elimination order, with
    the lowest class in which it closes at most `cap` edges; an edge closes
    in a class when its other vertices already carry that class.

    A vertex closes at most degeneracy-many edges in all, so with d the
    degeneracy every label is at most floor(d / (cap + 1)).
    """
    incident: list[list[tuple[int, ...]]] = [[] for _ in range(h.n)]
    for edge in h.edges:
        for v in edge:
            incident[v].append(edge)
    label = [-1] * h.n  # an unlabelled vertex is in class -1, which no vertex takes
    for v in reversed(order):
        closed = []
        for edge in incident[v]:
            classes = {label[u] for u in edge if u != v}
            if len(classes) == 1:
                closed.append(classes.pop())
        c = 0
        while closed.count(c) > cap:
            c += 1
        label[v] = c
    return label


def szekeres_wilf_coloring(h: Hypergraph) -> list[int]:
    """Greedy coloring along the reverse elimination order.

    No edge ends up monochromatic and at most degeneracy+1 colors appear
    (each vertex, when colored, sits in at most `degeneracy` edges whose
    other vertices are all colored already).
    """
    return _first_fit(h, degeneracy(h)[1], 0)


def _greedy_clique(h: Hypergraph) -> int:
    adj = _neighbours(h)
    order = sorted(range(h.n), key=lambda v: (-len(adj[v]), v))
    clique: set[int] = set()
    for v in order:
        if clique.issubset(adj[v]):
            clique.add(v)
    return len(clique)


def chromatic_exact(h: Hypergraph, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Smallest number of colors leaving no edge monochromatic.

    A proper q-coloring is q disjoint independent sets covering V, so each
    q from a cheap lower bound up to the greedy upper bound is one
    sparse-parts search with q parts, cap 0 and incumbent n - 1.  One
    budget bounds the nodes of all q together; BudgetExceeded on budget
    exhaustion carries the proven bracket.
    """
    _check_count("budget", budget, 0)
    _check_kind(h, Hypergraph, "chromatic_exact")
    if h.n == 0:
        return 0
    if h.e == 0:
        return 1
    upper = max(szekeres_wilf_coloring(h)) + 1
    lower = 2
    if h.r == 2:
        lower = max(lower, _greedy_clique(h))
    spent = 0
    for q in range(lower, upper):
        try:
            covered, _, nodes = _sparse_parts(h, q, 0, budget - spent, "coloring search",
                                              incumbent=h.n - 1)
        except BudgetExceeded:
            raise BudgetExceeded(
                f"coloring search exceeded {budget} nodes", lower=q, upper=upper
            ) from None
        if covered == h.n:
            return q
        spent += nodes
    return upper


# ----------------------------------------------- independence-type invariants


def _mask(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in vertices)


def _members(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _sparse_parts(h: Hypergraph, q: int, cap: int, budget: int, label: str,
                  exact=None, greedy: bool = False,
                  incumbent: int = 0) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """Largest union of q disjoint vertex sets that are each sparse.

    A set S is sparse when it spans at most cap*|S| edges and, if it spans
    any, exact(bitmask of S) approves it.  The property must be closed
    under taking subsets, so a refused addition prunes the whole branch,
    and adding a vertex that closes at most cap edges must keep it, so
    exact is asked only when an addition closes more than cap edges.  cap
    is 0 for independent sets, k for Mad <= r*k (the closed edges can all
    be given to the added vertex, so by Hakimi's theorem no load passes k),
    and d for d-degenerate sets (peeling one removes at most d edges per
    vertex, and the added vertex has degree <= d in every subset holding
    it).

    Branch and bound over vertices in (-degree, index) order: a vertex
    joins each nonempty part, then the first empty one (parts fill in
    index order, which breaks their symmetry), and stays out last.  Each
    part is a bitmask with one more number, restored by the stack frame
    that undoes a join.  Above cap 0 it is the spanned-edge count, and
    adding v counts the edges v closes (at r = 2, its neighbours in the
    part).  At cap 0 it is the blocked mask, the vertices that would close
    an edge of the part: the fit test is one bit, and a joining v blocks
    each vertex that one of its edges leaves alone outside the part.

    Only a union larger than `incumbent` is recorded, and a node at depth
    i, or a stay-out child before it is visited or counted, is dead once
    the parts' vertices plus the room suf[i] could not beat it; suf[i]
    bounds the union on order[i:].  greedy seeds the incumbent with
    first-fit passes in search, reversed and index order, and a union of
    all n vertices ends the search.

    At cap 0 one pass from the root searches, and the room is the n - i
    undecided vertices less the forced ones.  With no part empty, a vertex
    blocked in every part must stay out (parts only grow below the node
    and the property is hereditary): the AND of the blocked masks holds no
    part's vertex and is 0 while a part is empty, and less the vertices
    staying out it is the forced ones.  This prunes only subtrees with no
    larger union, so no result changes.  At incumbent n - 1 no vertex may
    stay out, which leaves a search for q independent sets covering V,
    i.e. a q-coloring.

    Above cap 0 the search runs in Russian-doll stages (Verfaillie,
    Lemaitre and Schiex 1996), and suf[i] is the largest union on order[i:]
    itself.  Stage s, from n - 1 down to 0, finds suf[s], which is
    suf[s + 1] or one more, and one more only with order[s] in the union.
    The stage first tries order[s] in each part of the last stage's union;
    only if no part takes it does it search order[s + 1:], with order[s]
    in part 0 (the parts are alike), for a union of suf[s + 1] + 1
    vertices, recorded and ending the stage as soon as it is reached.  No
    union beats suf[s + 1] + s + 1, so the stages end once that is no more
    than the incumbent, and a stage's union that beats the incumbent is
    recorded.  The root, stage n with the empty suffix, is node 1, and each
    later stage counts one node before its search counts its own.  The
    stages prune far more than the suffix length does, and may return
    another union of the same size than a single pass would.

    The t vertices in no edge are left out of the search: they sort last,
    part 0 takes each of them, and none changes whether another vertex
    fits.  So the search runs over the others from incumbent - t, and t
    is added back: to the size, to part 0 of a recorded union and to a
    budget exit's numbers.  A node is thus counted only over vertices
    that lie in an edge.  Returns the size (the incumbent, with empty
    parts, if nothing beats it), the parts as ascending vertex tuples and
    the nodes expanded.  BudgetExceeded after `budget` nodes carries the
    incumbent size as `best`; above cap 0 it is also `lower`, and `upper`
    is suf[s + 1] + s + 1 for the stage s that ran out (n at the root).
    """
    r = h.r
    degs = h.degrees()
    active = sorted(set().union(*h.edges))
    free = h.n - len(active)
    # a stable sort keeps ascending index among equal degrees
    order = sorted(active, key=degs.__getitem__, reverse=True)
    n = len(order)  # the search depth
    closers: list[list[int]] = [[] for _ in range(h.n)]
    reach = [0] * h.n
    for edge in h.edges:
        mask = _mask(edge)
        for v in edge:
            rest = mask ^ 1 << v
            closers[v].append(rest)
            reach[v] |= rest

    if cap == 0:
        def grow(part, blocked, v):
            """The blocked mask of part + v, or -1 when v closes an edge."""
            if blocked >> v & 1:
                return -1
            if r == 2:
                return blocked | reach[v]
            outside = ~part
            for rest in closers[v]:
                alone = rest & outside
                if alone & (alone - 1) == 0:
                    blocked |= alone
            return blocked
    else:
        def grow(part, count, v):
            """Edges spanned by part + v, or -1 when that set is not sparse."""
            # a closed edge needs r-1 part vertices that share an edge with v
            near = (part & reach[v]).bit_count()
            if near < r - 1:
                return count
            grown = count + (near if r == 2 else sum(rest & part == rest for rest in closers[v]))
            if grown > cap * (part.bit_count() + 1):
                return -1
            if grown - count > cap and exact is not None and not exact(part | 1 << v):
                return -1
            return grown

    best, best_parts = incumbent - free, [0] * q
    if greedy:
        for seq in (order, order[::-1], active):
            parts, aux = [0] * q, [0] * q
            for v in seq:
                for j in range(q):
                    grown = grow(parts[j], aux[j], v)
                    if grown >= 0:
                        parts[j] |= 1 << v
                        aux[j] = grown
                        break
            used = sum(part.bit_count() for part in parts)
            if used > best:
                best, best_parts = used, parts
                if best == n:
                    break

    # suf[i] bounds the union on order[i:]: its length, which the stages
    # above cap 0 replace by the largest such union
    suf = list(range(n, -1, -1))

    def descend(parts, aux, lo, used, best, top, nodes):
        """Depth-first over order[lo:] from parts holding `used` vertices.

        A union larger than best is recorded at a leaf, or as soon as it
        holds top vertices, which ends the search.  Returns best, the
        recorded parts with their numbers (None if nothing beat best) and
        the node count, which exceeds budget if the search ran out.
        """
        record = None
        # frames (part index, part before, its number before), one per decided
        # vertex instead of recursion; part index q: the vertex stays out and
        # is in the mask `out`
        stack: list[tuple[int, int, int]] = []
        j = out = 0  # j: next part to try at depth lo + len(stack), 0 on entry
        while True:
            i = lo + len(stack)
            dead = False
            if j == 0:
                nodes += 1
                if nodes > budget:
                    break
                if used > best and (i == n or used == top):
                    best, record = used, (parts[:], aux[:])
                    if best == top:
                        break
                slack = used + suf[i] - best
                dead = slack <= 0 or not cap and (reduce(and_, aux) & ~out).bit_count() >= slack
            if not dead:
                v = order[i]
                while j < q and (j == 0 or parts[j - 1]):
                    part, old = parts[j], aux[j]
                    grown = grow(part, old, v)
                    if grown >= 0:
                        parts[j], aux[j] = part | 1 << v, grown
                        used += 1
                        break
                    j += 1
                else:
                    j, part, old = q, 0, 0
                    out |= 1 << v
                    # a stay-out child that cannot beat best is pruned unvisited
                    slack = used + suf[i + 1] - best
                    dead = slack <= 0 or not cap and (reduce(and_, aux) & ~out).bit_count() >= slack
                    if dead:
                        out ^= 1 << v
                if not dead:
                    stack.append((j, part, old))
                    j = 0
                    continue
            while stack:
                j, part, old = stack.pop()
                if j < q:
                    parts[j], aux[j] = part, old
                    used -= 1
                    j += 1
                    break
                out ^= 1 << order[lo + len(stack)]
            else:
                break
        return best, record, nodes

    if cap == 0:
        best, record, nodes = descend([0] * q, [0] * q, 0, 0, best, n, 0)
        if record:
            best_parts = record[0]
        if nodes > budget:
            raise BudgetExceeded(f"{label} exceeded {budget} nodes", best=best + free)
    else:
        # the Russian-doll stages: stage s solves order[s:], whose largest
        # union, of suf[s] vertices, is `union`, its parts' numbers `counts`
        union, counts = [0] * q, [0] * q
        s = upper = n
        nodes = 1  # the root: stage n, the empty suffix, and its empty union
        while nodes <= budget:
            if suf[s] > best:
                best, best_parts = suf[s], union[:]
            upper = suf[s] + s  # order[:s] adds at most one vertex each
            if upper <= best:
                break
            s -= 1
            nodes += 1  # the stage's node
            if nodes > budget:
                continue
            v = order[s]
            for j in range(q):  # order[s] joins the last union if a part takes it
                grown = grow(union[j], counts[j], v)
                if grown >= 0:
                    union[j] |= 1 << v
                    counts[j] = grown
                    suf[s] = suf[s + 1] + 1
                    break
            else:
                # else a larger union holds it, in part 0 as the parts are alike,
                # and the room below depth i is suf[i]; the stage's value is read
                # only if its search finished
                top = suf[s + 1] + 1
                empty = [0] * (q - 1)
                _, record, nodes = descend([1 << v, *empty], [grow(0, 0, v), *empty], s + 1, 1,
                                           top - 1, top, nodes)
                if record:
                    union, counts = record
                suf[s] = top if record else top - 1
        else:
            raise BudgetExceeded(f"{label} exceeded {budget} nodes", best=best + free,
                                 lower=best + free, upper=upper + free)

    found = [_members(part) for part in best_parts]
    if best > incumbent - free:
        found[0] = tuple(sorted(set(range(h.n)).difference(active).union(found[0])))
    return best + free, tuple(found), nodes


def alpha(h: Hypergraph, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Independence number: largest set containing no full edge."""
    _check_count("budget", budget, 0)
    _check_kind(h, Hypergraph, "alpha")
    return _sparse_parts(h, 1, 0, budget, "subset search")[0]


def beta(h: Hypergraph, d: int, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Largest vertex set whose induced sub-hypergraph is d-degenerate.

    The sparse-parts search with one part and cap d, whose exact test
    peels the part.  At d = 0 it is `alpha`'s single pass; at d >= 1 it
    runs in the engine's suffix stages, and BudgetExceeded carries the
    bracket [lower, upper] on the value.
    """
    _check_count("budget", budget, 0)
    _check_kind(h, Hypergraph, "beta")
    _check_count("d", d, 0)

    def degenerate(part):
        return _peel(h, _members(part))[0] <= d

    return _sparse_parts(h, 1, d, budget, "subset search", degenerate)[0]


def hit_triangles(g: Hypergraph, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Minimum number of vertices meeting every triangle of a graph.

    A vertex set meets every triangle exactly when the rest contains no
    triangle, so this is n minus the independence number of the 3-uniform
    hypergraph of g's triangles, found by the sparse-parts search.
    BudgetExceeded carries the smallest hitting set found as `best`.
    """
    _check_count("budget", budget, 0)
    _check_graph(g, "hit_triangles")
    adj = _neighbours(g)
    tris = [(u, w, x) for u, w in g.edges for x in adj[u] & adj[w] if x > w]  # each once, u < w < x
    if not tris:
        return 0
    try:
        free = _sparse_parts(Hypergraph(g.n, 3, tris), 1, 0, budget, "triangle hitting search")[0]
    except BudgetExceeded as exc:
        # the engine's incumbent is a triangle-free set; its complement hits every triangle
        raise BudgetExceeded(str(exc), best=g.n - exc.best) from None
    return g.n - free


# --------------------------------------------------------------- M(H, k)


@dataclass(frozen=True)
class MValueResult:
    value: int
    parts: tuple[tuple[int, ...], ...]
    remainder: tuple[int, ...]


def _hakimi_oracle(h: Hypergraph, k: int):
    """A test of vertex sets S (bitmasks): does every subset F of S span at
    most k*|F| edges, i.e. is Mad(S) <= r*k?

    By Hakimi's theorem that holds exactly when `orient._reorient` gives
    each edge inside S one of its vertices with no vertex given more than
    k.  The test keeps `owner`, the vertex each edge was last given,
    across calls.  An owner is always a vertex of its edge, so it lies in
    S whenever the edge does: an owner left stale by another set or by
    backtracking costs at most a repair, never a wrong answer.  Answers
    are cached per set.
    """
    edges = h.edges
    edge_masks = [_mask(edge) for edge in edges]
    caps = [k] * h.n
    owner = [edge[0] for edge in edges]

    @cache
    def sparse(mask):
        inside = [ei for ei, em in enumerate(edge_masks) if em & mask == em]
        return not _reorient(edges, inside, caps, owner)

    return sparse


def m_value(h: Hypergraph, k: int, budget: int = DEFAULT_NODE_BUDGET) -> MValueResult:
    """M(H,k): largest union of r disjoint parts, each with Mad <= r*k.

    The sparse-parts search with cap k, seeded by three greedy passes.  A
    part spanning at most k*|part| edges is tested exactly by
    `_hakimi_oracle`'s warm-started reorientation, but only when the vertex
    just added closes more than k edges: a sparse part stays sparse when
    the added vertex takes the edges it closes.  Mad only grows with the
    set, so a failed part is never extended.  At k = 0 no part spans an
    edge, so no test is built, and the search is one pass.  At k >= 1 it
    runs in the engine's suffix stages: the parts are deterministic but
    need not be those a single pass would find, and BudgetExceeded
    carries the bracket [lower, upper] on the value.
    """
    _check_count("budget", budget, 0)
    _check_kind(h, Hypergraph, "m_value")
    _check_count("k", k, 0)
    mad_ok = _hakimi_oracle(h, k) if k > 0 else None
    value, parts, _ = _sparse_parts(h, h.r, k, budget, "M search", mad_ok, greedy=True)
    remainder = tuple(sorted(set(range(h.n)).difference(*parts)))
    return MValueResult(value, parts, remainder)


def partition_degenerate(h: Hypergraph, k: int) -> list[list[int]]:
    """Split V into r parts, each inducing a k-degenerate sub-hypergraph.

    Works whenever H is (r(k+1)-1)-degenerate: walking the elimination
    order backwards, each vertex has at most r(k+1)-1 edges into the
    already-placed vertices, so some part receives at most k of them.
    """
    _check_count("k", k, 0)
    d, order = degeneracy(h)
    limit = h.r * (k + 1) - 1
    if d > limit:
        raise NotDegenerateEnough(
            f"degeneracy {d} exceeds r(k+1)-1 = {limit}; no split guaranteed"
        )
    label = _first_fit(h, order, k)
    assert max(label, default=0) < h.r, "pigeonhole on the elimination degree must find a part"
    parts = [[v for v in range(h.n) if label[v] == i] for i in range(h.r)]
    for part in parts:
        assert _peel(h, part)[0] <= k
    return parts
