"""Density and partition invariants of r-uniform hypergraphs.

Mad(H) is the maximum over nonempty vertex sets F of r*e(F)/|F|, an exact
rational.  A sub-hypergraph induced by F keeps only edges entirely inside
F; independence means containing no full edge; degeneracy is the largest
min-degree over induced sub-hypergraphs.  M(H,k) is the largest union of
r disjoint vertex sets whose induced parts all satisfy Mad <= r*k.

All searches are exact branch-and-bound with explicit node budgets and
deterministic orderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .hypercore import (
    DEFAULT_NODE_BUDGET,
    BadParams,
    BudgetExceeded,
    Hypergraph,
    HyperfError,
)
from .orient import saturating_assignment


class NotDegenerateEnough(HyperfError):
    """Hypergraph too degenerate-dense to split into r sparse parts."""


# --------------------------------------------------------- maximum average degree


def mad_bruteforce(h: Hypergraph) -> Fraction:
    """Mad by scanning all vertex subsets (n <= 20)."""
    if h.n > 20:
        raise BudgetExceeded(f"subset scan needs n <= 20, got {h.n}")
    if h.e == 0 or h.n == 0:
        return Fraction(0)
    cnt = [0] * (1 << h.n)
    for edge in h.edges:
        mask = 0
        for v in edge:
            mask |= 1 << v
        cnt[mask] += 1
    for b in range(h.n):
        bit = 1 << b
        for m in range(1 << h.n):
            if m & bit:
                cnt[m] += cnt[m ^ bit]
    best = Fraction(0)
    for m in range(1, 1 << h.n):
        val = Fraction(h.r * cnt[m], m.bit_count())
        if val > best:
            best = val
    return best


def _mad_feasible(h: Hypergraph, value: Fraction):
    """None if Mad(H) <= value, else a vertex set F with r*e(F)/|F| > value."""
    a, b = value.numerator, value.denominator
    if a < 0:
        return tuple(h.edges[0]) if h.e else tuple(range(min(1, h.n)))
    flows, witness = saturating_assignment(
        h, range(h.e), {v: a for v in range(h.n)}, supply=h.r * b
    )
    return None if flows is not None else witness


def mad_exact(h: Hypergraph) -> tuple[Fraction, tuple[int, ...]]:
    """Exact Mad and a vertex set attaining it, via flow feasibility tests.

    Binary search over rationals: Mad <= a/b exactly when every edge can
    spread r*b units over its vertices with each vertex absorbing at most
    a.  Once the bracket is shorter than 1/n^2 it contains a single
    rational with denominator <= n, which must be the answer.
    """
    if h.n == 0:
        return Fraction(0), ()
    if h.e == 0:
        return Fraction(0), (0,)
    n = h.n
    lo, hi = Fraction(0), Fraction(h.r * h.e)
    gap = Fraction(1, n * n)
    while hi - lo >= gap:
        mid = (lo + hi) / 2
        if _mad_feasible(h, mid) is None:
            hi = mid
        else:
            lo = mid
    value = None
    for b in range(1, n + 1):
        a = (hi.numerator * b) // hi.denominator
        cand = Fraction(a, b)
        if cand > lo:
            value = cand
            break
    assert value is not None, "bracket must contain a denominator <= n rational"
    witness = _mad_feasible(h, value - Fraction(1, 2 * n * n))
    assert witness is not None
    wf = tuple(sorted(witness))
    inside = len(h.edges_inside(wf))
    assert Fraction(h.r * inside, len(wf)) == value
    assert _mad_feasible(h, value) is None
    return value, wf


# ------------------------------------------------------ degeneracy and coloring


def degeneracy(h: Hypergraph) -> tuple[int, list[int]]:
    """Degeneracy and a min-degree elimination order (lowest index on ties)."""
    alive = set(range(h.n))
    edge_alive = [True] * h.e
    deg = h.degrees()
    order = []
    dmax = 0
    incident = _incident(h)
    for _ in range(h.n):
        v = min(alive, key=lambda x: (deg[x], x))
        dmax = max(dmax, deg[v])
        order.append(v)
        alive.remove(v)
        for ei in incident[v]:
            if edge_alive[ei]:
                edge_alive[ei] = False
                for u in h.edges[ei]:
                    if u in alive:
                        deg[u] -= 1
    return dmax, order


def _incident(h: Hypergraph) -> list[list[int]]:
    inc = [[] for _ in range(h.n)]
    for ei, edge in enumerate(h.edges):
        for v in edge:
            inc[v].append(ei)
    return inc


def _subset_degeneracy(h: Hypergraph, vertices: Iterable[int]) -> int:
    """Degeneracy of the sub-hypergraph induced by the given vertices."""
    alive = set(vertices)
    inside = [set(h.edges[ei]) for ei in h.edges_inside(alive)]
    dmax = 0
    while alive:
        deg = {v: 0 for v in alive}
        for e in inside:
            for v in e:
                deg[v] += 1
        v = min(alive, key=lambda x: (deg[x], x))
        dmax = max(dmax, deg[v])
        alive.remove(v)
        inside = [e for e in inside if v not in e]
    return dmax


def szekeres_wilf_coloring(h: Hypergraph) -> list[int]:
    """Greedy coloring along the reverse elimination order.

    No edge ends up monochromatic and at most degeneracy+1 colors appear
    (each vertex, when colored, sits in at most `degeneracy` edges whose
    other vertices are all colored already).
    """
    _, order = degeneracy(h)
    incident = _incident(h)
    color = [-1] * h.n
    for v in reversed(order):
        forbidden = set()
        for ei in incident[v]:
            cs = {color[u] for u in h.edges[ei] if u != v}
            if -1 not in cs and len(cs) == 1:
                forbidden.add(cs.pop())
        c = 0
        while c in forbidden:
            c += 1
        color[v] = c
    return color


def _greedy_clique(h: Hypergraph) -> int:
    adj = [set() for _ in range(h.n)]
    for u, w in h.edges:
        adj[u].add(w)
        adj[w].add(u)
    order = sorted(range(h.n), key=lambda v: (-len(adj[v]), v))
    clique: set[int] = set()
    for v in order:
        if clique.issubset(adj[v]):
            clique.add(v)
    return len(clique)


def chromatic_exact(h: Hypergraph, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Smallest number of colors leaving no edge monochromatic.

    Iterative deepening between a cheap lower bound and the greedy upper
    bound; BudgetExceeded on budget exhaustion carries the proven bracket.
    """
    if h.n == 0:
        return 0
    if h.e == 0:
        return 1
    upper = max(szekeres_wilf_coloring(h)) + 1
    lower = 2
    if h.r == 2:
        lower = max(lower, _greedy_clique(h))
    counter = [0]
    for k in range(lower, upper):
        try:
            if _exists_coloring(h, k, counter, budget):
                return k
        except _BudgetStop:
            raise BudgetExceeded(
                f"coloring search exceeded {budget} nodes", lower=k, upper=upper
            ) from None
    return upper


class _BudgetStop(Exception):
    pass


def _exists_coloring(h: Hypergraph, k: int, counter, budget) -> bool:
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    incident = _incident(h)
    color: dict[int, int] = {}

    def rec(i, max_used):
        if i == h.n:
            return True
        counter[0] += 1
        if counter[0] > budget:
            raise _BudgetStop
        v = order[i]
        for c in range(min(k - 1, max_used + 1) + 1):
            ok = True
            for ei in incident[v]:
                if all(color.get(u) == c for u in h.edges[ei] if u != v):
                    ok = False
                    break
            if ok:
                color[v] = c
                if rec(i + 1, max(max_used, c)):
                    return True
                del color[v]
        return False

    return rec(0, -1)


# ----------------------------------------------- independence-type invariants


def _max_hereditary_subset(h: Hypergraph, can_extend, budget) -> tuple[int, tuple[int, ...]]:
    """Largest vertex set S, grown element by element, with can_extend(S, v)
    approving every addition.  Requires the target property be closed under
    taking subsets, so a refused addition prunes the whole branch."""
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    best = [0, ()]
    counter = [0]
    cur: list[int] = []

    def rec(i):
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceeded(f"subset search exceeded {budget} nodes", best=best[0])
        if len(cur) + (h.n - i) <= best[0]:
            return
        if i == h.n:
            best[0] = len(cur)
            best[1] = tuple(sorted(cur))
            return
        v = order[i]
        if can_extend(cur, v):
            cur.append(v)
            rec(i + 1)
            cur.pop()
        rec(i + 1)

    rec(0)
    return best[0], best[1]


def alpha(h: Hypergraph, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Independence number: largest set containing no full edge."""
    incident = _incident(h)

    def can_extend(cur, v):
        s = set(cur)
        s.add(v)
        return not any(s.issuperset(h.edges[ei]) for ei in incident[v])

    return _max_hereditary_subset(h, can_extend, budget)[0]


def beta(h: Hypergraph, d: int, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Largest vertex set whose induced sub-hypergraph is d-degenerate."""
    if d < 0:
        raise BadParams(f"degeneracy bound must be >= 0, got {d}")

    def can_extend(cur, v):
        return _subset_degeneracy(h, cur + [v]) <= d

    return _max_hereditary_subset(h, can_extend, budget)[0]


def alpha2(g: Hypergraph, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Largest union of two disjoint independent sets of a graph."""
    if g.r != 2:
        raise BadParams("alpha2 is defined for graphs (r=2)")
    adj = [0] * g.n
    for u, w in g.edges:
        adj[u] |= 1 << w
        adj[w] |= 1 << u
    degs = g.degrees()
    order = sorted(range(g.n), key=lambda v: (-degs[v], v))
    best = [0]
    counter = [0]

    def rec(i, a_mask, b_mask, used):
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceeded(f"alpha2 search exceeded {budget} nodes", best=best[0])
        if used + (g.n - i) <= best[0]:
            return
        if i == g.n:
            best[0] = used
            return
        v = order[i]
        bit = 1 << v
        if adj[v] & a_mask == 0:
            rec(i + 1, a_mask | bit, b_mask, used + 1)
        if a_mask and adj[v] & b_mask == 0:
            rec(i + 1, a_mask, b_mask | bit, used + 1)
        rec(i + 1, a_mask, b_mask, used)

    rec(0, 0, 0, 0)
    return best[0]


def hit_triangles(g: Hypergraph, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Minimum number of vertices meeting every triangle of a graph."""
    if g.r != 2:
        raise BadParams("hit_triangles is defined for graphs (r=2)")
    present = set(g.edges)
    tris = [
        t
        for t in combinations(range(g.n), 3)
        if (t[0], t[1]) in present and (t[0], t[2]) in present and (t[1], t[2]) in present
    ]
    if not tris:
        return 0
    best = [len(set(v for t in tris for v in t))]
    counter = [0]

    def rec(chosen):
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceeded(f"triangle hitting search exceeded {budget} nodes")
        unhit = next((t for t in tris if not chosen.intersection(t)), None)
        if unhit is None:
            best[0] = min(best[0], len(chosen))
            return
        if len(chosen) + 1 >= best[0]:
            return
        for v in unhit:
            chosen.add(v)
            rec(chosen)
            chosen.remove(v)

    rec(set())
    return best[0]


# --------------------------------------------------------------- M(H, k)


@dataclass(frozen=True)
class MValueResult:
    value: int
    parts: tuple[tuple[int, ...], ...]
    remainder: tuple[int, ...]


def m_value(h: Hypergraph, k: int, budget: int = DEFAULT_NODE_BUDGET) -> MValueResult:
    """M(H,k): largest union of r disjoint parts, each with Mad <= r*k.

    Branch and bound over vertices in decreasing degree order; each vertex
    joins a part (first empty part only, breaking part symmetry) or stays
    unused (tried last).  Part feasibility is a flow test, cached; a part
    that fails can never be extended, since Mad only grows with the set.
    """
    if k < 0:
        raise BadParams(f"k must be >= 0, got {k}")
    degs = h.degrees()
    order = sorted(range(h.n), key=lambda v: (-degs[v], v))
    cache: dict[frozenset, bool] = {}

    def part_ok(vs: set[int]) -> bool:
        key = frozenset(vs)
        hit = cache.get(key)
        if hit is not None:
            return hit
        ids = h.edges_inside(vs)
        if len(ids) > k * len(vs):
            ok = False
        elif not ids:
            ok = True
        else:
            flows, _ = saturating_assignment(h, ids, {v: k for v in vs})
            ok = flows is not None
        cache[key] = ok
        return ok

    parts: list[set[int]] = [set() for _ in range(h.r)]
    best: list = [-1, [()] * h.r]

    def greedy(seq):
        gp: list[set[int]] = [set() for _ in range(h.r)]
        used = 0
        for v in seq:
            for j in range(h.r):
                if part_ok(gp[j] | {v}):
                    gp[j].add(v)
                    used += 1
                    break
        return used, gp

    for seq in (order, list(reversed(order)), range(h.n)):
        used, gp = greedy(seq)
        if used > best[0]:
            best = [used, [tuple(sorted(p)) for p in gp]]

    counter = [0]

    def rec(i, used):
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceeded(f"M search exceeded {budget} nodes", best=best[0])
        if used + (h.n - i) <= best[0]:
            return
        if i == h.n:
            best[0] = used
            best[1] = [tuple(sorted(p)) for p in parts]
            return
        v = order[i]
        opened_empty = False
        for j in range(h.r):
            if not parts[j]:
                if opened_empty:
                    continue
                opened_empty = True
            if part_ok(parts[j] | {v}):
                parts[j].add(v)
                rec(i + 1, used + 1)
                parts[j].remove(v)
        rec(i + 1, used)

    rec(0, 0)
    covered = set(v for p in best[1] for v in p)
    remainder = tuple(v for v in range(h.n) if v not in covered)
    return MValueResult(best[0], tuple(best[1]), remainder)


def partition_degenerate(h: Hypergraph, k: int) -> list[list[int]]:
    """Split V into r parts, each inducing a k-degenerate sub-hypergraph.

    Works whenever H is (r(k+1)-1)-degenerate: walking the elimination
    order backwards, each vertex has at most r(k+1)-1 edges into the
    already-placed vertices, so some part receives at most k of them.
    """
    if k < 0:
        raise BadParams(f"k must be >= 0, got {k}")
    d, order = degeneracy(h)
    limit = h.r * (k + 1) - 1
    if d > limit:
        raise NotDegenerateEnough(
            f"degeneracy {d} exceeds r(k+1)-1 = {limit}; no split guaranteed"
        )
    incident = _incident(h)
    parts: list[set[int]] = [set() for _ in range(h.r)]
    for v in reversed(order):
        placed = False
        for part in parts:
            load = sum(
                1
                for ei in incident[v]
                if part.issuperset(u for u in h.edges[ei] if u != v)
            )
            if load <= k:
                part.add(v)
                placed = True
                break
        assert placed, "pigeonhole on the elimination degree must find a part"
    for part in parts:
        assert _subset_degeneracy(h, part) <= k
    return [sorted(p) for p in parts]
