"""The orientation invariant f(H,p,k) and its closed forms and bounds.

Under an orientation, a p-set is everywhere-full at level k when all of
its C(r,p) coordinates are >= k; f(D,p,k) counts such p-sets and f(H,p,k)
is the minimum over orientations.  closed_form covers complete and
complete multipartite inputs at p = 1, f_via_m certifies n - M(H,k-1)
by a partition-derived orientation, and f_bruteforce searches the
orientations under a node budget; ramsey.f_value picks among them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, permutations

from .hypercore import (
    DEFAULT_NODE_BUDGET,
    BadParams,
    BudgetExceeded,
    Hypergraph,
    HyperfError,
    Orientation,
    _check_count,
    _check_kind,
    _check_p,
    _check_sizes,
    _full_psets,
    _neighbours,
    _placements,
    _touched_psets,
    ascending_orientation,
)
from .extremal import (
    alpha,
    beta,
    chromatic_exact,
    hit_triangles,
    m_value,
)
from .orient import orient_from_partition


class ThresholdUnknown(HyperfError):
    """No computed or recorded value of the threshold f(r,p,k) is available."""


# ------------------------------------------------------------------- reports


@dataclass(frozen=True)
class FReport:
    """Result of an f computation with its certificate."""

    value: int
    method: str
    orientation: Orientation | None = None
    witness_parts: tuple[tuple[int, ...], ...] | None = None
    witness_remainder: tuple[int, ...] | None = None
    witness_coloring: dict | None = None
    budget_used: int | None = None


# ------------------------------------------------------------------ counting


def f_count(d: Orientation, p: int, k: int) -> int:
    """Number of p-sets whose coordinates are all >= k under d."""
    _check_kind(d, Orientation, "f_count")
    _check_count("k", k, 0)
    _check_p(p, d.base.r)
    if k == 0:
        return math.comb(d.base.n, p)
    return len(_full_psets(d, p, k))


def f_bruteforce(h: Hypergraph, p: int, k: int, budget: int = DEFAULT_NODE_BUDGET) -> FReport:
    """Exact f(H,p,k) by depth-first search over orientations, edge by edge.

    Each edge's orderings are tried lexicographically (all-ascending
    first), so leaves come in mixed-radix order and the lexicographically
    first minimizing orientation is reported.  A prefix's everywhere-full
    count only grows as further edges are oriented, so a node that cannot
    beat the incumbent gets no children, and an orientation with no full
    p-set ends the search; only a strictly better leaf is recorded, so
    neither changes the minimizer.  Nodes are counted as in the
    sparse-parts engine, pruned ones included: the empty orientation is
    node 1, and BudgetExceeded after `budget` nodes carries the incumbent
    (None before the first leaf).  budget_used is the number of nodes
    expanded, the smallest budget that finishes; k = 0 needs no search
    and expands none.
    """
    _check_count("budget", budget, 0)
    _check_count("k", k, 0)
    _check_p(p, h.r)
    if k == 0:
        return FReport(
            value=math.comb(h.n, p),
            method="brute",
            orientation=ascending_orientation(h),
            budget_used=0,
        )
    npos = math.comb(h.r, p)
    ids = _touched_psets(h, p)
    edge_orders = [sorted(permutations(edge)) for edge in h.edges]
    edge_updates = [
        [tuple(ids[a] * npos + rank for rank, a in enumerate(placed))
         for placed in _placements(orders, h.r, p)]
        for orders in edge_orders
    ]

    coords = [0] * (len(ids) * npos)
    deficit = [npos] * len(ids)
    qualified = nodes = 0
    best = pick = None
    stack: list[int] = []  # ordering index of each oriented edge, in edge order
    ups = ()  # coordinates raised by the newest choice, none at the root
    while True:
        for idx in ups:
            coords[idx] += 1
            if coords[idx] == k:
                pi = idx // npos
                deficit[pi] -= 1
                if deficit[pi] == 0:
                    qualified += 1
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"orientation search exceeded {budget} nodes", best=best)
        if best is None or qualified < best:
            if len(stack) < h.e:
                stack.append(0)
                ups = edge_updates[len(stack) - 1][0]
                continue
            best, pick = qualified, tuple(stack)
            if best == 0:
                break
        # backtrack to the deepest edge with an untried ordering
        while stack:
            ei = len(stack) - 1
            for idx in edge_updates[ei][stack[ei]]:
                if coords[idx] == k:
                    pi = idx // npos
                    if deficit[pi] == 0:
                        qualified -= 1
                    deficit[pi] += 1
                coords[idx] -= 1
            stack[ei] += 1
            if stack[ei] < len(edge_updates[ei]):
                ups = edge_updates[ei][stack[ei]]
                break
            stack.pop()
        else:
            break

    orientation = Orientation(h, tuple(edge_orders[ei][j] for ei, j in enumerate(pick)))
    assert f_count(orientation, p, k) == best, "reported orientation must attain the value"
    return FReport(value=best, method="brute", orientation=orientation, budget_used=nodes)


def f_via_m(h: Hypergraph, k: int, budget: int = DEFAULT_NODE_BUDGET) -> FReport:
    """f(H,1,k) = n - M(H,k-1), certified by a partition orientation.

    The optimal parts leave each of their vertices deficient at one
    coordinate, so the constructed orientation attains the value exactly;
    this is re-verified before returning.  BudgetExceeded carries f's
    numbers: n minus M's incumbent as `best`, and M's bracket turned over.
    """
    _check_count("k", k, 1)
    try:
        res = m_value(h, k - 1, budget)
    except BudgetExceeded as exc:
        def flip(x):
            return None if x is None else h.n - x
        raise BudgetExceeded(str(exc), best=flip(exc.best), lower=flip(exc.upper),
                             upper=flip(exc.lower)) from None
    value = h.n - res.value
    d = orient_from_partition(h, k, res.parts)
    achieved = f_count(d, 1, k)
    assert achieved == value, "partition orientation must attain n - M(H,k-1)"
    return FReport(
        value=value,
        method="via-m",
        orientation=d,
        witness_parts=res.parts,
        witness_remainder=res.remainder,
    )


# --------------------------------------------------------------- closed forms


def closed_form(h: Hypergraph, p: int, k: int) -> FReport | None:
    """f(H,1,k) by the closed form for complete hypergraphs (e = C(n,r)) or
    complete multipartite graphs; None if none applies, or p != 1 or k = 0."""
    _check_p(p, h.r)
    _check_count("k", k, 0)
    if p != 1 or k == 0:
        return None
    if h.e == math.comb(h.n, h.r):
        return FReport(value=closed_form_complete(h.n, h.r, k), method="closed")
    sizes = _multipartite_sizes(h)
    if sizes is not None:
        res = closed_form_multipartite(sizes, k)
        if res.applicable:
            return FReport(value=res.value, method="closed")
    return None


def _multipartite_sizes(g: Hypergraph):
    """Class sizes if g is a complete multipartite graph, else None.

    The classes are the groups of vertices with equal neighbour sets; the
    graph is complete multipartite exactly when each vertex is adjacent to
    every vertex outside its group.
    """
    if g.r != 2:
        return None
    keys = [frozenset(s) for s in _neighbours(g)]
    groups = Counter(keys)
    if any(len(key) != g.n - groups[key] for key in keys):
        return None
    return tuple(sorted(groups.values(), reverse=True))


def complete_part_size(r: int, k: int) -> int:
    """Largest t with C(t-1, r-1) <= (k-1)r; parts of this size stay sparse."""
    _check_count("r", r, 2)
    _check_count("k", k, 1)
    cap = (k - 1) * r
    t = 1
    while math.comb(t, r - 1) <= cap:
        t += 1
    return t


def closed_form_complete(n: int, r: int, k: int) -> int:
    """f for the complete r-uniform hypergraph on n vertices: max(n - rt, 0)."""
    _check_count("n", n, 0)
    return max(n - r * complete_part_size(r, k), 0)


@dataclass(frozen=True)
class MultipartiteResult:
    applicable: bool
    value: int | None
    failed: tuple[str, ...]


def closed_form_multipartite(sizes, k: int) -> MultipartiteResult:
    """f for complete multipartite graphs: sum of the classes beyond the two
    largest, minus 2k-2, valid when the listed size conditions hold."""
    _check_count("k", k, 1)
    _check_sizes(sizes)
    ns = sorted(sizes, reverse=True)
    t = len(ns)
    failed = []
    if t < 3:
        failed.append(f"need at least 3 classes, got {t}")
    else:
        need = k * k - k + 1
        if ns[0] < need:
            failed.append(f"largest class {ns[0]} below k^2-k+1 = {need}")
        if ns[1] < need:
            failed.append(f"second class {ns[1]} below k^2-k+1 = {need}")
        if not (ns[2] >= 2 * k - 2 or (t >= 4 and ns[2] >= k - 1 and ns[3] >= k - 1)):
            failed.append(
                f"need third class >= 2k-2 = {2 * k - 2}, or third and fourth >= k-1 = {k - 1}"
            )
    if failed:
        return MultipartiteResult(False, None, tuple(failed))
    return MultipartiteResult(True, sum(ns[2:]) - 2 * k + 2, ())


# -------------------------------------------------------------------- bounds


@dataclass(frozen=True)
class Bound:
    name: str
    side: str  # "lower" or "upper"
    value: int | Fraction | None
    applicable: bool
    inputs: dict = field(default_factory=dict)
    note: str = ""


def bounds(h: Hypergraph, k: int, budget: int = DEFAULT_NODE_BUDGET) -> list[Bound]:
    """Every evaluable lower/upper bound on f(H,1,k), with its inputs.

    Bounds whose hypotheses fail, whose searches blow the budget, or which
    f >= 0 makes vacuous are listed as inapplicable with the reason.
    """
    _check_count("k", k, 1)
    n, r = h.n, h.r
    out = []

    def searched(fn):
        try:
            return fn()
        except BudgetExceeded:
            return None

    def row(name, side, x, value, inputs):
        # the bound value(x) read from the result x of a search; a search
        # that ran out (x is None) makes the bound inapplicable
        if x is None:
            return Bound(name, side, None, False, inputs, "search budget exceeded")
        return Bound(name, side, value(x), True, inputs)

    a = searched(lambda: alpha(h, budget))
    out.append(row("independence", "lower", a, lambda x: n - x * r * (r * k - r + 1), {"alpha": a}))
    bu = searched(lambda: beta(h, r * k - 1, budget))
    out.append(row("degenerate-upper", "upper", bu, lambda x: n - x, {"beta": bu, "d": r * k - 1}))
    # at k = 1 the cap-0 search is alpha's: an independent set is 0-degenerate
    bl = a if k == 1 else searched(lambda: beta(h, r * (k - 1), budget))
    out.append(row("degenerate-lower", "lower", bl, lambda x: n - r * x,
                   {"beta": bl, "d": r * (k - 1)}))
    chi = searched(lambda: chromatic_exact(h, budget))
    out.append(row("chromatic", "lower", chi, lambda x: x - r * (r * (k - 1) + 1), {"chi": chi}))
    if r == 2 and n > 0:
        avg = Fraction(2 * h.e, n)
        if avg >= 4 * k - 2:
            val = (avg - (2 * k - 1)) / (avg + 1) * n
            out.append(Bound("average-degree", "upper", val, True, {"avg_degree": avg}))
        else:
            out.append(Bound("average-degree", "upper", None, False, {"avg_degree": avg},
                             f"needs average degree >= 4k-2 = {4 * k - 2}"))
        if k == 1:
            out.append(row("independence-upper", "upper", a, lambda x: n - x, {"alpha": a}))
            if chi is not None and chi < 2:
                out.append(Bound("chromatic-ratio", "upper", None, False,
                                 {"chi": chi}, "needs at least one edge"))
            else:
                out.append(row("chromatic-ratio", "upper", chi, lambda x: (x - 2) * n // x,
                               {"chi": chi}))
            ht = searched(lambda: hit_triangles(h, budget))
            out.append(row("triangle-hitting", "lower", ht, lambda x: x, {"hitting_number": ht}))
        if n >= 1:
            degs = h.degrees()
            delta = min(degs)
            bestv = None
            bestt = None
            for t in range(1, n + 1):
                if delta * t >= (t - 1) * n:
                    val = (t - 4 * k + 2) * (n // t)
                    if bestv is None or val > bestv:
                        bestv, bestt = val, t
            out.append(Bound("clique-factor", "lower", bestv, bestv is not None,
                             {"min_degree": delta, "t": bestt}))
    return [replace(b, applicable=False, note="vacuous: f >= 0")
            if b.side == "lower" and b.applicable and b.value < 0 else b for b in out]


@dataclass(frozen=True)
class EdgeBound:
    value: int
    capped: bool
    exact_ratio: bool


def edge_bound(n: int, r: int, k: int) -> EdgeBound:
    """Largest edge count compatible with f(H,1,k) = 0 on n vertices.

    C(n,r) - r*C(n/r,r) + (k-1)n, with n/r floored (flagged) when r does
    not divide n, and capped at C(n,r) (flagged) when the formula exceeds
    the trivial maximum.
    """
    _check_count("n", n, 0)
    _check_count("r", r, 2)
    _check_count("k", k, 1)
    total = math.comb(n, r)
    base = total - r * math.comb(n // r, r) + (k - 1) * n
    return EdgeBound(min(base, total), base > total, n % r == 0)


# ---------------------------------------------------------------- thresholds

# Reference threshold values recorded from the literature, never computed
# here; kind "recorded" is exact, "recorded-upper" only an upper bound.
KNOWN_THRESHOLDS = {
    (3, 2, 1): (17, "recorded"),
    (4, 3, 1): (15202, "recorded-upper"),
}


@dataclass(frozen=True)
class ThresholdResult:
    r: int
    p: int
    k: int
    found: int | None
    scanned: tuple[tuple[int, int], ...]  # (n, f(n,r,p,k)) pairs
    skipped: tuple[int, ...]
    method: str | None  # an FReport.method; None when every n was skipped


def tset_threshold_q(r: int, p: int, k: int) -> int:
    """Smallest q with (k-1)C(q,p) < C(q,r): guarantees a large all-deficient
    family cannot color every p-set of a q-set away from a full coordinate."""
    _check_count("r", r, 2)
    _check_p(p, r)
    _check_count("k", k, 1)
    q = r
    while not ((k - 1) * math.comb(q, p) < math.comb(q, r)):
        q += 1
    return q


def find_tset(d: Orientation, p: int, k: int, t: int, budget: int = DEFAULT_NODE_BUDGET):
    """Lexicographically first t-set whose p-subsets are all everywhere-full
    at level k, or None when no such t-set exists.  At k = 0 every p-set is
    full; otherwise only p-sets inside some edge can be."""
    _check_count("budget", budget, 0)
    h = d.base
    _check_count("t", t, 0)
    _check_p(p, h.r)
    _check_count("k", k, 0)
    if t > h.n:
        return None
    if t < p or k == 0:
        return tuple(range(t))
    good = _full_psets(d, p, k)
    if p == 1:
        verts = [v for v in range(h.n) if (v,) in good]
        return tuple(verts[:t]) if len(verts) >= t else None
    # depth-first over ascending prefixes, one node per prefix visited;
    # v is the next vertex to try after the prefix `chosen`
    chosen: list[int] = []
    v = nodes = 0

    def fits(u):  # u, above every chosen vertex, makes only good p-sets with them
        return all(sub + (u,) in good for sub in combinations(chosen, p - 1))

    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"t-set search exceeded {budget} nodes")
        if len(chosen) == t:
            return tuple(chosen)
        if len(chosen) + (h.n - v) < t:
            v = h.n  # too few vertices left to finish: try none
        while (v := next(filter(fits, range(v, h.n)), None)) is None:
            if not chosen:
                return None
            v = chosen.pop() + 1  # back to the parent, past the vertex it had chosen
        chosen.append(v)
        v += 1


# -------------------------------------------------------------------- packing


@dataclass(frozen=True)
class PackingResult:
    m: int
    blocks: tuple[tuple[int, ...], ...]
    count: int


def greedy_packing(n: int, m: int, p: int,
                   budget: int = DEFAULT_NODE_BUDGET) -> list[tuple[int, ...]]:
    """Greedy lexicographic m-set packing: accept a block when none of its
    p-subsets appears in an earlier accepted block.

    At p = 1 the accepted blocks are the floor(n/m) runs of m consecutive
    vertices, returned without a scan, and each counts against the budget:
    more than `budget` of them raise BudgetExceeded with `best` = budget.
    Otherwise the scan visits blocks in lexicographic order; BudgetExceeded
    after `budget` blocks carries the number accepted so far as `best`.
    """
    _check_count("budget", budget, 0)
    _check_count("n", n, 0)
    _check_count("m", m, 1)
    _check_count("p", p, 1)
    if p > m:
        raise BadParams(f"need p <= m, got p={p} m={m}")
    if p == 1:
        if n // m > budget:
            raise BudgetExceeded(f"packing scan exceeded {budget} blocks", best=budget)
        return [tuple(range(start, start + m)) for start in range(0, n - m + 1, m)]
    used = set()
    blocks = []
    for scanned, block in enumerate(combinations(range(n), m), 1):
        if scanned > budget:
            raise BudgetExceeded(f"packing scan exceeded {budget} blocks", best=len(blocks))
        subs = list(combinations(block, p))
        if all(s not in used for s in subs):
            blocks.append(block)
            used.update(subs)
    return blocks


def packing_bound(n: int, r: int, p: int, k: int, m: int | None = None,
                  budget: int = DEFAULT_NODE_BUDGET) -> PackingResult:
    """Packing lower bound on f(n,r,p,k): each block of a greedy packing by
    m-sets, m = f(r,p,k), must contain an everywhere-full p-set, and blocks
    share none.  m is resolved from the closed form (p=1) or the recorded
    exact table unless given; `budget` bounds greedy_packing's scan."""
    _check_count("budget", budget, 0)
    _check_count("r", r, 2)
    _check_p(p, r)
    _check_count("k", k, 1)
    if m is None:
        if p == 1:
            m = r * complete_part_size(r, k) + 1
        else:
            known = KNOWN_THRESHOLDS.get((r, p, k))
            if known is None or known[1] != "recorded":
                raise ThresholdUnknown(
                    f"f({r},{p},{k}) is neither computable here nor recorded exactly"
                )
            m = known[0]
    blocks = greedy_packing(n, m, p, budget)
    return PackingResult(m, tuple(blocks), len(blocks))
