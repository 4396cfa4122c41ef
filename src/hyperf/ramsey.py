"""Ramsey p-chromatic numbers and the largest safely colorable p-set family.

Color every p-set of vertices; an edge is p-monochromatic when all of its
C(r,p) p-subsets share one color.  chi_r(H,p) is the fewest colors with
no p-monochromatic edge.  b(H,p) caps the palette at C(r,p) colors but
lets p-sets stay uncolored, and asks for the most colored p-sets such
that no fully colored edge is p-monochromatic; a maximum family yields,
for p in {1, r-1}, an orientation showing f(H,p,1) = C(n,p) - b(H,p).
f_value picks the exact route for f (here, as fcalc cannot import this
module), and f_threshold scans the complete hypergraphs for f > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .hypercore import (
    DEFAULT_NODE_BUDGET,
    BadParams,
    BadPSet,
    BudgetExceeded,
    Hypergraph,
    _check_count,
    _check_kind,
    _check_index,
    _check_p,
    _touched_psets,
    canonicalize,
    complete,
)
from .extremal import _sparse_parts, chromatic_exact
from .fcalc import (
    FReport,
    ThresholdResult,
    closed_form,
    closed_form_complete,
    f_bruteforce,
    f_count,
    f_via_m,
)
from .orient import orient_forbidden


@dataclass(frozen=True)
class PSetColoring:
    """Partial coloring of the p-sets of a vertex set with colors 0..colors-1."""

    p: int
    colors: int
    colored: dict

    def __post_init__(self):
        _check_count("p", self.p, 1, BadPSet)
        _check_count("colors", self.colors, 1)
        for pset, c in self.colored.items():
            if not (isinstance(pset, tuple) and len(pset) == self.p
                    and all(isinstance(v, int) for v in pset) and list(pset) == sorted(set(pset))):
                raise BadPSet(f"{pset!r} is not a sorted {self.p}-set of integer vertices")
            _check_index(f"color of {pset}", c, self.colors)


def check_mono(h: Hypergraph, coloring: PSetColoring) -> list[tuple[int, ...]]:
    """Edges whose p-subsets are all colored and all alike."""
    bad = []
    for edge in h.edges:
        cs = {coloring.colored.get(s) for s in combinations(edge, coloring.p)}
        if None not in cs and len(cs) == 1:
            bad.append(edge)
    return bad


def derived_pset_hypergraph(h: Hypergraph, p: int) -> Hypergraph:
    """The C(r,p)-uniform hypergraph on the touched p-sets induced by the edges.

    Vertex i is the i-th p-set inside an edge, lexicographically; a coloring
    of the p-sets avoids p-monochromatic edges exactly when it is a proper
    coloring of this hypergraph, so chi_r reduces to exact coloring.
    """
    _check_p(p, h.r)
    ids = _touched_psets(h, p)
    edges = [tuple(ids[s] for s in combinations(edge, p)) for edge in h.edges]
    return canonicalize(edges, len(ids), math.comb(h.r, p))


def chi_r(h: Hypergraph, p: int, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Fewest colors on all p-sets leaving no edge p-monochromatic."""
    _check_count("budget", budget, 0)
    _check_p(p, h.r)
    if h.e == 0:
        return 1
    return chromatic_exact(derived_pset_hypergraph(h, p), budget)


@dataclass(frozen=True)
class BValueResult:
    value: int
    coloring: PSetColoring


def b_value(h: Hypergraph, p: int, budget: int = DEFAULT_NODE_BUDGET) -> BValueResult:
    """Most p-sets colorable with C(r,p) colors, no fully colored edge
    p-monochromatic, with a witness coloring.

    Each color class must be an independent set of the derived p-set
    hypergraph, so this is the sparse-parts search with C(r,p) parts and
    cap 0 over the touched p-sets: p-sets in decreasing edge-incidence
    order, used colors first, then the next new color, and uncolored last.
    The p-sets inside no edge add to the value and to a budget exit's
    `best`, and the witness colors them 0.
    """
    _check_count("budget", budget, 0)
    _check_kind(h, Hypergraph, "b_value")
    derived = derived_pset_hypergraph(h, p)
    untouched = math.comb(h.n, p) - derived.n
    try:
        value, classes, _ = _sparse_parts(derived, derived.r, 0, budget, "b search")
    except BudgetExceeded as exc:
        exc.best += untouched
        raise
    ids = _touched_psets(h, p)
    psets = list(ids)
    colored = {a: 0 for a in combinations(range(h.n), p) if a not in ids}
    colored.update((psets[a], c) for c, members in enumerate(classes) for a in members)
    return BValueResult(value + untouched, PSetColoring(p, derived.r, colored))


F_METHODS = ("auto", "brute", "via-m", "closed", "via-b")


def f_value(h: Hypergraph, p: int, k: int, budget: int = DEFAULT_NODE_BUDGET,
            method: str = "auto") -> FReport | None:
    """f(H,p,k) by a route in F_METHODS; None when "closed" finds no closed form.

    "auto" tries the closed form, then via-m at p = 1 and k >= 1, then via-b
    at k = 1 and p = r-1, else brute.  via-m needs p = 1 and via-b k = 1."""
    _check_count("budget", budget, 0)
    if method not in F_METHODS:
        raise BadParams(f"unknown f method {method!r}, expected one of {', '.join(F_METHODS)}")
    _check_p(p, h.r)
    _check_count("k", k, 0)
    if method in ("auto", "closed"):
        rep = closed_form(h, p, k)
        if rep is not None or method == "closed":
            return rep
        method = ("via-m" if p == 1 and k >= 1 else
                  "via-b" if k == 1 and p == h.r - 1 else "brute")
    if method == "via-m":
        if p != 1:
            raise BadParams(f"method via-m needs p = 1, got p={p}")
        return f_via_m(h, k, budget)
    if method == "via-b":
        if k != 1:
            raise BadParams(f"method via-b needs k = 1, got k={k}")
        return f_p1_exact(h, p, budget)
    return f_bruteforce(h, p, k, budget)


def f_threshold(r: int, p: int, k: int, n_max: int, budget: int = DEFAULT_NODE_BUDGET) -> ThresholdResult:
    """Smallest n <= n_max with f(n,r,p,k) > 0, by the cheapest exact route.

    p = 1 evaluates closed_form_complete without building K_n^(r); p >= 2
    takes f_value on each K_n^(r), whose route is method (None if every n
    is skipped).  `budget` bounds each n's search on its own; an n that
    runs out is skipped and reported, voiding "not found up to n_max".
    """
    _check_count("budget", budget, 0)
    _check_count("r", r, 2)
    _check_p(p, r)
    _check_count("k", k, 1)
    _check_count("n_max", n_max, 1)
    scanned, skipped = [], []
    method = "closed" if p == 1 else None
    for n in range(r, n_max + 1):
        try:
            if p == 1:
                val = closed_form_complete(n, r, k)
            else:
                rep = f_value(complete(n, r), p, k, budget)
                val, method = rep.value, rep.method
        except BudgetExceeded:
            skipped.append(n)
            continue
        scanned.append((n, val))
        if val > 0:
            return ThresholdResult(r, p, k, n, tuple(scanned), tuple(skipped), method)
    return ThresholdResult(r, p, k, None, tuple(scanned), tuple(skipped), method)


def f_p1_exact(h: Hypergraph, p: int, budget: int = DEFAULT_NODE_BUDGET) -> FReport:
    """f(H,p,1) for p in {1, r-1}: C(n,p) - b(H,p), certified.

    The forbidden-coordinate orientation built from a maximum coloring
    zeroes each colored p-set at its color coordinate, and the identity
    forces every uncolored p-set to stay everywhere-positive, so the
    certificate attains the value exactly; this is re-verified.
    """
    _check_p(p, h.r)
    if p not in (1, h.r - 1):
        raise BadPSet(f"exact route needs p in {{1, r-1}}, got {p}")
    res = b_value(h, p, budget)
    value = math.comb(h.n, p) - res.value
    # orient_forbidden checks each key it is given and reads only the p-sets
    # inside edges, so it gets those e*C(r,p), not the dense C(n,p)
    colored = res.coloring.colored
    d = orient_forbidden(h, {a: colored[a] for a in _touched_psets(h, p) if a in colored}, p)
    achieved = f_count(d, p, 1)
    assert achieved == value, "forbidden-coordinate orientation must attain the value"
    return FReport(
        value=value,
        method="via-b",
        orientation=d,
        witness_coloring=dict(res.coloring.colored),
    )
