"""Verification suites cross-checking the exact solvers against each other.

Every suite pits two independent routes to the same quantity (or a proved
inequality between quantities) against each other on small seeded instances
and records each comparison with exact integer arithmetic.  A suite passes
iff every check passes.  Suites are deterministic given a seed.  A suite
is a generator of CheckResults registered with ``_suite``, which adds the
budget check, the timer and the report; ``SUITES`` maps the public names
to the registered functions and ``verify_suite`` dispatches by name.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from math import comb

from .hypercore import (
    DEFAULT_NODE_BUDGET,
    BadParams,
    Hypergraph,
    HyperfError,
    _check_count,
    canonicalize,
    complement,
    complete,
    complete_multipartite,
    degree_vectors,
    join_k2,
    max_coordinate,
    mop_fan,
    mop_random,
    random_hypergraph,
    random_orientation,
)
from .orient import Infeasible, orient_max_outdeg
from .extremal import m_value, mad_bruteforce
from .fcalc import (
    closed_form_complete,
    closed_form_multipartite,
    f_bruteforce,
    f_count,
    f_via_m,
)
from .ramsey import chi_r, f_p1_exact


class UnknownSuite(HyperfError):
    """Raised when a verification suite name is not registered."""


@dataclass
class CheckResult:
    """One exact comparison inside a suite: what was compared, on what, and
    whether the two sides agreed."""

    instance: str
    relation: str
    values: dict
    ok: bool


@dataclass
class VerifySuiteReport:
    """Outcome of one suite run: every check, the seed, and the wall time."""

    suite: str
    seed: int
    checks: list = field(default_factory=list)
    seconds: float = 0.0
    passed: int = field(init=False)
    failed: int = field(init=False)

    def __post_init__(self):
        self.passed = sum(1 for c in self.checks if c.ok)
        self.failed = len(self.checks) - self.passed


SUITES: dict = {}


def _suite(name):
    """Register a generator of CheckResults, called with (seed, budget), as
    the suite `name`.  The registered function keeps the generator's name
    and docstring; called as (seed=1, budget=DEFAULT_NODE_BUDGET), it
    rejects a bad budget before any work, times the run and returns the
    VerifySuiteReport.  SUITES lists the suites in definition order.
    """

    def register(checks):
        def run(seed=1, budget=DEFAULT_NODE_BUDGET) -> VerifySuiteReport:
            _check_count("budget", budget, 0)
            t0 = time.perf_counter()
            done = list(checks(seed, budget))
            seconds = round(time.perf_counter() - t0, 3)
            return VerifySuiteReport(suite=name, seed=seed, checks=done, seconds=seconds)

        run.__name__ = run.__qualname__ = checks.__name__
        run.__doc__ = checks.__doc__
        SUITES[name] = run
        return run

    return register


def random_corpus(count, seed, ranks=(2, 3, 4), n_max=10, e_max=12):
    """Deterministic list of small random hypergraphs used by the suites."""
    _check_count("count", count, 0)
    if not ranks:
        raise BadParams("need at least one rank")
    _check_count("n_max", n_max, max(ranks))
    _check_count("e_max", e_max, 0)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = rng.choice(ranks)
        n = rng.randint(r, n_max)
        m = rng.randint(0, min(e_max, comb(n, r)))
        out.append(random_hypergraph(n, r, m, seed=rng.randrange(1 << 30)))
    return out


@_suite("hakimi")
def suite_hakimi(seed, budget):
    """Orientability with first-position degree <= k at every vertex is
    equivalent to Mad(H) <= r*k; the feasible orientations really attain
    the bound and the flow route agrees with subset enumeration."""
    for idx, h in enumerate(random_corpus(200, seed)):
        mad = mad_bruteforce(h)
        bad = []
        for k in range(4):
            result = orient_max_outdeg(h, k)
            feasible = not isinstance(result, Infeasible)
            if feasible != (mad <= h.r * k):
                bad.append(f"k={k} feasibility mismatch")
            if feasible and max_coordinate(result, 0) > k:
                bad.append(f"k={k} bound not attained")
        yield CheckResult(
            instance=f"random #{idx} n={h.n} r={h.r} e={h.e}",
            relation="orientable(first-position degree <= k) <=> Mad <= r*k",
            values={"mad": mad, "mismatches": bad},
            ok=not bad,
        )


@_suite("via-m")
def suite_via_m(seed, budget):
    """f(H,1,k) computed by full orientation scan equals n - M(H,k-1), and
    the partition-built certificate orientation attains the value."""
    for idx, h in enumerate(random_corpus(100, seed, ranks=(2, 3), n_max=6, e_max=6)):
        for k in (1, 2):
            brute = f_bruteforce(h, 1, k, budget)
            via = f_via_m(h, k, budget)
            attained = f_count(via.orientation, 1, k)
            yield CheckResult(
                instance=f"random #{idx} n={h.n} r={h.r} e={h.e} k={k}",
                relation="f(H,1,k) == n - M(H,k-1) == value of certificate",
                values={"brute": brute.value, "via_m": via.value,
                        "certificate": attained},
                ok=brute.value == via.value == attained,
            )


@_suite("closed-form")
def suite_closed_form(seed, budget):
    """Complete hypergraphs: the partition route matches the closed form
    max(n - r*t, 0), and the full orientation scan confirms it at the
    smallest sizes."""
    for r in (2, 3):
        for n in range(r, 13):
            for k in (1, 2):
                via = f_via_m(complete(n, r), k, budget).value
                closed = closed_form_complete(n, r, k)
                yield CheckResult(
                    instance=f"complete n={n} r={r} k={k}",
                    relation="f via M == max(n - r*t, 0)",
                    values={"via_m": via, "closed": closed},
                    ok=via == closed,
                )
    for n in range(2, 7):
        brute = f_bruteforce(complete(n, 2), 1, 1, budget).value
        yield CheckResult(
            instance=f"complete n={n} r=2 k=1",
            relation="orientation scan == n - 2",
            values={"brute": brute, "expected": n - 2},
            ok=brute == n - 2,
        )
    for n in (4, 5):
        brute = f_bruteforce(complete(n, 3), 1, 1, budget).value
        yield CheckResult(
            instance=f"complete n={n} r=3 k=1",
            relation="orientation scan == 0",
            values={"brute": brute, "expected": 0},
            ok=brute == 0,
        )


@_suite("ramsey-chi")
def suite_ramsey_chi(seed, budget):
    """Ramsey pair-chromatic numbers of small complete 3-uniform
    hypergraphs: 2 up to five vertices, 3 at six."""
    for n, expected in ((3, 2), (4, 2), (5, 2), (6, 3)):
        got = chi_r(complete(n, 3), 2, budget)
        yield CheckResult(
            instance=f"complete n={n} r=3 p=2",
            relation=f"chi_R == {expected}",
            values={"chi_r": got, "expected": expected},
            ok=got == expected,
        )


@_suite("via-b")
def suite_via_b(seed, budget):
    """k=1 exact identity f(H,p,1) == C(n,p) - b(H,p) for p in {1, r-1},
    with the forbidden-coordinate certificate attaining the value."""
    for idx, h in enumerate(random_corpus(50, seed, ranks=(3,), n_max=6, e_max=6)):
        for p in (1, 2):
            brute = f_bruteforce(h, p, 1, budget)
            rep = f_p1_exact(h, p, budget)
            attained = f_count(rep.orientation, p, 1)
            yield CheckResult(
                instance=f"random #{idx} n={h.n} e={h.e} p={p}",
                relation="f(H,p,1) == C(n,p) - b(H,p) == value of certificate",
                values={"brute": brute.value, "via_b": rep.value,
                        "certificate": attained},
                ok=brute.value == rep.value == attained,
            )


@_suite("multipartite")
def suite_multipartite(seed, budget):
    """Complete multipartite closed form: sum of the class sizes beyond the
    two largest, minus 2k - 2, matched by the partition route."""
    for sizes in ((7, 7, 3), (3, 3, 2), (4, 4, 2, 2)):
        k = 2
        formula = closed_form_multipartite(sizes, k)
        via = f_via_m(complete_multipartite(sizes), k, budget).value
        yield CheckResult(
            instance=f"multipartite {sizes} k={k}",
            relation="f via M == sum(sizes[2:]) - 2k + 2",
            values={"applicable": formula.applicable,
                    "formula": formula.value, "via_m": via},
            ok=formula.applicable and via == formula.value,
        )


@_suite("perfect-graph")
def suite_perfect_graph(seed, budget):
    """On complete multipartite and bipartite graphs, f(G,1) equals the
    minimum number of vertices meeting every triangle, found by a subset
    scan."""
    rng = random.Random(seed)
    for n in range(1, 9):
        for parts in _partitions(n):
            g = complete_multipartite(parts)
            fv = f_via_m(g, 1, budget).value
            hv = _triangle_hitting_by_scan(g)
            yield CheckResult(
                instance=f"multipartite {parts}",
                relation="f(G,1) == min triangle transversal",
                values={"f": fv, "hit": hv},
                ok=fv == hv,
            )
    for idx in range(30):
        a = rng.randint(1, 4)
        b = rng.randint(1, 9 - a)
        m = rng.randint(0, min(14, a * b))
        g = _random_bipartite(a, b, m, rng.randrange(1 << 30))
        fv = f_via_m(g, 1, budget).value
        hv = _triangle_hitting_by_scan(g)
        yield CheckResult(
            instance=f"bipartite #{idx} sides={a},{b} e={g.e}",
            relation="f(G,1) == min triangle transversal (both 0)",
            values={"f": fv, "hit": hv},
            ok=fv == hv == 0,
        )


@_suite("complement")
def suite_complement(seed, budget):
    """f(G,1) + f(complement(G),1) >= n - 4 for every graph on up to six
    vertices, with equality on disjoint unions of two cliques; the clique
    union / complete bipartite pair meets both closed-form bounds at k=1."""
    rng = random.Random(seed)
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        total = 1 << len(pairs)
        two_part = _two_independent_table(n, pairs)
        full = total - 1
        violations = sum(
            1 for mask in range(total) if two_part[mask] + two_part[full ^ mask] > n + 4
        )
        yield CheckResult(
            instance=f"all graphs n={n}",
            relation="f(G,1) + f(comp G,1) >= n - 4 (exhaustive)",
            values={"graphs": total, "violations": violations},
            ok=violations == 0,
        )
        if n == 6:
            sample_bad = 0
            for mask in rng.sample(range(total), 100):
                g = _graph_of_mask(n, pairs, mask)
                if f_via_m(g, 1, budget).value != n - two_part[mask]:
                    sample_bad += 1
            yield CheckResult(
                instance="sample of 100 graphs n=6",
                relation="f via M == n - (largest union of two independent sets)",
                values={"mismatches": sample_bad},
                ok=sample_bad == 0,
            )
    for a in range(2, 9):
        for b in range(a, 11 - a):
            n = a + b
            bipart = complete_multipartite((a, b))
            cliques = complement(bipart)
            total_f = f_via_m(cliques, 1, budget).value + f_via_m(bipart, 1, budget).value
            yield CheckResult(
                instance=f"cliques {a}+{b} vs complete bipartite",
                relation="sum == n - 16k + 12 == n - 8k + 4 at k=1",
                values={"sum": total_f, "expected": n - 4},
                ok=total_f == n - 4,
            )


@_suite("mop")
def suite_mop(seed, budget):
    """Maximal outerplanar graphs: 1 <= f(G,1) <= n/3, and the fan
    triangulation attains the lower end."""
    rng = random.Random(seed)
    for idx in range(50):
        n = rng.randint(3, 12)
        g = mop_random(n, seed=rng.randrange(1 << 30))
        fv = f_via_m(g, 1, budget).value
        yield CheckResult(
            instance=f"random mop #{idx} n={n}",
            relation="1 <= f(G,1) and 3*f(G,1) <= n",
            values={"f": fv},
            ok=1 <= fv and 3 * fv <= n,
        )
    for n in (3, 6, 9, 12):
        fv = f_via_m(mop_fan(n), 1, budget).value
        yield CheckResult(
            instance=f"fan mop n={n}",
            relation="f(G,1) == 1",
            values={"f": fv},
            ok=fv == 1,
        )


@_suite("accounting")
def suite_accounting(seed, budget):
    """Bookkeeping identities on random orientations: per-position degree
    sums equal the edge count, degree-vector coordinates of a p-set sum to
    its plain degree, and the qualifying-count is monotone in k."""
    rng = random.Random(seed)
    block_bad = []
    for idx in range(500):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r, 8)
        m = rng.randint(0, min(10, comb(n, r)))
        h = random_hypergraph(n, r, m, seed=rng.randrange(1 << 30))
        d = random_orientation(h, seed=rng.randrange(1 << 30))
        problems = []
        singles = degree_vectors(d, 1)
        for i in range(r):
            if sum(singles[(v,)][i] for v in range(n)) != h.e:
                problems.append(f"position {i} sum != e")
        for p in range(1, r):
            vecs = degree_vectors(d, p)
            for pset, vec in vecs.items():
                plain = sum(1 for edge in h.edges if set(pset) <= set(edge))
                if sum(vec) != plain:
                    problems.append(f"p={p} pset {pset} coordinate sum != degree")
                    break
            counts = [f_count(d, p, k) for k in range(4)]
            if counts[0] != comb(n, p):
                problems.append(f"p={p} k=0 count != C(n,p)")
            if any(counts[i + 1] > counts[i] for i in range(3)):
                problems.append(f"p={p} count not monotone in k")
        if problems:
            block_bad.append((idx, problems))
        if idx % 100 == 99:
            yield CheckResult(
                instance=f"orientations {idx - 98}..{idx + 1}",
                relation="position sums, coordinate sums, monotonicity",
                values={"failures": block_bad},
                ok=not block_bad,
            )
            block_bad = []


@_suite("join-reduction")
def suite_join_reduction(seed, budget):
    """Two copies of a graph with all cross edges: the largest two-part
    sparse cover of the join doubles the independence number, threshold by
    threshold."""
    rng = random.Random(seed)
    for idx in range(30):
        n = rng.randint(3, 8)
        m = rng.randint(0, min(14, comb(n, 2)))
        g = random_hypergraph(n, 2, m, seed=rng.randrange(1 << 30))
        a = _independence_by_scan(g)
        joined = join_k2(g)
        mv = m_value(joined, 0, budget).value
        mismatch = [
            t for t in range(2 * n + 2) if (a >= t) != (mv >= 2 * t)
        ]
        yield CheckResult(
            instance=f"random graph #{idx} n={n} e={g.e}",
            relation="alpha(G) >= t <=> M(join, 0) >= 2t",
            values={"alpha": a, "m_join": mv, "bad_t": mismatch},
            ok=not mismatch,
        )


def _partitions(n, max_part=None):
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _two_independent_table(n, pairs) -> list[int]:
    """Largest union of two disjoint independent sets of every graph on n
    vertices, indexed by edge mask over `pairs`, by subset enumeration.

    A disjoint pair (A, B) suits exactly the graphs avoiding the pairs
    inside A or inside B, so the table is a subset-max over those masks.
    """
    inside = [0] * (1 << n)
    for i, (u, w) in enumerate(pairs):
        both = 1 << u | 1 << w
        for s in range(1 << n):
            if s & both == both:
                inside[s] |= 1 << i
    total = 1 << len(pairs)
    best = [0] * total
    everyone = (1 << n) - 1
    for a in range(1 << n):
        rest = everyone ^ a
        b = rest
        while True:
            spanned = inside[a] | inside[b]
            size = a.bit_count() + b.bit_count()
            if size > best[spanned]:
                best[spanned] = size
            if not b:
                break
            b = (b - 1) & rest
    for i in range(len(pairs)):
        bit = 1 << i
        for mask in range(total):
            if mask & bit and best[mask ^ bit] > best[mask]:
                best[mask] = best[mask ^ bit]
    return [best[(total - 1) ^ mask] for mask in range(total)]


def _independence_by_scan(g: Hypergraph) -> int:
    """Independence number by scanning all 2^n vertex subsets."""
    edge_masks = [sum(1 << v for v in edge) for edge in g.edges]
    return max(
        s.bit_count()
        for s in range(1 << g.n)
        if all(s & m != m for m in edge_masks)
    )


def _triangle_hitting_by_scan(g: Hypergraph) -> int:
    """Fewest vertices meeting every triangle, by scanning all 2^n vertex subsets."""
    edges = set(g.edges)
    triangle_masks = [
        1 << u | 1 << w | 1 << x
        for u, w, x in itertools.combinations(range(g.n), 3)
        if {(u, w), (u, x), (w, x)} <= edges
    ]
    return min(
        s.bit_count()
        for s in range(1 << g.n)
        if all(s & m for m in triangle_masks)
    )


def _graph_of_mask(n, pairs, mask) -> Hypergraph:
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    return canonicalize(edges, n, 2)


def _random_bipartite(a, b, m, seed) -> Hypergraph:
    rng = random.Random(seed)
    chosen = rng.sample([(i, a + j) for i in range(a) for j in range(b)], m)
    return canonicalize(chosen, a + b, 2)



def verify_suite(name, seed=1, budget=DEFAULT_NODE_BUDGET) -> VerifySuiteReport:
    """Run one registered suite; raises UnknownSuite for unregistered names."""
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise UnknownSuite(f"no suite named {name!r}; known suites: {known}")
    return SUITES[name](seed=seed, budget=budget)


def run_all(seed=1, budget=DEFAULT_NODE_BUDGET) -> list:
    """Run every registered suite in registration order."""
    return [SUITES[name](seed=seed, budget=budget) for name in SUITES]
