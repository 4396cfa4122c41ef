"""Degree vectors and their consumers against a direct count.

The reference finds where each vertex of a p-set stands in each ordered
edge and ranks that position subset in the lexicographic list of all
p-subsets of positions; it uses none of hypercore's placement helpers.
"""

import tracemalloc
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperf import (
    BudgetExceeded,
    Orientation,
    StuckEdge,
    ascending_orientation,
    canonicalize,
    degree_vector,
    degree_vectors,
    f_bruteforce,
    f_count,
    find_tset,
    orient_forbidden,
)

LEVELS = range(4)
SCAN_LIMIT = 720  # orientations the brute-force reference may scan


def _rank(positions, r, p):
    return list(combinations(range(r), p)).index(tuple(sorted(positions)))


def _direct_vectors(d, p):
    h = d.base
    vecs = {a: [0] * comb(h.r, p) for a in combinations(range(h.n), p)}
    for order in d.orders:
        for a in combinations(sorted(order), p):
            vecs[a][_rank([order.index(v) for v in a], h.r, p)] += 1
    return vecs


def _full(vecs, k):
    return {a for a, coords in vecs.items() if min(coords) >= k}


def _scan_f(h, p):
    """Per level k: the least full count over all orientations scanned in
    lexicographic order, and the first orientation attaining it."""
    best = {k: (None, None) for k in LEVELS}
    for orders in product(*(sorted(permutations(edge)) for edge in h.edges)):
        vecs = _direct_vectors(Orientation(h, orders), p)
        for k in LEVELS:
            count = len(_full(vecs, k))
            if best[k][0] is None or count < best[k][0]:
                best[k] = (count, orders)
    return best


def _first_tset(n, p, t, full):
    return next((s for s in combinations(range(n), t)
                 if all(a in full for a in combinations(s, p))), None)


def _forbidden_orders(h, colored, p):
    orders = []
    for edge in h.edges:
        for cand in permutations(edge):
            if all(colored.get(a) != _rank([cand.index(v) for v in a], h.r, p)
                   for a in combinations(edge, p)):
                orders.append(cand)
                break
        else:
            return None
    return tuple(orders)


@st.composite
def _oriented(draw):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(0, 7))
    possible = list(combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=9)) if possible else []
    h = canonicalize(edges, n, r)
    orders = tuple(tuple(draw(st.permutations(edge))) for edge in h.edges)
    return Orientation(h, orders)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_oriented(), st.data())
def test_degree_vector_consumers_match_direct_count(d, data):
    h = d.base
    for p in range(1, h.r):
        vecs = _direct_vectors(d, p)
        assert list(degree_vectors(d, p).items()) == list(vecs.items())
        for a, coords in vecs.items():
            assert degree_vector(d, a).coords == tuple(coords)
        for k in LEVELS:
            full = _full(vecs, k)
            assert f_count(d, p, k) == len(full)
            for t in range(h.n + 2):
                assert find_tset(d, p, k, t) == _first_tset(h.n, p, t, full)
        if factorial(h.r) ** h.e <= SCAN_LIMIT:
            for k, want in _scan_f(h, p).items():
                rep = f_bruteforce(h, p, k)
                assert (rep.value, rep.orientation.orders) == want
                if k >= 1:
                    # budget_used is the smallest budget that finishes
                    again = f_bruteforce(h, p, k, budget=rep.budget_used)
                    assert (again.value, again.orientation.orders) == want
                    with pytest.raises(BudgetExceeded):
                        f_bruteforce(h, p, k, budget=rep.budget_used - 1)
        if p in (1, h.r - 1):
            colored = data.draw(st.dictionaries(
                st.sampled_from(sorted(vecs)), st.integers(0, comb(h.r, p) - 1))) if vecs else {}
            want = _forbidden_orders(h, colored, p)
            if want is None:
                with pytest.raises(StuckEdge):
                    orient_forbidden(h, colored, p)
            else:
                assert orient_forbidden(h, colored, p).orders == want


def test_counts_allocate_for_psets_inside_edges_only():
    # the dense table over all C(1000, 2) = 499,500 pairs takes tens of MB
    h = canonicalize([(0, 1, 2)], 1000, 3)
    d = ascending_orientation(h)
    tracemalloc.start()
    try:
        assert f_count(d, 2, 1) == 0
        assert f_bruteforce(h, 2, 1).value == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
