"""Tests for p-set colorings: the Ramsey chromatic number, the largest
safely colorable family, and the k=1 equality with f."""

import json
import random
from itertools import combinations
from math import comb

import pytest

from hyperf import (
    BadParams,
    BadPSet,
    BudgetExceeded,
    PSetColoring,
    b_value,
    canonicalize,
    check_mono,
    chi_r,
    chromatic_exact,
    complete,
    derived_pset_hypergraph,
    f_bruteforce,
    f_count,
    f_p1_exact,
    f_value,
    random_hypergraph,
    to_json,
)

# inputs with p-sets inside no edge: a graph with isolated vertices 5 and
# 6, and a 3-graph (K5 plus the triple 245) with vertex 6 isolated
_SPARSE_GRAPH = canonicalize([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)], 7, 2)
_SPARSE_TRIPLES = canonicalize(list(combinations(range(5), 3)) + [(2, 4, 5)], 7, 3)


def test_pset_coloring_validation():
    PSetColoring(1, 2, {(0,): 0, (2,): 1})
    with pytest.raises(BadPSet):
        PSetColoring(1, 2, {(0, 1): 0})
    with pytest.raises(BadPSet):
        PSetColoring(2, 3, {(1, 0): 0})
    with pytest.raises(BadPSet):
        PSetColoring(1, 2, {5: 0})
    with pytest.raises(BadPSet):
        PSetColoring(1, 2, {(1.5,): 0})
    with pytest.raises(BadParams):
        PSetColoring(1, 2, {(0,): 2})
    with pytest.raises(BadParams):
        PSetColoring(1, 2, {(0,): "x"})


def test_check_mono_triangle():
    h = complete(3, 2)
    allsame = PSetColoring(1, 2, {(0,): 0, (1,): 0, (2,): 0})
    assert check_mono(h, allsame) == [(0, 1), (0, 2), (1, 2)]
    mixed = PSetColoring(1, 2, {(0,): 0, (1,): 0, (2,): 1})
    assert check_mono(h, mixed) == [(0, 1)]
    partial = PSetColoring(1, 2, {(0,): 0})
    assert check_mono(h, partial) == []


def test_derived_pset_hypergraph():
    derived = derived_pset_hypergraph(complete(4, 3), 2)
    assert (derived.n, derived.r) == (6, 3)
    assert derived.edges == ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))


def test_chi_r_complete_triple_systems():
    for n, expected in ((3, 2), (4, 2), (5, 2), (6, 3)):
        assert chi_r(complete(n, 3), 2) == expected
    assert chi_r(canonicalize([], 4, 3), 2) == 1


def test_chi_r_at_p1_is_chromatic_number():
    rng = random.Random(21)
    for _ in range(20):
        r = rng.choice((2, 3))
        n = rng.randint(r, 7)
        h = random_hypergraph(n, r, rng.randint(0, min(8, comb(n, r))), seed=rng.randrange(10**6))
        assert chi_r(h, 1) == chromatic_exact(h)


def test_b_value_known_instances():
    assert b_value(complete(3, 2), 1).value == 2
    assert b_value(canonicalize([], 5, 3), 2).value == comb(5, 2)
    assert b_value(complete(5, 3), 2).value == 10
    assert b_value(complete(6, 3), 2).value == 15
    assert b_value(complete(7, 3), 1).value == 6


def test_b_witness_is_consistent():
    rng = random.Random(22)
    for _ in range(15):
        n = rng.randint(3, 6)
        h = random_hypergraph(n, 3, rng.randint(0, min(6, comb(n, 3))), seed=rng.randrange(10**6))
        for p in (1, 2):
            res = b_value(h, p)
            assert len(res.coloring.colored) == res.value
            assert res.coloring.colors == comb(3, p)
            assert check_mono(h, res.coloring) == []


def test_b_budget_carries_best():
    with pytest.raises(BudgetExceeded) as err:
        b_value(complete(6, 2), 1, budget=5)
    assert err.value.best is not None
    with pytest.raises(BudgetExceeded) as err:
        b_value(complete(6, 2), 1, budget=1)
    assert err.value.best == 0


def test_full_family_iff_small_ramsey_chromatic():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(3, 5)
        h = random_hypergraph(n, 3, rng.randint(0, min(6, comb(n, 3))), seed=rng.randrange(10**6))
        for p in (1, 2):
            full = b_value(h, p).value == comb(n, p)
            small = chi_r(h, p) <= comb(3, p)
            assert full == small


def test_f_p1_exact_examples():
    assert f_p1_exact(complete(3, 2), 1).value == 1
    assert f_p1_exact(complete(5, 3), 2).value == 0
    assert f_p1_exact(complete(4, 3), 2).value == 0
    rep = f_p1_exact(complete(4, 2), 1)
    assert rep.value == f_bruteforce(complete(4, 2), 1, 1).value == 2
    assert f_count(rep.orientation, 1, 1) == rep.value
    assert rep.method == "via-b"


def test_f_p1_exact_requires_boundary_p():
    with pytest.raises(BadPSet):
        f_p1_exact(complete(5, 4), 2)


@pytest.mark.parametrize("method, p, k, match", [
    ("fastest", 1, 1, "unknown f method 'fastest'"),
    ("via-m", 2, 1, "via-m needs p = 1, got p=2"),
    ("via-b", 1, 2, "via-b needs k = 1, got k=2"),
])
def test_f_value_refuses_a_route_outside_its_case(method, p, k, match):
    with pytest.raises(BadParams, match=match):
        f_value(complete(5, 3), p, k, method=method)


def test_family_complement_lower_bound_for_middle_p():
    rng = random.Random(24)
    for _ in range(6):
        n = rng.randint(4, 6)
        h = random_hypergraph(n, 4, rng.randint(0, min(4, comb(n, 4))), seed=rng.randrange(10**6))
        brute = f_bruteforce(h, 2, 1).value
        assert brute >= comb(n, 2) - b_value(h, 2).value


def _json(obj):
    return json.loads(to_json(obj))


def test_b_and_f_p1_witnesses_pinned_on_untouched_psets():
    # a p-set inside no edge is coloured 0, and f_p1_exact's orientation
    # is built from that colouring
    def pinned(colored):
        return [[list(a), c] for a, c in colored]

    cases = [
        (_SPARSE_GRAPH, 1, 2, 5, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [4, 3]],
         [((0,), 1), ((3,), 0), ((4,), 1), ((5,), 0), ((6,), 0)]),
        (_SPARSE_TRIPLES, 1, 3, 7,
         [[0, 2, 1], [0, 3, 1], [0, 4, 1], [0, 3, 2], [0, 2, 4], [0, 3, 4], [1, 3, 2],
          [1, 2, 4], [1, 3, 4], [3, 2, 4], [5, 2, 4]],
         [((0,), 1), ((1,), 1), ((2,), 0), ((3,), 2), ((4,), 0), ((5,), 1), ((6,), 0)]),
        (_SPARSE_TRIPLES, 2, 3, 21,
         [[1, 2, 0], [1, 3, 0], [0, 4, 1], [2, 3, 0], [0, 4, 2], [0, 4, 3], [2, 1, 3],
          [1, 2, 4], [1, 3, 4], [2, 3, 4], [4, 5, 2]],
         [((0, 1), 0), ((0, 2), 0), ((0, 3), 0), ((0, 4), 1), ((0, 5), 0), ((0, 6), 0),
          ((1, 2), 1), ((1, 3), 1), ((1, 4), 0), ((1, 5), 0), ((1, 6), 0), ((2, 3), 2),
          ((2, 4), 0), ((2, 5), 0), ((2, 6), 0), ((3, 4), 0), ((3, 5), 0), ((3, 6), 0),
          ((4, 5), 1), ((4, 6), 0), ((5, 6), 0)]),
    ]
    for h, p, colors, b, orders, colored in cases:
        assert _json(b_value(h, p)) == {
            "value": b, "coloring": {"p": p, "colors": colors, "colored": pinned(colored)}}
        assert _json(f_p1_exact(h, p)) == {
            "value": comb(h.n, p) - b, "method": "via-b", "budget_used": None,
            "orientation": {"n": h.n, "r": h.r, "orders": orders},
            "witness_coloring": pinned(colored), "witness_parts": None, "witness_remainder": None}


def test_chi_r_pinned_on_untouched_psets():
    assert chi_r(_SPARSE_GRAPH, 1) == 4
    assert chi_r(_SPARSE_TRIPLES, 1) == 3
    assert chi_r(_SPARSE_TRIPLES, 2) == 2


def test_derived_hypergraph_numbers_only_touched_psets():
    # vertex i is the i-th p-set, in lexicographic order, of those inside an edge
    one_edge = canonicalize([(0, 1, 2)], 300, 3)
    assert derived_pset_hypergraph(one_edge, 2).n == 3
    derived = derived_pset_hypergraph(_SPARSE_TRIPLES, 2)
    assert derived.n == comb(7, 2) - 6 - 3
    assert derived.edges[-1] == (8, 9, 11)  # 245: pairs 24, 25 and 45


def test_b_budget_exit_counts_untouched_psets():
    one_edge = canonicalize([(0, 1, 2)], 300, 3)
    with pytest.raises(BudgetExceeded) as err:
        b_value(one_edge, 2, budget=0)
    assert err.value.best == comb(300, 2) - 3
