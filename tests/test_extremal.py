"""Extremal-invariant tests: maximum average degree, degeneracy, coloring,
special subsets, and the sparse-partition maximum."""

import random
from fractions import Fraction
from math import comb

import pytest

from hyperf import (
    BudgetExceeded,
    NotDegenerateEnough,
    alpha,
    alpha2,
    beta,
    canonicalize,
    chromatic_exact,
    complete,
    complete_multipartite,
    degeneracy,
    hit_triangles,
    m_value,
    mad_bruteforce,
    mad_exact,
    partition_degenerate,
    random_hypergraph,
    szekeres_wilf_coloring,
)


def _cycle(n):
    return canonicalize([(i, (i + 1) % n) for i in range(n)], n, 2)


def _induced(h, vertices):
    vs = sorted(vertices)
    relabel = {v: i for i, v in enumerate(vs)}
    edges = [tuple(relabel[v] for v in h.edges[i]) for i in h.edges_inside(vs)]
    return canonicalize(edges, len(vs), h.r)


def test_mad_known_values():
    assert mad_bruteforce(complete(5, 2)) == 4
    assert mad_bruteforce(_cycle(5)) == 2
    path = canonicalize([(0, 1), (1, 2)], 3, 2)
    assert mad_bruteforce(path) == Fraction(4, 3)
    assert mad_bruteforce(complete(5, 3)) == 6
    k4_minus = canonicalize([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], 4, 2)
    assert mad_bruteforce(k4_minus) == Fraction(5, 2)
    assert mad_bruteforce(canonicalize([(0, 1, 2)], 4, 3)) == 1
    assert mad_bruteforce(canonicalize([], 4, 2)) == 0


def test_mad_exact_agrees_with_enumeration_and_certifies():
    rng = random.Random(2)
    for _ in range(40):
        r = rng.choice((2, 3))
        n = rng.randint(r, 9)
        h = random_hypergraph(n, r, rng.randint(0, min(12, comb(n, r))), seed=rng.randrange(10**6))
        value, witness = mad_exact(h)
        assert value == mad_bruteforce(h)
        if h.e:
            dens = Fraction(h.r * len(h.edges_inside(witness)), len(witness))
            assert dens == value
        else:
            assert value == 0


def test_mad_bruteforce_refuses_large_instances():
    with pytest.raises(BudgetExceeded):
        mad_bruteforce(canonicalize([], 21, 2))


def test_degeneracy_values_and_order_replay():
    assert degeneracy(complete(5, 2))[0] == 4
    assert degeneracy(complete(5, 3))[0] == 6
    tree = canonicalize([(0, 1), (0, 2), (1, 3), (1, 4)], 5, 2)
    assert degeneracy(tree)[0] == 1
    assert degeneracy(canonicalize([], 4, 2)) == (0, [0, 1, 2, 3])
    for h in (complete(6, 3), _cycle(6), tree):
        d, order = degeneracy(h)
        remaining = set(range(h.n))
        for v in order:
            inside = h.edges_inside(remaining)
            assert sum(1 for i in inside if v in h.edges[i]) <= d
            remaining.remove(v)


def test_szekeres_wilf_coloring_is_proper_and_small():
    rng = random.Random(3)
    for _ in range(30):
        r = rng.choice((2, 3))
        n = rng.randint(r, 9)
        h = random_hypergraph(n, r, rng.randint(0, min(12, comb(n, r))), seed=rng.randrange(10**6))
        colors = szekeres_wilf_coloring(h)
        assert len(colors) == h.n
        assert max(colors, default=-1) <= degeneracy(h)[0]
        for edge in h.edges:
            assert len({colors[v] for v in edge}) > 1


def test_chromatic_exact_values():
    assert chromatic_exact(_cycle(5)) == 3
    assert chromatic_exact(complete_multipartite((3, 3))) == 2
    assert chromatic_exact(complete(6, 2)) == 6
    assert chromatic_exact(complete(7, 3)) == 4
    assert chromatic_exact(canonicalize([], 4, 2)) == 1


def test_chromatic_budget_bracket():
    with pytest.raises(BudgetExceeded) as err:
        chromatic_exact(_cycle(5), budget=1)
    assert (err.value.lower, err.value.upper) == (2, 3)


def test_independent_and_degenerate_subsets():
    assert alpha(_cycle(5)) == 2
    assert alpha(complete_multipartite((3, 3))) == 3
    assert alpha(complete(5, 3)) == 2
    assert beta(complete(4, 2), 1) == 2
    assert beta(complete(4, 2), 2) == 3
    assert beta(complete(4, 2), 3) == 4
    assert alpha2(_cycle(5)) == 4
    assert alpha2(complete(5, 2)) == 2
    assert alpha2(complete_multipartite((3, 3))) == 6
    assert hit_triangles(complete(4, 2)) == 2
    assert hit_triangles(complete(5, 2)) == 3
    assert hit_triangles(_cycle(5)) == 0


def test_beta_at_zero_is_independence():
    rng = random.Random(8)
    for _ in range(25):
        r = rng.choice((2, 3))
        n = rng.randint(r, 8)
        h = random_hypergraph(n, r, rng.randint(0, min(10, comb(n, r))), seed=rng.randrange(10**6))
        assert beta(h, 0) == alpha(h)


def test_two_independent_parts_equal_m_at_level_zero():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 8)
        g = random_hypergraph(n, 2, rng.randint(0, min(12, comb(n, 2))), seed=rng.randrange(10**6))
        assert alpha2(g) == m_value(g, 0).value


def test_m_value_known_instances():
    res = m_value(complete(10, 2), 1)
    assert res.value == 6
    assert res.parts == ((0, 1, 2), (3, 4, 5))
    assert res.remainder == (6, 7, 8, 9)
    assert m_value(complete(7, 3), 0).value == 6
    assert m_value(complete_multipartite((7, 7, 3)), 1).value == 16


def test_m_value_parts_are_certified_sparse():
    rng = random.Random(10)
    for _ in range(15):
        r = rng.choice((2, 3))
        n = rng.randint(r, 8)
        h = random_hypergraph(n, r, rng.randint(0, min(10, comb(n, r))), seed=rng.randrange(10**6))
        k = rng.randint(0, 2)
        res = m_value(h, k)
        seen = set()
        for part in res.parts:
            assert not (seen & set(part))
            seen |= set(part)
            if part:
                assert mad_bruteforce(_induced(h, part)) <= h.r * k
        assert len(res.parts) == h.r
        assert res.value == len(seen)
        assert set(res.remainder) == set(range(h.n)) - seen


def test_m_value_budget_carries_partial():
    with pytest.raises(BudgetExceeded) as err:
        m_value(complete(10, 2), 1, budget=5)
    assert err.value.best is not None
    assert 0 <= err.value.best <= 10


def test_partition_degenerate_examples():
    assert partition_degenerate(complete(4, 2), 1) == [[2, 3], [0, 1]]
    tree = canonicalize([(0, 1), (0, 2), (1, 3), (1, 4)], 5, 2)
    assert partition_degenerate(tree, 0) == [[0, 3, 4], [1, 2]]


def test_partition_degenerate_parts_verify():
    rng = random.Random(12)
    done = 0
    while done < 15:
        r = rng.choice((2, 3))
        n = rng.randint(r, 8)
        h = random_hypergraph(n, r, rng.randint(0, min(10, comb(n, r))), seed=rng.randrange(10**6))
        k = rng.randint(0, 2)
        if degeneracy(h)[0] > h.r * (k + 1) - 1:
            continue
        parts = partition_degenerate(h, k)
        assert len(parts) == h.r
        assert sorted(v for part in parts for v in part) == list(range(h.n))
        for part in parts:
            if part:
                assert degeneracy(_induced(h, part))[0] <= k
        done += 1


def test_partition_degenerate_requires_sparsity():
    with pytest.raises(NotDegenerateEnough):
        partition_degenerate(_cycle(5), 0)
    with pytest.raises(NotDegenerateEnough):
        partition_degenerate(complete(5, 2), 1)


def test_mad_monotone_under_taking_subsets():
    rng = random.Random(14)
    for _ in range(20):
        r = rng.choice((2, 3))
        n = rng.randint(r + 1, 9)
        h = random_hypergraph(n, r, rng.randint(0, min(12, comb(n, r))), seed=rng.randrange(10**6))
        sub = rng.sample(range(n), rng.randint(1, n))
        assert mad_bruteforce(_induced(h, sub)) <= mad_bruteforce(h)
