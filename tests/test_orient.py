"""Orientation-construction tests: degree budgets, partitions and forbidden
coordinates."""

import random
import re
from itertools import permutations, product
from math import comb

import pytest
from test_extremal import _edge_counts

from hyperf import (
    BadPSet,
    BudgetDomainMismatch,
    BadParams,
    FlowNetwork,
    Infeasible,
    Orientation,
    PartNotSparse,
    PartsNotDisjoint,
    StuckEdge,
    canonicalize,
    complete,
    f_count,
    f_via_m,
    mad_bruteforce,
    orient_budget,
    orient_forbidden,
    orient_from_partition,
    orient_max_outdeg,
    random_hypergraph,
)
from hyperf.orient import _pattern_order


def _first_position_degrees(d):
    out = [0] * d.base.n
    for order in d.orders:
        out[order[0]] += 1
    return out


def test_triangle_orientable_with_unit_outdegree():
    d = orient_max_outdeg(complete(3, 2), 1)
    assert isinstance(d, Orientation)
    assert _first_position_degrees(d) == [1, 1, 1]


def test_k4_unit_outdegree_infeasible_with_witness():
    result = orient_max_outdeg(complete(4, 2), 1)
    assert result == Infeasible(witness=(0, 1, 2, 3), edges_inside=6, capacity=4)


def test_complete_triple_systems_feasibility_threshold():
    # five vertices: ten triples need total first-position budget >= 10
    assert isinstance(orient_max_outdeg(complete(4, 3), 1), Orientation)
    dense = orient_max_outdeg(complete(5, 3), 1)
    assert isinstance(dense, Infeasible)
    assert dense.edges_inside == 10 and dense.capacity == 5
    assert isinstance(orient_max_outdeg(complete(5, 3), 2), Orientation)


def test_per_vertex_budgets():
    k3 = complete(3, 2)
    d = orient_budget(k3, {0: 2, 1: 1, 2: 0})
    assert d.orders == ((0, 1), (0, 2), (1, 2))
    bad = orient_budget(k3, {0: 3, 1: 0, 2: 0})
    assert bad == Infeasible(witness=(1, 2), edges_inside=1, capacity=0)
    with pytest.raises(BudgetDomainMismatch):
        orient_budget(k3, {0: 1, 1: 1})


def test_infeasible_witness_certifies_overload():
    rng = random.Random(6)
    for _ in range(40):
        r = rng.choice((2, 3))
        n = rng.randint(r, 8)
        h = random_hypergraph(n, r, rng.randint(0, min(10, comb(n, r))), seed=rng.randrange(10**6))
        k = rng.randint(0, 2)
        result = orient_max_outdeg(h, k)
        if isinstance(result, Infeasible):
            assert len(h.edges_inside(result.witness)) == result.edges_inside
            assert result.edges_inside > result.capacity == k * len(result.witness)
            assert mad_bruteforce(h) > h.r * k
        else:
            assert max(_first_position_degrees(result), default=0) <= k
            assert mad_bruteforce(h) <= h.r * k


def test_budget_orientation_matches_subset_enumeration():
    """An orientation exists exactly when no vertex set F spans more than
    budget(F) edges; otherwise the witness is the intersection of all sets
    F with the largest excess e(F) - budget(F)."""
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r, 10)
        m = rng.randint(0, min(comb(n, r), 3 * n))
        h = random_hypergraph(n, r, m, seed=rng.randrange(10**6))
        budget = {v: rng.randint(0, 3) for v in range(n)}
        edges = _edge_counts(h)
        capacity = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            capacity[mask] = capacity[mask ^ low] + budget[low.bit_length() - 1]
        excess = [e - c for e, c in zip(edges, capacity)]
        worst = max(excess)
        meet = (1 << n) - 1
        for mask, x in enumerate(excess):
            if x == worst:
                meet &= mask
        result = orient_budget(h, budget)
        if isinstance(result, Infeasible):
            assert worst > 0
            assert result == Infeasible(tuple(v for v in range(n) if meet >> v & 1),
                                        edges[meet], capacity[meet])
        else:
            loads = _first_position_degrees(result)
            assert all(loads[v] <= budget[v] for v in range(n))
            assert worst <= 0
        outcomes[isinstance(result, Orientation)] += 1
    assert min(outcomes.values()) >= 100


def test_orientations_run_no_max_flow(monkeypatch):
    calls = [0]
    run = FlowNetwork.max_flow

    def counted(self):
        calls[0] += 1
        return run(self)

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    assert isinstance(orient_max_outdeg(complete(5, 3), 2), Orientation)
    assert isinstance(orient_max_outdeg(complete(5, 3), 1), Infeasible)
    assert isinstance(orient_budget(complete(3, 2), {0: 2, 1: 1, 2: 0}), Orientation)
    assert isinstance(orient_from_partition(complete(6, 2), 2, ((0, 1, 2), (3, 4, 5))), Orientation)
    assert f_via_m(random_hypergraph(16, 2, 60, seed=3), 2).orientation is not None
    assert calls[0] == 0


def test_partition_orientation_clears_every_vertex():
    d = orient_from_partition(complete(6, 2), 2, ((0, 1, 2), (3, 4, 5)))
    assert f_count(d, 1, 2) == 0
    # vertices of part j stay below k at coordinate j
    for j, part in enumerate(((0, 1, 2), (3, 4, 5))):
        for v in part:
            coord = sum(1 for order in d.orders if order[j] == v)
            assert coord <= 1


def test_partition_orientation_rejects_bad_parts():
    with pytest.raises(PartsNotDisjoint):
        orient_from_partition(complete(6, 2), 2, ((0, 1, 2), (2, 3, 4)))
    with pytest.raises(PartNotSparse):
        orient_from_partition(complete(4, 2), 1, ((0, 1, 2),))
    with pytest.raises(BadParams):
        orient_from_partition(complete(4, 2), 1, ((0, 1), (2, 3), (0,)))
    with pytest.raises(BadParams, match=r"part vertex must be an integer in 0\.\.3, got 4"):
        orient_from_partition(complete(4, 2), 1, ((0, 4),))


def test_partition_orientation_rejects_a_non_integer_part_vertex():
    # 1.5 passes the range test 0 <= v < n but is no vertex
    with pytest.raises(BadParams, match=r"part vertex must be an integer in 0\.\.3, got 1\.5"):
        orient_from_partition(complete(4, 2), 1, [[1.5]])


def test_partition_not_sparse_names_the_lowest_failing_part():
    # two parts are too dense in each case; the message names the lower one
    # and only its dense subset
    with pytest.raises(PartNotSparse) as caught:
        orient_from_partition(complete(7, 3), 1, ((0,), (1, 2, 3), (4, 5, 6)))
    assert str(caught.value) == "part 1 cannot bound coordinate 1 by 0; dense subset (1, 2, 3)"
    with pytest.raises(PartNotSparse) as caught:
        orient_from_partition(complete(8, 2), 2, ((4, 5, 6, 0), (1, 2, 3, 7)))
    assert str(caught.value) == "part 0 cannot bound coordinate 0 by 1; dense subset (0, 4, 5, 6)"


def _first_admissible(edge, parts):
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    return next(
        cand for cand in permutations(edge)
        if all(part_of.get(v) != j for j, v in enumerate(cand))
    )


def test_partition_crossing_edge_takes_first_admissible_order():
    h = canonicalize([(0, 1, 2)], 3, 3)
    assert orient_from_partition(h, 1, [(), (), (2,)]).orders == ((0, 2, 1),)
    h = canonicalize([(0, 1, 2, 3)], 4, 4)
    assert orient_from_partition(h, 1, [(), (), (), (3,)]).orders == ((0, 1, 3, 2),)


def test_partition_crossing_edges_match_permutation_scan():
    for r in range(2, 6):
        h = complete(r, r)
        edge = h.edges[0]
        # label -1 puts a vertex in the remainder
        for labels in product(range(-1, r), repeat=r):
            if len(set(labels)) == 1 and labels[0] >= 0:
                continue  # an edge inside one part is oriented within the part
            parts = [[v for v in edge if labels[v] == i] for i in range(r)]
            d = orient_from_partition(h, 1, parts)
            assert d.orders == (_first_admissible(edge, parts),), labels


def test_lowest_order_pattern_table_matches_permutation_scan():
    # every bar pattern at r = 2..5, (r+1)**r of them: -1 bars no position
    seen = 0
    for r in range(2, 6):
        edge = (3, 4, 8, 9, 12)[:r]
        for pattern in product(range(-1, r), repeat=r):
            bar = {v: j for v, j in zip(edge, pattern) if j >= 0}
            want = next((cand for cand in permutations(edge)
                         if all(bar.get(v) != j for j, v in enumerate(cand))), None)
            picks = _pattern_order(pattern)
            assert (None if picks is None else tuple(edge[j] for j in picks)) == want, pattern
            seen += 1
    assert seen == 8474


def test_pattern_table_fills_an_edge_of_size_twelve_position_by_position():
    # a scan of the 12! orderings would try 11 * 11! of them before (11, 0, ..., 10)
    h = complete(12, 12)
    want = ((11, *range(11)),)
    assert orient_from_partition(h, 1, [list(range(11)), [11]]).orders == want
    assert orient_forbidden(h, {(v,): 0 for v in range(11)}, 1).orders == want
    with pytest.raises(StuckEdge) as err:
        orient_forbidden(h, {(v,): 0 for v in range(12)}, 1)
    assert err.value.edge == tuple(range(12))


def test_forbidden_coordinates_vertex_case():
    d = orient_forbidden(complete(3, 2), {(0,): 0, (1,): 1}, 1)
    assert d.orders == ((1, 0), (2, 0), (1, 2))
    with pytest.raises(StuckEdge) as err:
        orient_forbidden(complete(3, 2), {(0,): 0, (1,): 0}, 1)
    assert err.value.edge == (0, 1)


def test_forbidden_coordinates_pair_case():
    d = orient_forbidden(complete(3, 3), {(0, 1): 0, (0, 2): 1, (1, 2): 2}, 2)
    assert d.orders == ((1, 2, 0),)


def test_forbidden_coordinates_needs_boundary_p():
    with pytest.raises(BadPSet):
        orient_forbidden(complete(5, 4), {(0, 1): 0}, 2)


def test_forbidden_coordinates_reject_a_wrong_size_pset_or_color():
    with pytest.raises(BadPSet, match="is not a 1-set"):
        orient_forbidden(complete(4, 3), {(0, 1): 0}, 1)
    for color in (7, 1.5, "x"):
        with pytest.raises(BadParams, match=re.escape(f"color of (0,) must be an integer in 0..2, got {color!r}")):
            orient_forbidden(complete(4, 3), {(0,): color}, 1)


@pytest.mark.parametrize("key, p", [((1, 0), 2), ((7, 9), 2), ((9,), 1), (("a",), 1), (("a", 1), 2),
                                    (5, 1), ((1.5,), 1)])
def test_forbidden_coordinates_reject_a_malformed_key(key, p):
    # an unsorted, out-of-range or non-integer p-set is refused, not skipped
    with pytest.raises(BadPSet):
        orient_forbidden(complete(4, 3), {key: 0}, p)


