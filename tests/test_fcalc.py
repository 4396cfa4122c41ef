"""Tests for the f computations: oracles, exact routes, closed forms,
bounds, thresholds, t-sets, and packings."""

import itertools
import json
import os
import random
import subprocess
import sys
from math import comb, isqrt
from pathlib import Path

import pytest

from hyperf import (
    BadParams,
    BadPSet,
    BudgetExceeded,
    Hypergraph,
    Orientation,
    ThresholdUnknown,
    ascending_orientation,
    bounds,
    canonicalize,
    closed_form_complete,
    closed_form_multipartite,
    complete,
    complete_multipartite,
    complete_part_size,
    degree_vectors,
    edge_bound,
    f_bruteforce,
    f_count,
    f_threshold,
    f_value,
    f_via_m,
    find_tset,
    greedy_packing,
    m_value,
    packing_bound,
    random_hypergraph,
    random_orientation,
    tset_threshold_q,
    to_json,
)
import hyperf.fcalc
import hyperf.ramsey


def test_f_count_triangle_orientations():
    h = complete(3, 2)
    cyclic = Orientation(h, ((0, 1), (2, 0), (1, 2)))
    transitive = Orientation(h, ((0, 1), (0, 2), (1, 2)))
    assert f_count(cyclic, 1, 1) == 3
    assert f_count(transitive, 1, 1) == 1
    assert f_count(transitive, 1, 0) == 3
    assert f_count(ascending_orientation(complete(4, 3)), 2, 1) == 0


def test_f_count_at_k_zero_builds_no_degree_vectors(monkeypatch):
    # every p-set qualifies at k = 0, so no degree vector is needed
    monkeypatch.setattr(hyperf.fcalc, "_full_psets", None)
    assert f_count(ascending_orientation(complete(6, 3)), 2, 0) == comb(6, 2)


def test_f_bruteforce_small_exact_values():
    assert f_bruteforce(complete(3, 2), 1, 1).value == 1
    assert f_bruteforce(complete(4, 2), 1, 1).value == 2
    assert f_bruteforce(complete(4, 3), 1, 1).value == 0
    assert f_bruteforce(complete(5, 3), 1, 1).value == 0
    assert f_bruteforce(complete(4, 2), 1, 0).value == 4


def test_f_bruteforce_certificate_attains_value():
    rep = f_bruteforce(complete(4, 2), 1, 1)
    assert f_count(rep.orientation, 1, 1) == rep.value


def test_f_bruteforce_budget():
    # the first leaf is node e + 1 = 22, so budget 3 ends before any incumbent
    with pytest.raises(BudgetExceeded) as exc:
        f_bruteforce(complete(7, 2), 1, 1, budget=3)
    assert exc.value.best is None
    # f(K7,1,1) = n - 2, so any incumbent is at least 5
    with pytest.raises(BudgetExceeded) as exc:
        f_bruteforce(complete(7, 2), 1, 1, budget=1000)
    assert isinstance(exc.value.best, int) and exc.value.best >= 5


def test_f_bruteforce_rejects_p_outside_one_to_r_minus_one():
    for p in (0, 3):
        with pytest.raises(BadPSet):
            f_bruteforce(complete(4, 3), p, 1)
        for k in (0, 1):
            with pytest.raises(BadPSet):
                f_count(ascending_orientation(complete(4, 3)), p, k)


def test_f_via_m_examples_and_certificates():
    rep = f_via_m(complete(10, 2), 2)
    assert rep.value == 4
    assert f_count(rep.orientation, 1, 2) == 4
    assert rep.witness_parts == m_value(complete(10, 2), 1).parts
    assert f_via_m(complete(7, 3), 1).value == 1
    assert f_via_m(canonicalize([], 5, 2), 1).value == 0


def test_complete_part_size_matches_closed_expressions():
    for k in range(1, 41):
        assert complete_part_size(2, k) == 2 * k - 1
        assert complete_part_size(3, k) == (isqrt(24 * k - 23) + 3) // 2
    assert complete_part_size(3, 1) == 2
    assert complete_part_size(3, 2) == 4
    assert complete_part_size(3, 3) == 5


def test_closed_form_complete_values():
    assert closed_form_complete(10, 2, 1) == 8
    assert closed_form_complete(12, 2, 2) == 6
    assert closed_form_complete(7, 3, 1) == 1
    assert closed_form_complete(5, 3, 1) == 0
    assert closed_form_complete(4, 3, 2) == 0
    assert closed_form_complete(2, 2, 1) == 0


def test_closed_form_multipartite_cases():
    res = closed_form_multipartite((7, 7, 3), 2)
    assert res.applicable and res.value == 1
    res = closed_form_multipartite((3, 3, 2), 2)
    assert res.applicable and res.value == 0
    res = closed_form_multipartite((2, 3, 3), 2)  # order-insensitive
    assert res.applicable and res.value == 0
    res = closed_form_multipartite((4, 4, 2, 2), 2)
    assert res.applicable and res.value == 2
    res = closed_form_multipartite((2, 2, 2), 2)
    assert not res.applicable and res.value is None and res.failed
    assert not closed_form_multipartite((5, 5), 1).applicable
    res = closed_form_multipartite((5, 5, 1), 2)  # only the third class falls short
    assert res.failed == ("need third class >= 2k-2 = 2, or third and fourth >= k-1 = 1",)


def test_closed_form_leaves_a_non_complete_3_graph_to_via_m():
    h = random_hypergraph(6, 3, 5, seed=1)
    assert hyperf.fcalc.closed_form(h, 1, 1) is None
    assert f_value(h, 1, 1).method == "via-m"


def test_bounds_on_k5_frozen_table():
    rows = {b.name: b for b in bounds(complete(5, 2), 1)}
    expected = {
        "independence": ("lower", 3),
        "degenerate-upper": ("upper", 3),
        "degenerate-lower": ("lower", 3),
        "chromatic": ("lower", 3),
        "average-degree": ("upper", 3),
        "independence-upper": ("upper", 4),
        "chromatic-ratio": ("upper", 3),
        "triangle-hitting": ("lower", 3),
        "clique-factor": ("lower", 3),
    }
    for name, (side, value) in expected.items():
        assert rows[name].applicable, name
        assert rows[name].side == side, name
        assert rows[name].value == value, name


def test_bounds_bracket_exact_value():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 8)
        g = random_hypergraph(n, 2, rng.randint(0, min(12, comb(n, 2))), seed=rng.randrange(10**6))
        for k in (1, 2):
            exact = f_via_m(g, k).value
            for b in bounds(g, k):
                if not b.applicable:
                    continue
                if b.side == "lower":
                    assert b.value <= exact, (b.name, exact)
                else:
                    assert exact <= b.value, (b.name, exact)


def test_bounds_whose_search_runs_out_are_inapplicable(monkeypatch):
    # C5: the clique bound 2 and the greedy bound 3 differ, so the chromatic
    # search really runs; with no budget every searched row gives up, keeping
    # its input keys, while triangle-hitting, with no triangle to hit,
    # searches nothing.  Each distinct search runs once: at k = 1 the
    # degenerate-lower search is alpha's, so beta runs only for d = rk-1.
    calls, real_beta = [], hyperf.fcalc.beta

    def beta(h, d, budget):
        calls.append(d)
        return real_beta(h, d, budget)

    monkeypatch.setattr(hyperf.fcalc, "beta", beta)
    c5 = canonicalize([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 5, 2)
    rows = {b.name: b for b in bounds(c5, 1, budget=0)}
    assert calls == [1]
    searched = {"independence": {"alpha": None}, "degenerate-upper": {"beta": None, "d": 1},
                "degenerate-lower": {"beta": None, "d": 0}, "chromatic": {"chi": None},
                "independence-upper": {"alpha": None}, "chromatic-ratio": {"chi": None}}
    for name, inputs in searched.items():
        assert (rows[name].value, rows[name].applicable, rows[name].note, rows[name].inputs) == (
            None, False, "search budget exceeded", inputs), name
    assert (rows["triangle-hitting"].value, rows["triangle-hitting"].applicable) == (0, True)
    full = {b.name: b for b in bounds(c5, 1)}
    assert all(full[name].applicable for name in searched)
    assert full["chromatic"].inputs == {"chi": 3}
    assert full["degenerate-lower"].inputs == {"beta": full["independence"].inputs["alpha"], "d": 0}
    calls.clear()
    rows = {b.name: b for b in bounds(c5, 2, budget=0)}
    assert calls == [3, 2]
    assert rows["degenerate-lower"].inputs == {"beta": None, "d": 2}


def test_edge_bound_values():
    b = edge_bound(9, 3, 1)
    assert (b.value, b.capped) == (81, False)
    b = edge_bound(4, 2, 1)
    assert (b.value, b.capped) == (4, False)
    b = edge_bound(6, 3, 2)
    assert (b.value, b.capped) == (20, True)


def test_f_threshold_small_cases():
    res = f_threshold(2, 1, 1, 6)
    assert res.found == 3
    assert res.scanned == ((2, 0), (3, 1))
    assert res.method == "closed"
    assert f_threshold(3, 1, 1, 10).found == 7
    res = f_threshold(3, 2, 1, 5)
    assert res.found is None
    assert res.scanned == ((3, 0), (4, 0), (5, 0))
    assert res.method == "via-b"
    payload = json.loads(to_json(res))
    assert payload["found"] is None and payload["method"] == "via-b"


def test_f_threshold_at_p1_builds_no_complete_hypergraph(monkeypatch):
    def refuse(n, r):
        raise AssertionError(f"built K_{n}^({r})")

    monkeypatch.setattr(hyperf.ramsey, "complete", refuse)
    assert f_threshold(2, 1, 100, 500).found == 399


@pytest.mark.parametrize("r, p, k, n_max", [(3, 1, 1, 8), (3, 2, 1, 5), (3, 2, 2, 5)])
def test_f_threshold_takes_the_route_of_f_value(r, p, k, n_max):
    res = f_threshold(r, p, k, n_max)
    assert res.scanned
    for n, value in res.scanned:
        rep = f_value(complete(n, r), p, k)
        assert (rep.method, rep.value) == (res.method, value)


def test_f_threshold_skips_an_n_whose_search_blows_the_budget():
    res = f_threshold(3, 2, 1, 9, budget=2000)
    assert res.scanned == tuple((n, 0) for n in range(3, 8))
    assert res.skipped == (8, 9)
    assert res.found is None


@pytest.mark.parametrize("r, p, k, n_max", [(3, 2, 2, 12), (4, 2, 1, 13)])
def test_f_threshold_brute_scans_past_five(r, p, k, n_max):
    res = f_threshold(r, p, k, n_max)
    assert (res.method, res.found, res.skipped) == ("brute", None, ())
    assert res.scanned == tuple((n, 0) for n in range(r, n_max + 1))
    for n in range(r, n_max + 1):
        assert f_count(f_bruteforce(complete(n, r), p, k).orientation, p, k) == 0


def test_known_threshold_table():
    assert hyperf.fcalc.KNOWN_THRESHOLDS == {(3, 2, 1): (17, "recorded"), (4, 3, 1): (15202, "recorded-upper")}


def test_tset_threshold_q():
    assert tset_threshold_q(3, 1, 1) == 3
    assert tset_threshold_q(2, 1, 2) == 4
    assert tset_threshold_q(3, 2, 2) == 6


def test_find_tset_examples():
    h = complete(3, 2)
    cyclic = Orientation(h, ((0, 1), (2, 0), (1, 2)))
    transitive = Orientation(h, ((0, 1), (0, 2), (1, 2)))
    assert find_tset(cyclic, 1, 1, 3) == (0, 1, 2)
    assert find_tset(transitive, 1, 1, 2) is None
    assert find_tset(transitive, 1, 1, 0) == ()
    assert find_tset(transitive, 1, 1, 5) is None
    assert find_tset(ascending_orientation(complete(7, 3)), 1, 1, 1) == (2,)


def _tset_by_scan(d, p, k, t):
    # the lexicographically first t-set whose p-subsets all have every
    # coordinate >= k, by trying every t-set in order
    full = {a for a, vec in degree_vectors(d, p).items() if min(vec) >= k}
    return next((s for s in itertools.combinations(range(d.base.n), t)
                 if all(a in full for a in itertools.combinations(s, p))), None)


def test_find_tset_search_agrees_with_a_subset_scan():
    # at p = 2 the search goes depth-first; on these orientations it finds t-sets
    # of size 3 and 4
    found = set()
    for n in (6, 7):
        for seed in range(4):
            d = random_orientation(complete(n, 3), seed)
            for t in range(n + 2):
                got = find_tset(d, 2, 1, t)
                assert got == _tset_by_scan(d, 2, 1, t), (n, seed, t)
                if got is not None:
                    found.add(len(got))
    assert {3, 4} <= found
    assert find_tset(random_orientation(complete(6, 3), 0), 2, 1, 4) == (0, 1, 3, 5)


def test_find_tset_depth_is_not_bounded_by_the_recursion_limit():
    # the good 30-set of a random orientation of K30^(3) is found 30 vertices
    # deep, deeper than a recursion limit of 30 allows a recursive search
    code = (
        "import sys\n"
        "from hyperf import complete, find_tset, random_orientation\n"
        "d = random_orientation(complete(30, 3), 1)\n"
        "sys.setrecursionlimit(30)\n"
        "print(find_tset(d, 2, 1, 30))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(tuple(range(30)))


def test_find_tset_stops_at_its_budget():
    with pytest.raises(BudgetExceeded, match="t-set search exceeded 5 nodes"):
        find_tset(ascending_orientation(complete(9, 3)), 2, 1, 9, budget=5)


def test_find_tset_at_level_zero_takes_the_first_t_vertices():
    # every p-set is full at k = 0; a search this deep overflowed the stack
    d = ascending_orientation(Hypergraph(1200, 3, ((0, 1, 2),)))
    assert find_tset(d, 2, 0, 1100) == tuple(range(1100))
    assert find_tset(d, 1, 0, 1200) == tuple(range(1200))
    assert find_tset(d, 2, 0, 1201) is None
    with pytest.raises(BadParams, match="k must be an integer >= 0, got -1"):
        find_tset(d, 1, -1, 1200)


def test_find_tset_checks_p_before_t():
    d = ascending_orientation(complete(5, 3))
    for t in (2, d.base.n + 1):
        with pytest.raises(BadPSet):
            find_tset(d, 99, 1, t)


def test_find_tset_single_vertex_exists_when_closed_form_positive():
    rng = random.Random(17)
    for n, r, k in ((7, 3, 1), (5, 2, 1), (4, 2, 1)):
        assert closed_form_complete(n, r, k) > 0
        for _ in range(5):
            d = random_orientation(complete(n, r), seed=rng.randrange(10**6))
            assert find_tset(d, 1, k, 1) is not None


def test_greedy_packing_fano_like():
    blocks = greedy_packing(7, 3, 2)
    assert blocks == [
        (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
        (1, 4, 6), (2, 3, 6), (2, 4, 5),
    ]
    seen = set()
    for block in blocks:
        for pair in itertools.combinations(block, 2):
            assert pair not in seen
            seen.add(pair)


def test_greedy_packing_disjoint_when_p_is_one():
    assert greedy_packing(10, 3, 1) == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    assert greedy_packing(3, 3, 2) == [(0, 1, 2)]
    with pytest.raises(BadParams):
        greedy_packing(5, 2, 3)


def test_greedy_packing_at_p_one_scans_no_blocks():
    # p = 1 packs disjoint blocks: the lexicographic scan accepts consecutive runs
    for n in range(10):
        for m in range(1, 5):
            scanned, covered = [], set()
            for block in itertools.combinations(range(n), m):
                if covered.isdisjoint(block):
                    scanned.append(block)
                    covered.update(block)
            assert greedy_packing(n, m, 1, budget=len(scanned)) == scanned
    # C(40, 7) blocks would take minutes to scan
    assert greedy_packing(40, 7, 1, budget=5) == [tuple(range(s, s + 7)) for s in range(0, 35, 7)]


def test_greedy_packing_at_p_one_counts_its_blocks_against_the_budget():
    # the blocks are returned, not scanned, so memory follows the budget and not n
    assert len(greedy_packing(100, 4, 1, budget=25)) == 25
    for n in (100, 10**12):
        with pytest.raises(BudgetExceeded, match="packing scan exceeded 3 blocks") as err:
            greedy_packing(n, 4, 1, budget=3)
        assert err.value.best == 3


def test_greedy_packing_budget_counts_blocks_scanned():
    assert len(greedy_packing(7, 3, 2, budget=comb(7, 3))) == 7
    with pytest.raises(BudgetExceeded) as err:
        greedy_packing(7, 3, 2, budget=comb(7, 3) - 1)
    assert err.value.best == 7
    with pytest.raises(BudgetExceeded) as err:
        packing_bound(40, 3, 2, 1, budget=1000)
    assert err.value.best == 1


def test_packing_bound_threshold_lookup():
    res = packing_bound(10, 3, 1, 1)
    assert (res.m, res.count) == (7, 1)
    assert res.blocks == ((0, 1, 2, 3, 4, 5, 6),)
    res = packing_bound(7, 3, 2, 1)
    assert (res.m, res.count) == (17, 0)
    res = packing_bound(7, 3, 2, 1, m=3)
    assert res.count == 7
    with pytest.raises(ThresholdUnknown):
        packing_bound(6, 4, 2, 3)
