"""Extremal-invariant tests: maximum average degree, degeneracy, coloring,
special subsets, and the sparse-partition maximum."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperf import extremal
from hyperf import (
    BudgetExceeded,
    FlowNetwork,
    Hypergraph,
    NotDegenerateEnough,
    alpha,
    b_value,
    beta,
    canonicalize,
    chi_r,
    chromatic_exact,
    complete,
    complete_multipartite,
    degeneracy,
    hit_triangles,
    m_value,
    mad_bruteforce,
    mad_certificate,
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


def _edge_counts(h):
    """Edges inside each vertex subset, indexed by bitmask."""
    cnt = [0] * (1 << h.n)
    for edge in h.edges:
        cnt[sum(1 << v for v in edge)] += 1
    for v in range(h.n):
        for s in range(1 << h.n):
            if s >> v & 1:
                cnt[s] += cnt[s ^ 1 << v]
    return cnt


def _independent_sets(h):
    return [c == 0 for c in _edge_counts(h)]


def _mad_sparse_sets(h, k):
    """Sets S with e(T) <= k*|T| for every T inside S, i.e. Mad(S) <= r*k."""
    ok = [c <= k * s.bit_count() for s, c in enumerate(_edge_counts(h))]
    for v in range(h.n):
        for s in range(1 << h.n):
            if s >> v & 1:
                ok[s] = ok[s] and ok[s ^ 1 << v]
    return ok


def _degenerate_sets(h, d):
    """Sets whose every nonempty subset has a vertex of degree <= d, by
    removing such a vertex from each set in increasing order."""
    masks = [sum(1 << v for v in edge) for edge in h.edges]
    ok = [True] * (1 << h.n)
    for s in range(1, 1 << h.n):
        inside = [m for m in masks if s & m == m]
        ok[s] = any(
            s >> v & 1 and ok[s ^ 1 << v] and sum(1 for m in inside if m >> v & 1) <= d
            for v in range(h.n)
        )
    return ok


def _safe_pset_families(h, p):
    """Sets of p-sets (bitmask over the lexicographic p-sets) containing
    every p-subset of no edge."""
    index = {a: i for i, a in enumerate(combinations(range(h.n), p))}
    masks = [sum(1 << index[s] for s in combinations(edge, p)) for edge in h.edges]
    return [all(s & m != m for m in masks) for s in range(1 << len(index))]


def _max_union(q, ok):
    """Largest union of q disjoint members of the subset-closed family ok,
    a list over all subsets, by dynamic programming over subsets."""
    full = len(ok) - 1
    best = [0] * len(ok)
    for _ in range(q):
        nxt = [0] * len(ok)
        for u in range(len(ok)):
            s = u
            while True:
                if ok[s]:
                    nxt[u] = max(nxt[u], s.bit_count() + best[u ^ s])
                if not s:
                    break
                s = (s - 1) & u
        best = nxt
    return best[full]


@st.composite
def _small_hypergraphs(draw, max_n=7, max_edges=12):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(0, max_n))
    possible = list(combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=max_edges)) if possible else []
    return canonicalize(edges, n, r)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_small_hypergraphs(), st.integers(0, 2))
def test_sparse_part_searches_match_subset_enumeration(h, level):
    indep = _independent_sets(h)
    assert alpha(h) == _max_union(1, indep)
    if h.r == 2:
        assert m_value(h, 0).value == _max_union(2, indep)
    assert beta(h, level) == _max_union(1, _degenerate_sets(h, level))
    assert m_value(h, level).value == _max_union(h.r, _mad_sparse_sets(h, level))
    for p in range(1, h.r):
        if 3 ** comb(h.n, p) * comb(h.r, p) <= 200_000:
            assert b_value(h, p).value == _max_union(comb(h.r, p), _safe_pset_families(h, p))
    assert chromatic_exact(h) == next(q for q in range(h.n + 1) if _max_union(q, indep) == h.n)
    if h.r == 2:
        edges = set(h.edges)
        tris = [t for t in combinations(range(h.n), 3) if set(combinations(t, 2)) <= edges]
        triangles = canonicalize(tris, h.n, 3)
        assert hit_triangles(h) == h.n - _max_union(1, _independent_sets(triangles))


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
    # the densest peeled suffix is {0, 1, 6, 7}; the largest densest set adds 3
    h = random_hypergraph(10, 2, 7, seed=829267558)
    assert h.edges == ((0, 1), (0, 6), (0, 7), (1, 7), (3, 7), (4, 5), (5, 8))
    assert mad_exact(h) == (Fraction(2), (0, 1, 3, 6, 7))
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
            # the witness is the union of all densest sets
            union = 0
            for s, c in enumerate(_edge_counts(h)):
                if s and Fraction(h.r * c, s.bit_count()) == value:
                    union |= s
            assert witness == tuple(v for v in range(n) if union >> v & 1)
        else:
            assert value == 0


def _planted_dense_3graph(n, core_size, seed):
    """A core with 6n/5 triples inside it plus 2n random triples."""
    rng = random.Random(seed)
    core = rng.sample(range(n), core_size)
    inner = set()
    while len(inner) < 6 * n // 5:
        inner.add(tuple(sorted(rng.sample(core, 3))))
    edges = set(inner)
    while len(edges) < len(inner) + 2 * n:
        edges.add(tuple(sorted(rng.sample(range(n), 3))))
    return canonicalize(sorted(edges), n, 3)


def test_mad_exact_needs_few_flows(monkeypatch):
    calls = [0]
    run = FlowNetwork.max_flow

    def counted(self):
        calls[0] += 1
        return run(self)

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    h = _planted_dense_3graph(32, 8, seed=4)
    value, witness = mad_exact(h)
    assert value == Fraction(h.r * len(h.edges_inside(witness)), len(witness))
    assert value > Fraction(h.r * h.e, h.n)
    # the densest peeled suffix already has density Mad, so one flow certifies it
    assert calls[0] == 1


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_small_hypergraphs(max_n=9, max_edges=40))
def test_mad_spread_certifies_the_upper_side(h):
    value, witness, spread = mad_certificate(h)
    assert (value, witness) == mad_exact(h)
    a, b = value.numerator, value.denominator
    assert len(spread) == h.e
    received = [0] * h.n
    for edge, row in zip(h.edges, spread):
        assert len(row) == h.r and min(row) >= 0 and sum(row) == h.r * b
        for v, amount in zip(edge, row):
            received[v] += amount
    assert max(received, default=0) <= a


def test_mad_bruteforce_refuses_large_instances():
    with pytest.raises(BudgetExceeded):
        mad_bruteforce(canonicalize([], 21, 2))


def test_degeneracy_order_is_min_degree_scan():
    rng = random.Random(6)
    for _ in range(60):
        r = rng.choice((2, 3, 4))
        n = rng.randint(0, 12)
        m = rng.randint(0, min(25, comb(n, r)))
        h = random_hypergraph(n, r, m, seed=rng.randrange(10**6)) if n >= r else canonicalize([], n, r)
        remaining, order, dmax = set(range(n)), [], 0
        while remaining:
            inside = [h.edges[i] for i in h.edges_inside(remaining)]
            deg = {v: sum(1 for edge in inside if v in edge) for v in remaining}
            v = min(remaining, key=lambda x: (deg[x], x))
            dmax = max(dmax, deg[v])
            order.append(v)
            remaining.remove(v)
        assert degeneracy(h) == (dmax, order)
        _, _, deleted = extremal._peel(h, range(n))
        assert sum(deleted) == h.e
        for i in range(n):
            assert h.e - sum(deleted[: i + 1]) == len(h.edges_inside(order[i + 1:]))


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


def test_chromatic_budget_bracket(monkeypatch):
    with pytest.raises(BudgetExceeded) as err:
        chromatic_exact(_cycle(5), budget=1)
    assert (err.value.lower, err.value.upper) == (2, 3)

    # one budget bounds the nodes summed over every palette size tried
    nodes = []
    search = extremal._sparse_parts

    def counted(*args, **kwargs):
        result = search(*args, **kwargs)
        nodes.append(result[2])
        return result

    monkeypatch.setattr(extremal, "_sparse_parts", counted)
    h = random_hypergraph(7, 3, 29, seed=152)
    assert chromatic_exact(h) == 3
    assert len(nodes) == 2  # two colors fail, three succeed
    assert nodes[1] == h.n + 1  # the first descent colors V, and the search stops there
    total = sum(nodes)
    assert chromatic_exact(h, budget=total) == 3
    with pytest.raises(BudgetExceeded) as err:
        chromatic_exact(h, budget=total - 1)
    assert (err.value.lower, err.value.upper) == (3, 4)


def test_sparse_parts_search_is_not_bound_by_recursion_depth():
    assert alpha(canonicalize([(0, 1)], 1200, 2)) == 1199


def test_coloring_search_visits_no_stay_out_dead_end():
    # a vertex that can join no color would stay out, which the incumbent
    # n - 1 prunes at once: such a child is neither visited nor counted
    assert chi_r(complete(7, 3), 2, budget=775) == 3
    with pytest.raises(BudgetExceeded) as err:
        chi_r(complete(7, 3), 2, budget=774)
    assert (err.value.lower, err.value.upper) == (3, 6)


def test_b_of_complete_triple_system_on_eight_vertices_node_count():
    assert b_value(complete(8, 3), 2, budget=13904).value == 28
    with pytest.raises(BudgetExceeded):
        b_value(complete(8, 3), 2, budget=13903)


def test_chi_r_of_complete_triple_system_on_eight_vertices_node_count():
    # 1,009 nodes refute two colors and 5,893 find three
    assert chi_r(complete(8, 3), 2, budget=6902) == 3
    with pytest.raises(BudgetExceeded) as err:
        chi_r(complete(8, 3), 2, budget=6901)
    assert (err.value.lower, err.value.upper) == (3, 7)


def _reference_sparse_parts(h, q, cap, exact=None, greedy=False, incumbent=0):
    """The sparse-parts search without blocked masks, as the oracle for the
    engine: the same static order and part order, a scan of v's edges per
    tried part and the bound used + undecided.  Returns the size, the parts
    as bitmasks and the nodes visited."""
    n = h.n
    degs = h.degrees()
    order = sorted(range(n), key=lambda v: (-degs[v], v))
    closers = [[] for _ in range(n)]
    for edge in h.edges:
        for v in edge:
            closers[v].append(sum(1 << u for u in edge if u != v))

    def grow(part, count, v):
        grown = count + sum(rest & part == rest for rest in closers[v])
        if grown > cap * (part.bit_count() + 1):
            return -1
        if grown > count and exact is not None and not exact(part | 1 << v):
            return -1
        return grown

    best, best_parts = incumbent, [0] * q
    if greedy:
        for seq in (order, order[::-1], range(n)):
            parts, counts = [0] * q, [0] * q
            for v in seq:
                for j in range(q):
                    grown = grow(parts[j], counts[j], v)
                    if grown >= 0:
                        parts[j] |= 1 << v
                        counts[j] = grown
                        break
            used = sum(part.bit_count() for part in parts)
            if used > best:
                best, best_parts = used, parts
    parts, counts = [0] * q, [0] * q
    nodes = 0

    def search(i, used):
        nonlocal best, best_parts, nodes
        nodes += 1
        if i == n and used > best:
            best, best_parts = used, parts[:]
        if used + n - i <= best:
            return
        v = order[i]
        for j in range(q):
            if j and not parts[j - 1]:
                break
            part, count = parts[j], counts[j]
            grown = grow(part, count, v)
            if grown >= 0:
                parts[j], counts[j] = part | 1 << v, grown
                search(i + 1, used + 1)
                parts[j], counts[j] = part, count
                if best == n:
                    return
        if used + n - i - 1 > best:
            search(i + 1, used)

    search(0, 0)
    return best, best_parts, nodes


def _assert_sparse_parts(h, cap, parts, hakimi):
    """parts are disjoint, and each spans at most cap*|part| edges, or has
    Mad <= r*cap when Hakimi's test ran."""
    seen = set()
    for part in parts:
        assert not seen & set(part)
        seen |= set(part)
        if hakimi:
            assert not part or mad_bruteforce(_induced(h, part)) <= h.r * cap
        else:
            assert len(h.edges_inside(part)) <= cap * len(part)


def test_blocked_masks_keep_witnesses_and_never_add_nodes():
    rng = random.Random(13)
    fewer = 0
    for _ in range(800):
        r = rng.randint(2, 4)
        n = rng.randint(r, 10)
        # dense inputs, since sparse ones rarely fill every part; cap 0, where
        # the blocked masks prune, is drawn twice as often
        h = random_hypergraph(n, r, rng.randint(comb(n, r) // 3, comb(n, r)), seed=rng.randrange(10**6))
        q, cap = rng.randint(1, 3), rng.choice((0, 0, 1, 2))
        hakimi = cap > 0 and rng.random() < 0.5
        greedy, incumbent = rng.random() < 0.5, rng.choice((0, n - 1))
        size, parts, nodes = _reference_sparse_parts(
            h, q, cap, extremal._hakimi_oracle(h, cap) if hakimi else None, greedy, incumbent)
        got = extremal._sparse_parts(h, q, cap, 10**6, "test search",
                                     extremal._hakimi_oracle(h, cap) if hakimi else None,
                                     greedy, incumbent)
        assert got[0] == size
        if cap == 0:
            # the blocked masks prune only subtrees with no larger union
            assert got[1] == tuple(extremal._members(part) for part in parts)
            assert got[2] <= nodes
            fewer += got[2] < nodes
        else:
            # the suffix stages may find another union of the same size
            assert len(got[1]) == q
            assert sum(map(len, got[1])) == (size if size > incumbent else 0)
            _assert_sparse_parts(h, cap, got[1], hakimi)
    assert fewer >= 100


def test_suffix_stages_take_at_most_three_quarters_of_the_nodes():
    # M(H,1)'s search on G(16,1/2): the stages bound a node by the largest
    # union on the undecided suffix instead of by its length
    rng = random.Random(31)
    ours = reference = 0
    for _ in range(30):
        g = random_hypergraph(16, 2, rng.randint(40, 80), seed=rng.randrange(10**6))
        size, _, nodes = _reference_sparse_parts(g, 2, 1, extremal._hakimi_oracle(g, 1), True)
        got = extremal._sparse_parts(g, 2, 1, 10**6, "test search", extremal._hakimi_oracle(g, 1), True)
        assert got[0] == size
        ours += got[2]
        reference += nodes
    assert ours <= 0.75 * reference


def test_searches_with_no_vertex_in_an_edge_return_them_all():
    lone = Hypergraph(1, 2, ())
    assert beta(lone, 1) == 1
    assert m_value(lone, 1) == extremal.MValueResult(1, ((0,), ()), ())
    assert m_value(Hypergraph(5, 3, ()), 2).parts == ((0, 1, 2, 3, 4), (), ())


def test_budget_zero_raises_from_the_staged_searches():
    # the root is node 1 and each stage counts one node, so a search whose
    # every stage the extension settles (a path: each vertex joins the last
    # union) still spends one node per stage
    path = canonicalize([(i, i + 1) for i in range(5)], 6, 2)
    assert extremal._sparse_parts(path, 1, 1, 10, "test search")[2] == 7
    assert beta(path, 1, budget=7) == 6
    with pytest.raises(BudgetExceeded):
        beta(path, 1, budget=6)
    for h in (path, complete(6, 2), Hypergraph(3, 2, ())):
        with pytest.raises(BudgetExceeded):
            beta(h, 1, budget=0)
        with pytest.raises(BudgetExceeded):
            m_value(h, 1, budget=0)


def _embed(h, t, rng):
    """h with t vertices in no edge added at random labels, h's own
    vertices keeping their order; returns it and the new label of each
    old vertex."""
    label = sorted(rng.sample(range(h.n + t), h.n))
    edges = [tuple(label[v] for v in edge) for edge in h.edges]
    return canonicalize(edges, h.n + t, h.r), label


def test_vertices_in_no_edge_are_added_to_part_zero_without_search():
    rng = random.Random(17)
    for _ in range(150):
        r = rng.randint(2, 4)
        n = rng.randint(r, 9)
        h = random_hypergraph(n, r, rng.randint(0, comb(n, r)), seed=rng.randrange(10**6))
        t = rng.randint(1, 6)
        wide, label = _embed(h, t, rng)
        added = set(range(wide.n)) - set(label)

        def mapped(parts):
            return tuple(tuple(sorted({label[v] for v in part} | (added if j == 0 else set())))
                         for j, part in enumerate(parts))

        def degenerate(g, d):
            return lambda part: extremal._peel(g, extremal._members(part))[0] <= d

        # the configurations the library runs: cap 0 (colorings, alpha, b, M(H,0)),
        # Hakimi's test (M(H,k)) and the degeneracy test (beta)
        runs = [(q, 0, None, greedy, incumbent) for q in (1, 2, 3)
                for greedy in (False, True) for incumbent in (0, 1)]
        runs += [(r, cap, extremal._hakimi_oracle, True, 0) for cap in (1, 2)]
        runs += [(1, d, degenerate, False, 0) for d in (1, 2)]
        for q, cap, test, greedy, top in runs:
            size, parts, nodes = extremal._sparse_parts(
                h, q, cap, 10**6, "test search", test and test(h, cap), greedy, top * (h.n - 1))
            got = extremal._sparse_parts(
                wide, q, cap, 10**6, "test search", test and test(wide, cap), greedy, top * (wide.n - 1))
            if size > top * (h.n - 1):
                assert got == (size + t, mapped(parts), nodes), (h, t, q, cap)
            else:  # nothing beat the incumbent, which still counts the added vertices
                assert got == (size + t, parts, nodes), (h, t, q, cap)

        for k in range(3):
            res, wide_res = m_value(h, k), m_value(wide, k)
            assert (wide_res.value, wide_res.parts) == (res.value + t, mapped(res.parts))
            assert wide_res.remainder == tuple(label[v] for v in res.remainder)
        assert alpha(wide) == alpha(h) + t
        assert chromatic_exact(wide) == chromatic_exact(h)
        if r == 2:
            assert hit_triangles(wide) == hit_triangles(h)


def test_chromatic_search_is_not_bound_by_recursion_depth():
    assert chromatic_exact(_cycle(1201)) == 3


def test_independent_and_degenerate_subsets():
    assert alpha(_cycle(5)) == 2
    assert alpha(complete_multipartite((3, 3))) == 3
    assert alpha(complete(5, 3)) == 2
    assert beta(complete(4, 2), 1) == 2
    assert beta(complete(4, 2), 2) == 3
    assert beta(complete(4, 2), 3) == 4
    assert m_value(_cycle(5), 0).value == 4
    assert m_value(complete(5, 2), 0).value == 2
    assert m_value(complete_multipartite((3, 3)), 0).value == 6
    assert hit_triangles(complete(4, 2)) == 2
    assert hit_triangles(complete(5, 2)) == 3
    assert hit_triangles(_cycle(5)) == 0


def test_hit_triangles_finds_triangles_from_the_edges():
    # one triangle among 2000 vertices: a scan of all vertex triples takes minutes
    assert hit_triangles(canonicalize([(0, 1), (0, 2), (1, 2)], 2000, 2)) == 1
    # out of budget, best is the smallest hitting set found, not the search's incumbent
    with pytest.raises(BudgetExceeded) as err:
        hit_triangles(complete(5, 2), budget=6)
    assert err.value.best == 3


def test_beta_at_zero_is_independence():
    rng = random.Random(8)
    for _ in range(25):
        r = rng.choice((2, 3))
        n = rng.randint(r, 8)
        h = random_hypergraph(n, r, rng.randint(0, min(10, comb(n, r))), seed=rng.randrange(10**6))
        assert beta(h, 0) == alpha(h) == _max_union(1, _independent_sets(h))


def test_two_independent_parts_equal_m_at_level_zero():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 8)
        g = random_hypergraph(n, 2, rng.randint(0, min(12, comb(n, 2))), seed=rng.randrange(10**6))
        assert m_value(g, 0).value == _max_union(2, _independent_sets(g))


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
    assert err.value.lower <= 6 <= err.value.upper

    # every staged exit brackets the value: lower is the incumbent, upper the
    # solved suffix's union plus one vertex per vertex before it, and the
    # vertices in no edge count on both sides
    h = canonicalize(random_hypergraph(12, 2, 40, seed=6).edges, 14, 2)
    value = m_value(h, 1).value
    nodes = extremal._sparse_parts(h, 2, 1, 10**6, "test search", extremal._hakimi_oracle(h, 1), True)[2]
    for budget in range(nodes):
        with pytest.raises(BudgetExceeded) as err:
            m_value(h, 1, budget=budget)
        assert err.value.best == err.value.lower <= value <= err.value.upper <= h.n
    assert m_value(h, 1, budget=nodes).value == value


def test_hakimi_oracle_matches_a_flow_on_every_mask():
    """One oracle instance, driven over a mask sequence that grows,
    shrinks and jumps, so that it starts from stale owners, answers as
    Mad's flow test on the induced part does."""
    rng = random.Random(21)
    answers = {True: 0, False: 0}
    for _ in range(80):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r, 10)
        top = comb(n, r)
        m = rng.randint(top // 3, top) if rng.random() < 0.5 else rng.randint(0, min(top, 2 * n))
        h = random_hypergraph(n, r, m, seed=rng.randrange(10**6))
        k = rng.randint(1, 3)
        sparse = extremal._hakimi_oracle(h, k)
        mask = 0
        for _ in range(30):
            step = rng.random()
            if step < 0.3:
                mask |= 1 << rng.randrange(n)
            elif step < 0.5:
                mask &= ~(1 << rng.randrange(n))
            elif step < 0.8:
                mask = rng.randrange(1 << n) | rng.randrange(1 << n)
            members = [v for v in range(n) if mask >> v & 1]
            want = extremal._mad_feasible(_induced(h, members), Fraction(h.r * k))[0]
            assert sparse(mask) == want, (h, k, mask)
            answers[want] += 1
    assert min(answers.values()) >= 300


def test_m_value_runs_no_max_flow(monkeypatch):
    calls = [0]
    run = FlowNetwork.max_flow

    def counted(self):
        calls[0] += 1
        return run(self)

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    assert m_value(complete(10, 2), 1).value == 6
    g = random_hypergraph(16, 2, 60, seed=3)
    for k in (1, 2):
        res = m_value(g, k)
        for part in res.parts:
            assert len(g.edges_inside(part)) <= k * len(part)
    assert calls[0] == 0


def test_m_value_asks_its_part_test_only_past_k_closed_edges(monkeypatch):
    # a join that closes at most k edges keeps a sparse part sparse (the
    # joining vertex takes them), so every set the exact test is asked
    # about has a vertex with more than k of its edges inside it
    asked = []
    build = extremal._hakimi_oracle

    def recording(h, k):
        sparse = build(h, k)
        return lambda mask: asked.append(mask) or sparse(mask)

    monkeypatch.setattr(extremal, "_hakimi_oracle", recording)
    cases = [(random_hypergraph(16, 2, 60, seed=3), 1), (random_hypergraph(16, 2, 60, seed=3), 2),
             (random_hypergraph(14, 2, 45, seed=8), 1), (random_hypergraph(10, 3, 40, seed=5), 1)]
    for h, k in cases:
        del asked[:]
        m_value(h, k)
        assert asked
        for mask in asked:
            inside = [h.edges[i] for i in h.edges_inside(v for v in range(h.n) if mask >> v & 1)]
            assert any(sum(v in edge for edge in inside) > k for v in range(h.n)), (h, k, mask)


def test_m_value_scans_no_edge_lists(monkeypatch):
    calls = [0]
    scan = Hypergraph.edges_inside

    def counted(self, vertices):
        calls[0] += 1
        return scan(self, vertices)

    monkeypatch.setattr(Hypergraph, "edges_inside", counted)
    assert m_value(canonicalize([(0, 1)], 4000, 2), 0).value == 4000
    assert calls[0] == 0


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
