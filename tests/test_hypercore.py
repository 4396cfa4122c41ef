"""Data-model tests: validation, generators, file I/O."""

import inspect
import json
import random
import re
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_hygiene import _COUNT_NAMES

import hyperf.extremal
import hyperf.fcalc
import hyperf.hypercore
import hyperf.orient
import hyperf.ramsey
import hyperf.verify
from hyperf import (
    SUITES,
    BadParams,
    BadPSet,
    BudgetDomainMismatch,
    DuplicateEdge,
    Hypergraph,
    HyperfError,
    FormatError,
    Orientation,
    PSetColoring,
    RepeatedVertexInEdge,
    VertexOutOfRange,
    ascending_orientation,
    alpha,
    b_value,
    beta,
    bounds,
    canonicalize,
    chi_r,
    chromatic_exact,
    closed_form_complete,
    closed_form_multipartite,
    complement,
    complete,
    complete_multipartite,
    complete_part_size,
    degeneracy,
    degree_vector,
    degree_vectors,
    derived_pset_hypergraph,
    edge_bound,
    f_bruteforce,
    f_count,
    f_p1_exact,
    f_threshold,
    f_value,
    f_via_m,
    find_tset,
    from_text,
    generate,
    greedy_packing,
    hit_triangles,
    join_k2,
    m_value,
    max_coordinate,
    mop_fan,
    mop_random,
    orient_budget,
    orient_forbidden,
    orient_from_partition,
    orient_max_outdeg,
    packing_bound,
    partition_degenerate,
    random_corpus,
    random_hypergraph,
    random_orientation,
    read_path,
    run_all,
    to_json,
    to_text,
    tset_threshold_q,
    verify_suite,
    write_path,
)
from hyperf.fcalc import closed_form
from hyperf.hypercore import DEFAULT_NODE_BUDGET, _placements, orientation_from_rows


def test_canonicalize_sorts_edges_and_vertices():
    h = canonicalize([(2, 1), (0, 2), (1, 0)], 3, 2)
    assert h.edges == ((0, 1), (0, 2), (1, 2))
    assert (h.n, h.r, h.e) == (3, 2, 3)


def test_canonicalize_rejects_bad_edges():
    with pytest.raises(VertexOutOfRange):
        canonicalize([(0, 5)], 3, 2)
    with pytest.raises(RepeatedVertexInEdge):
        canonicalize([(1, 1)], 3, 2)
    with pytest.raises(DuplicateEdge):
        canonicalize([(0, 1), (1, 0)], 3, 2)
    with pytest.raises(BadParams):
        canonicalize([(0, 1)], 3, 3)


def test_canonicalize_and_hypergraph_check_edges_in_one_order():
    # length, then range, then repeats; an unsorted edge or edge list is stored sorted
    cases = [
        (lambda: canonicalize([(1, 1, 2, 9)], 3, 3), BadParams,
         "edge (1, 1, 2, 9) does not have 3 vertices"),
        (lambda: canonicalize([(3, 3, 9)], 4, 3), VertexOutOfRange,
         "vertex must be an integer in 0..3, got 9"),
        (lambda: canonicalize([(2, 1, 2)], 3, 3), RepeatedVertexInEdge,
         "repeated vertex in edge (2, 1, 2)"),
        (lambda: Hypergraph(3, 3, ((2, 1, 2),)), RepeatedVertexInEdge,
         "repeated vertex in edge (2, 1, 2)"),
        (lambda: Hypergraph(3, 2, ((0, 1), (0, 1))), DuplicateEdge, "duplicate edge (0, 1)"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as caught:
            build()
        assert str(caught.value) == message
    assert Hypergraph(3, 2, ((1, 0),)).edges == ((0, 1),)
    assert Hypergraph(3, 2, ((1, 2), (0, 1))).edges == ((0, 1), (1, 2))


def test_canonicalize_checks_each_edge_once(monkeypatch):
    calls = []
    check = hyperf.hypercore._check_edge
    monkeypatch.setattr(hyperf.hypercore, "_check_edge", lambda *a: calls.append(a) or check(*a))
    h = canonicalize([(2, 1), (0, 1), (2, 3)], 4, 2)
    assert len(calls) == 3
    assert h == Hypergraph(4, 2, ((0, 1), (1, 2), (2, 3)))
    del calls[:]
    with pytest.raises(DuplicateEdge) as caught:
        canonicalize([(0, 1), (2, 1), (1, 0), (1, 2)], 3, 2)
    assert str(caught.value) == "duplicate edge (0, 1)"
    assert len(calls) == 4


def test_random_corpus_rejects_impossible_sizes():
    with pytest.raises(BadParams):
        hyperf.verify.random_corpus(3, 1, ranks=(3,), n_max=2)
    with pytest.raises(BadParams):
        hyperf.verify.random_corpus(3, 1, e_max=-1)
    assert len(hyperf.verify.random_corpus(3, 1, ranks=(3,), n_max=3, e_max=0)) == 3


def test_degrees_and_edges_inside():
    h = complete(4, 2)
    assert h.degrees() == [3, 3, 3, 3]
    assert h.edges_inside([0, 1, 2]) == [0, 1, 3]
    assert h.edges_inside([3]) == []


def test_orientation_requires_permutations_of_edges():
    h = complete(3, 2)
    with pytest.raises(BadParams):
        Orientation(h, ((0, 1), (0, 1), (1, 2)))
    with pytest.raises(BadParams):
        Orientation(h, ((0, 1), (0, 2)))


def test_degree_vector_triangle_orientations():
    h = complete(3, 2)
    cyclic = Orientation(h, ((0, 1), (2, 0), (1, 2)))
    vecs = degree_vectors(cyclic, 1)
    assert all(vecs[(v,)] == [1, 1] for v in range(3))
    transitive = Orientation(h, ((0, 1), (0, 2), (1, 2)))
    assert degree_vectors(transitive, 1) == {(0,): [2, 0], (1,): [1, 1], (2,): [0, 2]}


def test_degree_vector_pair_in_triple_system():
    d = ascending_orientation(complete(4, 3))
    dv = degree_vector(d, (0, 1))
    assert dv.pset == (0, 1)
    assert tuple(dv.coords) == (2, 0, 0)
    assert max_coordinate(d, 0) >= 1


def test_placements_match_the_general_formula():
    # p = 1 and p = r-1 take their own paths; every p must give the sorted
    # p-set at each position subset, in rank order
    for r in range(2, 7):
        orders = list(permutations((2, 5, 7, 11, 13, 17)[:r]))
        for p in range(1, r):
            subsets = list(combinations(range(r), p))
            want = [[tuple(sorted(order[i] for i in s)) for s in subsets] for order in orders]
            assert list(_placements(orders, r, p)) == want, (r, p)


def test_degree_vector_rejects_a_non_integer_vertex():
    # 1.5 passes the range test 0 <= v < n but is no vertex
    with pytest.raises(BadPSet, match=r"p-set vertex must be an integer in 0\.\.3, got 1\.5"):
        degree_vector(ascending_orientation(complete(4, 3)), (1.5,))
    with pytest.raises(BadPSet, match="p-set 5 is not a sequence of vertices"):
        degree_vector(ascending_orientation(complete(4, 3)), 5)


def test_random_orientation_is_seed_deterministic():
    h = complete(5, 2)
    assert random_orientation(h, 7) == random_orientation(h, 7)
    assert random_orientation(h, 7) != random_orientation(h, 8)


def test_complete_generator_edge_counts():
    for n, r in ((5, 2), (6, 3), (6, 4)):
        assert complete(n, r).e == comb(n, r)


def test_multipartite_generator():
    g = complete_multipartite((3, 2, 2))
    assert g.n == 7
    assert g.e == 3 * 2 + 3 * 2 + 2 * 2
    for a, b in g.edges:
        assert (a < 3) + (3 <= b < 5) + (b >= 5) >= 1


def test_mop_generators_are_triangulations():
    for n in range(3, 13):
        fan = mop_fan(n)
        assert fan.e == 2 * n - 3
        assert degeneracy(fan)[0] == 2 or n == 3
        rnd = mop_random(n, seed=n)
        assert rnd.e == 2 * n - 3
        cycle = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
        assert cycle <= set(rnd.edges)
    assert mop_random(9, seed=1) == mop_random(9, seed=1)


def test_join_and_complement():
    g = canonicalize([(0, 1)], 3, 2)
    j = join_k2(g)
    assert (j.n, j.e) == (6, 2 * g.e + 9)
    c = complement(g)
    assert c.e == comb(3, 2) - 1
    assert complement(c) == g


def test_generate_dispatch():
    assert generate("complete", n=4, r=2) == complete(4, 2)
    with pytest.raises(BadParams):
        generate("no-such-family", n=1)


def test_random_hypergraph_bounds_and_determinism():
    h = random_hypergraph(8, 3, 12, seed=3)
    assert (h.n, h.r, h.e) == (8, 3, 12)
    assert h == random_hypergraph(8, 3, 12, seed=3)
    assert h != random_hypergraph(8, 3, 12, seed=4)


def test_random_hypergraph_takes_sampled_lexicographic_ranks():
    for n, r in [(n, r) for n in range(2, 10) for r in range(2, n + 1)] + [(60, 3)]:
        listed = list(combinations(range(n), r))
        for m in sorted({0, 1, len(listed) // 2, len(listed)}):
            seed = n * 100 + r * 10 + m
            picks = sorted(random.Random(seed).sample(range(len(listed)), m))
            assert random_hypergraph(n, r, m, seed).edges == tuple(listed[i] for i in picks)


def test_text_roundtrip_hypergraph():
    h = random_hypergraph(7, 3, 9, seed=5)
    assert from_text(to_text(h)) == h


def test_text_roundtrip_orientation():
    d = random_orientation(random_hypergraph(6, 3, 7, seed=2), seed=9)
    back = from_text(to_text(d))
    assert isinstance(back, Orientation)
    assert back == d


def test_from_text_accepts_comments_and_any_order():
    text = "# demo\nhypergraph n=3 r=2\ne 2 1\n\ne 0 1  # inline\n"
    assert from_text(text) == canonicalize([(1, 2), (0, 1)], 3, 2)


def test_from_text_rejects_malformed_input():
    with pytest.raises(FormatError):
        from_text("net n=3 r=2\n")
    with pytest.raises(FormatError):
        from_text("hypergraph n=3 r=2\ne 0\n")
    with pytest.raises(FormatError):
        from_text("hypergraph n=3 r=2\nx 0 1\n")
    with pytest.raises(FormatError):
        from_text("hypergraph n=3\n")


_HEADER = st.builds(
    "{} n={} r={}".format,
    st.sampled_from(["hypergraph", "oriented", "net", ""]),
    st.one_of(st.integers(-2, 7), st.sampled_from(["", "x", "1.5", "0x3"])),
    st.one_of(st.integers(-1, 5), st.sampled_from(["", "r", "2 3"])),
)
_JUNK = st.one_of(
    st.sampled_from(["e", "o", "x", "n=", "r=", "=", "-", "#", "1e3", "\t"]),
    st.integers(-3, 9).map(str),
    st.text(max_size=4),
)
_LINE = st.one_of(
    _HEADER,
    st.builds(
        lambda tag, vertices: " ".join([tag, *map(str, vertices)]),
        st.sampled_from(["e", "o"]),
        st.lists(st.integers(-1, 7), max_size=5),
    ),
    st.text(max_size=8).map("# {}".format),
    st.lists(_JUNK, max_size=5).map(" ".join),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_HEADER, st.lists(_LINE, max_size=8))
def test_from_text_never_crashes(header, lines):
    try:
        obj = from_text("\n".join([header, *lines]))
    except HyperfError:
        return
    assert isinstance(obj, (Hypergraph, Orientation))


def test_write_and_read_path(tmp_path):
    h = complete(5, 3)
    target = tmp_path / "h.hg"
    write_path(h, target)
    assert read_path(target) == h


def test_to_json_rules():
    rep = {"ratio": Fraction(3, 2), "pairs": ((1, 2),), "none": None,
           "coloring": {(1, 2): 0, (0, 1): 1}, "empty": {},
           "orientation": Orientation(complete(3, 2), ((1, 0), (0, 2), (2, 1))),
           "graph": complete(3, 2)}
    assert json.loads(to_json(rep)) == {
        "ratio": "3/2", "pairs": [[1, 2]], "none": None,
        "coloring": [[[0, 1], 1], [[1, 2], 0]], "empty": {},
        "orientation": {"n": 3, "r": 2, "orders": [[1, 0], [0, 2], [2, 1]]},
        "graph": {"n": 3, "r": 2, "edges": [[0, 1], [0, 2], [1, 2]]},
    }
    assert to_json({"b": 1, "a": [2]}) == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}'


# one cheap call per public search that takes a node budget
_NODE_BUDGETED = {
    "extremal.chromatic_exact": lambda b: chromatic_exact(complete(5, 2), b),
    "extremal.alpha": lambda b: alpha(complete(4, 2), b),
    "extremal.beta": lambda b: beta(complete(4, 2), 1, b),
    "extremal.hit_triangles": lambda b: hit_triangles(complete(4, 2), b),
    "extremal.m_value": lambda b: m_value(complete(4, 2), 1, b),
    "fcalc.f_bruteforce": lambda b: f_bruteforce(complete(4, 3), 1, 0, b),
    "fcalc.f_via_m": lambda b: f_via_m(complete(4, 2), 1, b),
    "fcalc.bounds": lambda b: bounds(complete(4, 2), 1, b),
    "fcalc.find_tset": lambda b: find_tset(ascending_orientation(complete(4, 3)), 1, 0, 2, b),
    "fcalc.greedy_packing": lambda b: greedy_packing(7, 3, 1, b),
    "fcalc.packing_bound": lambda b: packing_bound(7, 3, 2, 1, m=3, budget=b),
    "ramsey.chi_r": lambda b: chi_r(complete(5, 3), 2, b),
    "ramsey.b_value": lambda b: b_value(complete(5, 3), 2, b),
    "ramsey.f_threshold": lambda b: f_threshold(3, 2, 1, 5, b),
    "ramsey.f_p1_exact": lambda b: f_p1_exact(complete(4, 3), 2, b),
    "ramsey.f_value": lambda b: f_value(complete(4, 2), 1, 1, b),
    "verify.verify_suite": lambda b: verify_suite("multipartite", budget=b),
    "verify.run_all": lambda b: run_all(budget=b),
    **{f"verify.{suite.__name__}": (lambda b, suite=suite: suite(budget=b))
       for suite in SUITES.values()},
}


@pytest.mark.parametrize("name", sorted(_NODE_BUDGETED))
def test_negative_budget_is_bad_params(name):
    with pytest.raises(BadParams, match="budget must be an integer >= 0, got -5"):
        _NODE_BUDGETED[name](-5)


def test_every_node_budgeted_search_is_listed():
    found = {
        f"{module.__name__.split('.')[1]}.{attr}"
        for module in (hyperf.extremal, hyperf.fcalc, hyperf.ramsey, hyperf.verify)
        for attr, obj in vars(module).items()
        if not attr.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and getattr(inspect.signature(obj).parameters.get("budget"), "default", None)
        == DEFAULT_NODE_BUDGET
    }
    assert found == set(_NODE_BUDGETED)


_K4 = complete(4, 2)
_K43 = complete(4, 3)
_D43 = ascending_orientation(_K43)

# "module.function:argument" -> (name in the refusal, least value, one cheap call)
_COUNTED = {
    "hypercore.Hypergraph:n": ("n", 0, lambda v: Hypergraph(v, 2, ())),
    "hypercore.Hypergraph:r": ("r", 2, lambda v: Hypergraph(3, v, ())),
    "hypercore.canonicalize:n": ("n", 0, lambda v: canonicalize([], v, 2)),
    "hypercore.canonicalize:r": ("r", 2, lambda v: canonicalize([], 3, v)),
    "hypercore.orientation_from_rows:n": ("n", 0, lambda v: orientation_from_rows([], v, 2)),
    "hypercore.orientation_from_rows:r": ("r", 2, lambda v: orientation_from_rows([], 3, v)),
    "hypercore.complete:n": ("n", 0, lambda v: complete(v, 2)),
    "hypercore.complete:r": ("r", 2, lambda v: complete(4, v)),
    "hypercore.complete_multipartite:sizes": ("class size", 1, lambda v: complete_multipartite((2, v))),
    "hypercore.mop_fan:n": ("n", 3, lambda v: mop_fan(v)),
    "hypercore.mop_random:n": ("n", 3, lambda v: mop_random(v, 1)),
    "hypercore.random_hypergraph:n": ("n", 3, lambda v: random_hypergraph(v, 3, 1, 1)),
    "hypercore.random_hypergraph:r": ("r", 2, lambda v: random_hypergraph(5, v, 1, 1)),
    "hypercore.random_hypergraph:m": ("m", 0, lambda v: random_hypergraph(5, 3, v, 1)),
    "hypercore.degree_vectors:p": ("p", 1, lambda v: degree_vectors(_D43, v)),
    "extremal.beta:d": ("d", 0, lambda v: beta(_K4, v)),
    "extremal.m_value:k": ("k", 0, lambda v: m_value(_K4, v)),
    "extremal.partition_degenerate:k": ("k", 0, lambda v: partition_degenerate(_K4, v)),
    "fcalc.f_count:p": ("p", 1, lambda v: f_count(_D43, v, 1)),
    "fcalc.f_count:k": ("k", 0, lambda v: f_count(_D43, 1, v)),
    "fcalc.f_bruteforce:p": ("p", 1, lambda v: f_bruteforce(_K43, v, 1)),
    "fcalc.f_bruteforce:k": ("k", 0, lambda v: f_bruteforce(_K43, 1, v)),
    "fcalc.f_via_m:k": ("k", 1, lambda v: f_via_m(complete(6, 2), v)),
    "fcalc.closed_form:p": ("p", 1, lambda v: closed_form(_K4, v, 1)),
    "fcalc.closed_form:k": ("k", 0, lambda v: closed_form(_K4, 1, v)),
    "fcalc.complete_part_size:r": ("r", 2, lambda v: complete_part_size(v, 1)),
    "fcalc.complete_part_size:k": ("k", 1, lambda v: complete_part_size(3, v)),
    "fcalc.closed_form_complete:n": ("n", 0, lambda v: closed_form_complete(v, 2, 1)),
    "fcalc.closed_form_complete:r": ("r", 2, lambda v: closed_form_complete(10, v, 1)),
    "fcalc.closed_form_complete:k": ("k", 1, lambda v: closed_form_complete(10, 2, v)),
    "fcalc.closed_form_multipartite:sizes":
        ("class size", 1, lambda v: closed_form_multipartite((3, v), 1)),
    "fcalc.closed_form_multipartite:k": ("k", 1, lambda v: closed_form_multipartite((3, 3), v)),
    "fcalc.bounds:k": ("k", 1, lambda v: bounds(_K4, v)),
    "fcalc.edge_bound:n": ("n", 0, lambda v: edge_bound(v, 3, 1)),
    "fcalc.edge_bound:r": ("r", 2, lambda v: edge_bound(9, v, 1)),
    "fcalc.edge_bound:k": ("k", 1, lambda v: edge_bound(9, 3, v)),
    "fcalc.tset_threshold_q:r": ("r", 2, lambda v: tset_threshold_q(v, 1, 1)),
    "fcalc.tset_threshold_q:p": ("p", 1, lambda v: tset_threshold_q(3, v, 1)),
    "fcalc.tset_threshold_q:k": ("k", 1, lambda v: tset_threshold_q(3, 2, v)),
    "fcalc.find_tset:p": ("p", 1, lambda v: find_tset(_D43, v, 1, 2)),
    "fcalc.find_tset:k": ("k", 0, lambda v: find_tset(_D43, 1, v, 2)),
    "fcalc.find_tset:t": ("t", 0, lambda v: find_tset(_D43, 1, 1, v)),
    "fcalc.greedy_packing:n": ("n", 0, lambda v: greedy_packing(v, 3, 1)),
    "fcalc.greedy_packing:m": ("m", 1, lambda v: greedy_packing(7, v, 1)),
    "fcalc.greedy_packing:p": ("p", 1, lambda v: greedy_packing(7, 3, v)),
    "fcalc.packing_bound:n": ("n", 0, lambda v: packing_bound(v, 3, 1, 1)),
    "fcalc.packing_bound:r": ("r", 2, lambda v: packing_bound(10, v, 1, 1)),
    "fcalc.packing_bound:p": ("p", 1, lambda v: packing_bound(10, 3, v, 1)),
    "fcalc.packing_bound:k": ("k", 1, lambda v: packing_bound(10, 3, 1, v)),
    "fcalc.packing_bound:m": ("m", 1, lambda v: packing_bound(10, 3, 1, 1, m=v)),
    "orient.orient_budget:budget":
        ("budget[0]", 0, lambda v: orient_budget(_K4, {0: v, 1: 1, 2: 1, 3: 1})),
    "orient.orient_max_outdeg:k": ("k", 0, lambda v: orient_max_outdeg(_K4, v)),
    "orient.orient_from_partition:k": ("k", 1, lambda v: orient_from_partition(_K4, v, [[0], [1]])),
    "orient.orient_forbidden:p": ("p", 1, lambda v: orient_forbidden(_K43, {}, v)),
    "ramsey.PSetColoring:p": ("p", 1, lambda v: PSetColoring(v, 2, {})),
    "ramsey.PSetColoring:colors": ("colors", 1, lambda v: PSetColoring(1, v, {})),
    "ramsey.derived_pset_hypergraph:p": ("p", 1, lambda v: derived_pset_hypergraph(_K43, v)),
    "ramsey.chi_r:p": ("p", 1, lambda v: chi_r(_K43, v)),
    "ramsey.b_value:p": ("p", 1, lambda v: b_value(_K43, v)),
    "ramsey.f_value:p": ("p", 1, lambda v: f_value(_K43, v, 1)),
    "ramsey.f_value:k": ("k", 0, lambda v: f_value(_K43, 1, v)),
    "ramsey.f_threshold:r": ("r", 2, lambda v: f_threshold(v, 1, 1, 5)),
    "ramsey.f_threshold:p": ("p", 1, lambda v: f_threshold(3, v, 1, 5)),
    "ramsey.f_threshold:k": ("k", 1, lambda v: f_threshold(3, 2, v, 5)),
    "ramsey.f_threshold:n_max": ("n_max", 1, lambda v: f_threshold(3, 2, 1, v)),
    "ramsey.f_p1_exact:p": ("p", 1, lambda v: f_p1_exact(_K43, v)),
    "verify.random_corpus:count": ("count", 0, lambda v: random_corpus(v, 1)),
    "verify.random_corpus:n_max": ("n_max", 4, lambda v: random_corpus(1, 1, n_max=v)),
    "verify.random_corpus:e_max": ("e_max", 0, lambda v: random_corpus(1, 1, e_max=v)),
    **{f"{name}:budget": ("budget", 0, call) for name, call in _NODE_BUDGETED.items()},
}


@pytest.mark.parametrize("name", sorted(_COUNTED))
def test_count_arguments_refuse_non_integers_and_values_below_their_least(name):
    label, least, call = _COUNTED[name]
    for value in (least - 1, least + 0.5):
        with pytest.raises(HyperfError, match=re.escape(f"{label} must be an integer >= {least}, got {value!r}")):
            call(value)


def test_every_count_argument_is_listed():
    found = {
        f"{module.__name__.split('.')[1]}.{attr}:{param.name}"
        for module in (hyperf.hypercore, hyperf.extremal, hyperf.fcalc, hyperf.orient,
                       hyperf.ramsey, hyperf.verify)
        for attr, obj in vars(module).items()
        if not attr.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        for param in inspect.signature(obj).parameters.values()
        if param.name in _COUNT_NAMES and param.annotation != "Orientation"  # d is also an orientation
    }
    assert found <= set(_COUNTED), sorted(found - set(_COUNTED))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Hypergraph(3, 2, [5]), BadParams, "edge 5 is not a sequence of vertices"),
    (lambda: Hypergraph(3, 2, 5), BadParams, "edges 5 are not an iterable of edges"),
    (lambda: Orientation(_K4, [(0, "x")] * _K4.e), BadParams,
     "order (0, 'x') is not a permutation of edge (0, 1)"),
    (lambda: Orientation(_K4, 5), BadParams, "orders must be one sequence of vertices per edge"),
    (lambda: Orientation(complete(3, 2), [5, 5, 5]), BadParams,
     "orders must be one sequence of vertices per edge"),
    (lambda: orientation_from_rows([(0, "a")], 3, 2), VertexOutOfRange,
     "vertex must be an integer in 0..2, got 'a'"),
    (lambda: orient_from_partition(_K4, 1, [[1, "a"]]), BadParams,
     "part vertex must be an integer in 0..3, got 'a'"),
    (lambda: orient_from_partition(_K4, 1, [[0, 1], (v for v in [2, "a"])]), BadParams,
     "part vertex must be an integer in 0..3, got 'a'"),
    (lambda: orient_from_partition(_K4, 1, [[[1]]]), BadParams,
     "part vertex must be an integer in 0..3, got [1]"),
    (lambda: orient_from_partition(_K4, 1, 5), BadParams, "parts 5 are not a sequence of parts"),
    (lambda: orient_from_partition(_K4, 1, [5]), BadParams, "part 5 is not an iterable of vertices"),
    (lambda: complete_multipartite(5), BadParams, "class sizes 5 are not a sequence"),
    (lambda: max_coordinate(_D43, 1.5), BadParams, "position must be an integer in 0..2, got 1.5"),
    (lambda: max_coordinate(_D43, 3), BadParams, "position must be an integer in 0..2, got 3"),
    (lambda: random_corpus(1.5, 1), BadParams, "count must be an integer >= 0, got 1.5"),
    (lambda: random_corpus(1, 1, ranks=()), BadParams, "need at least one rank"),
    (lambda: orient_budget(_K4, {0: "a", 1: 1, 2: 1, 3: 1}), BadParams,
     "budget[0] must be an integer >= 0, got 'a'"),
    (lambda: orient_budget(_K4, {0: 1, 1: 1.5, 2: 1, 3: 1}), BadParams,
     "budget[1] must be an integer >= 0, got 1.5"),
    (lambda: orient_budget(complete(3, 2), {0: 1, 1: 1, 2: 1, "a": 1}), BudgetDomainMismatch,
     "budget domain must be 0..2; missing [], extra ['a']"),
    (lambda: orient_budget(complete(3, 2), {0: 1, 5: 1}), BudgetDomainMismatch,
     "budget domain must be 0..2; missing [1, 2], extra [5]"),
    (lambda: PSetColoring(1, 2, {(0,): 2}), BadParams, "color of (0,) must be an integer in 0..1, got 2"),
    (lambda: orient_forbidden(_K43, {(0,): "x"}, 1), BadParams,
     "color of (0,) must be an integer in 0..2, got 'x'"),
    (lambda: degree_vector(_D43, (0, 9)), BadPSet,
     "p-set vertex must be an integer in 0..3, got 9"),
    (lambda: degree_vector(_D43, (0, 1, 2)), BadPSet, "p-set size must be in 1..2, got (0, 1, 2)"),
    (lambda: degree_vector(_D43, ()), BadPSet, "p-set size must be in 1..2, got ()"),
    (lambda: from_text("# nothing\n\n"), FormatError, "empty input"),
    (lambda: from_text("hypergraph n=x r=2\n"), FormatError, "bad header line 'hypergraph n=x r=2'"),
    (lambda: from_text("hypergraph m=3 r=2\n"), FormatError, "bad header line 'hypergraph m=3 r=2'"),
    (lambda: from_text("hypergraph n=3 r=2\ne 0 x\n"), FormatError, "non-integer vertex in 'e 0 x'"),
    (lambda: random_hypergraph(4, 2, 7, 1), BadParams, "need m <= C(4,2) = 6, got m=7"),
    *[(lambda g=g, route=route: route(g), BadParams, f"{route.__name__} is defined for graphs (r=2)")
      for route in (join_k2, complement, hit_triangles)
      for g in (5, ascending_orientation(_K4), _K43)],
    (lambda: to_text(5), BadParams, "cannot serialize int"),
    (lambda: alpha(5), BadParams, "alpha expects Hypergraph, got int"),
    (lambda: beta(5, 1), BadParams, "beta expects Hypergraph, got int"),
    (lambda: m_value(5, 1), BadParams, "m_value expects Hypergraph, got int"),
    (lambda: chromatic_exact(5), BadParams, "chromatic_exact expects Hypergraph, got int"),
    (lambda: b_value(5, 1), BadParams, "b_value expects Hypergraph, got int"),
    (lambda: f_count(5, 1, 1), BadParams, "f_count expects Orientation, got int"),
    (lambda: f_count(_K4, 1, 1), BadParams, "f_count expects Orientation, got Hypergraph"),
])
def test_malformed_structured_input_is_a_hyperf_error(build, error, message):
    # malformed input names its fault in a HyperfError, never a TypeError, and
    # every index outside an edge is refused in hypercore._check_index's words
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
