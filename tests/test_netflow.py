"""Max-flow kernel tests."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_extremal import _planted_dense_3graph

from hyperf import BadParams, FlowNetwork, mad_exact


def _demo_network():
    net = FlowNetwork(4, 0, 3)
    arcs = [
        net.add_arc(0, 1, 2),
        net.add_arc(0, 2, 2),
        net.add_arc(1, 3, 1),
        net.add_arc(2, 3, 3),
        net.add_arc(1, 2, 1),
    ]
    return net, arcs


def test_max_flow_value_and_arc_flows():
    net, arcs = _demo_network()
    assert net.max_flow() == 4
    assert [net.flow_on(a) for a in arcs] == [2, 2, 1, 3, 1]


def test_min_cut_separates_source():
    net, _ = _demo_network()
    flow = net.max_flow()
    cut = net.min_cut_source_side()
    assert 0 in cut and 3 not in cut
    assert cut == {0}
    # the arcs leaving the cut carry exactly the flow value
    leaving = sum(cap for (u, v, cap) in [(0, 1, 2), (0, 2, 2)] if u in cut and v not in cut)
    assert leaving == flow


def test_flow_conservation_random_networks():
    rng = random.Random(4)
    for _ in range(25):
        nodes = rng.randint(3, 8)
        net = FlowNetwork(nodes, 0, nodes - 1)
        arcs = []
        for _ in range(rng.randint(2, 14)):
            u, v = rng.sample(range(nodes), 2)
            arcs.append((u, v, net.add_arc(u, v, rng.randint(0, 5))))
        value = net.max_flow()
        balance = [0] * nodes
        for u, v, a in arcs:
            fl = net.flow_on(a)
            assert fl >= 0
            balance[u] -= fl
            balance[v] += fl
        assert balance[0] == -value
        assert balance[nodes - 1] == value
        assert all(b == 0 for i, b in enumerate(balance) if i not in (0, nodes - 1))


def test_add_arc_validates_endpoints():
    net = FlowNetwork(3, 0, 2)
    with pytest.raises(BadParams):
        net.add_arc(0, 3, 1)
    with pytest.raises(BadParams):
        net.add_arc(0, 1, -2)


def test_add_arcs_matches_one_arc_at_a_time():
    rng = random.Random(9)
    for _ in range(25):
        nodes = rng.randint(2, 8)
        arcs = [(*rng.sample(range(nodes), 2), rng.randint(0, 5)) for _ in range(rng.randint(0, 14))]
        one = FlowNetwork(nodes, 0, nodes - 1)
        ids = [one.add_arc(u, v, cap) for u, v, cap in arcs]
        bulk = FlowNetwork(nodes, 0, nodes - 1)
        bulk.add_arc(0, nodes - 1, 1)
        tails, heads, caps = (list(col) for col in zip(*arcs)) if arcs else ([], [], [])
        first = bulk.add_arcs(tails, heads, caps)
        assert first == 2
        assert one.max_flow() + 1 == bulk.max_flow()
        assert [one.flow_on(a) for a in ids] == [bulk.flow_on(first + a) for a in ids]


def test_add_arcs_validates_before_adding():
    net = FlowNetwork(3, 0, 2)
    with pytest.raises(BadParams, match="node 3 out of range"):
        net.add_arcs([0, 1, 3], [1, 2, 0], [1, 1, 1])
    with pytest.raises(BadParams, match="negative capacity -1"):
        net.add_arcs([0, 1], [1, 2], [1, -1])
    with pytest.raises(BadParams, match="2 tails, 1 heads and 2 capacities"):
        net.add_arcs([0, 1], [2], [1, 1])
    assert net.add_arc(0, 2, 1) == 0


def test_network_refuses_bad_terminals_and_arc_ids():
    for nodes, source, sink in ((3, 0, 3), (3, -1, 2), (3, 1, 1)):
        with pytest.raises(BadParams, match=f"bad source/sink {source}/{sink} for {nodes} nodes"):
            FlowNetwork(nodes, source, sink)
    net = FlowNetwork(3, 0, 2)
    net.add_arcs([0, 1], [1, 2], [1, 1])
    for arc in (1, 4, -2):  # a reverse arc, past the last arc, negative
        with pytest.raises(BadParams, match=f"{arc} is not a forward arc id"):
            net.flow_on(arc)


def test_max_flow_needs_few_phases(monkeypatch):
    # one augmenting path per edge would be about 120 passes a flow
    h = _planted_dense_3graph(40, 8, seed=4)
    phases = []
    run = FlowNetwork.max_flow

    def counted(self):
        value = run(self)
        phases.append(self.phases)
        return value

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    mad_exact(h)
    assert len(phases) == 1 and max(phases) <= 8


@st.composite
def _small_networks(draw):
    nodes = draw(st.integers(2, 7))
    source, sink = draw(st.lists(st.integers(0, nodes - 1), min_size=2, max_size=2, unique=True))
    arc = st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1), st.integers(0, 4))
    return nodes, source, sink, draw(st.lists(arc, max_size=14))


def _cut_capacity(arcs, side):
    return sum(cap for u, v, cap in arcs if u in side and v not in side)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_small_networks())
# parallel, antiparallel and zero-capacity arcs
@example((4, 0, 3, [(0, 1, 2), (0, 1, 1), (1, 0, 3), (1, 2, 0), (1, 3, 2), (2, 3, 4), (0, 2, 0)]))
# a sink no arc reaches
@example((5, 1, 4, [(1, 0, 3), (0, 2, 2), (2, 1, 1), (4, 3, 2)]))
def test_max_flow_matches_every_cut(network):
    nodes, source, sink, arcs = network
    net = FlowNetwork(nodes, source, sink)
    ids = [net.add_arc(u, v, cap) for u, v, cap in arcs]
    value = net.max_flow()

    others = [x for x in range(nodes) if x not in (source, sink)]
    sides = [
        {source, *extra} for size in range(len(others) + 1) for extra in combinations(others, size)
    ]
    best = min(_cut_capacity(arcs, side) for side in sides)
    assert value == best
    balance = [0] * nodes
    for (u, v, cap), a in zip(arcs, ids):
        flow = net.flow_on(a)
        assert 0 <= flow <= cap
        balance[u] -= flow
        balance[v] += flow
    assert balance[source] == -value and balance[sink] == value
    assert all(balance[x] == 0 for x in others)
    smallest = set.intersection(*(side for side in sides if _cut_capacity(arcs, side) == best))
    assert net.min_cut_source_side() == smallest
    largest = set.union(*(side for side in sides if _cut_capacity(arcs, side) == best))
    assert set(range(nodes)) - net.min_cut_sink_side() == largest
