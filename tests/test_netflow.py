"""Max-flow kernel tests."""

import random

import pytest

from hyperf import BadParams, FlowNetwork


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
