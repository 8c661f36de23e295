"""Topology loading, widest min-hop paths, and the access-cost matrix."""

import math

import numpy as np
import pytest

from dss.fileio import FileFormatError
from dss.topology import (
    Edge,
    Topology,
    cost_matrix,
    default_topology,
    format_topology,
    generate_synthetic_topology,
    min_hop_max_bottleneck,
    parse_topology,
)


def line_abc():
    return Topology(("a", "b", "c"), (Edge("a", "b", 10.0), Edge("b", "c", 5.0)))


def diamond():
    return Topology(
        ("a", "b", "c", "d"),
        (
            Edge("a", "b", 3.0),
            Edge("b", "d", 3.0),
            Edge("a", "c", 5.0),
            Edge("c", "d", 2.0),
        ),
    )


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(("a", "b"), (Edge("a", "a", 1.0),))  # self loop
    with pytest.raises(ValueError):
        Topology(("a", "b"), (Edge("a", "b", 1.0), Edge("b", "a", 2.0)))  # dup pair
    with pytest.raises(ValueError):
        Topology(("a", "b", "c"), (Edge("a", "b", 1.0),))  # disconnected
    with pytest.raises(ValueError):
        Topology(("a", "b"), (Edge("a", "x", 1.0),))  # unknown endpoint
    with pytest.raises(ValueError):
        Topology(("a", "b"), (Edge("a", "b", 0.0),))  # bandwidth must be positive


def test_self_path_is_free():
    assert min_hop_max_bottleneck(line_abc(), "a", "a") == (0, math.inf)


def test_single_path_bottleneck():
    assert min_hop_max_bottleneck(line_abc(), "a", "c") == (2, 5.0)


def test_tie_broken_by_widest_bottleneck():
    # two 2-hop paths a-b-d (bottleneck 3) and a-c-d (bottleneck 2)
    assert min_hop_max_bottleneck(diamond(), "a", "d") == (2, 3.0)


def test_shorter_path_wins_regardless_of_width():
    topo = Topology(
        ("a", "b", "c"),
        (Edge("a", "b", 1.0), Edge("b", "c", 1.0), Edge("a", "c", 100.0)),
    )
    assert min_hop_max_bottleneck(topo, "a", "c") == (1, 100.0)


def test_cost_matrix_line_graph():
    costs = cost_matrix(line_abc(), alpha=0.5, big_t=10.0)
    assert costs[0, 0] == costs[1, 1] == costs[2, 2] == 1
    assert costs[0, 2] == 3  # ceil(1 + 0.5*2 + 0.5*10/5)


def test_cost_matrix_alpha_one_counts_hops_only():
    costs = cost_matrix(diamond(), alpha=1.0)
    hops = {("a", "b"): 1, ("a", "c"): 1, ("a", "d"): 2}
    names = list(diamond().nodes)
    for (u, v), d in hops.items():
        assert costs[names.index(u), names.index(v)] == d + 1


def test_cost_matrix_properties():
    for topo in [line_abc(), diamond(), default_topology()]:
        costs = cost_matrix(topo, alpha=0.5)
        assert np.array_equal(costs, costs.T)
        assert costs.min() >= 1
        assert np.issubdtype(costs.dtype, np.integer)
        assert np.array_equal(np.diag(costs), np.ones(len(topo.nodes), dtype=int))


def test_cost_matrix_rejects_small_bandwidth_scale():
    with pytest.raises(ValueError):
        cost_matrix(line_abc(), alpha=0.5, big_t=4.0)
    with pytest.raises(ValueError):
        cost_matrix(line_abc(), alpha=1.5)


def test_cost_matrix_rejects_non_finite_bandwidth_scale():
    for big_t in (math.nan, math.inf):
        for alpha in (0.5, 1.0):
            with pytest.raises(ValueError, match="finite"):
                cost_matrix(line_abc(), alpha=alpha, big_t=big_t)


def test_parse_round_trip():
    topo = diamond()
    again = parse_topology(format_topology(topo))
    assert again.nodes == topo.nodes
    assert [(e.a, e.b, e.bandwidth) for e in again.edges] == [
        (e.a, e.b, e.bandwidth) for e in topo.edges
    ]


def test_parse_errors_carry_line_numbers():
    bad = "nodes: [a, b]\nedges:\n  - {a: a, bw: 5}\n"
    with pytest.raises(FileFormatError) as err:
        parse_topology(bad, "net.yaml")
    assert "net.yaml" in str(err.value)
    assert err.value.line == 3
    with pytest.raises(FileFormatError):
        parse_topology("edges: []\n", "net.yaml")  # nodes missing
    with pytest.raises(FileFormatError):
        parse_topology("nodes: [a]\nedges: {}\n", "net.yaml")


def test_bundled_topology_matches_generator():
    bundled = default_topology()
    generated = generate_synthetic_topology()
    assert bundled.nodes == generated.nodes
    assert [(e.a, e.b, e.bandwidth) for e in bundled.edges] == [
        (e.a, e.b, e.bandwidth) for e in generated.edges
    ]


def test_bundled_topology_shape():
    topo = default_topology()
    assert len(topo.nodes) == 19
    costs = cost_matrix(topo, alpha=0.5)
    off_diag = costs[~np.eye(19, dtype=bool)]
    assert off_diag.min() >= 1
    assert 20 <= off_diag.max() <= 29  # heterogeneous spread, roughly [1, 29]
    assert len(np.unique(off_diag)) >= 10
    bandwidths = [e.bandwidth for e in topo.edges]
    assert max(bandwidths) == 500.0
