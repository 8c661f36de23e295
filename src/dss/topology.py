"""Network topologies and the client-to-store access cost matrix.

A topology is an undirected connected graph of nodes with per-edge
bandwidths. The effective bandwidth BW(i, j) between two nodes is the
bottleneck bandwidth along a minimum-hop path, ties among minimum-hop paths
resolved toward the widest bottleneck. Access costs blend the two:

    cost(i, j) = ceil(1 + alpha * hops(i, j) + (1 - alpha) * T / BW(i, j))

with cost(i, i) = 1 (hops 0, infinite bandwidth), where T is a bandwidth
scale at least as large as every BW(i, j), so costs are integers >= 1 and
the self-access cost is the global minimum.

The package bundles a fixed synthetic 19-node topology (random geometric
graph, bandwidth ceiling 500) whose cost spread at alpha = 0.5 roughly
spans 1..29; `default_topology()` loads it.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from . import fileio

DEFAULT_TOPOLOGY_RESOURCE = "synthetic19.yaml"


@dataclass(frozen=True)
class Edge:
    a: str
    b: str
    bandwidth: float


@dataclass(frozen=True)
class Topology:
    """Undirected connected graph with positive edge bandwidths."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.nodes:
            raise ValueError("topology needs at least one node")
        adjacency: dict[str, dict[str, float]] = {}
        for node in self.nodes:
            _add_node(adjacency, node)
        for e in self.edges:
            _add_edge(adjacency, e)
        object.__setattr__(self, "_adjacency", adjacency)
        reached = _widest_min_hop(adjacency, self.nodes[0])
        if len(reached) != len(self.nodes):
            missing = sorted(adjacency.keys() - reached.keys())
            raise ValueError(f"topology is not connected; unreachable: {missing}")

    @property
    def adjacency(self) -> dict[str, dict[str, float]]:
        return getattr(self, "_adjacency")


def _add_node(adjacency: dict[str, dict[str, float]], node: str) -> None:
    if node in adjacency:
        raise ValueError(f"node ids must be distinct; {node!r} repeats")
    adjacency[node] = {}


def _add_edge(adjacency: dict[str, dict[str, float]], e: Edge) -> None:
    if e.a not in adjacency or e.b not in adjacency:
        raise ValueError(f"edge {e.a}-{e.b} references an unknown node")
    if e.a == e.b:
        raise ValueError(f"self-loop on node {e.a}")
    if e.b in adjacency[e.a]:
        raise ValueError(f"duplicate edge {e.a}-{e.b}")
    if not (math.isfinite(e.bandwidth) and e.bandwidth > 0):
        raise ValueError(f"edge {e.a}-{e.b} bandwidth must be positive")
    adjacency[e.a][e.b] = e.bandwidth
    adjacency[e.b][e.a] = e.bandwidth


def _widest_min_hop(
    adjacency: dict[str, dict[str, float]], src: str
) -> dict[str, tuple[int, float]]:
    """(hops, bottleneck bandwidth) of the widest minimum-hop path from
    ``src`` to every node it reaches, with ``src`` itself at (0, inf).

    BFS layering fixes the hop count; a node's width is the widest
    min(width, edge bandwidth) over its edges from the level before it.
    """
    reached = {src: (0, math.inf)}
    frontier = [src]
    hops = 0
    while frontier:
        hops += 1
        width: dict[str, float] = {}
        for u in frontier:
            width_u = reached[u][1]
            for v, bw in adjacency[u].items():
                if v not in reached:
                    width[v] = max(width.get(v, 0.0), min(width_u, bw))
        reached.update((v, (hops, w)) for v, w in width.items())
        frontier = list(width)
    return reached


def min_hop_max_bottleneck(topology: Topology, src: str, dst: str) -> tuple[int, float]:
    """Hop count and bottleneck bandwidth of the widest minimum-hop path.
    (src == dst gives (0, inf).)"""
    for node in (src, dst):
        if node not in topology.adjacency:
            raise ValueError(f"unknown node {node!r}")
    return _widest_min_hop(topology.adjacency, src)[dst]


def cost_matrix(
    topology: Topology, alpha: float = 0.5, big_t: float | None = None
) -> np.ndarray:
    """Integer access costs between every client node and store node.

    ``big_t`` defaults to the largest pairwise bottleneck bandwidth; passing
    a smaller value is an error (costs would drop below the hop term), and
    so is a non-finite one.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    nodes = topology.nodes
    rows = [_widest_min_hop(topology.adjacency, src) for src in nodes]
    paths = np.array([[row[dst] for dst in nodes] for row in rows])  # (n, n, 2)
    hops, bw = paths[..., 0], paths[..., 1]
    n = len(nodes)
    max_bw = bw[~np.eye(n, dtype=bool)].max() if n > 1 else 1.0
    if big_t is None:
        big_t = max_bw
    elif not (math.isfinite(big_t) and big_t >= max_bw):
        raise ValueError(
            f"bandwidth scale must be finite and at least the largest effective "
            f"bandwidth {max_bw}, got {big_t}"
        )
    return np.ceil(1.0 + alpha * hops + (1.0 - alpha) * big_t / bw).astype(np.int64)


def load_topology(path: str) -> Topology:
    """Parse a topology file: `nodes: [...]` and `edges: [{a, b, bw}, ...]`."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_topology(text, path)


def parse_topology(text: str, path: str = "<topology>") -> Topology:
    root = fileio.parse_document(text, path)
    top = fileio.as_mapping(root, path, "topology document")
    nodes_node = fileio.require(top, "nodes", root, path, "topology document")
    edges_node = fileio.require(top, "edges", root, path, "topology document")
    # The file is checked node by node and edge by edge, as Topology checks
    # it, so that an error names its line; Topology then adds the checks
    # that need the whole graph.
    adjacency: dict[str, dict[str, float]] = {}
    for item in fileio.as_sequence(nodes_node, path, "nodes"):
        node = fileio.as_str(item, path, "node id")
        try:
            _add_node(adjacency, node)
        except ValueError as exc:
            raise fileio.FileFormatError(path, fileio.line_of(item), str(exc)) from exc
    edges = []
    for item in fileio.as_sequence(edges_node, path, "edges"):
        fields = fileio.as_mapping(item, path, "edge")
        a = fileio.as_str(fileio.require(fields, "a", item, path, "edge"), path, "edge endpoint a")
        b = fileio.as_str(fileio.require(fields, "b", item, path, "edge"), path, "edge endpoint b")
        bw = fileio.as_float(fileio.require(fields, "bw", item, path, "edge"), path, "edge bw")
        edges.append(Edge(a, b, bw))
        try:
            _add_edge(adjacency, edges[-1])
        except ValueError as exc:
            raise fileio.FileFormatError(path, fileio.line_of(item), str(exc)) from exc
    try:
        return Topology(tuple(adjacency), tuple(edges))
    except ValueError as exc:
        raise fileio.FileFormatError(path, None, str(exc)) from exc


def format_topology(topology: Topology) -> str:
    lines = ["nodes: [" + ", ".join(topology.nodes) + "]", "edges:"]
    for e in topology.edges:
        lines.append(f"  - {{a: {e.a}, b: {e.b}, bw: {format(e.bandwidth, '.6g')}}}")
    return "\n".join(lines) + "\n"


def save_topology(topology: Topology, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_topology(topology))


def generate_synthetic_topology(
    n_nodes: int = 19,
    seed: int = 0,
    max_bandwidth: float = 500.0,
    min_bandwidth: float = 9.0,
    radius: float = 0.34,
) -> Topology:
    """Fixed-seed random geometric graph with log-uniform bandwidths.

    Nodes scatter uniformly in the unit square and connect when within
    ``radius``. Bandwidths are log-uniform in [min_bandwidth, max_bandwidth]
    and the largest drawn value is pinned to exactly max_bandwidth so the
    default bandwidth scale is predictable. The generator retries nearby
    seeds until the graph is connected; the bundled data file freezes one
    such draw.
    """
    rng = np.random.default_rng(seed)
    names = [f"n{idx:02d}" for idx in range(n_nodes)]
    for _ in range(100):
        points = rng.random((n_nodes, 2))
        pairs = [
            (i, j)
            for i in range(n_nodes)
            for j in range(i + 1, n_nodes)
            if np.hypot(*(points[i] - points[j])) <= radius
        ]
        if not pairs:
            continue
        log_lo, log_hi = math.log(min_bandwidth), math.log(max_bandwidth)
        draws = np.exp(rng.uniform(log_lo, log_hi, size=len(pairs)))
        draws[int(np.argmax(draws))] = max_bandwidth
        edges = tuple(
            Edge(names[i], names[j], round(float(d), 1))
            for (i, j), d in zip(pairs, draws)
        )
        try:
            return Topology(tuple(names), edges)
        except ValueError:
            continue  # disconnected draw; try again from the same stream
    raise RuntimeError("failed to draw a connected geometric graph")


def default_topology() -> Topology:
    """The bundled 19-node synthetic topology."""
    ref = importlib.resources.files("dss").joinpath("data", DEFAULT_TOPOLOGY_RESOURCE)
    return parse_topology(ref.read_text(encoding="utf-8"), str(ref))
