"""Directed multigraph over plane-embedded nodes with per-commodity edge costs.

Nodes are dense integer indices with (x, y) coordinates.  Each edge carries a
cost per commodity; an edge simply omits the commodities it does not carry.
Route costs come from one kernel, :func:`shortest_paths`, which gives the rows
of the requested sources for one commodity at a time: a few rows for the
pipeline, every row for ``placenet paths``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ScenarioError

INF = math.inf


@dataclass(frozen=True)
class Node:
    """A network vertex: dense integer id plus plane coordinates."""

    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    """A directed edge with per-commodity unit costs.

    Commodities absent from ``cost`` are not carried by this edge.
    """

    tail: int
    head: int
    cost: Mapping[str, float]


class Network:
    """Immutable directed network; built via :func:`build_network`."""

    def __init__(self, nodes: Sequence[Node], edges: Sequence[Edge]):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        commodities: set[str] = set()
        for edge in self.edges:
            commodities.update(edge.cost)
        self.commodities = frozenset(commodities)

    def __len__(self) -> int:
        return len(self.nodes)


def build_network(
    nodes: Sequence[Node],
    edges: Sequence[Edge],
    grid_costs: Mapping[str, tuple[float, float]] | None = None,
) -> Network:
    """Validate nodes/edges and assemble a Network.

    When ``grid_costs`` is given (commodity -> (horizontal, vertical) unit
    cost), each edge's per-commodity cost is derived from its displacement as
    ``h_cost * |dx| + v_cost * |dy|`` for every commodity in the map, i.e.
    the cost of covering the displacement along grid directions; explicit
    edge costs are ignored in that mode.  Undirected instances are ingested
    by listing both arcs.
    """
    if sorted(node.id for node in nodes) != list(range(len(nodes))):
        raise ScenarioError("node ids must be unique and dense 0..n-1")
    for node in nodes:
        if not (math.isfinite(node.x) and math.isfinite(node.y)):
            raise ScenarioError(f"node {node.id} has non-finite coordinates")
    by_id = {node.id: node for node in nodes}

    checked: list[Edge] = []
    for edge in edges:
        if edge.tail not in by_id or edge.head not in by_id:
            raise ScenarioError(f"edge ({edge.tail}, {edge.head}) references an unknown node")
        if edge.tail == edge.head:
            raise ScenarioError(f"self-loop edge at node {edge.tail}")
        if grid_costs is not None:
            a, b = by_id[edge.tail], by_id[edge.head]
            dx, dy = abs(a.x - b.x), abs(a.y - b.y)
            cost = {commodity: h * dx + v * dy for commodity, (h, v) in grid_costs.items()}
            edge = Edge(edge.tail, edge.head, cost)
        for commodity, value in edge.cost.items():
            if value < 0:
                raise ScenarioError(
                    f"edge ({edge.tail}, {edge.head}) has negative cost for {commodity}"
                )
        checked.append(edge)
    return Network(nodes, checked)


def _carried(net: Network, commodity: str) -> list[tuple[int, int, float]]:
    """(tail, head, cost) of each edge carrying the commodity, in edge order;
    the first cost that is negative or not finite raises ScenarioError."""
    carried = []
    for edge in net.edges:
        if commodity not in edge.cost:
            continue
        cost = edge.cost[commodity]
        if cost < 0 or not math.isfinite(cost):
            raise ScenarioError(
                f"edge ({edge.tail}, {edge.head}) cost for {commodity} must be finite and >= 0"
            )
        carried.append((edge.tail, edge.head, cost))
    return carried


def shortest_paths(net: Network, commodity: str, sources: Sequence[int]) -> np.ndarray:
    """Minimum route cost from each source to every node, shape (sources, n).

    Label-correcting relaxation over flat (source, node) cells: each round
    relaxes only the out-edges of the cells that improved in the previous
    round, starting from the sources, and the loop stops when a round
    improves nothing.  Costs are finite and >= 0 and float addition is
    monotone, so the order of relaxation does not matter: a cell ends at the
    minimum over paths of the edge costs summed from the source onwards,
    which is what Dijkstra computes.  Inf where unreachable.
    """
    carried = _carried(net, commodity)
    sources = np.asarray(sources, dtype=np.intp)
    n = len(net)
    dist = np.full((len(sources), n), INF)
    flat = dist.ravel()  # a view: cell (row, node) is flat[row * n + node]
    frontier = np.arange(len(sources)) * n + sources
    flat[frontier] = 0.0
    if not carried:
        return dist
    tails, heads, costs = (np.array(column) for column in zip(*carried))
    order = np.argsort(tails, kind="stable")
    heads, costs = heads[order], costs[order].astype(float)
    offsets = np.searchsorted(tails[order], np.arange(n + 1))
    improved = np.zeros(flat.size, dtype=bool)  # next frontier: each cell once, in order
    while frontier.size:
        nodes = frontier % n
        counts = offsets[nodes + 1] - offsets[nodes]
        ends = np.cumsum(counts)
        edges = np.arange(ends[-1]) + np.repeat(offsets[nodes] - ends + counts, counts)
        cells = np.repeat(frontier - nodes, counts) + heads[edges]
        candidates = np.repeat(flat[frontier], counts) + costs[edges]
        better = candidates < flat[cells]
        cells = cells[better]
        np.minimum.at(flat, cells, candidates[better])
        improved[cells] = True
        frontier = np.flatnonzero(improved)
        improved[frontier] = False
    return dist
