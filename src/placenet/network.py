"""Shortest-path rows over edge arrays, several graphs in one run.

A graph's edges are three arrays in edge order: ``tails`` and ``heads``
(dense node indices) and ``costs`` (finite and >= 0, as the scenario loader
checks them).  :func:`stacked_shortest_paths` gives the route-cost rows of
several (edges, sources) blocks in one relaxation loop; the scenario loader
makes one block per distinct cost vector, so commodities that share their
edges and costs share rows.  :func:`shortest_paths` is its one-block case: a
few rows for ``Scenario.route_error``, every row for ``placenet paths``.
"""

from __future__ import annotations

from typing import Collection, Iterable

import numpy as np

Edges = tuple[np.ndarray, np.ndarray, np.ndarray]  # (tails, heads, costs) in edge order


def shortest_paths(n: int, edges: Edges, sources: Iterable[int]) -> np.ndarray:
    """Minimum route cost from each source to every one of the ``n`` nodes
    over the (tails, heads, costs) ``edges``, shape (sources, n)."""
    return stacked_shortest_paths(n, [(edges, sources)])[0]


@np.errstate(over="ignore")  # a route cost past the float range is inf
def stacked_shortest_paths(
    n: int, blocks: Collection[tuple[Edges, Iterable[int]]]
) -> list[np.ndarray]:
    """The rows of each (edges, sources) block over ``n`` nodes, shape
    (sources, n), from one run over all of them.

    Label-correcting relaxation over flat (row, node) cells: each round
    relaxes only the out-edges of the cells that improved in the previous
    round, starting from the sources, and the loop stops when a round
    improves nothing.  Block b's edges are nodes b * n .. b * n + n - 1 of one
    CSR, so a row reads only its own block's edges.  Costs are finite and >= 0
    and float addition is monotone, so the order of relaxation does not
    matter: a cell ends at the minimum over paths of the edge costs summed
    from the source onwards, which is what Dijkstra computes, whatever else
    is stacked with it.  Inf where no route's cost is finite.
    """
    if not blocks:
        return []
    sources = [np.fromiter(s, dtype=np.intp) for _, s in blocks]
    bases = np.arange(len(blocks)) * n  # each block's first node in the CSR
    row_base = np.repeat(bases, [len(s) for s in sources])
    tails = np.concatenate([base + e[0] for base, (e, _) in zip(bases, blocks)])
    order = np.argsort(tails, kind="stable")
    heads = np.concatenate([e[1] for e, _ in blocks])[order]
    costs = np.concatenate([e[2] for e, _ in blocks])[order]
    offsets = np.searchsorted(tails[order], np.arange(bases.size * n + 1))
    degree = np.diff(offsets)
    dist = np.full((row_base.size, n), np.inf)
    flat = dist.ravel()  # a view: cell (row, node) is flat[row * n + node]
    frontier = np.arange(row_base.size) * n + np.concatenate(sources)
    flat[frontier] = 0.0
    improved = np.zeros(flat.size, dtype=bool)  # next frontier: each cell once, in order
    while frontier.size:
        rows, nodes = np.divmod(frontier, n)
        csr = row_base[rows] + nodes
        counts = degree[csr]
        ends = np.cumsum(counts)
        out = np.arange(ends[-1]) + np.repeat(offsets[csr] - ends + counts, counts)
        cells = np.repeat(frontier - nodes, counts) + heads[out]
        candidates = np.repeat(flat[frontier], counts) + costs[out]
        better = candidates < flat[cells]
        cells = cells[better]
        np.minimum.at(flat, cells, candidates[better])
        improved[cells] = True
        frontier = np.flatnonzero(improved)
        improved[frontier] = False
    return np.split(dist, np.cumsum([s.size for s in sources])[:-1])
