"""Shortest-path rows over one commodity's edges.

A commodity's edges are three arrays in edge order: ``tails`` and ``heads``
(dense node indices) and ``costs`` (finite and >= 0, as the scenario loader
checks them).  :func:`shortest_paths` gives the route-cost rows of the
requested sources: a few rows for the pipeline, every row for ``placenet
paths``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


@np.errstate(over="ignore")  # a route cost past the float range is inf
def shortest_paths(
    n: int, edges: tuple[np.ndarray, np.ndarray, np.ndarray], sources: Sequence[int]
) -> np.ndarray:
    """Minimum route cost from each source to every one of the ``n`` nodes
    over the (tails, heads, costs) ``edges``, shape (sources, n).

    Label-correcting relaxation over flat (source, node) cells: each round
    relaxes only the out-edges of the cells that improved in the previous
    round, starting from the sources, and the loop stops when a round
    improves nothing.  Costs are finite and >= 0 and float addition is
    monotone, so the order of relaxation does not matter: a cell ends at the
    minimum over paths of the edge costs summed from the source onwards,
    which is what Dijkstra computes.  Inf where no route's cost is finite.
    """
    tails, heads, costs = edges
    sources = np.asarray(sources, dtype=np.intp)
    dist = np.full((len(sources), n), np.inf)
    flat = dist.ravel()  # a view: cell (row, node) is flat[row * n + node]
    frontier = np.arange(len(sources)) * n + sources
    flat[frontier] = 0.0
    order = np.argsort(tails, kind="stable")
    heads, costs = heads[order], costs[order]
    offsets = np.searchsorted(tails[order], np.arange(n + 1))
    improved = np.zeros(flat.size, dtype=bool)  # next frontier: each cell once, in order
    while frontier.size:
        nodes = frontier % n
        counts = offsets[nodes + 1] - offsets[nodes]
        ends = np.cumsum(counts)
        out = np.arange(ends[-1]) + np.repeat(offsets[nodes] - ends + counts, counts)
        cells = np.repeat(frontier - nodes, counts) + heads[out]
        candidates = np.repeat(flat[frontier], counts) + costs[out]
        better = candidates < flat[cells]
        cells = cells[better]
        np.minimum.at(flat, cells, candidates[better])
        improved[cells] = True
        frontier = np.flatnonzero(improved)
        improved[frontier] = False
    return dist
