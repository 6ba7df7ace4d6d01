"""Classical subproblem solvers: transportation, loading DP, production plan.

All three are pure solvers over small dense instances:

* transportation -- northwest-corner initial basic plan improved to optimality
  with the potentials method (reduced costs on nonbasic cells, stepping-stone
  cycle pivots).  The basic cells form a spanning tree over the rows and
  columns, so the potentials and each pivot cycle come from one walk over it;
* loading -- unbounded integer knapsack (no per-item count limit) by the stage
  recurrence f_i(x) = max over m_i of (r_i m_i + f_{i+1}(x - w_i m_i));
* production planning -- dense simplex on the standard-form augmentation with
  Bland's anti-cycling rule, plus an optional exhaustive integer mode.

Instances read from JSON accept finite numbers only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import InfeasibleError, ScenarioError
from .scenario import _expect, _number, _require

_EPS = 1e-9
_MAX_TABLE_CELLS = 10**7  # the loading DP table, about 80 MB of floats


def _numbers(values: Any, what: str) -> tuple[float, ...]:
    """A JSON list of finite numbers, or a ScenarioError naming the field."""
    return tuple(_number(v, f"{what}[{k}]") for k, v in enumerate(_expect(values, list, what)))


def _matrix(rows: Any, what: str) -> tuple[tuple[float, ...], ...]:
    """A JSON list of lists of finite numbers, or a ScenarioError naming the field."""
    return tuple(_numbers(row, f"{what}[{i}]") for i, row in enumerate(_expect(rows, list, what)))


def _finite(values: Any, what: str) -> Any:
    """``values`` (a number or a sequence), or a ScenarioError when the solve
    overflowed the float range."""
    if not np.all(np.isfinite(values)):
        raise ScenarioError(f"the {what} overflowed; the input numbers are too large")
    return values


# ---------------------------------------------------------------------------
# Transportation problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportInstance:
    supply: tuple[float, ...]
    demand: tuple[float, ...]
    costs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.supply or not self.demand:
            raise ScenarioError("transport instance needs at least one source and destination")
        if any(a < 0 for a in self.supply) or any(b < 0 for b in self.demand):
            raise ScenarioError("supply and demand must be >= 0")
        if len(self.costs) != len(self.supply) or any(
            len(row) != len(self.demand) for row in self.costs
        ):
            raise ScenarioError("cost matrix shape must be len(supply) x len(demand)")
        if any(c < 0 for row in self.costs for c in row):
            raise ScenarioError("transport costs must be >= 0")

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "TransportInstance":
        supply, demand, costs = (
            _require(data, key, "transport instance") for key in ("supply", "demand", "costs")
        )
        return TransportInstance(
            _numbers(supply, "supply"), _numbers(demand, "demand"), _matrix(costs, "costs")
        )


@dataclass(frozen=True)
class TransportPlan:
    """Optimal carriage matrix over the balanced instance."""

    allocation: tuple[tuple[float, ...], ...]
    objective: float
    basis: tuple[tuple[int, int], ...]
    balanced: bool
    fictitious: tuple[str, int] | None
    potentials: tuple[tuple[float, ...], tuple[float, ...]]


def balance(instance: TransportInstance) -> TransportInstance:
    """Append a zero-cost fictitious source or destination to even the totals.

    Idempotent: a balanced instance is returned unchanged.
    """
    total_supply = sum(instance.supply)
    total_demand = sum(instance.demand)
    if math.isclose(total_supply, total_demand):
        return instance
    if total_supply > total_demand:
        extra = total_supply - total_demand
        return TransportInstance(
            supply=instance.supply,
            demand=instance.demand + (extra,),
            costs=tuple(row + (0.0,) for row in instance.costs),
        )
    extra = total_demand - total_supply
    return TransportInstance(
        supply=instance.supply + (extra,),
        demand=instance.demand,
        costs=instance.costs + (tuple(0.0 for _ in instance.demand),),
    )


def _northwest_corner(supply: tuple[float, ...], demand: tuple[float, ...]):
    m, n = len(supply), len(demand)
    left_supply = list(supply)
    left_demand = list(demand)
    cells: list[list[Any]] = []
    i = j = 0
    while len(cells) < m + n - 1:
        units = min(left_supply[i], left_demand[j])
        cells.append([i, j, units])
        left_supply[i] -= units
        left_demand[j] -= units
        if i == m - 1 and j == n - 1:
            break
        if left_supply[i] <= _EPS and i < m - 1:
            i += 1
        elif left_demand[j] <= _EPS and j < n - 1:
            j += 1
        elif i < m - 1:
            i += 1
        else:
            j += 1
    return cells


def _walk(cells, m, root):
    """Parent of each node reached from root over the basic cells, in visiting
    order (the root's is None).  Row i is node i, column j is node m + j."""
    adjacent: dict[int, list[int]] = {}
    for i, j, _ in cells:
        adjacent.setdefault(i, []).append(m + j)
        adjacent.setdefault(m + j, []).append(i)
    parent, queue = {root: None}, [root]
    for node in queue:
        for other in adjacent.get(node, ()):
            if other not in parent:
                parent[other] = node
                queue.append(other)
    return parent


def _edge(a, b, m):
    """The cell joining nodes a and b."""
    return min(a, b), max(a, b) - m


def _potentials(cells, costs, m, n):
    """u_i + v_j = c_ij on every basic cell, with u_0 = 0: each potential
    follows from its parent's along the unique tree path from row 0."""
    parent = _walk(cells, m, 0)
    if len(parent) < m + n:
        raise RuntimeError("degenerate basis is disconnected")
    potential = [0.0] * (m + n)
    for node, up in parent.items():
        if up is not None:
            i, j = _edge(node, up, m)
            potential[node] = costs[i][j] - potential[up]
    return potential[:m], potential[m:]


def _find_cycle(cells, start, m):
    """The entering cell, then the tree path from its row to its column: the
    unique alternating row/column cycle the entering cell closes."""
    parent = _walk(cells, m, start[0])
    node = m + start[1]
    if node not in parent:
        raise RuntimeError("no pivot cycle found (basis is not a spanning tree)")
    path = []
    while parent[node] is not None:
        path.append(_edge(node, parent[node], m))
        node = parent[node]
    return [start, *reversed(path)]


def solve_transportation(instance: TransportInstance) -> TransportPlan:
    """Minimum-cost carriage plan; auto-balances, then potentials to optimality.

    The entering cell is the most negative reduced cost (row-major on ties);
    degenerate zero-valued basic cells are kept rather than perturbed.  At the
    optimum every nonbasic cell satisfies u_i + v_j <= c_ij.
    """
    original = instance
    instance = balance(instance)
    fictitious = None
    if len(instance.demand) > len(original.demand):
        fictitious = ("destination", len(instance.demand) - 1)
    elif len(instance.supply) > len(original.supply):
        fictitious = ("source", len(instance.supply) - 1)

    m, n = len(instance.supply), len(instance.demand)
    costs = instance.costs
    cost_matrix = np.array(costs, dtype=float)
    cells = _northwest_corner(instance.supply, instance.demand)

    for _ in range(10_000):
        u, v = _potentials(cells, costs, m, n)
        _finite(u + v, "transport potentials")
        reduced = cost_matrix - np.array(u)[:, None] - np.array(v)
        rows, cols, _ = zip(*cells)
        reduced[rows, cols] = 0.0
        # nanargmin: the first minimum in row-major order, as a strict < scan finds it
        entering = divmod(int(np.nanargmin(reduced)), n)
        if not reduced[entering] < -_EPS:
            break
        cycle = _find_cycle(cells, entering, m)
        losing = cycle[1::2]
        by_cell = {(cell[0], cell[1]): cell for cell in cells}
        theta = min(by_cell[c][2] for c in losing)
        leaving = min(c for c in losing if by_cell[c][2] <= theta + _EPS)
        for position, c in enumerate(cycle):
            if c == entering:
                continue
            by_cell[c][2] += theta if position % 2 == 0 else -theta
        cells = [c for c in cells if (c[0], c[1]) != leaving]
        cells.append([entering[0], entering[1], theta])
    else:
        raise RuntimeError("potentials method failed to converge")

    allocation = [[0.0] * n for _ in range(m)]
    for i, j, units in cells:
        allocation[i][j] = units
    objective = _finite(
        sum(costs[i][j] * allocation[i][j] for i in range(m) for j in range(n)),
        "transport objective",
    )
    return TransportPlan(
        allocation=tuple(tuple(row) for row in allocation),
        objective=objective,
        basis=tuple((i, j) for i, j, _ in cells),
        balanced=fictitious is None,
        fictitious=fictitious,
        potentials=(tuple(u), tuple(v)),
    )


# ---------------------------------------------------------------------------
# Loading (unbounded knapsack) problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadingItem:
    name: str
    weight: int
    profit: float


@dataclass(frozen=True)
class LoadingInstance:
    capacity: int
    items: tuple[LoadingItem, ...]

    def __post_init__(self):
        if self.capacity < 0:
            raise ScenarioError("capacity must be >= 0")
        for item in self.items:
            if item.weight <= 0:
                raise ScenarioError(f"item {item.name}: weight must be a positive integer")
            if item.profit < 0:
                raise ScenarioError(f"item {item.name}: profit must be >= 0")
        cells = (len(self.items) + 2) * (self.capacity + 1)
        if cells > _MAX_TABLE_CELLS:
            raise ScenarioError(
                f"capacity {self.capacity} (in units of --quantum) needs a table of {cells} "
                f"cells, above {_MAX_TABLE_CELLS}; pass a larger --quantum"
            )

    @staticmethod
    def from_dict(data: dict[str, Any], quantum: float = 1.0) -> "LoadingInstance":
        """Build an instance, scaling fractional weights down by ``quantum``."""
        if not quantum > 0:
            raise ScenarioError("quantum must be > 0")

        def scaled(value: Any, what: str) -> float:
            return _number(_number(value, what) / quantum, f"{what} / quantum")

        def item(i: int, spec: Any) -> LoadingItem:
            what = f"items[{i}]"
            weight = scaled(_require(spec, "weight", what), f"{what}.weight")
            profit = _number(_require(spec, "profit", what), f"{what}.profit")
            return LoadingItem(str(spec.get("name", f"item{i}")), int(round(weight)), profit)

        specs = _expect(_require(data, "items", "loading instance"), list, "items")
        items = tuple(item(i, spec) for i, spec in enumerate(specs))
        capacity = math.floor(scaled(_require(data, "capacity", "loading instance"), "capacity"))
        return LoadingInstance(capacity=capacity, items=items)


@dataclass(frozen=True)
class LoadingSolution:
    counts: dict[str, int]
    objective: float
    table: np.ndarray  # table[i][x] = best profit from stages i.. with x weight left


def solve_loading(instance: LoadingInstance) -> LoadingSolution:
    """Stage-by-stage dynamic program with backward count reconstruction.

    The table rows run i = 1..n+1 with the boundary row identically zero; ties
    during reconstruction take the smallest count, which makes the reported
    counts deterministic.
    """
    n = len(instance.items)
    capacity = instance.capacity
    table = np.zeros((n + 2, capacity + 1))
    for i in range(n, 0, -1):
        item, rest, row = instance.items[i - 1], table[i + 1], table[i]
        row[:] = rest  # m_i = 0
        for m_i in range(1, capacity // item.weight + 1):
            shift = item.weight * m_i
            candidate = item.profit * m_i + rest[: capacity + 1 - shift]
            np.maximum(row[shift:], candidate, out=row[shift:])

    counts: dict[str, int] = {}
    x = capacity
    for i in range(1, n + 1):
        item = instance.items[i - 1]
        for m_i in range(x // item.weight + 1):
            if math.isclose(
                table[i][x], item.profit * m_i + table[i + 1][x - item.weight * m_i]
            ):
                counts[item.name] = m_i
                x -= item.weight * m_i
                break
    objective = _finite(float(table[1][capacity]) if n else 0.0, "loading objective")
    return LoadingSolution(counts=counts, objective=objective, table=table[1:])


# ---------------------------------------------------------------------------
# Production planning LP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanInstance:
    """Maximize profit c.x subject to b <= x <= upper and x A <= limits."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    resource_use: tuple[tuple[float, ...], ...]  # n products x m resources
    resource_limits: tuple[float, ...]
    profit: tuple[float, ...]

    def __post_init__(self):
        n = len(self.profit)
        if len(self.lower) != n or len(self.upper) != n or len(self.resource_use) != n:
            raise ScenarioError("plan instance: lower/upper/resource_use must match profit length")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ScenarioError("plan instance: lower bound above upper bound")
        if any(lo < 0 for lo in self.lower):
            raise ScenarioError("plan instance: lower bounds must be >= 0")
        m = len(self.resource_limits)
        if any(len(row) != m for row in self.resource_use):
            raise ScenarioError("plan instance: resource_use rows must match resource_limits")
        if any(a < 0 for row in self.resource_use for a in row):
            raise ScenarioError("plan instance: resource use must be >= 0")
        if any(g < 0 for g in self.resource_limits):
            raise ScenarioError("plan instance: resource limits must be >= 0")

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "PlanInstance":
        lower, upper, use, limits, profit = (
            _require(data, key, "plan instance")
            for key in ("lower", "upper", "resource_use", "resource_limits", "profit")
        )
        return PlanInstance(
            lower=_numbers(lower, "lower"),
            upper=_numbers(upper, "upper"),
            resource_use=_matrix(use, "resource_use"),
            resource_limits=_numbers(limits, "resource_limits"),
            profit=_numbers(profit, "profit"),
        )


def _simplex_max(c: np.ndarray, rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Maximize c.y over rows.y <= rhs, y >= 0 (rhs >= 0), Bland's rule.

    Entering variable: the smallest-index column with a positive reduced
    cost; leaving: minimum ratio, ties to the smallest basis variable index.
    Returns the optimal y; optimality holds when no reduced cost is positive.
    """
    n_rows, n_vars = rows.shape
    tableau = np.zeros((n_rows, n_vars + n_rows + 1))
    tableau[:, :n_vars] = rows
    tableau[:, n_vars : n_vars + n_rows] = np.eye(n_rows)
    tableau[:, -1] = rhs
    objective = np.zeros(n_vars + n_rows)
    objective[:n_vars] = c
    basis = list(range(n_vars, n_vars + n_rows))

    while True:
        reduced = objective - objective[basis] @ tableau[:, :-1]
        positive = np.flatnonzero(reduced > _EPS)
        if not positive.size:
            break
        entering = int(positive[0])
        ratios = [
            (tableau[i, -1] / tableau[i, entering], basis[i], i)
            for i in range(n_rows)
            if tableau[i, entering] > _EPS
        ]
        if not ratios:
            raise InfeasibleError("linear program is unbounded")
        _, _, pivot_row = min(ratios)
        tableau[pivot_row] /= tableau[pivot_row, entering]
        factor = tableau[:, entering].copy()
        factor[pivot_row] = 0.0
        touched = factor != 0.0  # rows left alone keep their values, signed zeros included
        tableau[touched] -= factor[touched, None] * tableau[pivot_row]
        basis[pivot_row] = entering

    y = np.zeros(n_vars + n_rows)
    for i, var in enumerate(basis):
        y[var] = tableau[i, -1]
    return y[:n_vars]


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflowed objective
def solve_production_plan(
    instance: PlanInstance, integer: bool = False
) -> tuple[tuple[float, ...], float]:
    """Optimal production quantities and their profit.

    The continuous solve shifts x by its lower bounds and runs the dense
    simplex with the box rows written out explicitly.  ``integer=True``
    searches the integer box exhaustively instead and refuses boxes larger
    than 10**6 points.
    """
    lower = np.asarray(instance.lower, dtype=float)
    upper = np.asarray(instance.upper, dtype=float)
    use = np.asarray(instance.resource_use, dtype=float)
    limits = np.asarray(instance.resource_limits, dtype=float)
    profit = np.asarray(instance.profit, dtype=float)
    n = len(profit)

    slack = limits - lower @ use
    if np.any(slack < -_EPS):
        raise InfeasibleError("obligatory plan lower bounds violate the resource limits")

    if integer:
        ranges = [range(int(lo), int(hi) + 1) for lo, hi in zip(instance.lower, instance.upper)]
        size = math.prod(r.stop - r.start for r in ranges)  # len() overflows on huge boxes
        if size > 10**6:
            raise ScenarioError(f"integer mode refused: {size} candidate plans > 10^6")
        best_x: tuple[int, ...] | None = None
        best_value = -math.inf
        for x in itertools.product(*ranges):
            if np.any(np.asarray(x, dtype=float) @ use > limits + _EPS):
                continue
            value = float(profit @ x)
            if value > best_value + _EPS or (
                math.isclose(value, best_value) and (best_x is None or x < best_x)
            ):
                best_x, best_value = x, value
        if best_x is None:
            raise InfeasibleError("no integer plan satisfies the resource limits")
        return tuple(float(v) for v in best_x), _finite(best_value, "plan objective")

    rows = np.vstack([np.eye(n), use.T])
    rhs = np.concatenate([upper - lower, slack])
    y = _simplex_max(profit, rows, rhs)
    x = y + lower
    return tuple(float(v) for v in x), _finite(float(profit @ x), "plan objective")
