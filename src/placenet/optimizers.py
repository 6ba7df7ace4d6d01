"""Classical subproblem solvers: transportation, loading DP, production plan.

All three are pure solvers over small dense instances:

* transportation -- northwest-corner initial basic plan improved to optimality
  with the potentials method (reduced costs on nonbasic cells, stepping-stone
  cycle pivots).  The basis is one ordered dict of cell -> units whose order
  is the reported ``basis``.  Its cells form a spanning tree over the rows and
  columns, kept across pivots with each node's parent and potential: a pivot
  re-walks only the subtree that its leaving cell cuts off;
* loading -- unbounded integer knapsack (no per-item count limit) by the stage
  recurrence f_i(x) = max over m_i of (r_i m_i + f_{i+1}(x - w_i m_i));
* production planning -- simplex on the standard-form augmentation with a
  nonbasic-column tableau, Bland's rule, plus an optional exhaustive integer mode.

Instances read from JSON accept finite numbers only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from .errors import InfeasibleError, ScenarioError
from .scenario import _expect, _number, _require

_EPS = 1e-9
_MAX_TABLE_CELLS = 10**7  # the loading DP table, about 80 MB of floats
_MAX_PIVOTS = 10_000  # transportation or plan simplex pivots before the solver gives up


def _numbers(values: Any, what: str) -> tuple[float, ...]:
    """A JSON list of finite numbers, or a ScenarioError naming the field."""
    return tuple(_number(v, f"{what}[{k}]") for k, v in enumerate(_expect(values, list, what)))


def _matrix(rows: Any, what: str) -> tuple[tuple[float, ...], ...]:
    """A JSON list of lists of finite numbers, or a ScenarioError naming the field."""
    return tuple(_numbers(row, f"{what}[{i}]") for i, row in enumerate(_expect(rows, list, what)))


def _nonnegative(values: Any, what: str) -> None:
    """A ScenarioError naming the first negative entry, row-major, of a list or matrix."""
    array = np.asarray(values, dtype=float)
    for index in np.argwhere(array < 0)[:1].tolist():
        cell = "".join(f"[{k}]" for k in index)
        raise ScenarioError(f"{what}{cell} must be >= 0, got {float(array[tuple(index)])!r}")


def _count(n: int) -> int | str:
    """``n``, or from 16 digits on its power of ten: str() stops at 4,300 digits."""
    return n if n < 10**15 else f"about 10^{math.log10(n):.0f}"


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
        if len(self.costs) != len(self.supply) or any(
            len(row) != len(self.demand) for row in self.costs
        ):
            raise ScenarioError("cost matrix shape must be len(supply) x len(demand)")
        for field in ("supply", "demand", "costs"):
            _nonnegative(getattr(self, field), field)
        for side in ("supply", "demand"):  # balance cannot compare an inf total
            if math.isinf(sum(getattr(self, side))):
                raise ScenarioError(f"{side} total is past the float range")

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "TransportInstance":
        supply, demand, costs = (
            _require(data, key, "transport instance") for key in ("supply", "demand", "costs")
        )
        return TransportInstance(
            _numbers(supply, "supply"), _numbers(demand, "demand"), _matrix(costs, "costs")
        )


class TransportPlan(NamedTuple):
    """Optimal carriage matrix over the balanced instance."""

    allocation: tuple[tuple[float, ...], ...]
    objective: float
    basis: tuple[tuple[int, int], ...]
    fictitious: tuple[str, int] | None
    potentials: tuple[tuple[float, ...], tuple[float, ...]]


def balance(instance: TransportInstance) -> tuple[TransportInstance, tuple[str, int] | None]:
    """Append a zero-cost fictitious source or destination to even the totals,
    unless they differ by no more than the rounding of their n-term sums,
    n * 2**-52 of the larger.  Returns the instance and the side it padded, as
    (side, index), or None.  Idempotent: a balanced instance is returned unchanged."""
    total_supply = sum(instance.supply)
    total_demand = sum(instance.demand)
    rounding = (len(instance.supply) + len(instance.demand)) * 2**-52
    if abs(total_supply - total_demand) <= rounding * max(total_supply, total_demand):
        return instance, None
    if total_supply > total_demand:
        extra = total_supply - total_demand
        return TransportInstance(
            supply=instance.supply,
            demand=instance.demand + (extra,),
            costs=tuple(row + (0.0,) for row in instance.costs),
        ), ("destination", len(instance.demand))
    extra = total_demand - total_supply
    return TransportInstance(
        supply=instance.supply + (extra,),
        demand=instance.demand,
        costs=instance.costs + (tuple(0.0 for _ in instance.demand),),
    ), ("source", len(instance.supply))


def _northwest_corner(supply: tuple[float, ...], demand: tuple[float, ...]):
    """The initial basis, {(i, j): units} in the order the corner walk adds cells."""
    m, n = len(supply), len(demand)
    left_supply = list(supply)
    left_demand = list(demand)
    basis: dict[tuple[int, int], float] = {}
    i = j = 0
    while True:
        units = min(left_supply[i], left_demand[j])
        basis[i, j] = units
        left_supply[i] -= units
        left_demand[j] -= units
        if i == m - 1 and j == n - 1:
            return basis
        # one of the two is now spent, so a row with supply left has its column spent
        if i < m - 1 and (left_supply[i] <= _EPS or j == n - 1):
            i += 1
        else:
            j += 1


def _walk(node, parent, potential, adjacent, costs, m) -> None:
    """Hang the basis tree below ``node`` away from its parent (row i is node
    i, column j is node m + j): each node reached gets its (parent, joining
    cell) and its potential, u_i + v_j = c_ij on every basic cell.  From row 0
    with u_0 = 0 this builds the whole tree: the northwest corner adds m + n - 1
    cells, each sharing a row or a column with the one before, so they span
    every row and column, and a pivot swaps one cell of the cycle it closes for
    another, which keeps them a spanning tree.  A node's potential is the chain
    of c - p along its one path from row 0, so any walk order gives the same
    floats."""
    queue = [node]
    for node in queue:
        up = parent[node] and parent[node][0]
        for other in adjacent[node] - {up}:
            i, j = (node, other - m) if node < m else (other, node - m)
            parent[other] = node, (i, j)
            potential[other] = costs[i][j] - potential[node]
            queue.append(other)


@np.errstate(over="ignore")  # an overflowed reduced cost is +-inf; _finite checks the rest
def solve_transportation(instance: TransportInstance) -> TransportPlan:
    """Minimum-cost carriage plan; auto-balances, then potentials to optimality.

    The entering cell is the most negative reduced cost (row-major on ties);
    degenerate zero-valued basic cells are kept rather than perturbed.  At the
    optimum every nonbasic cell satisfies u_i + v_j <= c_ij.
    """
    instance, fictitious = balance(instance)
    m, n = len(instance.supply), len(instance.demand)
    costs = instance.costs
    cost_matrix = np.array(costs, dtype=float)
    basis = _northwest_corner(instance.supply, instance.demand)
    basic, adjacent = np.zeros((m, n), bool), [set() for _ in range(m + n)]
    for i, j in basis:
        basic[i, j] = True
        adjacent[i].add(m + j)
        adjacent[m + j].add(i)
    parent, potential = [None] * (m + n), [0.0] * (m + n)
    _walk(0, parent, potential, adjacent, costs, m)

    for _ in range(_MAX_PIVOTS):
        p = _finite(np.array(potential), "transport potentials")
        reduced = cost_matrix - p[:m, None] - p[m:]
        reduced[basic] = 0.0
        # argmin, the first minimum in row-major order as a strict < scan finds it, meets no
        # NaN: finite c - u - v can overflow to +-inf, but never to inf - inf
        x, y = entering = divmod(int(np.argmin(reduced)), n)
        if not reduced[entering] < -_EPS:
            break
        # its cycle: up from its row to the lowest common ancestor of both ends, down to its column
        rising, depth, node = [], {x: 0}, x  # cells up from the row; node -> cells below it
        while parent[node] is not None:
            node, cell = parent[node]
            rising.append(cell)
            depth[node] = len(rising)
        falling, node = [], m + y
        while node not in depth:
            node, cell = parent[node]
            falling.append(cell)
        rising = rising[: depth[node]]
        cycle = [entering, *rising, *reversed(falling)]
        losing = cycle[1::2]
        theta = min(basis[c] for c in losing)
        leaving = min(c for c in losing if basis[c] <= theta + _EPS)
        for c in cycle[2::2]:
            basis[c] += theta
        for c in losing:
            basis[c] -= theta
        del basis[leaving]
        basis[entering] = theta
        for i, j in (leaving, entering):  # the leaving cell goes, the entering cell comes
            basic[i, j] ^= True
            adjacent[i] ^= {m + j}
            adjacent[m + j] ^= {i}
        # the end whose climb passed the leaving cell is cut off: hang it from the other
        end, other = (x, m + y) if leaving in rising else (m + y, x)
        parent[end] = other, entering
        potential[end] = costs[x][y] - potential[other]
        _walk(end, parent, potential, adjacent, costs, m)
    else:
        raise InfeasibleError(
            f"the transportation solver hit its pivot limit ({_MAX_PIVOTS}) before an optimum"
        )

    allocation = [[0.0] * n for _ in range(m)]
    for (i, j), units in basis.items():
        allocation[i][j] = units
    objective = sum(costs[i][j] * basis[i, j] for i, j in sorted(basis))  # row-major
    return TransportPlan(
        allocation=tuple(tuple(row) for row in allocation),
        objective=_finite(objective, "transport objective"),
        basis=tuple(basis),
        fictitious=fictitious,
        potentials=(tuple(potential[:m]), tuple(potential[m:])),
    )


# ---------------------------------------------------------------------------
# Loading (unbounded knapsack) problem
# ---------------------------------------------------------------------------


class LoadingItem(NamedTuple):
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
        first: dict[str, int] = {}  # name -> position of its first item
        for k, item in enumerate(self.items):
            if item.weight <= 0:
                raise ScenarioError(f"item {item.name}: weight must be a positive integer")
            if item.profit < 0:
                raise ScenarioError(f"item {item.name}: profit must be >= 0")
            if first.setdefault(item.name, k) != k:
                raise ScenarioError(
                    f"items[{k}].name {item.name!r} repeats the name of items[{first[item.name]}]"
                )
        cells = (len(self.items) + 2) * (self.capacity + 1)
        if cells > _MAX_TABLE_CELLS:
            raise ScenarioError(
                f"capacity {_count(self.capacity)} (in units of --quantum) needs a table of "
                f"{_count(cells)} cells, above {_MAX_TABLE_CELLS}; pass a larger --quantum"
            )

    @staticmethod
    def from_dict(data: dict[str, Any], quantum: float = 1.0) -> "LoadingInstance":
        """Build an instance, scaling fractional weights down by ``quantum``."""
        if not quantum > 0:
            raise ScenarioError("quantum must be > 0")

        def scaled(value: Any, what: str) -> int | float:
            """The value in quanta: the nearest integer when within float
            rounding of it (3 roundings of 2**-53), else the float itself."""
            number = _number(_number(value, what) / quantum, f"{what} / quantum")
            return round(number) if math.isclose(number, round(number), rel_tol=2**-51) else number

        def item(i: int, spec: Any) -> LoadingItem:
            what = f"items[{i}]"
            weight = scaled(_require(spec, "weight", what), f"{what}.weight")
            if isinstance(weight, float):
                raise ScenarioError(f"{what}.weight / quantum must be an integer, got {weight!r}")
            profit = _number(_require(spec, "profit", what), f"{what}.profit")
            name = _expect(spec.get("name", f"item{i}"), str, f"{what}.name")
            return LoadingItem(name, weight, profit)

        specs = _expect(_require(data, "items", "loading instance"), list, "items")
        items = tuple(item(i, spec) for i, spec in enumerate(specs))
        # a limit rounds down, but not by a float rounding
        capacity = math.floor(scaled(_require(data, "capacity", "loading instance"), "capacity"))
        return LoadingInstance(capacity=capacity, items=items)


class LoadingSolution(NamedTuple):
    counts: dict[str, int]
    objective: float
    table: np.ndarray  # table[i][x] = best profit from stages i.. with x weight left


@np.errstate(over="ignore")  # _finite reports an overflowed objective
def solve_loading(instance: LoadingInstance) -> LoadingSolution:
    """Stage-by-stage dynamic program with backward count reconstruction.

    The table rows run i = 1..n+1 with the boundary row identically zero.
    Reconstruction takes the smallest count whose value equals the table entry
    exactly (the DP stored that same float expression), so the counts reach
    the objective and are deterministic.
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
    for i, item in enumerate(instance.items, 1):
        for m_i in range(x // item.weight + 1):
            if table[i][x] == item.profit * m_i + table[i + 1][x - item.weight * m_i]:
                counts[item.name] = m_i
                x -= item.weight * m_i
                break
    objective = _finite(float(table[1][capacity]), "loading objective")
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
        m = len(self.resource_limits)
        if any(len(row) != m for row in self.resource_use):
            raise ScenarioError("plan instance: resource_use rows must match resource_limits")
        for field in ("lower", "resource_use", "resource_limits"):
            _nonnegative(getattr(self, field), f"plan instance: {field}")

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


def _simplex_max(
    c: np.ndarray, rows: np.ndarray, rhs: np.ndarray, unbounded: Exception | None = None
) -> np.ndarray:
    """Maximize c.y over rows.y <= rhs, y >= 0 (rhs >= 0) on a nonbasic-column
    tableau, Bland's rule: the entering variable is the smallest index with a
    positive reduced cost; the leaving row has the minimum ratio, ties to the
    smallest basis variable index.  Returns y once no reduced cost is positive;
    a column with no eligible row raises ``unbounded``, an InfeasibleError by default.

    Pivots and y equal the full tableau's bit for bit while no product
    overflows: each nonbasic and rhs entry takes the same operations in the
    same order, and the leaving column, 1/p at the pivot row and 0 elsewhere
    before the row update, is what the full tableau derives from its unit
    column.  Only a zero's sign can differ, and no rule reads one (``> 1e-9``,
    ``!= 0``; ratios and y read the rhs).  The reduced costs, summed over the
    same rows, may round apart in the last bit, and only gate ``> 1e-9``.
    """
    n_rows, n_vars = rows.shape
    if not n_vars:
        return np.zeros(0)
    tableau = np.hstack([rows, rhs[:, None]])
    body, values, outer = tableau[:, :-1], tableau[:, -1], np.empty_like(tableau)
    free, basis, last = np.arange(n_vars), np.arange(n_vars, n_vars + n_rows), n_vars + n_rows
    c_free, c_basis = np.array(c, dtype=float), np.zeros(n_rows)

    for _ in range(_MAX_PIVOTS):
        reduced = c_free - c_basis @ body
        slot = np.where(reduced > _EPS, free, last).argmin()
        if not reduced[slot] > _EPS:
            break
        column = body[:, slot]
        eligible = column > _EPS
        if not eligible.any():
            raise unbounded or InfeasibleError("linear program is unbounded")
        ratios = np.divide(values, column, out=np.full(n_rows, np.nan), where=eligible)
        row = np.where(ratios == np.fmin.reduce(ratios), basis, last).argmin()
        pivot = tableau[row, slot]
        tableau[row] /= pivot
        factor = column.copy()
        factor[row] = 0.0
        column[:], column[row] = 0.0, 1.0 / pivot  # the slot takes the leaving column
        np.multiply.outer(factor, tableau[row], out=outer)
        np.subtract(tableau, outer, out=tableau, where=(factor != 0.0)[:, None])
        free[slot], basis[row] = basis[row], free[slot]
        c_free[slot], c_basis[row] = c_basis[row], c_free[slot]
    else:  # Bland's rule cannot cycle, but its rounded tableau can near the float range
        raise InfeasibleError(
            f"the plan simplex hit its pivot limit ({_MAX_PIVOTS}) before an optimum"
        )

    y = np.zeros(last)
    y[basis] = values
    return y[:n_vars]


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflowed objective
def solve_production_plan(
    instance: PlanInstance, integer: bool = False
) -> tuple[tuple[float, ...], float]:
    """Optimal production quantities and their profit.

    The continuous solve shifts x by its lower bounds and runs the simplex
    (nonbasic-column tableau, Bland's rule) with the box rows written out
    explicitly.  ``integer=True`` searches the integers in [ceil(lower),
    floor(upper)] exhaustively instead, refusing boxes above 10**6 points.
    """
    lower = np.asarray(instance.lower, dtype=float)
    upper = np.asarray(instance.upper, dtype=float)
    limits = np.asarray(instance.resource_limits, dtype=float)
    profit = np.asarray(instance.profit, dtype=float)
    n = len(profit)
    use = np.asarray(instance.resource_use, dtype=float).reshape(n, len(limits))

    slack = limits - lower @ use
    if np.any(slack < -_EPS):
        raise InfeasibleError("obligatory plan lower bounds violate the resource limits")

    if integer:
        ranges = [range(math.ceil(lo), int(hi) + 1) for lo, hi in zip(instance.lower, instance.upper)]
        size = math.prod(r.stop - r.start for r in ranges)  # len() overflows on huge boxes
        if size > 10**6:
            raise ScenarioError(f"integer mode refused: {_count(size)} candidate plans > 10^6")
        best_x: tuple[int, ...] | None = None
        best_value = -math.inf
        for x in itertools.product(*ranges):
            if np.any(np.asarray(x, dtype=float) @ use > limits + _EPS):
                continue
            value = float(profit @ x)
            if value > best_value + _EPS or (best_x is None and value == best_value):
                best_x, best_value = x, value
        if best_x is None:
            raise InfeasibleError("no integer plan satisfies the resource limits")
        return tuple(float(v) for v in best_x), _finite(best_value, "plan objective")

    rows = np.vstack([np.eye(n), use.T])
    rhs = np.concatenate([upper - lower, slack])
    # every variable has a box row, so an unbounded column means the tableau lost its scale
    lost = ScenarioError("the plan tableau lost its scale; the input numbers are too large")
    y = _simplex_max(profit, rows, rhs, lost)
    x = y + lower
    return tuple(float(v) for v in x), _finite(float(profit @ x), "plan objective")
