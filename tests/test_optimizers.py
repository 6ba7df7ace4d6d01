import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from placenet import (
    InfeasibleError,
    LoadingInstance,
    LoadingItem,
    PlanInstance,
    ScenarioError,
    TransportInstance,
    balance,
    solve_loading,
    solve_production_plan,
    solve_transportation,
)
from placenet import optimizers
from placenet.optimizers import _simplex_max


def brute_force_transport(instance: TransportInstance) -> float:
    """Exhaustive integer enumeration over all feasible carriage matrices."""
    instance, _ = balance(instance)
    supply = [int(a) for a in instance.supply]
    demand = [int(b) for b in instance.demand]
    costs = instance.costs
    m, n = len(supply), len(demand)
    best = math.inf

    def fill(i, remaining_cols, cost_so_far):
        nonlocal best
        if cost_so_far >= best:
            return
        if i == m:
            if all(c == 0 for c in remaining_cols):
                best = cost_so_far
            return
        def row_fill(j, left, cols, cost):
            nonlocal best
            if cost >= best:
                return
            if j == n - 1:
                if left <= cols[j]:
                    new_cols = list(cols)
                    new_cols[j] -= left
                    fill(i + 1, new_cols, cost + costs[i][j] * left)
                return
            for x in range(min(left, cols[j]) + 1):
                new_cols = list(cols)
                new_cols[j] -= x
                row_fill(j + 1, left - x, new_cols, cost + costs[i][j] * x)
        row_fill(0, supply[i], list(remaining_cols), cost_so_far)

    fill(0, list(demand), 0.0)
    return best


def random_transport(rng: random.Random) -> TransportInstance:
    """A small instance mixing what the basis walk has to handle: balanced or
    unbalanced either way, zero rows and columns, tied or fractional costs, and
    amounts in steps of 1, 1/4 (exact sums) or 1/10 (inexact sums)."""
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    step = rng.choice((1.0, 0.25, 0.1))

    def amounts(count: int, total: int) -> tuple[float, ...]:
        cuts = sorted(rng.randint(0, total) for _ in range(count - 1))  # repeats give zeros
        return tuple(step * (b - a) for a, b in zip([0, *cuts], [*cuts, total]))

    total = rng.randint(0, 40)
    supply = amounts(m, total)
    demand = amounts(n, total if rng.random() < 0.4 else rng.randint(0, 40))
    top = rng.choice((1, 3, 9))  # small ranges tie many costs
    costs = tuple(
        tuple(
            round(rng.uniform(0, top), 2) if rng.random() < 0.3 else float(rng.randint(0, top))
            for _ in range(n)
        )
        for _ in range(m)
    )
    return TransportInstance(supply=supply, demand=demand, costs=costs)


def large_transport(rng: random.Random) -> TransportInstance:
    """An instance from 8x8 to 40x40, where a pivot can cut off a deep subtree:
    costs in steps of 0.1, amounts in steps of 1 or 1/10, zero rows and
    columns, and balanced or unbalanced either way."""
    m, n = rng.randint(8, 40), rng.randint(8, 40)
    step = rng.choice((1.0, 0.1))

    def amounts(count: int) -> list[float]:
        return [0.0 if rng.random() < 0.1 else step * rng.randint(1, 60) for _ in range(count)]

    supply, demand = amounts(m), amounts(n)
    if rng.random() < 0.3:  # balanced: the first column takes the difference
        demand[0] = max(0.0, sum(supply) - sum(demand[1:]))
    costs = tuple(tuple(rng.randint(0, 200) / 10 for _ in range(n)) for _ in range(m))
    return TransportInstance(supply=tuple(supply), demand=tuple(demand), costs=costs)


def random_plan(rng: random.Random) -> PlanInstance:
    """A plan LP of up to 30 products and 12 resources mixing what the pivot
    rules have to handle: integer, 2-decimal or few-valued data (tied ratios,
    degenerate pivots), negative profits, all-zero resource rows, and now and
    then lower bounds that violate a limit."""
    n, m = rng.randint(1, 30), rng.randint(0, 12)
    kind = rng.choice(("integer", "decimal", "few"))

    def value(top: int) -> float:
        if kind == "integer":
            return float(rng.randint(0, top))
        if kind == "decimal":
            return round(rng.uniform(0, top), 2)
        return float(rng.choice((0, 1, 2)))

    lower = [value(2) if rng.random() < 0.25 else 0.0 for _ in range(n)]
    upper = [lo + value(20) for lo in lower]
    zero = [rng.random() < 0.15 for _ in range(m)]
    use = [[0.0 if zero[j] else value(3) for j in range(m)] for _ in range(n)]
    limits = []
    for j in range(m):
        floor = sum(lo * row[j] for lo, row in zip(lower, use))
        span = sum(hi * row[j] for hi, row in zip(upper, use))
        share = -0.1 if rng.random() < 0.03 else rng.choice((0.0, 0.3, 0.7))  # 0.0: degenerate
        limits.append(max(0.0, round(floor + share * span, 2)))
    profit = [value(50) * (-1 if rng.random() < 0.15 else 1) for _ in range(n)]
    return PlanInstance(
        lower=tuple(lower), upper=tuple(upper), resource_use=tuple(map(tuple, use)),
        resource_limits=tuple(limits), profit=tuple(profit),
    )


def large_plan(rng: random.Random) -> PlanInstance:
    """A plan LP of the benchmark's shape, 60 products by 20 resources: upper
    bounds 5-20, 2-decimal uses in [0, 3], a quarter of the lower bounds at 1
    or 2, each limit its lower-bound use plus 0.3 of its upper-bound use, and
    2-decimal profits."""
    upper = [rng.randint(5, 20) for _ in range(60)]
    use = [[round(rng.uniform(0, 3), 2) for _ in range(20)] for _ in range(60)]
    lower = [rng.randint(0, 2) if rng.random() < 0.25 else 0 for _ in range(60)]
    limits = [
        round(sum(lo * row[j] for lo, row in zip(lower, use))
              + 0.3 * sum(hi * row[j] for hi, row in zip(upper, use)), 2)
        for j in range(20)
    ]
    profit = [round(rng.uniform(0.5, 2.0) * rng.randint(1, 50), 2) for _ in range(60)]
    return PlanInstance(
        lower=tuple(lower), upper=tuple(upper), resource_use=tuple(map(tuple, use)),
        resource_limits=tuple(limits), profit=tuple(profit),
    )


def plan_digest(instances) -> str:
    """sha256 over each plan's repr((x, objective)), or its error's type and message."""
    digest = hashlib.sha256()
    for instance in instances:
        try:
            state = solve_production_plan(instance)
        except InfeasibleError as exc:
            state = (type(exc).__name__, str(exc))
        digest.update(repr(state).encode())
    return digest.hexdigest()


def brute_force_loading(instance: LoadingInstance) -> float:
    best = 0.0
    ranges = [range(instance.capacity // item.weight + 1) for item in instance.items]
    for counts in itertools.product(*ranges):
        weight = sum(c * item.weight for c, item in zip(counts, instance.items))
        if weight <= instance.capacity:
            best = max(best, sum(c * item.profit for c, item in zip(counts, instance.items)))
    return best


def plan_vertices(instance: PlanInstance):
    """All basic feasible points of the plan polytope via constraint-plane intersections."""
    n = len(instance.profit)
    rows = []
    rhs = []
    for i in range(n):
        row = [0.0] * n
        row[i] = 1.0
        rows.append(list(row))
        rhs.append(instance.upper[i])
        rows.append([-v for v in row])
        rhs.append(-instance.lower[i])
    for j in range(len(instance.resource_limits)):
        rows.append([instance.resource_use[i][j] for i in range(n)])
        rhs.append(instance.resource_limits[j])
    rows = np.array(rows)
    rhs = np.array(rhs)
    vertices = []
    for subset in itertools.combinations(range(len(rows)), n):
        a = rows[list(subset)]
        if abs(np.linalg.det(a)) < 1e-9:
            continue
        x = np.linalg.solve(a, rhs[list(subset)])
        if np.all(rows @ x <= rhs + 1e-7):
            vertices.append(x)
    return vertices


RANDOM_TRANSPORT_PIN = "9ce6377b677260f992b6c506ff7d1e99e31943e163b3e6f8f60396090724eaf0"
LARGE_TRANSPORT_PIN = "54eb9375a587aaaf566a7e8a09b50d87a11a06cb8bd0e9c6c8f00bc44c396621"
RANDOM_PLAN_PIN = "b3a4938889ec9d87f1abd7b9b48c585e1c97b947038e7471cbdfb462544252a7"
LARGE_PLAN_PIN = "1f66817f1f3a5dffc88a8a4423876bbff92c48c650444ebec6a8cfe5a0bcb809"


class TestBalance:
    def test_excess_supply_adds_destination(self):
        instance = TransportInstance(supply=(10,), demand=(6,), costs=((3,),))
        balanced, side = balance(instance)
        assert side == ("destination", 1)
        assert balanced.demand == (6, 4)
        assert balanced.costs == ((3, 0),)

    def test_balanced_unchanged(self):
        instance = TransportInstance(supply=(5, 5), demand=(4, 6), costs=((1, 2), (3, 4)))
        balanced, side = balance(instance)
        assert balanced is instance and side is None

    def test_excess_demand_adds_source(self):
        instance = TransportInstance(supply=(3,), demand=(5, 4), costs=((2, 7),))
        balanced, side = balance(instance)
        assert side == ("source", 1)
        assert balanced.supply == (3, 6)
        assert balanced.costs[1] == (0, 0)

    def test_idempotent(self):
        instance = TransportInstance(supply=(10,), demand=(6,), costs=((3,),))
        once, _ = balance(instance)
        balanced, side = balance(once)
        assert balanced is once and side is None

    def test_totals_one_unit_apart_at_1e10_are_unbalanced(self):
        # within math.isclose's 1e-9, yet balancing them as equal leaves a unit unserved
        plan = solve_transportation(
            TransportInstance(supply=(1e10,), demand=(1e10 + 1,), costs=((1,),))
        )
        assert plan.fictitious == ("source", 1)
        assert plan.allocation == ((1e10,), (1.0,))

    def test_totals_equal_up_to_the_rounding_of_their_sums_are_balanced(self):
        instance = TransportInstance(supply=(0.1, 0.2), demand=(0.3,), costs=((1,), (2,)))
        assert sum(instance.supply) != sum(instance.demand)  # 0.30000000000000004
        balanced, side = balance(instance)
        assert balanced is instance and side is None


class TestTransportation:
    def test_one_by_one(self):
        plan = solve_transportation(TransportInstance(supply=(5,), demand=(5,), costs=((3,),)))
        assert plan.allocation == ((5,),)
        assert plan.objective == 15

    def test_two_by_two_hand_case(self):
        plan = solve_transportation(
            TransportInstance(supply=(10, 20), demand=(15, 15), costs=((1, 2), (3, 1)))
        )
        assert plan.objective == 40
        assert plan.allocation[0][0] == 10
        assert plan.allocation[1][0] == 5
        assert plan.allocation[1][1] == 15

    def test_unbalanced_records_fictitious(self):
        plan = solve_transportation(TransportInstance(supply=(10,), demand=(6,), costs=((3,),)))
        assert plan.fictitious == ("destination", 1)
        assert plan.objective == 18

    def test_negative_supply_rejected(self):
        with pytest.raises(ScenarioError):
            TransportInstance(supply=(-1,), demand=(1,), costs=((1,),))

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(20240818)
        for trial in range(220):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            supply = tuple(float(rng.randint(1, 9)) for _ in range(m))
            total = int(sum(supply))
            cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
            demand = tuple(float(p) for p in parts)
            costs = tuple(tuple(float(rng.randint(0, 9)) for _ in range(n)) for _ in range(m))
            instance = TransportInstance(supply=supply, demand=demand, costs=costs)
            plan = solve_transportation(instance)
            assert plan.objective == pytest.approx(brute_force_transport(instance))

    def test_conservation_and_basis_size(self):
        rng = random.Random(7)
        for _ in range(50):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            supply = tuple(float(rng.randint(1, 9)) for _ in range(m))
            demand_total = sum(supply)
            weights = [rng.random() for _ in range(n)]
            scale = demand_total / sum(weights)
            demand = [round(w * scale) for w in weights]
            demand[-1] += int(demand_total - sum(demand))
            if demand[-1] < 0:
                continue
            costs = tuple(tuple(float(rng.randint(0, 9)) for _ in range(n)) for _ in range(m))
            plan = solve_transportation(
                TransportInstance(supply=supply, demand=tuple(map(float, demand)), costs=costs)
            )
            allocation = np.array(plan.allocation)
            assert np.allclose(allocation.sum(axis=1), supply)
            assert np.allclose(allocation.sum(axis=0), demand)
            assert np.all(allocation >= 0)
            # a spanning tree: m + n - 1 distinct cells that reach every row and column
            m, n = allocation.shape  # with a fictitious row or column, if any
            assert len(set(plan.basis)) == len(plan.basis) == m + n - 1
            reached, grew = {0}, True  # row i is node i, column j is node m + j
            while grew:
                grew = False
                for i, j in plan.basis:
                    if (i in reached) != (m + j in reached):
                        reached |= {i, m + j}
                        grew = True
            assert reached == set(range(m + n))

    def test_duality_at_optimum(self):
        rng = random.Random(13)
        for _ in range(30):
            m, n = rng.randint(2, 3), rng.randint(2, 3)
            supply = tuple(float(rng.randint(1, 9)) for _ in range(m))
            total = int(sum(supply))
            cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
            demand = tuple(
                float(b - a) for a, b in zip([0] + cuts, cuts + [total])
            )
            costs = tuple(tuple(float(rng.randint(0, 9)) for _ in range(n)) for _ in range(m))
            plan = solve_transportation(
                TransportInstance(supply=supply, demand=demand, costs=costs)
            )
            u, v = plan.potentials
            basis = set(plan.basis)
            for i in range(m):
                for j in range(n):
                    if (i, j) not in basis:
                        assert u[i] + v[j] <= costs[i][j] + 1e-9

    def test_random_instances_match_the_simplex(self):
        """The LP max sum (M - c_ij) x_ij over row sums <= supply and column sums
        <= demand, M = max c + 1, ships every unit that can ship, so at its
        optimum sum c_ij x_ij is the transport objective.  300 instances up to
        6x6, integer or 2-decimal costs, balanced or unbalanced either way."""
        rng = random.Random(20261019)
        for _ in range(300):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            supply = tuple(float(rng.randint(0, 12)) for _ in range(m))
            demand = [float(rng.randint(0, 12)) for _ in range(n)]
            if rng.random() < 0.3:  # balanced: the last column takes the difference
                demand[-1] = max(0.0, sum(supply) - sum(demand[:-1]))
            decimals = rng.choice((0, 2))
            costs = np.array([[round(rng.uniform(0, 9), decimals) for _ in range(n)] for _ in range(m)])
            rows = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
            x = _simplex_max((costs.max() + 1 - costs).ravel(), rows, np.array([*supply, *demand]))
            instance = TransportInstance(supply, tuple(demand), tuple(map(tuple, costs.tolist())))
            objective = solve_transportation(instance).objective
            assert math.isclose(objective, costs.ravel() @ x, rel_tol=1e-9, abs_tol=1e-9)

    def test_random_instances_match_pin(self):
        """Allocation, objective, basis order, potentials and the fictitious
        side stay bit-identical on 300 random instances."""
        rng = random.Random(20261018)
        digest = hashlib.sha256()
        for _ in range(300):
            try:
                p = solve_transportation(random_transport(rng))
                state = (p.allocation, p.objective, p.basis, p.potentials, p.fictitious)
            except InfeasibleError as exc:
                state = (type(exc).__name__, str(exc))
            digest.update(repr(state).encode())
        assert digest.hexdigest() == RANDOM_TRANSPORT_PIN

    def test_large_random_instances_match_pin_and_certify_optimality(self):
        """The same five fields stay bit-identical on 60 instances from 8x8 to
        40x40, and each plan's potentials certify it: u_i + v_j = c_ij on the
        basic cells and u_i + v_j <= c_ij elsewhere, within 1e-9."""
        rng = random.Random(20261020)
        digest, sides = hashlib.sha256(), set()
        for _ in range(60):
            instance = large_transport(rng)
            p = solve_transportation(instance)
            digest.update(repr((p.allocation, p.objective, p.basis, p.potentials, p.fictitious)).encode())
            sides.add(p.fictitious and p.fictitious[0])
            u, v = map(np.array, p.potentials)
            slack = np.array(balance(instance)[0].costs) - u[:, None] - v
            assert slack.min() >= -1e-9
            assert np.abs(slack[tuple(zip(*p.basis))]).max() <= 1e-9
        assert sides == {None, "source", "destination"}
        assert digest.hexdigest() == LARGE_TRANSPORT_PIN

    def test_potentials_overflow_on_the_first_walk(self):
        instance = TransportInstance(
            supply=(1, 1), demand=(1, 1), costs=((1.7e308, 0), (0, 1.7e308))
        )
        with pytest.raises(ScenarioError, match="^the transport potentials overflowed;"):
            solve_transportation(instance)

    def test_potentials_overflow_after_a_pivot(self, monkeypatch):
        # found by a seeded search over 2x2 to 3x3 instances with costs in {0, 1, 1e308, 1.7e308}
        instance = TransportInstance(
            supply=(2, 3), demand=(1, 1, 3), costs=((1.7e308, 0, 1e308), (0, 1.7e308, 1e308))
        )
        with pytest.raises(ScenarioError, match="^the transport potentials overflowed;"):
            solve_transportation(instance)
        # with one pivot allowed, the first walk passes its check and the pivot runs
        monkeypatch.setattr(optimizers, "_MAX_PIVOTS", 1)
        with pytest.raises(InfeasibleError, match=r"pivot limit \(1\)"):
            solve_transportation(instance)


class TestLoading:
    def test_two_item_hand_case(self):
        instance = LoadingInstance(
            capacity=5,
            items=(LoadingItem("a", 2, 3), LoadingItem("b", 3, 4)),
        )
        solution = solve_loading(instance)
        assert solution.counts == {"a": 1, "b": 1}
        assert solution.objective == 7

    def test_near_tie_counts_reach_the_objective(self):
        # b's profit is within 1e-9 relative of a's: only a's count reaches the objective
        instance = LoadingInstance(
            capacity=1, items=(LoadingItem("a", 1, 1e9 + 1), LoadingItem("b", 1, 1e9))
        )
        solution = solve_loading(instance)
        assert solution.counts == {"a": 1, "b": 0}
        assert solution.objective == 1e9 + 1

    def test_zero_capacity(self):
        instance = LoadingInstance(capacity=0, items=(LoadingItem("a", 2, 3),))
        solution = solve_loading(instance)
        assert solution.counts == {"a": 0}
        assert solution.objective == 0

    def test_single_item_floor(self):
        instance = LoadingInstance(capacity=10, items=(LoadingItem("a", 3, 5),))
        solution = solve_loading(instance)
        assert solution.counts == {"a": 3}
        assert solution.objective == 15

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ScenarioError, match="weight"):
            LoadingInstance(capacity=5, items=(LoadingItem("a", 0, 3),))

    def test_full_sweep_matches_enumeration(self):
        rng = random.Random(5)
        for n in (1, 2, 3):
            for capacity in range(0, 21):
                for _ in range(3):
                    items = tuple(
                        LoadingItem(f"i{k}", rng.randint(1, max(1, capacity)), rng.randint(0, 9))
                        for k in range(n)
                    )
                    instance = LoadingInstance(capacity=capacity, items=items)
                    solution = solve_loading(instance)
                    assert solution.objective == pytest.approx(brute_force_loading(instance))
                    chosen_weight = sum(
                        solution.counts[item.name] * item.weight for item in items
                    )
                    assert chosen_weight <= capacity

    def test_table_rows_nondecreasing_in_weight(self):
        instance = LoadingInstance(
            capacity=12,
            items=(LoadingItem("a", 3, 4), LoadingItem("b", 5, 9), LoadingItem("c", 2, 1)),
        )
        solution = solve_loading(instance)
        for row in solution.table:
            assert np.all(np.diff(row) >= 0)

    def test_quantum_scaling(self):
        data = {"capacity": 1.0, "items": [{"name": "a", "weight": 0.25, "profit": 2}]}
        instance = LoadingInstance.from_dict(data, quantum=0.25)
        assert instance.capacity == 4
        assert instance.items[0].weight == 1
        assert solve_loading(instance).objective == 8

    def test_weight_not_an_integer_after_scaling_is_refused(self):
        # rounded to 1, 3 units of a would load, weighing 4.2 against a capacity of 3
        data = {"capacity": 3, "items": [{"name": "a", "weight": 1.4, "profit": 1}]}
        message = r"^items\[0\]\.weight / quantum must be an integer, got 1\.4$"
        with pytest.raises(ScenarioError, match=message):
            LoadingInstance.from_dict(data)
        with pytest.raises(ScenarioError, match="got 5.6"):
            LoadingInstance.from_dict(data, quantum=0.25)

    # 0.25 / 0.25 is exactly 1; 0.3 / 0.1 and 1.4 / 0.2 fall one rounding short of 3 and 7
    @pytest.mark.parametrize("weight, quantum, units", [(0.25, 0.25, 1), (0.3, 0.1, 3), (1.4, 0.2, 7)])
    def test_weight_within_rounding_of_an_integer_loads_as_it(self, weight, quantum, units):
        data = {"capacity": 3, "items": [{"name": "a", "weight": weight, "profit": 1}]}
        assert LoadingInstance.from_dict(data, quantum).items[0].weight == units

    # 0.3 / 0.1 falls one rounding short of 3: a limit rounds down, but not by a rounding
    @pytest.mark.parametrize(
        "capacity, quantum, units", [(0.3, 0.1, 3), (1.4, 0.2, 7), (0.35, 0.1, 3), (2.99, 1, 2)]
    )
    def test_capacity_within_rounding_of_an_integer_loads_as_it(self, capacity, quantum, units):
        data = {"capacity": capacity, "items": [{"name": "a", "weight": quantum, "profit": 1}]}
        instance = LoadingInstance.from_dict(data, quantum)
        assert instance.capacity == units
        assert solve_loading(instance).counts == {"a": units}

    def test_repeated_item_name_is_refused(self):
        # merged under one name, the counts {a: 1} could not reach the objective 8
        items = [{"name": "a", "weight": 2, "profit": 3}, {"name": "a", "weight": 3, "profit": 5}]
        message = r"^items\[1\]\.name 'a' repeats the name of items\[0\]$"
        with pytest.raises(ScenarioError, match=message):
            LoadingInstance.from_dict({"capacity": 5, "items": items})
        items[0].pop("name")  # its default name is item0
        items[1]["name"] = "item0"
        with pytest.raises(ScenarioError, match=r"^items\[1\]\.name 'item0' repeats"):
            LoadingInstance.from_dict({"capacity": 5, "items": items})

    def test_table_above_ten_million_cells_is_refused(self):
        # (1 item + 2) rows x (capacity + 1) columns; nothing here is solved,
        # so the refused table is never allocated.
        items = (LoadingItem("a", 1, 1),)
        assert LoadingInstance(capacity=10**7 // 3 - 1, items=items).capacity == 3333332
        with pytest.raises(ScenarioError, match="needs a table of 10000002 cells"):
            LoadingInstance(capacity=10**7 // 3, items=items)
        with pytest.raises(ScenarioError, match="capacity 1000000000000 .*--quantum"):
            LoadingInstance.from_dict({"capacity": 1e12, "items": [{"weight": 1, "profit": 1}]})


class TestProductionPlan:
    def test_ratio_ties_leave_by_the_smallest_basis_variable(self):
        # Rows tie in a ratio test here; the tie rule decides the pivot order,
        # which shows in the last bits of x.
        instance = PlanInstance(
            lower=(0, 0, 0),
            upper=(2, 3, 3),
            resource_use=((1, 3), (2, 1), (3, 2)),
            resource_limits=(6, 6),
            profit=(2, 1, 0),
        )
        x, objective = solve_production_plan(instance)
        assert (x, objective) == ((1.2, 2.4000000000000004, 0.0), 4.800000000000001)

    def test_hand_case_unconstrained_lower(self):
        instance = PlanInstance(
            lower=(0, 0),
            upper=(10, 10),
            resource_use=((1,), (2,)),
            resource_limits=(8,),
            profit=(3, 5),
        )
        x, objective = solve_production_plan(instance)
        assert x == pytest.approx((8, 0))
        assert objective == pytest.approx(24)

    def test_zero_resources_forces_zero(self):
        instance = PlanInstance(
            lower=(0, 0),
            upper=(10, 10),
            resource_use=((1,), (2,)),
            resource_limits=(0,),
            profit=(3, 5),
        )
        x, objective = solve_production_plan(instance)
        assert x == pytest.approx((0, 0))
        assert objective == 0

    def test_hand_case_with_lower_bounds(self):
        instance = PlanInstance(
            lower=(1, 1),
            upper=(10, 10),
            resource_use=((1,), (2,)),
            resource_limits=(8,),
            profit=(3, 5),
        )
        x, objective = solve_production_plan(instance)
        assert x == pytest.approx((6, 1))
        assert objective == pytest.approx(23)

    @pytest.mark.parametrize(
        "integer, limits",
        [(False, ()), (True, ()), (False, (5.0,)), (True, (5.0,))],
        ids=["False", "True", "False-5.0", "True-5.0"],
    )
    def test_no_products_plan_nothing(self, integer, limits):
        instance = PlanInstance(lower=(), upper=(), resource_use=(), resource_limits=limits, profit=())
        assert solve_production_plan(instance, integer=integer) == ((), 0.0)

    def test_infeasible_lower_bounds(self):
        instance = PlanInstance(
            lower=(5, 5),
            upper=(10, 10),
            resource_use=((1,), (2,)),
            resource_limits=(8,),
            profit=(3, 5),
        )
        with pytest.raises(InfeasibleError, match="lower bounds"):
            solve_production_plan(instance)

    def test_random_instances_match_vertex_enumeration(self):
        rng = random.Random(20240819)
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(1, min(3, 6 - n))
            lower = tuple(float(rng.randint(0, 2)) for _ in range(n))
            upper = tuple(lo + rng.randint(1, 6) for lo in lower)
            use = tuple(tuple(float(rng.randint(0, 3)) for _ in range(m)) for _ in range(n))
            limits = tuple(
                float(sum(use[i][j] * lower[i] for i in range(n)) + rng.randint(0, 12))
                for j in range(m)
            )
            profit = tuple(float(rng.randint(0, 9)) for _ in range(n))
            instance = PlanInstance(
                lower=lower, upper=upper, resource_use=use,
                resource_limits=limits, profit=profit,
            )
            x, objective = solve_production_plan(instance)
            vertices = plan_vertices(instance)
            assert vertices, "feasible instance must have vertices"
            best = max(np.dot(profit, v) for v in vertices)
            assert objective == pytest.approx(best, abs=1e-6)
            # returned point satisfies all constraints
            assert all(
                lo - 1e-9 <= xi <= hi + 1e-9 for xi, lo, hi in zip(x, lower, upper)
            )
            assert np.all(np.array(x) @ np.array(use) <= np.array(limits) + 1e-9)

    def test_random_instances_match_pin(self):
        """x and the objective stay bit-identical on 400 random LPs."""
        rng = random.Random(20261021)
        assert plan_digest(random_plan(rng) for _ in range(400)) == RANDOM_PLAN_PIN

    def test_large_instances_match_pin(self):
        """x and the objective stay bit-identical on 20 LPs of 60 products by 20 resources."""
        rng = random.Random(20261022)
        assert plan_digest(large_plan(rng) for _ in range(20)) == LARGE_PLAN_PIN

    def test_objective_dominates_random_feasible_points(self):
        instance = PlanInstance(
            lower=(0, 1, 0),
            upper=(6, 5, 4),
            resource_use=((1, 2), (2, 1), (1, 1)),
            resource_limits=(14, 12),
            profit=(4, 3, 5),
        )
        _, objective = solve_production_plan(instance)
        rng = random.Random(77)
        tried = 0
        while tried < 1000:
            candidate = [rng.uniform(lo, hi) for lo, hi in zip(instance.lower, instance.upper)]
            usage = np.array(candidate) @ np.array(instance.resource_use)
            if np.all(usage <= np.array(instance.resource_limits)):
                tried += 1
                assert np.dot(instance.profit, candidate) <= objective + 1e-9

    def test_integer_mode(self):
        instance = PlanInstance(
            lower=(0, 0),
            upper=(4, 4),
            resource_use=((2,), (3,)),
            resource_limits=(11,),
            profit=(3, 5),
        )
        x, objective = solve_production_plan(instance, integer=True)
        assert all(float(v).is_integer() for v in x)
        best = max(
            3 * a + 5 * b
            for a in range(5)
            for b in range(5)
            if 2 * a + 3 * b <= 11
        )
        assert objective == pytest.approx(best)

    def test_integer_mode_respects_a_fractional_lower_bound(self):
        # the integers in [0.5, 2] start at 1, which uses more than the limit
        instance = PlanInstance(
            lower=(0.5,), upper=(2,), resource_use=((1,),), resource_limits=(0.7,), profit=(3,)
        )
        with pytest.raises(InfeasibleError, match="no integer plan satisfies the resource limits"):
            solve_production_plan(instance, integer=True)

    def test_integer_mode_refuses_huge_boxes(self):
        for upper in (200, 1e300):  # 1e300 overflows len() of the box's ranges
            instance = PlanInstance(
                lower=(0, 0, 0),
                upper=(upper, upper, upper),
                resource_use=((1,), (1,), (1,)),
                resource_limits=(10,),
                profit=(1, 1, 1),
            )
            with pytest.raises(ScenarioError, match="10\\^6"):
                solve_production_plan(instance, integer=True)


class TestSimplex:
    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_no_variables(self, n_rows):
        y = _simplex_max(np.zeros(0), np.zeros((n_rows, 0)), np.ones(n_rows))
        assert y.shape == (0,)

    def test_no_rows(self):
        y = _simplex_max(np.array([-1.0, 0.0]), np.zeros((0, 2)), np.zeros(0))
        assert y.tolist() == [0.0, 0.0]

    def test_the_row_update_keeps_signed_zeros(self):
        # x = y + lower = -0.0 + -0.0 only if the pivot row's rhs keeps its -0.0
        instance = PlanInstance(
            lower=(-0.0,), upper=(1,), resource_use=((1,),), resource_limits=(-0.0,), profit=(1,)
        )
        x, objective = solve_production_plan(instance)
        assert math.copysign(1.0, x[0]) == -1.0 and objective == 0.0

    def test_a_cycling_tableau_stops_at_the_pivot_limit(self):
        # rounding near the float range makes Bland's pivots repeat their bases
        instance = PlanInstance(
            lower=(0, 0, 0, 0, 0),
            upper=(0.5, 1e15, 0, 1, 2),
            resource_use=((2, 2**53, 5), (3, 1e15, 3), (5, 4, 0), (1e300, 0, 0.5), (2, 2e-9, 4)),
            resource_limits=(1e-9, 1, 4),
            profit=(0.5, 1.7e308, -3, -(2**53), 1e308),
        )
        with pytest.raises(InfeasibleError, match=r"^the plan simplex hit its pivot limit \(10000\)"):
            solve_production_plan(instance)

    @pytest.mark.parametrize("rows", [[[0.0]], np.zeros((0, 1))], ids=["zero-column", "no-rows"])
    def test_unbounded_column(self, rows):
        rows = np.array(rows)
        with pytest.raises(InfeasibleError, match="^linear program is unbounded$"):
            _simplex_max(np.array([1.0]), rows, np.ones(len(rows)))
