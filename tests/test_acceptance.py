"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1, 2, 3 and 5 assert the bundled worked example's printed numbers.
Four of those numbers' sources are internally inconsistent (their flow-cost
tables do not conserve units and mix two handling-rate readings), so the
first-agent figures cannot be reproduced by any unit-conserving computation;
those asserts fail by design and the divergence is documented in
fixtures/README.md.  Everything else must pass.
"""

import random
import time

import numpy as np
import pytest

from placenet import (
    LoadingInstance,
    LoadingItem,
    PlanInstance,
    TransportInstance,
    compromise_select,
    enumerate_situations,
    evaluate_all,
    select_from_residuals,
    solve_loading,
    solve_production_plan,
    solve_transportation,
)
from placenet.network import shortest_paths
from placenet import agent1_components, cobb_douglas, plant_economics
from placenet import greedy_flows, raw_requirements, total_demand
from placenet.agents import agent3_revenue

from conftest import FIXTURES
from test_cli import run_cli
from test_network import dijkstra_distances, random_graph
from test_optimizers import brute_force_loading, brute_force_transport, plan_vertices

SITUATION_LABELS = ("x7,x12", "x7,x13", "x7,x18", "x12,x13", "x12,x18", "x13,x18")

REFERENCE_MATRIX = np.array(
    [
        [1963.47, 1654.04, 1838.70, 1922.36, 1746.36, 1537.64],
        [338.66, 309.80, 361.52, 308.19, 338.21, 321.79],
        [1371.34, 1400.20, 1348.81, 1401.81, 1371.79, 1388.21],
    ]
)

REFERENCE_IDEAL = (1963.47, 361.52, 1401.81)

REFERENCE_RESIDUALS = np.array(
    [
        [0.0, 309.43, 124.77, 41.11, 217.11, 425.83],
        [22.86, 51.72, 0.0, 53.33, 23.31, 39.73],
        [30.47, 1.61, 53.0, 0.0, 30.02, 13.60],
    ]
)


def report(criterion: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}")
    for failure in failures:
        print(f"  - {failure}")
    assert not failures, f"criterion {criterion}: {len(failures)} check(s) failed"


@pytest.fixture(scope="module")
def pipeline(s8):
    start = time.perf_counter()
    situations = enumerate_situations(s8)
    matrix = evaluate_all(s8, situations)
    result = compromise_select(matrix)
    elapsed = time.perf_counter() - start
    return situations, matrix, result, elapsed


def test_criterion_1_golden_payoff_matrix(pipeline):
    _situations, matrix, _result, elapsed = pipeline
    failures = []
    if list(matrix.situations) != list(SITUATION_LABELS):
        failures.append(f"situation order {matrix.situations}")
    for agent in range(3):
        for column in range(6):
            got = matrix.values[agent, column]
            want = REFERENCE_MATRIX[agent, column]
            if abs(got - want) > 0.5:
                failures.append(
                    f"agent{agent + 1} {SITUATION_LABELS[column]}: computed {got:.2f}, "
                    f"reference {want:.2f}"
                )
    if elapsed >= 1.0:
        failures.append(f"pipeline took {elapsed:.3f}s (budget 1s)")
    report("1 (golden payoff matrix +-0.5)", failures)


def test_criterion_2_ideal_vector(pipeline):
    _situations, _matrix, result, _elapsed = pipeline
    failures = []
    for agent, want in enumerate(REFERENCE_IDEAL):
        got = float(result.ideal[agent])
        if abs(got - want) > 0.5:
            failures.append(f"ideal[{agent}]: computed {got:.2f}, reference {want:.2f}")
    report("2 (ideal vector +-0.5)", failures)


def test_criterion_3_residual_matrix(pipeline):
    _situations, _matrix, result, _elapsed = pipeline
    failures = []
    for agent in range(3):
        for column in range(6):
            got = float(result.residuals[agent, column])
            want = REFERENCE_RESIDUALS[agent, column]
            if abs(got - want) > 0.5:
                failures.append(
                    f"residual[agent{agent + 1}][{SITUATION_LABELS[column]}]: "
                    f"computed {got:.2f}, reference {want:.2f}"
                )
    anchors = {(1, 0): 22.86, (2, 1): 1.61, (1, 3): 53.33, (0, 5): 425.83}
    for (agent, column), want in anchors.items():
        got = float(result.residuals[agent, column])
        if abs(got - want) > 0.5:
            failures.append(
                f"anchor {want}: computed {got:.2f} at agent{agent + 1}/{SITUATION_LABELS[column]}"
            )
    report("3 (residual matrix +-0.5)", failures)


def test_criterion_4_compromise_on_literal_residuals():
    failures = []
    result = select_from_residuals(REFERENCE_RESIDUALS, SITUATION_LABELS)
    if result.selected_labels != ("x7,x12",):
        failures.append(f"selected {result.selected_labels}, expected ('x7,x12',)")
    if abs(result.deciding_value - 30.47) > 1e-9:
        failures.append(f"deciding value {result.deciding_value}, expected 30.47")
    solve_output = run_cli("solve", "-s", FIXTURES / "example_s8.json").stdout
    if "note:" not in solve_output or "x13,x18" not in solve_output:
        failures.append("report does not print the documented divergence note")
    report("4 (minmax rule on the literal residual table)", failures)


def test_criterion_5_component_anchors(s8, pipeline):
    situations, _matrix, _result, _elapsed = pipeline
    failures = []

    def check(label, got, want, tol=0.05):
        if isinstance(want, (int, float)):
            if abs(got - want) > tol:
                failures.append(f"{label}: computed {got}, reference {want}")
        elif got != want:
            failures.append(f"{label}: computed {got}, reference {want}")

    totals = total_demand(s8)
    check("total demand", (totals["b1"], totals["b2"], totals["b3"]), (17, 17, 16))
    raw = raw_requirements(totals, s8.recipes)
    check("raw requirements", (raw["a1"], raw["a2"]), (66, 67))

    first = situations[0]
    components = agent1_components(s8, first)
    check("storage income", components["raw_income"] + components["product_income"], 3700)
    check("retail revenue", agent3_revenue(s8), 5410)

    check("output value x7/b1", cobb_douglas(2.1, 150, 220, 0.5, 0.5), 381.48)
    check("output value x7/b2", cobb_douglas(2.2, 150, 440, 0.33, 0.67), 678.65)
    check("net profit x7/b1 @10", plant_economics(s8, "x7", "b1", 10).net_profit, 11.48)
    check("net profit x12/b1 @10", plant_economics(s8, "x12", "b1", 10).net_profit, 47.82)

    check("situation-1 flow cost", components["flow_cost"], 228)
    check("raw warehouses", first.raw_warehouses, {"x7": "x2", "x12": "x5"})
    check("product warehouse pair", first.product_warehouses, ("x8", "x11"))
    report("5 (component anchors +-0.05)", failures)


def test_criterion_6_oracle_equivalence(s8):
    failures = []
    start = time.perf_counter()

    rng = random.Random(6001)
    checked = 0
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        supply = tuple(float(rng.randint(1, 9)) for _ in range(m))
        total = int(sum(supply))
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        demand = tuple(float(b - a) for a, b in zip([0] + cuts, cuts + [total]))
        instance = TransportInstance(
            supply=supply,
            demand=demand,
            costs=tuple(tuple(float(rng.randint(0, 9)) for _ in range(n)) for _ in range(m)),
        )
        plan = solve_transportation(instance)
        oracle = brute_force_transport(instance)
        checked += 1
        if abs(plan.objective - oracle) > 1e-9:
            failures.append(f"transportation mismatch {plan.objective} vs {oracle} on {instance}")
            break
    if checked < 200:
        failures.append(f"only {checked} transportation instances checked")

    for n in (1, 2, 3):
        for capacity in range(0, 21):
            items = tuple(
                LoadingItem(f"i{k}", rng.randint(1, max(1, capacity)), rng.randint(0, 9))
                for k in range(n)
            )
            instance = LoadingInstance(capacity=capacity, items=items)
            got = solve_loading(instance).objective
            want = brute_force_loading(instance)
            if abs(got - want) > 1e-9:
                failures.append(f"loading mismatch {got} vs {want} at n={n}, W={capacity}")

    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, min(3, 6 - n))
        lower = tuple(float(rng.randint(0, 2)) for _ in range(n))
        upper = tuple(lo + rng.randint(1, 6) for lo in lower)
        use = tuple(tuple(float(rng.randint(0, 3)) for _ in range(m)) for _ in range(n))
        limits = tuple(
            float(sum(use[i][j] * lower[i] for i in range(n)) + rng.randint(0, 12))
            for j in range(m)
        )
        instance = PlanInstance(
            lower=lower,
            upper=upper,
            resource_use=use,
            resource_limits=limits,
            profit=tuple(float(rng.randint(0, 9)) for _ in range(n)),
        )
        _, objective = solve_production_plan(instance)
        best = max(np.dot(instance.profit, v) for v in plan_vertices(instance))
        if abs(objective - best) > 1e-6:
            failures.append(f"plan mismatch {objective} vs {best} on {instance}")

    graphs = 0
    for _ in range(100):
        n = rng.randint(4, 8)
        net, edges = random_graph(rng, n, rng.randint(n, 2 * n))
        dist = shortest_paths(n, net, range(n))
        graphs += 1
        for source in range(n):
            oracle = dijkstra_distances(n, edges, source)
            for target in range(n):
                if dist[source, target] != oracle[target]:
                    failures.append(f"shortest_paths/dijkstra mismatch at {source}->{target}")
    if graphs < 100:
        failures.append(f"only {graphs} graphs checked")

    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"oracle suite took {elapsed:.1f}s (budget 60s)")
    report("6 (oracle equivalence)", failures)


def test_criterion_7_invariant_suites(s8, pipeline):
    situations, matrix, result, _elapsed = pipeline
    failures = []

    for commodity in ("a1", "a2", "b1", "b2", "b3"):
        dist = shortest_paths(len(s8.node_labels), s8.edges[commodity], range(len(s8.node_labels)))
        n = dist.shape[0]
        # dist[i,k] <= dist[i,j] + dist[j,k] for all ordered triples
        composed = dist[:, :, None] + dist[None, :, :]
        if not np.all(np.broadcast_to(dist[:, None, :], (n, n, n)) <= composed + 1e-9):
            failures.append(f"triangle inequality broken for {commodity}")

    flows = greedy_flows(s8, [(s.plants, s.outputs, s.product_warehouses) for s in situations])
    for situation, flow in zip(situations, flows):
        shipped, sent_from = {}, {}
        for (product, store), entries in flow.shipments.items():
            for shipment in entries:
                shipped[product] = shipped.get(product, 0) + shipment.units
                key = shipment.plant, product
                sent_from[key] = sent_from.get(key, 0) + shipment.units
                if shipment.units < 0:
                    failures.append("negative shipment")
        totals = total_demand(s8)
        for product, units in shipped.items():
            if units != totals[product]:
                failures.append(f"{situation.label}: shipped {units} of {product}, demand {totals[product]}")
        for plant in situation.plants:
            for product in s8.product_ids:
                used = sent_from.get((plant, product), 0)
                if used > situation.outputs[plant].get(product, 0):
                    failures.append(f"{situation.label}: {plant} over-ships {product}")

    rng = random.Random(7001)
    for _ in range(50):
        j = rng.uniform(0.5, 3)
        k, ell = rng.uniform(1, 400), rng.uniform(1, 400)
        a, b = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
        t = rng.uniform(0.5, 5)
        lhs = cobb_douglas(j, t * k, t * ell, a, b)
        rhs = t ** (a + b) * cobb_douglas(j, k, ell, a, b)
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
            failures.append("Cobb-Douglas homogeneity broken")
            break

    residuals = result.residuals
    if not np.all(residuals >= -1e-12):
        failures.append("negative residual")
    if not np.all(np.isclose(residuals.min(axis=1), 0)):
        failures.append("some agent row lacks a zero residual")

    shift = compromise_select(
        type(matrix)(
            values=matrix.values + np.array([[100.0], [0.0], [-50.0]]),
            situations=matrix.situations,
            agents=matrix.agents,
        )
    )
    if shift.selected != result.selected:
        failures.append("selection not invariant under row shifts")

    perm = [3, 0, 5, 1, 4, 2]
    permuted = compromise_select(
        type(matrix)(
            values=matrix.values[:, perm],
            situations=tuple(matrix.situations[i] for i in perm),
            agents=matrix.agents,
        )
    )
    if set(permuted.selected_labels) != set(result.selected_labels):
        failures.append("selection not invariant under column permutation")

    report("7 (module invariants)", failures)
