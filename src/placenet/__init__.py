"""Placement solver for multi-agent supply networks.

Models a plane-embedded transport network with extraction points, candidate
raw and product warehouses, candidate plants and stores; evaluates each
agent's payoff for every feasible plant placement; and returns the compromise
placement by the ideal-vector minmax-residual rule.  Also ships the three
classical subproblem solvers (transportation, loading, production planning).
"""

from .agents import (
    Situation,
    agent1_components,
    agent1_payoff,
    agent2_payoff,
    agent3_payoff,
    build_situation,
    enumerate_situations,
    evaluate_all,
)
from .compromise import (
    CompromiseResult,
    PayoffMatrix,
    compromise_select,
    ideal_vector,
    residual_matrix,
    select_from_residuals,
)
from .costflow import (
    DemandSummary,
    FlowAssignment,
    demand_summary,
    greedy_flow,
    product_unit_total_cost,
    raw_requirements,
    select_product_warehouses,
    select_raw_warehouses,
    total_demand,
)
from .errors import InfeasibleError, ScenarioError
from .network import Edge, Network, Node, build_network, shortest_paths
from .optimizers import (
    LoadingInstance,
    LoadingItem,
    LoadingSolution,
    PlanInstance,
    TransportInstance,
    TransportPlan,
    balance,
    solve_loading,
    solve_production_plan,
    solve_transportation,
)
from .production import (
    PlantEconomics,
    allocate_output,
    cobb_douglas,
    output_value,
    plant_economics,
)
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"
