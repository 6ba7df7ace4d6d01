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
    enumerate_situations,
    evaluate_all,
)
from .compromise import (
    CompromiseResult,
    PayoffMatrix,
    compromise_select,
    select_from_residuals,
)
from .costflow import (
    FlowAssignment,
    greedy_flows,
    raw_requirements,
    select_product_warehouses,
    select_raw_warehouses,
    total_demand,
)
from .errors import InfeasibleError, ScenarioError
from .network import shortest_paths
from .production import (
    PlantEconomics,
    allocate_output,
    cobb_douglas,
    plant_economics,
)
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"

# The solver names load `optimizers` on first use: `solve` and `paths` never need it.
_OPTIMIZERS = {
    "LoadingInstance", "LoadingItem", "LoadingSolution", "PlanInstance", "TransportInstance",
    "TransportPlan", "balance", "solve_loading", "solve_production_plan", "solve_transportation",
}


def __getattr__(name: str):
    if name in _OPTIMIZERS:
        from . import optimizers

        return getattr(optimizers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return [*globals(), *_OPTIMIZERS]
