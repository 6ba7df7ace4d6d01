"""Ideal vector, residuals, and minmax compromise selection.

Given an agents-by-situations payoff matrix: take each agent's best payoff
over all situations (the ideal vector), measure every situation by each
agent's shortfall from that ideal (the residual matrix), sort each column's
residuals ascending, and pick the situation(s) whose largest residual is
smallest.  Ties climb to the next sorted row and re-minimize among the tied
set; situations still tied past the top row are returned together as the
compromise set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ScenarioError

NORMALIZE_NONE = "none"
NORMALIZE_BY_IDEAL = "by_ideal"


@dataclass(frozen=True)
class PayoffMatrix:
    """Agents x situations money matrix."""

    values: np.ndarray
    situations: tuple[str, ...]
    agents: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ScenarioError("payoff matrix must be 2-D and nonempty")
        if values.shape != (len(self.agents), len(self.situations)):
            raise ScenarioError("payoff matrix shape does not match its labels")
        if not np.all(np.isfinite(values)):
            raise ScenarioError("payoff matrix entries must be finite")


class SelectionStep(NamedTuple):
    """One tie-climbing round: which sorted row decided, at what value."""

    depth: int
    value: float
    survivors: tuple[int, ...]


class CompromiseResult(NamedTuple):
    ideal: np.ndarray | None
    residuals: np.ndarray
    sorted_residuals: np.ndarray
    selected: tuple[int, ...]
    trace: tuple[SelectionStep, ...]
    situations: tuple[str, ...]

    @property
    def deciding_value(self) -> float:
        return self.trace[-1].value

    @property
    def selected_labels(self) -> tuple[str, ...]:
        return tuple(self.situations[i] for i in self.selected)


# Residuals within one quantum of each other tie.  The quantum is part of the
# report contract: changing it can change which situations a report selects.
_QUANTUM = 1e-9


def _refuse_overflow(values: np.ndarray, agents, situations, what: str) -> np.ndarray:
    """``values`` (agents x situations), or a ScenarioError naming the agent
    and the situation of the first entry, situation by situation, that is not
    finite."""
    for m, k in np.argwhere(~np.isfinite(values.T))[:1].tolist():
        raise ScenarioError(f"the {agents[k]} {what} of situation {situations[m]} overflows")
    return values


@np.errstate(over="ignore")  # a quantized level past the float range is inf
def select_from_residuals(residuals: np.ndarray, situations: tuple[str, ...]) -> CompromiseResult:
    """Run the sort-and-minmax selection on a residual matrix taken as given (NaN refused)."""
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim != 2 or residuals.size == 0:
        raise ScenarioError("residual matrix must be 2-D and nonempty")
    if residuals.shape[1] != len(situations):
        raise ScenarioError("residual matrix width does not match situation labels")
    for row, m in np.argwhere(np.isnan(residuals))[:1].tolist():
        raise ScenarioError(f"residual row {row} of situation {situations[m]} is not a number")

    sorted_residuals = np.sort(residuals, axis=0)
    # Compared as floats: an int64 cast overflows on residuals above ~9.2e9.
    quantized = np.round(sorted_residuals / _QUANTUM)

    survivors = list(range(residuals.shape[1]))
    trace: list[SelectionStep] = []
    for depth, row in enumerate(range(residuals.shape[0] - 1, -1, -1)):
        level = quantized[row, survivors]
        # The division overflows past ~1.8e299, where the quantum is far below
        # the float spacing, so there the residuals themselves decide.
        if np.isinf(level.min()):
            level = sorted_residuals[row, survivors]
        best = level.min()
        survivors = [m for m, v in zip(survivors, level) if v == best]
        value = float(min(sorted_residuals[row, m] for m in survivors))
        trace.append(SelectionStep(depth=depth, value=value, survivors=tuple(survivors)))
        if len(survivors) == 1:
            break
    return CompromiseResult(
        ideal=None,
        residuals=residuals,
        sorted_residuals=sorted_residuals,
        selected=tuple(survivors),
        trace=tuple(trace),
        situations=tuple(situations),
    )


def compromise_select(matrix: PayoffMatrix, *, normalize: str = NORMALIZE_NONE) -> CompromiseResult:
    """Ideal vector, residuals, then minmax selection on a payoff matrix.

    ``normalize='by_ideal'`` divides each row's residuals by |ideal| before
    comparison, for instances whose agents trade in very different money
    scales; the default compares raw residuals.  The result reports the raw
    residuals either way.
    """
    if normalize not in (NORMALIZE_NONE, NORMALIZE_BY_IDEAL):
        raise ScenarioError(f"unknown normalize mode {normalize!r}")
    labels = matrix.agents, matrix.situations
    ideal = matrix.values.max(axis=1)
    with np.errstate(over="ignore"):
        residuals = _refuse_overflow(ideal[:, None] - matrix.values, *labels, "residual")
        compared = residuals
        if normalize == NORMALIZE_BY_IDEAL:
            scale = np.where(np.abs(ideal) > 0, np.abs(ideal), 1.0)
            compared = _refuse_overflow(residuals / scale[:, None], *labels, "normalized residual")
    result = select_from_residuals(compared, matrix.situations)
    sorted_residuals = np.sort(residuals, axis=0)
    return result._replace(ideal=ideal, residuals=residuals, sorted_residuals=sorted_residuals)
