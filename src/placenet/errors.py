"""Exception types shared across the package.

The CLI maps these onto exit codes: ScenarioError -> 2, InfeasibleError -> 3.
"""


class ScenarioError(ValueError):
    """Input data is malformed or violates a model invariant."""


class InfeasibleError(RuntimeError):
    """A well-formed instance admits no solution under its constraints."""
