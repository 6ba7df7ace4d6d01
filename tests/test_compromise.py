import hashlib
import random

import numpy as np
import pytest

from placenet import (
    PayoffMatrix,
    cobb_douglas,
    compromise_select,
    evaluate_all,
    plant_economics,
    select_from_residuals,
    select_raw_warehouses,
)
from placenet.errors import InfeasibleError, ScenarioError

SITUATIONS = ("x7,x12", "x7,x13", "x7,x18", "x12,x13", "x12,x18", "x13,x18")

# Payoff matrix of the bundled worked example, as printed in its source tables.
REFERENCE_PAYOFFS = PayoffMatrix(
    values=np.array(
        [
            [1963.47, 1654.04, 1838.70, 1922.36, 1746.36, 1537.64],
            [338.66, 309.80, 361.52, 308.19, 338.21, 321.79],
            [1371.34, 1400.20, 1348.81, 1401.81, 1371.79, 1388.21],
        ]
    ),
    situations=SITUATIONS,
    agents=("agent1", "agent2", "agent3"),
)

# The same source's residual table, ingested literally.
REFERENCE_RESIDUALS = np.array(
    [
        [0.0, 309.43, 124.77, 41.11, 217.11, 425.83],
        [22.86, 51.72, 0.0, 53.33, 23.31, 39.73],
        [30.47, 1.61, 53.0, 0.0, 30.02, 13.60],
    ]
)


def matrix_of(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or tuple(f"s{i}" for i in range(values.shape[1]))
    agents = tuple(f"a{i}" for i in range(values.shape[0]))
    return PayoffMatrix(values=values, situations=tuple(labels), agents=agents)


class TestIdealVector:
    def test_reference_matrix(self):
        ideal = compromise_select(REFERENCE_PAYOFFS).ideal
        assert ideal == pytest.approx([1963.47, 361.52, 1401.81])

    def test_constant_matrix(self):
        assert compromise_select(matrix_of([[4.5, 4.5, 4.5]])).ideal == pytest.approx([4.5])

    def test_two_by_two(self):
        assert compromise_select(matrix_of([[1, 3], [5, 2]])).ideal == pytest.approx([3, 5])


class TestResidualMatrix:
    def test_reference_entries(self):
        residuals = compromise_select(REFERENCE_PAYOFFS).residuals
        # agent 3 in (x7,x13) and agent 1 in (x13,x18)
        assert residuals[2, 1] == pytest.approx(1.61, abs=0.005)
        assert residuals[0, 5] == pytest.approx(425.83, abs=0.005)

    def test_zero_at_ideal_column(self):
        matrix = matrix_of([[1, 9, 4], [2, 0, 7]])
        residuals = compromise_select(matrix).residuals
        assert residuals[0, 1] == 0
        assert residuals[1, 2] == 0

    def test_nonnegative_with_row_zero(self):
        rng = random.Random(31)
        for _ in range(50):
            values = [[rng.uniform(-100, 100) for _ in range(5)] for _ in range(3)]
            residuals = compromise_select(matrix_of(values)).residuals
            assert np.all(residuals >= 0)
            assert np.all(np.isclose(residuals.min(axis=1), 0))


class TestSelection:
    def test_reference_residual_table_selects_first_pair(self):
        result = select_from_residuals(REFERENCE_RESIDUALS, SITUATIONS)
        assert result.selected_labels == ("x7,x12",)
        assert result.deciding_value == pytest.approx(30.47)
        assert result.trace[0].depth == 0

    def test_recomputed_residuals_agree(self):
        result = compromise_select(REFERENCE_PAYOFFS)
        assert result.selected_labels == ("x7,x12",)
        assert result.deciding_value == pytest.approx(30.47, abs=0.005)

    def test_full_tie_returns_compromise_set(self):
        matrix = matrix_of([[5, 5, 1], [3, 3, 0]])
        result = compromise_select(matrix)
        assert result.selected_labels == ("s0", "s1")

    def test_single_agent_degenerates_to_argmax(self):
        matrix = matrix_of([[3, 9, 1, 9]])
        result = compromise_select(matrix)
        assert set(result.selected_labels) == {"s1", "s3"}

    def test_tie_climbs_one_row(self):
        # Columns 0 and 1 share the max residual; the next row decides.
        residuals = np.array(
            [
                [0.0, 2.0, 0.0],
                [5.0, 3.0, 9.0],
                [10.0, 10.0, 11.0],
            ]
        )
        result = select_from_residuals(residuals, ("s0", "s1", "s2"))
        assert result.selected_labels == ("s1",)
        assert [step.depth for step in result.trace] == [0, 1]
        assert result.deciding_value == pytest.approx(3.0)

    def test_row_shift_invariance(self):
        rng = random.Random(17)
        for _ in range(40):
            values = np.array([[rng.uniform(0, 50) for _ in range(6)] for _ in range(3)])
            shifts = np.array([[rng.uniform(-20, 20)] for _ in range(3)])
            base = compromise_select(matrix_of(values))
            shifted = compromise_select(matrix_of(values + shifts))
            assert base.selected == shifted.selected
            assert np.allclose(base.residuals, shifted.residuals)

    def test_column_permutation_invariance(self):
        rng = random.Random(18)
        for _ in range(40):
            values = np.array([[rng.uniform(0, 50) for _ in range(6)] for _ in range(3)])
            labels = tuple(f"s{i}" for i in range(6))
            base = compromise_select(matrix_of(values, labels))
            perm = list(range(6))
            rng.shuffle(perm)
            permuted = compromise_select(
                matrix_of(values[:, perm], tuple(labels[i] for i in perm))
            )
            assert set(base.selected_labels) == set(permuted.selected_labels)

    def test_selected_column_is_bottom_up_lexicographic_minimum(self):
        rng = random.Random(19)
        for _ in range(40):
            values = np.array([[rng.uniform(0, 50) for _ in range(5)] for _ in range(4)])
            matrix = matrix_of(values)
            result = compromise_select(matrix)
            sorted_columns = np.sort(result.residuals, axis=0)[::-1]  # largest first
            keys = [tuple(np.round(sorted_columns[:, m], 9)) for m in range(5)]
            best = min(keys)
            for m in result.selected:
                assert keys[m] == best
            for m in range(5):
                if keys[m] == best:
                    assert m in result.selected

    def test_normalization_can_change_selection(self):
        # Agent 0 trades at a 100x money scale; normalization rebalances it.
        values = [[1000.0, 900.0], [1.0, 5.0]]
        raw = compromise_select(matrix_of(values))
        scaled = compromise_select(matrix_of(values), normalize="by_ideal")
        assert raw.selected_labels == ("s0",)
        assert scaled.selected_labels == ("s1",)

    def test_quantum_groups_near_ties(self):
        # 1e-12 apart is within the 1e-9 quantum, so the next row decides;
        # 2e-9 apart is not, so the top row does
        tied = np.array([[10.0, 10.0 + 1e-12], [3.0, 2.0]])
        apart = np.array([[10.0, 10.0 + 2e-9], [3.0, 2.0]])
        assert select_from_residuals(tied, ("s0", "s1")).selected_labels == ("s1",)
        assert select_from_residuals(apart, ("s0", "s1")).selected_labels == ("s0",)

    def test_residuals_past_the_quantum_range_do_not_tie(self):
        # 1e300 / 1e-9 overflows to inf; the residuals themselves decide there
        residuals = np.array([[1e300, 1.5e300]])
        assert select_from_residuals(residuals, ("s0", "s1")).selected_labels == ("s0",)
        climbed = select_from_residuals(np.array([[2.0, 1.0], [1e300, 1e300]]), ("s0", "s1"))
        assert [step.survivors for step in climbed.trace] == [(0, 1), (1,)]

    def test_nan_residual_is_refused_naming_row_and_situation(self):
        with pytest.raises(ScenarioError, match=r"^residual row 0 of situation a is not a number$"):
            select_from_residuals(np.array([[np.nan, 1.0]]), ("a", "b"))
        residuals = np.array([[0.0, 1.0], [2.0, np.nan]])
        with pytest.raises(ScenarioError, match=r"^residual row 1 of situation b is not a number$"):
            select_from_residuals(residuals, ("a", "b"))

    def test_infinite_residual_still_ranks_last(self):
        result = select_from_residuals(np.array([[np.inf, 1.0]]), ("a", "b"))
        assert result.selected_labels == ("b",)


class TestOverflow:
    """Finite payoffs whose residuals pass the float range are refused."""

    def test_overflowing_residual_is_refused(self):
        matrix = matrix_of([[1.5e308, -1.5e308], [1, 2]])
        with pytest.raises(ScenarioError, match=r"^the a0 residual of situation s1 overflows$"):
            compromise_select(matrix)

    def test_overflowing_normalized_residual_is_refused(self):
        matrix = matrix_of([[1e-300, -1e10], [1, 2]])
        assert compromise_select(matrix).selected_labels == ("s0",)
        message = r"^the a0 normalized residual of situation s1 overflows$"
        with pytest.raises(ScenarioError, match=message):
            compromise_select(matrix, normalize="by_ideal")


def _first_error(results):
    """Raise the first result of a batched call, which returns its errors."""
    raise results[0]


# (call on the example_s8 scenario, the error's type, what the error says)
LIBRARY_REFUSED = {
    "empty payoff matrix": (
        lambda s8: matrix_of(np.empty((1, 0))),
        ScenarioError,
        "payoff matrix must be 2-D and nonempty",
    ),
    "payoff shape": (
        lambda s8: PayoffMatrix(np.zeros((2, 2)), ("s0",), ("a0", "a1")),
        ScenarioError,
        "payoff matrix shape does not match its labels",
    ),
    "non-finite payoff": (
        lambda s8: matrix_of([[np.inf]]),
        ScenarioError,
        "payoff matrix entries must be finite",
    ),
    "empty residuals": (
        lambda s8: select_from_residuals(np.empty((0, 0)), ()),
        ScenarioError,
        "residual matrix must be 2-D and nonempty",
    ),
    "residual width": (
        lambda s8: select_from_residuals(np.zeros((1, 2)), ("s0",)),
        ScenarioError,
        "residual matrix width does not match situation labels",
    ),
    "normalize mode": (
        lambda s8: compromise_select(matrix_of([[1.0]]), normalize="x"),
        ScenarioError,
        "unknown normalize mode 'x'",
    ),
    "raw-warehouse mode": (
        lambda s8: _first_error(select_raw_warehouses(s8, [(("x7", "x12"), {})], mode="x")),
        ScenarioError,
        "unknown raw-warehouse selection mode 'x'",
    ),
    "factor": (
        lambda s8: cobb_douglas(0.0, 1.0, 1.0, 0.5, 0.5),
        ScenarioError,
        "production factor must be > 0",
    ),
    "spend": (
        lambda s8: cobb_douglas(1.0, -1.0, 1.0, 0.5, 0.5),
        ScenarioError,
        "input spends must be >= 0",
    ),
    "exponent": (
        lambda s8: cobb_douglas(1.0, 1.0, 1.0, 0.5, 0.0),
        ScenarioError,
        "exponents must be > 0",
    ),
    "no situation": (
        lambda s8: evaluate_all(s8, []),
        InfeasibleError,
        "no feasible situation to evaluate",
    ),
    "plant capacity": (
        lambda s8: plant_economics(s8, "x7", "b1", 11),
        InfeasibleError,
        "plant x7 asked to make 11 of b1, capacity 10",
    ),
}


@pytest.mark.parametrize(
    "call, error, message", LIBRARY_REFUSED.values(), ids=list(LIBRARY_REFUSED)
)
def test_library_call_refuses_bad_input(s8, call, error, message):
    with pytest.raises(error) as caught:
        call(s8)
    assert type(caught.value) is error
    assert str(caught.value) == message


# sha256 over 2,000 seeded selections (see selection_digest), recorded before
# the ideal vector and residuals moved into compromise_select.
SELECTION_PIN = "80d283fb9e89384044c2d2b9672975c6d49d5fbf94a8ae4d661398e0eea3ebf1"


def selection_digest(count=2000, seed=2019):
    """Hash ideal, residuals, sorted residuals, selection and trace of random draws.

    Each draw is 1-4 agents by 1-9 situations at a drawn money scale; where
    there are two situations or more, one column is copied into another and
    shifted per agent by 0, +-1e-12, +-5e-10 or +-2e-9, so ties below and
    above the 1e-9 quantum are met.  Draws alternate the two normalize modes.
    """
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for draw in range(count):
        agents, width = int(rng.integers(1, 5)), int(rng.integers(1, 10))
        scale = float(rng.choice([1.0, 100.0, 1e4]))
        values = np.round(rng.uniform(-scale, scale, (agents, width)), 2)
        if width > 1:
            source, target = rng.choice(width, 2, replace=False)
            gap = rng.choice([1e-12, 5e-10, 2e-9])
            values[:, target] = values[:, source] + gap * rng.integers(-1, 2, agents)
        normalize = ("none", "by_ideal")[draw % 2]
        result = compromise_select(matrix_of(values), normalize=normalize)
        for array in (result.ideal, result.residuals, result.sorted_residuals):
            digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
        steps = [(step.depth, step.value, step.survivors) for step in result.trace]
        digest.update(repr((result.selected, steps)).encode())
    return digest.hexdigest()


def test_selection_matches_pin():
    assert selection_digest() == SELECTION_PIN
