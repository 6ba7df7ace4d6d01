import random

import pytest

from placenet import (
    InfeasibleError,
    allocate_output,
    cobb_douglas,
    plant_economics,
)


class TestCobbDouglas:
    def test_balanced_exponents_value(self):
        assert cobb_douglas(2.1, 150, 220, 0.5, 0.5) == pytest.approx(381.48, abs=0.01)

    def test_identity(self):
        assert cobb_douglas(1, 1, 1, 0.7, 0.4) == 1

    def test_skewed_exponents_value(self):
        assert cobb_douglas(2.2, 150, 440, 0.33, 0.67) == pytest.approx(678.65, abs=0.05)

    def test_zero_input_gives_zero(self):
        assert cobb_douglas(2, 0, 10, 0.5, 0.5) == 0
        assert cobb_douglas(2, 10, 0, 0.5, 0.5) == 0

    def test_homogeneity(self):
        rng = random.Random(8)
        for _ in range(200):
            j = rng.uniform(0.5, 3)
            k, ell = rng.uniform(1, 500), rng.uniform(1, 500)
            a, b = rng.uniform(0.1, 1.2), rng.uniform(0.1, 1.2)
            t = rng.uniform(0.1, 10)
            scaled = cobb_douglas(j, t * k, t * ell, a, b)
            expected = t ** (a + b) * cobb_douglas(j, k, ell, a, b)
            assert scaled == pytest.approx(expected, rel=1e-9)

    def test_constant_returns_doubling(self):
        rng = random.Random(9)
        for _ in range(100):
            j = rng.uniform(0.5, 3)
            k, ell = rng.uniform(1, 500), rng.uniform(1, 500)
            a = rng.uniform(0.1, 0.9)
            doubled = cobb_douglas(j, 2 * k, 2 * ell, a, 1 - a)
            assert doubled == pytest.approx(2 * cobb_douglas(j, k, ell, a, 1 - a), rel=1e-12)


class TestAllocateOutput:
    @staticmethod
    def capacity_ten(_plant, _product):
        return 10

    def test_seventeen_splits_ten_seven(self):
        out = allocate_output({"b": 17}, ("P1", "P2"), self.capacity_ten)
        assert (out["P1"]["b"], out["P2"]["b"]) == (10, 7)

    def test_zero_demand(self):
        out = allocate_output({"b": 0}, ("P1", "P2"), self.capacity_ten)
        assert (out["P1"]["b"], out["P2"]["b"]) == (0, 0)

    def test_sixteen_splits_ten_six(self):
        out = allocate_output({"b": 16}, ("P1", "P2"), self.capacity_ten)
        assert (out["P1"]["b"], out["P2"]["b"]) == (10, 6)

    def test_insufficient_capacity(self):
        with pytest.raises(InfeasibleError, match="capacity"):
            allocate_output({"b": 21}, ("P1", "P2"), self.capacity_ten)

    def test_override_is_used_verbatim(self):
        override = {"P1": {"b": 7}, "P2": {"b": 10}}
        out = allocate_output({"b": 17}, ("P1", "P2"), self.capacity_ten, override)
        assert (out["P1"]["b"], out["P2"]["b"]) == (7, 10)

    def test_override_must_conserve(self):
        override = {"P1": {"b": 7}, "P2": {"b": 9}}
        with pytest.raises(InfeasibleError, match="demand"):
            allocate_output({"b": 17}, ("P1", "P2"), self.capacity_ten, override)

    def test_conservation_property(self):
        rng = random.Random(12)
        for _ in range(100):
            demand = {"b": rng.randint(0, 20)}
            out = allocate_output({"b": demand["b"]}, ("P1", "P2"), self.capacity_ten)
            assert out["P1"]["b"] + out["P2"]["b"] == demand["b"]
            assert 0 <= out["P1"]["b"] <= 10 and 0 <= out["P2"]["b"] <= 10


class TestPlantEconomics:
    def test_first_plant_profit(self, s8):
        econ = plant_economics(s8, "x7", "b1", 10)
        assert econ.input_cost == 370
        assert econ.net_profit == pytest.approx(11.48, abs=0.01)

    def test_zero_quantity(self, s8):
        econ = plant_economics(s8, "x7", "b1", 0)
        assert econ.total_value == 0
        assert econ.net_profit == 0

    def test_other_plant_profit(self, s8):
        econ = plant_economics(s8, "x12", "b1", 10)
        assert econ.net_profit == pytest.approx(47.82, abs=0.01)

    def test_unit_value_times_quantity_is_total(self, s8):
        for plant in s8.sites.plants:
            for product in s8.product_ids:
                econ = plant_economics(s8, plant, product, 7)
                assert econ.unit_value * econ.quantity == pytest.approx(
                    econ.total_value, abs=1e-9
                )

    def test_output_value_is_cobb_douglas_of_the_spends(self, s8):
        """Every fixture (plant, product) at every quantity up to capacity:
        the same bits as ``cobb_douglas`` over the two raws' spends."""
        checked = 0
        for plant in s8.sites.plants:
            for product in s8.product_ids:
                (a1, e1), (a2, e2) = s8.production.exponents[product].items()
                for quantity in range(11):
                    spend1, spend2 = (
                        s8.commodities[rid].purchase_price * s8.recipes[product][rid] * quantity
                        for rid in (a1, a2)
                    )
                    j = s8.production.factors[plant][product]
                    econ = plant_economics(s8, plant, product, quantity)
                    assert econ.total_value == cobb_douglas(j, spend1, spend2, e1, e2)
                    assert econ.input_cost == spend1 + spend2
                    checked += 1
        assert checked == 132

    def test_capacity_enforced(self, s8):
        with pytest.raises(InfeasibleError, match="capacity"):
            plant_economics(s8, "x7", "b1", 11)

