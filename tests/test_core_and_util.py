"""Tests for the high-level API (core) and shared utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultTolerancePlanner, LogicalMemory, UnencodedMemory
from repro.noise import NoiseModel
from repro.util import (
    as_rng,
    binomial_confidence,
    fit_power_law,
    logical_error_per_round,
    wilson_interval,
)


class TestRngPlumbing:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seeds_deterministically(self):
        a = as_rng(42).random(5)
        b = as_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen


class TestStats:
    def test_wilson_contains_truth(self):
        low, high = wilson_interval(50, 1000)
        assert low < 0.05 < high

    def test_wilson_zero_failures(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0
        assert 0 < high < 0.01

    def test_wilson_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    def test_binomial_confidence_triplet(self):
        est, low, high = binomial_confidence(10, 100)
        assert low <= est <= high

    @given(st.floats(0.5, 3.0), st.floats(1e-6, 1e-2))
    @settings(max_examples=30)
    def test_power_law_fit_recovers(self, k, a):
        x = np.array([1e-4, 3e-4, 1e-3, 3e-3])
        y = a * x**k
        a_fit, k_fit = fit_power_law(x, y)
        assert k_fit == pytest.approx(k, rel=1e-6)
        assert a_fit == pytest.approx(a, rel=1e-6)

    def test_power_law_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0]), np.array([1.0]))

    def test_per_round_conversion_roundtrip(self):
        p_round = 0.01
        rounds = 7
        p_total = 1 - (1 - p_round) ** rounds
        assert logical_error_per_round(p_total, rounds) == pytest.approx(p_round)

    def test_per_round_validation(self):
        with pytest.raises(ValueError):
            logical_error_per_round(0.5, 0)
        with pytest.raises(ValueError):
            logical_error_per_round(1.5, 3)


class TestLogicalMemoryAPI:
    def test_ideal_method(self):
        mem = LogicalMemory(code="steane", method="ideal", eps=1e-3)
        result = mem.run(rounds=2, shots=20_000, seed=0)
        assert result.failure_rate < 1e-3

    def test_ideal_method_runs_an_explicit_noise_model(self):
        """``eps`` is ignored when a noise model is given, so a model with
        no storage noise runs noiseless whatever ``eps`` says."""
        mem = LogicalMemory(code="steane", method="ideal", eps=0.05, noise=NoiseModel())
        assert mem.run(rounds=1, shots=20_000, seed=1).failures == 0

    def test_steane_method_runs(self):
        mem = LogicalMemory(code="steane", method="steane", eps=1e-3)
        result = mem.run(rounds=1, shots=2000, seed=0)
        assert 0 <= result.failure_rate < 0.1

    def test_shor_method_five_qubit(self):
        mem = LogicalMemory(code="five_qubit", method="shor", eps=5e-4)
        result = mem.run(rounds=1, shots=1000, seed=0)
        assert 0 <= result.failure_rate < 0.2

    def test_breakeven_below_pseudothreshold(self):
        mem = LogicalMemory(code="steane", method="steane", eps=5e-5)
        assert mem.breakeven(shots=50_000, seed=1)

    def test_breakeven_compares_under_the_explicit_noise_model(self):
        """The bare qubit sees the storage noise the encoded one runs
        under: with no storage noise neither fails, so encoding does not
        win (it used to compare 0 failures against a bare rate of eps)."""
        mem = LogicalMemory(code="steane", method="ideal", eps=0.05, noise=NoiseModel())
        assert mem.breakeven(shots=2000, seed=0) is False

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            LogicalMemory(code="nope")
        with pytest.raises(ValueError):
            LogicalMemory(method="nope")
        with pytest.raises(ValueError):
            LogicalMemory(code="five_qubit", method="steane")

    def test_unencoded_rate_matches_eps(self):
        bare = UnencodedMemory(0.01).run(1, 100_000, seed=2)
        assert bare.failure_rate == pytest.approx(0.01, abs=0.002)

    def test_unencoded_validation(self):
        with pytest.raises(ValueError):
            UnencodedMemory(1.5)


class TestPlannerIntegration:
    def test_planner_end_to_end(self):
        planner = FaultTolerancePlanner()
        plan = planner.factoring_plan(1e-6)
        assert plan.meets_target()
        assert plan.total_qubits > plan.data_qubits / 2

    def test_levels_monotone_in_target(self):
        planner = FaultTolerancePlanner()
        assert planner.levels_for(1e-3, 1e-15) >= planner.levels_for(1e-3, 1e-6)
