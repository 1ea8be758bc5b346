import math

import numpy as np
import pytest

from ampso.adaptation import (
    FitnessHistory,
    evolution_rate,
    linear_inertia,
    omega_exploration,
    omega_standard,
    reconstruct_probability,
    sigma_reconstruction,
)

# raw sigmoid endpoints of the exploration law, hand-evaluated
RAW_OMEGA_AT_0 = 0.5988023952095809
RAW_OMEGA_AT_1 = 0.9556584138954346


def oracle_rate(bf: list[float], k: int) -> float:
    """Piecewise formula recomputed directly from the full trajectory."""
    t = len(bf)
    if t == 1:
        return 1.0
    prev = abs(bf[t - 2]) + 1e-12
    if t <= k:
        return (bf[0] - bf[t - 1]) / (t * prev)
    return (bf[t - 1 - k] - bf[t - 1]) / (k * prev)


def history_from(values, window=50) -> FitnessHistory:
    history = FitnessHistory(window=window)
    for v in values:
        history.record(v)
    return history


class TestEvolutionRate:
    def test_first_iteration_is_one(self):
        assert evolution_rate(history_from([123.4])) == 1.0

    def test_constant_history_is_zero(self):
        for t in range(2, 120):
            assert evolution_rate(history_from([5.0] * t)) == 0.0

    def test_windowed_hand_case(self):
        # bf(t-K)=100, bf(t-1)=92, bf(t)=90 with K=50: 10 / (50 * 92)
        values = [100.0] * 50 + [92.0, 90.0]
        rate = evolution_rate(history_from(values, window=50))
        assert rate == pytest.approx(10.0 / 4600.0, rel=1e-9)

    def test_matches_oracle_on_synthetic_histories(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(1, 60))
            length = int(rng.integers(1, 150))
            drops = rng.uniform(0, 3, size=length)
            start = float(rng.uniform(50, 150))
            values = list(start - np.cumsum(drops) + drops[0])
            history = history_from(values, window=k)
            assert evolution_rate(history) == pytest.approx(
                oracle_rate(values, k), abs=1e-12
            )

    def test_improving_then_flat_transitions_to_zero(self):
        values = [100.0 - i for i in range(30)] + [71.0] * 100
        rates = []
        for t in range(1, len(values) + 1):
            rates.append(evolution_rate(history_from(values[:t], window=20)))
        assert rates[0] == 1.0
        assert all(r >= 0.0 for r in rates)
        assert rates[10] > 0.0
        assert rates[-1] == 0.0

    def test_zero_denominator_guarded(self):
        values = [1.0, 0.0, 0.0]
        rate = evolution_rate(history_from(values, window=50))
        assert math.isfinite(rate)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            evolution_rate(FitnessHistory(window=10))


class TestOmegaExploration:
    def test_raw_formula_endpoints(self):
        raw0 = 1.0 / (1.0 + 0.67 * math.exp(-2.67 * 0.0))
        raw1 = 1.0 / (1.0 + 0.67 * math.exp(-2.67 * 1.0))
        assert raw0 == pytest.approx(RAW_OMEGA_AT_0, abs=1e-12)
        assert raw1 == pytest.approx(RAW_OMEGA_AT_1, abs=1e-12)

    def test_clamped_endpoints(self):
        assert omega_exploration(0.0) == 0.6
        assert omega_exploration(1.0) == 0.9

    def test_range_and_monotonicity_over_sweep(self):
        sweep = np.linspace(0.0, 1.0, 10_000)
        values = np.array([omega_exploration(e) for e in sweep])
        assert values.min() >= 0.6 and values.max() <= 0.9
        assert np.all(np.diff(values) >= 0.0)

    def test_marginal_inputs_clamped(self):
        assert omega_exploration(-1e-9) == omega_exploration(0.0)
        assert omega_exploration(1.0 + 1e-9) == omega_exploration(1.0)


class TestOmegaStandard:
    def test_exact_endpoints(self):
        assert omega_standard(0.0) == pytest.approx(0.5, abs=1e-12)
        assert omega_standard(1.0) == pytest.approx(0.8, abs=1e-12)

    def test_exact_midpoint(self):
        assert omega_standard(0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_range_and_monotonicity(self):
        sweep = np.linspace(0.0, 1.0, 10_000)
        values = np.array([omega_standard(e) for e in sweep])
        assert values.min() >= 0.5 and values.max() <= 0.8
        assert np.all(np.diff(values) >= 0.0)


class TestSigmaReconstruction:
    def test_exact_endpoints(self):
        assert sigma_reconstruction(0.0) == pytest.approx(0.1, abs=1e-12)
        assert sigma_reconstruction(1.0) == pytest.approx(0.2, abs=1e-12)

    def test_exact_midpoint(self):
        assert sigma_reconstruction(0.5) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_range_and_monotonicity(self):
        sweep = np.linspace(0.0, 1.0, 10_000)
        values = np.array([sigma_reconstruction(e) for e in sweep])
        assert values.min() >= 0.1 and values.max() <= 0.2
        assert np.all(np.diff(values) >= 0.0)


class TestReconstructProbability:
    def test_balanced_point(self):
        assert reconstruct_probability(2500, 25) == pytest.approx(0.5, abs=1e-12)

    def test_fresh_swarm_probability_tiny(self):
        assert reconstruct_probability(2500, 0) == pytest.approx(1.3887943864771144e-11, rel=1e-9)

    def test_strictly_increasing_in_stall_count(self):
        values = [reconstruct_probability(2500, n) for n in range(0, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_saturates_without_overflow(self):
        assert reconstruct_probability(10**9, 0) == pytest.approx(0.0, abs=1e-300)
        assert reconstruct_probability(100, 10**9) == 1.0


class TestLinearInertia:
    def test_endpoints_and_midpoint(self):
        assert linear_inertia(0, 2500) == 0.9
        assert linear_inertia(2500, 2500) == pytest.approx(0.4, abs=1e-15)
        assert linear_inertia(1250, 2500) == pytest.approx(0.65, abs=1e-15)

    def test_clamped_past_total(self):
        assert linear_inertia(3000, 2500) == pytest.approx(0.4, abs=1e-15)

    def test_same_value_as_start_end_form(self):
        # the former start=0.9, end=0.4 keywords, written into the formula in the same order
        start, end = 0.9, 0.4
        for t in range(0, 2600):
            frac = min(1.0, max(0.0, t / 2500))
            assert linear_inertia(t, 2500) == start + (end - start) * frac

