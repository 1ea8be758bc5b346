import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ampso.core import Bounds
from ampso.diversity import (
    adap_center_diversity,
    adap_pairwise_diversity,
    histogram_entropy,
    hybrid_diversity,
)
from conftest import build_swarm

TWO_BIN_ENTROPY = 0.30102999566398114  # -2 * 0.5 * log10(0.5)


def naive_center_diversity(positions, bounds):
    n, _ = positions.shape
    center = positions.mean(axis=0)
    total = 0.0
    for i in range(n):
        total += math.sqrt(sum((positions[i, k] - center[k]) ** 2 for k in range(positions.shape[1])))
    return total / (n * np.linalg.norm(bounds.span))


def naive_pairwise_diversity(positions, bounds):
    n, _ = positions.shape
    total = 0.0
    for i in range(n):
        inner = 0.0
        for j in range(n):
            inner += math.sqrt(sum((positions[i, k] - positions[j, k]) ** 2 for k in range(positions.shape[1])))
        total += inner / n
    return total / (n * np.linalg.norm(bounds.span))


def reference_reading(swarm, bounds, bins):
    """(position entropy, per-dimension entropies, fitness entropy) composed
    from histogram_entropy: each position column over its box interval, the
    fitness over its [min, max]."""
    columns = zip(swarm.positions.T, bounds.lower, bounds.upper)
    per_dim = np.array([histogram_entropy(x, (lo, hi), bins) for x, lo, hi in columns])
    fitness = swarm.current_fitness
    return float(per_dim.mean()), per_dim, histogram_entropy(fitness, (fitness.min(), fitness.max()), bins)


class TestHistogramEntropy:
    def test_identical_values(self):
        assert histogram_entropy([3.5] * 40, (0.0, 10.0), 10) == 0.0

    def test_uniform_over_bins(self):
        # 4 values at each of the 10 bin centers
        centers = np.repeat(np.arange(10) + 0.5, 4)
        assert histogram_entropy(centers, (0.0, 10.0), 10) == pytest.approx(1.0, abs=1e-12)

    def test_two_occupied_bins(self):
        values = np.array([0.05] * 20 + [0.15] * 20)
        assert histogram_entropy(values, (0.0, 1.0), 10) == pytest.approx(
            TWO_BIN_ENTROPY, abs=1e-12
        )

    def test_degenerate_range(self):
        assert histogram_entropy([1.0, 1.0], (2.0, 2.0), 10) == 0.0

    def test_upper_edge_lands_in_last_bin(self):
        assert histogram_entropy([10.0] * 5, (0.0, 10.0), 10) == 0.0

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            histogram_entropy([], (0.0, 1.0), 10)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValueError):
            histogram_entropy([1.0], (0.0, 1.0), 1)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            histogram_entropy([1.0], (1.0, 0.0), 10)


class TestPositionDiversity:
    def test_collapsed_swarm(self):
        bounds = Bounds.cube(-100.0, 100.0, 4)
        reading = hybrid_diversity(build_swarm(np.zeros((10, 4))), bounds, 10)
        assert reading.position_entropy == 0.0
        assert np.array_equal(reading.per_dimension, np.zeros(4))

    def test_one_uniform_one_collapsed_dimension(self):
        bounds = Bounds.cube(0.0, 10.0, 2)
        spread = np.arange(10) + 0.5
        positions = np.column_stack([spread, np.full(10, 5.0)])
        reading = hybrid_diversity(build_swarm(positions), bounds, 10)
        assert reading.per_dimension[0] == pytest.approx(1.0, abs=1e-12)
        assert reading.per_dimension[1] == 0.0
        assert reading.position_entropy == pytest.approx(0.5, abs=1e-12)

    def test_matches_scalar_entropy_per_dimension(self):
        rng = np.random.default_rng(0)
        bounds = Bounds(np.array([-3.0, 0.0, 5.0]), np.array([2.0, 9.0, 6.0]))
        positions = rng.uniform(bounds.lower, bounds.upper, size=(25, 3))
        per_dim = hybrid_diversity(build_swarm(positions), bounds, 7).per_dimension
        for d in range(3):
            scalar = histogram_entropy(
                positions[:, d], (bounds.lower[d], bounds.upper[d]), 7
            )
            assert per_dim[d] == scalar


class TestFitnessDiversity:
    def fitness_entropy(self, swarm):
        return hybrid_diversity(swarm, Bounds.cube(-1.0, 1.0, swarm.dimension), 10).fitness_entropy

    def test_equal_fitness(self):
        swarm = build_swarm(np.zeros((8, 2)), current_fitness=np.full(8, 3.0))
        assert self.fitness_entropy(swarm) == 0.0

    def test_uniform_fitness_bins(self):
        fitness = np.repeat(np.arange(10) + 0.5, 4)
        swarm = build_swarm(np.zeros((40, 2)), current_fitness=fitness)
        # observed range is [0.5, 9.5]; rebin against it explicitly
        assert histogram_entropy(fitness, (0.0, 10.0), 10) == pytest.approx(1.0, abs=1e-12)
        assert self.fitness_entropy(swarm) > 0.9

    def test_same_positions_different_fitness_distinguished(self):
        positions = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
        varied = build_swarm(positions, current_fitness=np.array([1.0, 5.0, 9.0, 13.0]))
        flat = build_swarm(positions, current_fitness=np.full(4, 4.0))
        assert self.fitness_entropy(varied) > 0.0
        assert self.fitness_entropy(flat) == 0.0


class TestHybridDiversity:
    def test_mean_of_components(self):
        rng = np.random.default_rng(1)
        bounds = Bounds.cube(-1.0, 1.0, 3)
        swarm = build_swarm(
            rng.uniform(-1, 1, size=(20, 3)), current_fitness=rng.uniform(0, 5, size=20)
        )
        reading = hybrid_diversity(swarm, bounds, 10)
        assert reading.hybrid == (reading.position_entropy + reading.fitness_entropy) / 2.0

    def test_half_when_positions_max_and_fitness_flat(self):
        bounds = Bounds.cube(0.0, 10.0, 1)
        positions = (np.arange(10) + 0.5)[:, None]
        swarm = build_swarm(positions, current_fitness=np.full(10, 2.0))
        reading = hybrid_diversity(swarm, bounds, 10)
        assert reading.position_entropy == pytest.approx(1.0, abs=1e-12)
        assert reading.fitness_entropy == 0.0
        assert reading.hybrid == pytest.approx(0.5, abs=1e-12)

    def test_collapsed_swarm_reads_zero(self):
        bounds = Bounds.cube(-5.0, 5.0, 2)
        swarm = build_swarm(np.ones((6, 2)), current_fitness=np.full(6, 1.5))
        reading = hybrid_diversity(swarm, bounds, 10)
        assert reading.hybrid == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "fitness",
        [
            [-1e308, 1e308, 0.0, 3.0],  # max - min overflows
            [-1.7976931348623157e308, 1.7976931348623157e308, 1e308, -1e308],
            [0.0, 5e-324, 1e-323, 0.0],  # bins / (max - min) overflows
            [1e-310, -1e-310, 0.0, 2e-310],
        ],
    )
    def test_fitness_range_past_the_float_range(self, fitness):
        # such a range is binned as the fitness over its largest magnitude
        fitness = np.array(fitness)
        scaled = fitness / np.abs(fitness).max()
        reading = hybrid_diversity(build_swarm(np.zeros((4, 2)), fitness), Bounds.cube(-1.0, 1.0, 2), 10)
        assert 0.0 < reading.fitness_entropy <= 1.0
        assert reading.fitness_entropy == histogram_entropy(scaled, (scaled.min(), scaled.max()), 10)


class TestAdapMetrics:
    def test_collapsed_swarm_zero(self):
        bounds = Bounds.cube(-10.0, 10.0, 3)
        swarm = build_swarm(np.full((7, 3), 2.0))
        assert adap_center_diversity(swarm, bounds) == 0.0
        assert adap_pairwise_diversity(swarm, bounds) == 0.0

    def test_opposite_corners(self):
        bounds = Bounds.cube(-100.0, 100.0, 4)
        positions = np.vstack([bounds.lower, bounds.upper])
        swarm = build_swarm(positions)
        assert adap_center_diversity(swarm, bounds) == pytest.approx(0.5, abs=1e-12)

    def test_center_matches_naive(self):
        rng = np.random.default_rng(2)
        bounds = Bounds.cube(-50.0, 50.0, 5)
        for _ in range(1000):
            positions = rng.uniform(-50, 50, size=(rng.integers(2, 20), 5))
            swarm = build_swarm(positions)
            fast = adap_center_diversity(swarm, bounds)
            assert fast == pytest.approx(naive_center_diversity(positions, bounds), abs=1e-12)

    def test_pairwise_matches_naive(self):
        rng = np.random.default_rng(3)
        bounds = Bounds.cube(-50.0, 50.0, 4)
        for _ in range(1000):
            positions = rng.uniform(-50, 50, size=(rng.integers(2, 15), 4))
            swarm = build_swarm(positions)
            fast = adap_pairwise_diversity(swarm, bounds)
            assert fast == pytest.approx(naive_pairwise_diversity(positions, bounds), abs=1e-12)

    def test_pairwise_permutation_invariant(self):
        rng = np.random.default_rng(4)
        bounds = Bounds.cube(-10.0, 10.0, 3)
        positions = rng.uniform(-10, 10, size=(9, 3))
        base = adap_pairwise_diversity(build_swarm(positions), bounds)
        shuffled = adap_pairwise_diversity(build_swarm(positions[rng.permutation(9)]), bounds)
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_equal_mutual_distances_still_positive(self):
        # three points pairwise sqrt(2) apart: a distance-difference entropy
        # would read 0 here, the distance metrics stay informative
        positions = np.eye(3)
        bounds = Bounds.cube(-1.0, 1.0, 3)
        assert adap_pairwise_diversity(build_swarm(positions), bounds) > 0.0


class TestEntropyProperties:
    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(5)
        bounds = Bounds.cube(-20.0, 20.0, 3)
        for _ in range(10_000):
            n = int(rng.integers(2, 12))
            positions = rng.uniform(-20, 20, size=(n, 3))
            fitness = rng.uniform(-5, 5, size=n)
            reading = hybrid_diversity(build_swarm(positions, fitness), bounds, 10)
            assert 0.0 <= reading.position_entropy <= 1.0
            assert 0.0 <= reading.fitness_entropy <= 1.0
            assert 0.0 <= reading.hybrid <= 1.0
            assert np.all(reading.per_dimension >= 0.0) and np.all(reading.per_dimension <= 1.0)

    def test_permutation_invariance_of_every_metric(self):
        rng = np.random.default_rng(6)
        bounds = Bounds.cube(-20.0, 20.0, 4)
        for _ in range(200):
            n = int(rng.integers(2, 15))
            positions = rng.uniform(-20, 20, size=(n, 4))
            fitness = rng.uniform(0, 9, size=n)
            order = rng.permutation(n)
            a = hybrid_diversity(build_swarm(positions, fitness), bounds, 8)
            b = hybrid_diversity(build_swarm(positions[order], fitness[order]), bounds, 8)
            assert a.position_entropy == b.position_entropy
            assert a.fitness_entropy == b.fitness_entropy
            assert adap_center_diversity(build_swarm(positions), bounds) == pytest.approx(
                adap_center_diversity(build_swarm(positions[order]), bounds), abs=1e-12
            )


# one box per dimension for the whole session: its cached row blocks then
# serve swarms of every size and bin count drawn below
BOXES = {d: Bounds.cube(-5.0, 5.0, d) for d in (1, 10, 100)}


@st.composite
def swarm_cases(draw):
    """Random swarms over [-5, 5]^D with edge values, collapse, flat fitness
    and fitness ranges past the float range."""
    n = draw(st.sampled_from([1, 5, 30, 40]))
    d = draw(st.sampled_from([1, 10, 100]))
    bins = draw(st.integers(2, 20))
    coordinate = st.one_of(st.sampled_from([-5.0, 5.0, 0.0]), st.floats(-5.0, 5.0))
    positions = draw(arrays(np.float64, (n, d), elements=coordinate))
    if draw(st.booleans()):
        positions[:] = positions[0]
    extreme = st.sampled_from([-1.7976931348623157e308, 1.7976931348623157e308, 5e-324, -5e-324])
    fitness = draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6) | extreme))
    if draw(st.booleans()):
        fitness[:] = fitness[0]
    return BOXES[d], build_swarm(positions, fitness), bins


class TestFusedHybridMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(swarm_cases())
    def test_equal_field_by_field(self, case):
        bounds, swarm, bins = case
        e_pos, per_dim, e_fit = reference_reading(swarm, bounds, bins)
        reading = hybrid_diversity(swarm, bounds, bins)
        assert reading.position_entropy == e_pos
        assert reading.fitness_entropy == e_fit
        assert reading.hybrid == (e_pos + e_fit) / 2.0
        assert np.array_equal(reading.per_dimension, per_dim)
        # traces write repr(hybrid), so even the sign of a zero must match
        assert repr(reading.position_entropy) == repr(e_pos)
        assert repr(reading.fitness_entropy) == repr(e_fit)
        assert repr(reading.hybrid) == repr((e_pos + e_fit) / 2.0)
        assert np.array_equal(np.signbit(reading.per_dimension), np.signbit(per_dim))
