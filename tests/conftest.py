import numpy as np
from hypothesis import strategies as st

from ampso.benchmarks import make_spec
from ampso.core import Swarm
from ampso.optimizer import AmpsoConfig


OPERATIONS = ["initialize_swarm", "spawn_artificial_swarm", "pso_step", "partial_reconstruct", "full_reconstruct"]


def assert_in_box_and_capped(swarm, bounds, vmax):
    assert np.all(swarm.positions >= bounds.lower) and np.all(swarm.positions <= bounds.upper)
    assert np.all(np.abs(swarm.velocities) <= vmax)


def build_swarm(positions, current_fitness=None) -> Swarm:
    """Swarm with consistent state from a position block (tests only)."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if current_fitness is None:
        current_fitness = np.arange(n, dtype=float)
    current_fitness = np.asarray(current_fitness, dtype=float)
    best = int(np.argmin(current_fitness))
    return Swarm(
        positions=positions.copy(),
        velocities=np.zeros_like(positions),
        best_positions=positions.copy(),
        best_fitness=current_fitness.copy(),
        current_fitness=current_fitness.copy(),
        global_best_position=positions[best : best + 1].copy(),
        global_best_fitness=[float(current_fitness[best])],
    )


class StubRng:
    """Fixed-value stand-in for RngStream.

    ``uniform_value``/``normal_value`` fill whole blocks; ``integer_value``
    answers every integers() call; permutations come back in order.
    """

    def __init__(self, uniform_value=0.5, normal_value=0.0, integer_value=0):
        self.uniform_value = uniform_value
        self.normal_value = normal_value
        self.integer_value = integer_value

    def _fill(self, value, size):
        if size is None:
            return value
        return np.full(size, value, dtype=float)

    def uniform(self, size=None):
        return self._fill(self.uniform_value, size)

    def normal(self, mean=0.0, sd=1.0, size=None):
        if size is None:
            return mean + sd * self.normal_value
        return mean + sd * np.full(size, self.normal_value, dtype=float)

    def integers(self, high, size=None):
        value = min(max(self.integer_value, 0), high - 1)
        if size is None:
            return value
        return np.full(size, value, dtype=np.intp)

    def permutation(self, n):
        return np.arange(n)


def sphere_with(dim: int, function):
    """The sphere's spec on its default box, with ``function`` as the objective."""
    spec = make_spec("sphere", dim)
    spec.function = function
    return spec


def half_nan_sphere(dim: int):
    """The sphere on its default box, with a NaN objective wherever x0 > 0."""
    return sphere_with(dim, lambda x: np.where(x[..., 0] > 0, np.nan, np.sum(x * x, axis=-1)))


def half_inf_sphere(dim: int):
    """The sphere on its default box, with a +inf objective wherever x0 > 0."""
    return sphere_with(dim, lambda x: np.where(x[..., 0] > 0, np.inf, np.sum(x * x, axis=-1)))


def scaling_sphere(x):
    """Scales its input in place, then returns the sphere of the result."""
    x *= 1000.0
    return np.sum(x * x, axis=-1)


def column_sphere(x):
    """The sphere as an (n, 1) column instead of one value per point."""
    return np.sum(x * x, axis=-1, keepdims=True)


def total_sphere(x):
    """One number for the whole batch instead of one value per point."""
    return np.float64(np.sum(x * x))


@st.composite
def configs(draw):
    """Valid configs with small swarms, budgets from the floor up to 3000."""
    sub = draw(st.integers(1, 5))
    exploration_size = sub * draw(st.integers(1, 4))
    exploitation_size = draw(st.integers(2, 40))
    convergence_size = draw(st.integers(4, 40))
    floor = max(exploration_size, convergence_size)
    config = AmpsoConfig(
        exploration_size=exploration_size,
        sub_swarm_size=sub,
        exploitation_size=exploitation_size,
        convergence_size=convergence_size,
        exploration_ratio=draw(st.floats(0.0, 0.2)),
        exploitation_ratio=draw(st.floats(0.0, 0.5)),
        replace_ratio=draw(st.integers(1, exploitation_size - 1)) / exploitation_size,
        stagnation_threshold=draw(st.floats(0.0, 0.01)),
        rate_window=draw(st.integers(1, 60)),
        entropy_bins=draw(st.integers(2, 20)),
        vmax_factor=draw(st.floats(0.001, 0.2)),
        fe_budget=draw(st.integers(floor, 3000)),
    )
    config.validate()
    return config
