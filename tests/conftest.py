import numpy as np

from ampso.core import Swarm


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
        global_best_position=positions[best].copy(),
        global_best_fitness=float(current_fitness[best]),
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

    def uniform(self, low=0.0, high=1.0, size=None):
        span = high - low
        if size is None:
            return low + span * self.uniform_value
        return low + span * np.full(size, self.uniform_value, dtype=float)

    def normal(self, mean=0.0, sd=1.0, size=None):
        if size is None:
            return mean + sd * self.normal_value
        return mean + sd * np.full(size, self.normal_value, dtype=float)

    def integers(self, low, high, size=None):
        value = min(max(self.integer_value, low), high - 1)
        if size is None:
            return value
        return np.full(size, value, dtype=np.intp)

    def permutation(self, n):
        return np.arange(n)
