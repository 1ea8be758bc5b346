"""Scalar control laws that steer the optimizer.

Three sigmoid maps translate the hybrid diversity reading into an inertia
weight (one law per swarm role) and a reconstruction spread; a windowed
evolution rate detects stagnation; a logistic probability decides when
the convergence swarm is rebuilt wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FitnessHistory",
    "evolution_rate",
    "omega_exploration",
    "omega_standard",
    "sigma_reconstruction",
    "reconstruct_probability",
    "linear_inertia",
]

_DENOM_EPS = 1e-12
_EXP_LIMIT = 700.0  # exp() overflows just above this in float64


@dataclass
class FitnessHistory:
    """Best-fitness trajectory of one swarm, indexed from iteration 1.

    ``window`` is the comparison span of the evolution rate.  The values
    are non-increasing because a swarm's global best only improves.
    """

    window: int
    values: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be a positive integer")

    def record(self, best_fitness: float) -> None:
        self.values.append(float(best_fitness))


def evolution_rate(history: FitnessHistory) -> float:
    """Windowed relative improvement of the best fitness.

    With bf the recorded trajectory and K the history's window:

        t = 1       -> 1
        t <= K      -> (bf(1) - bf(t))     / (t * bf(t-1))
        t >  K      -> (bf(t-K) - bf(t))   / (K * bf(t-1))

    The denominator uses |bf(t-1)| + 1e-12: recorded values may reach 0
    on error-form benchmarks, and user objectives may go negative.
    """
    k = history.window
    bf = history.values  # bf[t - 1] is the record of iteration t
    t = len(bf)
    if t == 0:
        raise ValueError("history is empty")
    if t == 1:
        return 1.0
    if t <= k:
        gain = bf[0] - bf[t - 1]
        steps = t
    else:
        gain = bf[t - k - 1] - bf[t - 1]
        steps = k
    return gain / (steps * (abs(bf[t - 2]) + _DENOM_EPS))


def _unit_clamp(e: float) -> float:
    return min(1.0, max(0.0, float(e)))


def omega_exploration(e: float) -> float:
    """Exploration inertia: sigmoid of diversity, clamped into [0.6, 0.9].

    The paper's raw map 1/(1 + 0.67*exp(-2.67*e)) overshoots that range
    slightly at e = 1 (~0.956), so the output is clamped rather than the
    constants rewritten.
    """
    raw = 1.0 / (1.0 + 0.67 * np.exp(-2.67 * _unit_clamp(e)))
    return min(0.9, max(0.6, float(raw)))


def omega_standard(e: float) -> float:
    """Exploitation/convergence inertia: 1/(1 + 4^-e), exactly [0.5, 0.8]."""
    return float(1.0 / (1.0 + 4.0 ** -_unit_clamp(e)))


def sigma_reconstruction(e: float) -> float:
    """Reconstruction spread: 1/(1 + 9*(4/9)^e), exactly [0.1, 0.2]."""
    return float(1.0 / (1.0 + 9.0 * (4.0 / 9.0) ** _unit_clamp(e)))


def reconstruct_probability(total_iterations: int, stalled_iterations: int) -> float:
    """Probability of rebuilding the convergence swarm after stalling.

    Logistic in the stall count: 1/(1 + exp(0.01*total - stalled)).  The
    exponent is clipped to +-700 so extreme arguments saturate to 0 or 1
    instead of overflowing.
    """
    exponent = 0.01 * total_iterations - stalled_iterations
    exponent = min(_EXP_LIMIT, max(-_EXP_LIMIT, exponent))
    return float(1.0 / (1.0 + np.exp(exponent)))


def linear_inertia(iteration: int, total: int) -> float:
    """Linearly decreasing inertia for the baseline: 0.9 at 0, 0.4 at total."""
    if total < 1:
        raise ValueError("total must be a positive integer")
    frac = min(1.0, max(0.0, iteration / total))
    return 0.9 + (0.4 - 0.9) * frac
