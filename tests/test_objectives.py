"""Property tests of the objective contract.

Over arbitrary batch objectives, a run of either algorithm either ends
with every run invariant holding (the budget law, the box, the speed cap
a non-increasing best error and a last trace row that holds the run's
evaluation count and best error) or fails with a ValueError that names
the objective.  No run emits a warning.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ampso.optimizer as optimizer_module
from ampso.optimizer import run_ampso, run_gpso
from conftest import OPERATIONS, assert_in_box_and_capped, column_sphere, configs, sphere_with, total_sphere


def _level(x):
    """A smooth reading of a batch in (-1, 1), one value per point."""
    return np.tanh(np.sum(x, axis=-1) / x.shape[-1])


# each maker takes a finite scale c and returns a batch objective; none of
# them can overflow, so any warning would come from the optimizer
OBJECTIVES = {
    "constant": lambda c: lambda x: np.full(len(x), c),
    "negative": lambda c: lambda x: -abs(c) * ((1.0 + _level(x)) / 2.0),
    "scaled": lambda c: lambda x: c * _level(x),
    "signed-zero": lambda c: lambda x: np.where(x[:, 0] > 0, 0.0, -0.0),
    "step": lambda c: lambda x: c * np.round(_level(x), 1),
    "list": lambda c: lambda x: (c * _level(x)).tolist(),
    "column": lambda c: column_sphere,
    "total": lambda c: total_sphere,
}
REJECTED = {"column", "total"}

EXTREMES = [1.7976931348623157e308, -1.7976931348623157e308, 1e308, 5e-324, -5e-324, 1e-310, 0.0, -0.0]


@settings(max_examples=200, deadline=None)
@given(
    config=configs(),
    run=st.sampled_from([run_ampso, run_gpso]),
    kind=st.sampled_from(sorted(OBJECTIVES)),
    scale=st.sampled_from(EXTREMES) | st.floats(allow_nan=False, allow_infinity=False),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**64 - 1),
)
def test_runs_hold_every_invariant_or_name_the_objective(config, run, kind, scale, d, seed):
    spec = sphere_with(d, OBJECTIVES[kind](scale))
    vmax = config.vmax_factor * spec.bounds.span

    def checking(operator, builds):
        def call(*args, **kwargs):
            out = operator(*args, **kwargs)
            assert_in_box_and_capped(out if builds else args[0], spec.bounds, vmax)
            return out

        return call

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in OPERATIONS:
            patch.setattr(optimizer_module, name, checking(getattr(optimizer_module, name), name.endswith("swarm")))
        try:
            result = run(config, spec, seed=seed)
        except ValueError as exc:
            assert kind in REJECTED, exc
            assert str(exc).startswith("objective returned shape")
            return
    assert kind not in REJECTED
    assert config.fe_budget - config.convergence_size < result.fe_used <= config.fe_budget
    assert np.all(result.best_position >= spec.bounds.lower) and np.all(result.best_position <= spec.bounds.upper)
    errors = [point.best_error for point in result.trace]
    assert errors and all(b <= a for a, b in zip(errors, errors[1:]))
    assert result.best_error == errors[-1]
    assert result.trace[-1].fe == result.fe_used
