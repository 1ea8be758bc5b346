import gc
import math
import re

import numpy as np
import pytest

import ampso.optimizer as optimizer_module
from ampso.benchmarks import REGISTRY, make_spec
from ampso.core import Bounds, ObjectiveSpec
from ampso.optimizer import (
    CONVERGENCE,
    EXPLOITATION,
    EXPLORATION,
    AmpsoConfig,
    ConfigError,
    run_ampso,
    run_gpso,
)
from conftest import column_sphere, half_inf_sphere, half_nan_sphere, scaling_sphere, sphere_with, total_sphere


def phase_word(span) -> str:
    return {EXPLORATION: "R", EXPLOITATION: "X", CONVERGENCE: "C"}[span.phase]


def assert_phase_grammar(phase_log):
    word = "".join(phase_word(span) for span in phase_log)
    assert re.fullmatch(r"(RX)+C", word), f"phase sequence {word!r} breaks the grammar"


@pytest.fixture(scope="module")
def default_d10_run():
    """A default D=10 run (2500 iterations) and the n_worst of every partial rebuild."""
    n_worst = []
    real = optimizer_module.partial_reconstruct

    def spy(swarm, n, *args):
        n_worst.append(n)
        real(swarm, n, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer_module, "partial_reconstruct", spy)
        result = run_ampso(AmpsoConfig(), make_spec("rastrigin", 10), seed=0)
    return result, n_worst


class TestConfig:
    def test_plan_matches_stated_defaults(self, default_d10_run):
        # 2% of 2500 iterations per exploration block, exploitation capped at
        # 20%, and a quarter of the 40-particle exploitation swarm rebuilt
        result, n_worst = default_d10_run
        first = result.phase_log[0]
        assert first.phase == EXPLORATION
        rows = [p for p in result.trace if p.fe <= first.end_fe]
        assert [p.iteration for p in rows] == list(range(51))  # the initial row, then 50 iterations
        for span in result.phase_log:
            if span.phase == EXPLOITATION:
                assert 0 < sum(1 for p in result.trace if span.start_fe < p.fe <= span.end_fe) <= 500
        assert n_worst and set(n_worst) == {10}

    def test_budget_defaults_to_dimension_rule(self):
        assert AmpsoConfig().resolved_budget(30) == 300_000
        assert AmpsoConfig(fe_budget=1234).resolved_budget(30) == 1234

    def test_sub_swarm_size_must_divide(self):
        with pytest.raises(ConfigError):
            AmpsoConfig(exploration_size=10, sub_swarm_size=4).validate()

    def test_replace_ratio_limits(self):
        with pytest.raises(ConfigError):
            AmpsoConfig(replace_ratio=0.0).validate()
        with pytest.raises(ConfigError):
            AmpsoConfig(replace_ratio=1.0).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"entropy_bins": 12.5},
            {"rate_window": True},
            {"exploitation_size": "40"},
            {"fe_budget": 2000.0},
            {"seed": False},
            {"c1": "1.5"},
            {"c1": True},
            {"vmax_factor": math.nan},
            {"stagnation_threshold": math.inf},
        ],
    )
    def test_mistyped_fields_rejected(self, overrides):
        with pytest.raises(ConfigError, match=next(iter(overrides))):
            AmpsoConfig(**overrides).validate()

    def test_numeric_types_accepted(self):
        AmpsoConfig(entropy_bins=np.int64(12), c1=2, vmax_factor=np.float64(0.02), fe_budget=None).validate()

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            AmpsoConfig().with_overrides(bogus=1)

    @pytest.mark.parametrize("run, budget", [(run_ampso, 5), (run_gpso, 25)])
    def test_budget_below_first_swarm_rejected(self, run, budget):
        spec = make_spec("sphere", 3)
        with pytest.raises(ConfigError, match="fe_budget"):
            run(AmpsoConfig(fe_budget=budget), spec, seed=0)
        floor = max(AmpsoConfig().exploration_size, AmpsoConfig().convergence_size)
        with pytest.raises(ConfigError, match="fe_budget"):
            AmpsoConfig(fe_budget=floor - 1).validate()
        result = run(AmpsoConfig(fe_budget=floor), spec, seed=0)
        assert 0 < result.fe_used <= floor
        assert math.isfinite(result.best_error) and result.trace

    @pytest.mark.parametrize("seed", [1.7, True, "5"])
    @pytest.mark.parametrize("run", [run_ampso, run_gpso])
    def test_mistyped_seed_argument_rejected_before_any_evaluation(self, run, seed):
        # the run's seed argument gets the same check as the config's seed field
        calls = []
        spec = sphere_with(3, lambda x: calls.append(len(x)) or np.sum(x * x, axis=-1))
        with pytest.raises(ConfigError, match="seed must be an integer"):
            run(AmpsoConfig(fe_budget=2000), spec, seed=seed)
        assert not calls

    def test_invalid_config_rejected_before_any_evaluation(self):
        spec = make_spec("sphere", 3)
        calls = {"n": 0}
        inner = spec.function

        def spy(block):
            calls["n"] += 1
            return inner(block)

        spec.function = spy
        with pytest.raises(ConfigError):
            run_ampso(AmpsoConfig(sub_swarm_size=3), spec, seed=0)
        assert calls["n"] == 0


@pytest.fixture(scope="module")
def small_run():
    spec = make_spec("rastrigin", 4)
    config = AmpsoConfig(fe_budget=12_000)
    return config, spec, run_ampso(config, spec, seed=11)


@pytest.fixture(scope="module")
def sphere_run():
    spec = make_spec("sphere", 10)
    config = AmpsoConfig()
    return config, spec, run_gpso(config, spec, seed=5)


class TestRunAmpso:
    def test_determinism(self, small_run):
        config, spec, result = small_run
        again = run_ampso(config, spec, seed=11)
        assert again.fe_used == result.fe_used
        assert np.array_equal(again.best_position, result.best_position)
        assert [p.fe for p in again.trace] == [p.fe for p in result.trace]
        assert [p.best_error for p in again.trace] == [p.best_error for p in result.trace]

    def test_budget_law(self, small_run):
        config, spec, result = small_run
        budget = config.resolved_budget(spec.dimension)
        assert budget - config.convergence_size < result.fe_used <= budget

    def test_phase_grammar(self, small_run):
        _, _, result = small_run
        assert_phase_grammar(result.phase_log)

    def test_phase_spans_tile_the_run(self, small_run):
        _, _, result = small_run
        assert result.phase_log[0].start_fe == 0
        for before, after in zip(result.phase_log, result.phase_log[1:]):
            assert before.end_fe == after.start_fe
        assert result.phase_log[-1].end_fe == result.fe_used

    def test_trace_fe_strictly_increasing(self, small_run):
        _, _, result = small_run
        fes = [p.fe for p in result.trace]
        assert all(b > a for a, b in zip(fes, fes[1:]))

    def test_trace_best_error_non_increasing(self, small_run):
        _, _, result = small_run
        errors = [p.best_error for p in result.trace]
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_best_error_matches_position(self, small_run):
        _, spec, result = small_run
        value = float(spec.function(result.best_position[None, :])[0])
        assert value - spec.optimum_value == result.best_error

    def test_exploitation_iterations_cost_swarm_size(self, small_run):
        config, _, result = small_run
        for span in result.phase_log:
            if span.phase != EXPLOITATION:
                continue
            rows = [p for p in result.trace if span.start_fe < p.fe <= span.end_fe]
            # first iteration lands one spawn plus one iteration after the start
            assert rows[0].fe == span.start_fe + 2 * config.exploitation_size
            for a, b in zip(rows, rows[1:]):
                assert b.fe - a.fe == config.exploitation_size

    def test_exploration_iterations_cost_exploration_size(self, small_run):
        config, _, result = small_run
        for span in result.phase_log:
            if span.phase != EXPLORATION:
                continue
            rows = [p for p in result.trace if span.start_fe < p.fe <= span.end_fe]
            for a, b in zip(rows, rows[1:]):
                assert b.fe - a.fe == config.exploration_size

    def test_convergence_starts_after_a_third_of_iterations(self, small_run):
        config, spec, result = small_run
        total_iterations = config.resolved_budget(spec.dimension) // config.convergence_size
        convergence_start = next(s.start_fe for s in result.phase_log if s.phase == CONVERGENCE)
        pre_convergence_iters = sum(
            1 for p in result.trace if p.fe <= convergence_start and not math.isnan(p.omega)
        )
        assert pre_convergence_iters > total_iterations / 3

    def test_diversity_and_omega_ranges(self, small_run):
        _, _, result = small_run
        for point in result.trace:
            if not math.isnan(point.diversity):
                assert 0.0 <= point.diversity <= 1.0
            if not math.isnan(point.omega):
                assert 0.5 <= point.omega <= 0.9

    def test_positions_within_bounds_at_checkpoints(self, monkeypatch):
        spec = make_spec("ackley", 3)
        config = AmpsoConfig(fe_budget=6000)
        checked = {"n": 0}
        real_step = optimizer_module.pso_step

        def checked_step(swarm, *args, **kwargs):
            real_step(swarm, *args, **kwargs)
            checked["n"] += 1
            assert np.all(swarm.positions >= spec.bounds.lower)
            assert np.all(swarm.positions <= spec.bounds.upper)

        monkeypatch.setattr(optimizer_module, "pso_step", checked_step)
        run_ampso(config, spec, seed=3)
        assert checked["n"] >= 100

    def test_different_seeds_diverge(self):
        spec = make_spec("rastrigin", 3)
        config = AmpsoConfig(fe_budget=4000)
        a = run_ampso(config, spec, seed=1)
        b = run_ampso(config, spec, seed=2)
        assert not np.array_equal(a.best_position, b.best_position)

    def test_seed_falls_back_to_config(self):
        spec = make_spec("sphere", 2)
        config = AmpsoConfig(fe_budget=2000, seed=77)
        a = run_ampso(config, spec)
        b = run_ampso(config, spec, seed=77)
        assert np.array_equal(a.best_position, b.best_position)


@pytest.mark.parametrize(
    "overrides",
    [
        # exploitation blocks capped at 0 iterations, then a trailing exploration block that runs none
        dict(exploration_size=1, sub_swarm_size=1, exploitation_size=2, convergence_size=4, fe_budget=7),
        # a convergence swarm spawned with no budget left to step it
        dict(exploration_size=2, sub_swarm_size=2, exploitation_size=2, convergence_size=6, fe_budget=12),
    ],
)
def test_last_trace_row_covers_every_evaluation(overrides):
    config = AmpsoConfig(exploration_ratio=0.0, replace_ratio=0.5, **overrides)
    result = run_ampso(config, make_spec("sphere", 1), seed=0)
    assert result.trace[-1].fe == result.fe_used
    assert result.trace[-1].best_error == result.best_error
    assert result.trace[-1].phase == result.phase_log[-1].phase
    assert [p.fe for p in result.trace] == sorted({p.fe for p in result.trace})


def test_exploration_mean_is_numpy_mean_bit_for_bit():
    # numpy sums eight or more values pairwise, not left to right
    rng = np.random.default_rng(0)
    for k in range(1, 300):
        for values in (rng.random(k), rng.normal(size=k) * 10.0 ** rng.integers(-300, 300, k)):
            values = values.tolist()
            assert repr(optimizer_module._mean(values)) == repr(float(np.mean(values))), k
    for values in ([-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0] * 9, [5e-324, -5e-324, 5e-324]):
        assert repr(optimizer_module._mean(values)) == repr(float(np.mean(values)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run", [run_ampso, run_gpso])
def test_box_too_narrow_for_the_grid_rejected_before_any_evaluation(run):
    calls = []
    spec = sphere_with(2, lambda x: calls.append(len(x)) or np.sum(x * x, axis=-1))
    spec.bounds = Bounds(np.zeros(2), np.array([1.0, 1e-308]))
    with pytest.raises(ValueError, match="wide enough for 10 bins"):
        run(AmpsoConfig(fe_budget=3000), spec, seed=0)
    assert not calls


class TestPhaseBoundaries:
    def test_phase_boundary_resets_swarm_local_counters(self, small_run):
        _, _, result = small_run
        # the run's iteration count survives every boundary: one row per iteration
        assert [p.iteration for p in result.trace] == list(range(len(result.trace)))
        # each exploitation and convergence swarm starts a fresh fitness history,
        # whose first evolution rate is 1
        firsts = 0
        for span in result.phase_log:
            rows = [p for p in result.trace if span.start_fe < p.fe <= span.end_fe]
            if span.phase != EXPLORATION and rows:
                assert rows[0].phase == span.phase
                assert rows[0].er == 1.0
                firsts += 1
        assert firsts >= 2


class TestRunGpso:
    def test_determinism(self, sphere_run):
        config, spec, result = sphere_run
        again = run_gpso(config, spec, seed=5)
        assert again.best_error == result.best_error
        assert [p.fe for p in again.trace] == [p.fe for p in result.trace]

    def test_final_error_beats_initial_swarm(self, sphere_run):
        _, _, result = sphere_run
        assert result.best_error < result.trace[0].best_error

    def test_budget_law(self, sphere_run):
        config, spec, result = sphere_run
        budget = config.resolved_budget(spec.dimension)
        assert budget - config.convergence_size < result.fe_used <= budget

    def test_iteration_cost_is_swarm_size(self, sphere_run):
        config, _, result = sphere_run
        fes = [p.fe for p in result.trace]
        assert all(b - a == config.convergence_size for a, b in zip(fes, fes[1:]))

    def test_single_phase_log(self, sphere_run):
        _, _, result = sphere_run
        assert [s.phase for s in result.phase_log] == ["gpso"]


@pytest.mark.parametrize("run", [run_ampso, run_gpso])
def test_nan_objective_rejected(run):
    with pytest.raises(ValueError, match=r"objective returned NaN for \d+ of \d+ points"):
        run(AmpsoConfig(fe_budget=3000), half_nan_sphere(2), seed=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run", [run_ampso, run_gpso])
def test_infinite_objective_rejected(run):
    # an infinite fitness would make the diversity reading multiply inf by 0 and bin the NaN
    with pytest.raises(ValueError, match=r"objective returned an infinite value for \d+ of \d+ points"):
        run(AmpsoConfig(fe_budget=3000), half_inf_sphere(2), seed=0)


@pytest.mark.parametrize("run", [run_ampso, run_gpso])
def test_objective_cannot_move_the_swarm(run):
    # scaling its input in place would move the swarm out of the box and
    # leave best_error describing a point other than best_position
    spec = ObjectiveSpec(3, Bounds.cube(-1.0, 1.0, 3), scaling_sphere)
    with pytest.raises(ValueError, match="^objective wrote into its read-only input: "):
        run(AmpsoConfig(fe_budget=3000), spec, seed=0)


@pytest.mark.parametrize("objective, shape", [(total_sphere, r"\(\)"), (column_sphere, r"\(\d+, 1\)")])
@pytest.mark.parametrize("run", [run_ampso, run_gpso])
def test_wrong_result_shape_rejected(run, objective, shape):
    with pytest.raises(ValueError, match=rf"^objective returned shape {shape} for \d+ points; expected \(\d+,\)$"):
        run(AmpsoConfig(fe_budget=3000), sphere_with(2, objective), seed=0)


def test_operands_never_cross_between_boxes():
    # same dimension, different boxes: every run must match a first run on a fresh spec,
    # however often specs are dropped and rebuilt in between
    boxes = {"wide": Bounds.cube(-100.0, 100.0, 3), "narrow": Bounds(np.full(3, -5.0), np.array([5.0, 2.0, 7.0]))}
    config = AmpsoConfig(fe_budget=2000)

    def fresh(name, run):
        bounds = boxes[name]
        spec = ObjectiveSpec(3, Bounds(bounds.lower, bounds.upper), REGISTRY["rastrigin"].function)
        return run(config, spec, seed=5)

    expected = {(name, run): fresh(name, run) for name in boxes for run in (run_ampso, run_gpso)}
    for _ in range(3):
        for (name, run), reference in expected.items():
            result = fresh(name, run)
            gc.collect()
            # repr: NaN columns compare equal, and so must the sign of every zero
            assert [tuple(map(repr, p)) for p in result.trace] == [tuple(map(repr, p)) for p in reference.trace]
            assert np.array_equal(result.best_position, reference.best_position)
            assert result.best_error == reference.best_error
