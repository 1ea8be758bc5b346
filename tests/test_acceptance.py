"""Acceptance gate: every shipped behavior checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion.  The comparative-performance campaign (criteria 9-10) is
the slow part: 2 algorithms x 3 functions x 30 seeded runs of 100000
evaluations, executed twice to check byte-level reproducibility.
"""

import csv
import json
import math
import re

import numpy as np
import pytest

import ampso.optimizer as optimizer_module
from ampso.adaptation import FitnessHistory, evolution_rate, omega_standard, sigma_reconstruction
from ampso.benchmarks import make_spec
from ampso.core import Bounds, EvalCounter, RngStream
from ampso.diversity import (
    adap_center_diversity,
    adap_pairwise_diversity,
    histogram_entropy,
    hybrid_diversity,
)
from ampso.harness import CampaignSpec, run_campaign, write_campaign_outputs
from ampso.optimizer import AmpsoConfig, run_ampso
from ampso.swarm_ops import full_reconstruct, partial_reconstruct, spawn_artificial_swarm

from conftest import build_swarm
from test_adaptation import oracle_rate
from test_diversity import naive_center_diversity, naive_pairwise_diversity


def report(number: int, description: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number:>2}: {description}")
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def campaign_twice(tmp_path_factory):
    """The comparative campaign, executed twice into separate directories."""
    campaign = CampaignSpec(
        algorithms=("ampso", "gpso"),
        functions=("rastrigin", "ackley", "griewank"),
        dimensions=(10,),
        runs=30,
        base_seed=2015,
        config=AmpsoConfig(fe_budget=100_000),
        jobs=2,
    )
    outputs = []
    for label in ("first", "second"):
        out_dir = tmp_path_factory.mktemp(f"campaign_{label}")
        records, cells = run_campaign(campaign)
        paths = write_campaign_outputs(str(out_dir), records, cells)
        outputs.append((paths, records, cells))
    return outputs


def test_criterion_01_control_law_endpoints():
    checks = [
        abs(omega_standard(0.0) - 0.5) <= 1e-12,
        abs(omega_standard(1.0) - 0.8) <= 1e-12,
        abs(sigma_reconstruction(0.0) - 0.1) <= 1e-12,
        abs(sigma_reconstruction(1.0) - 0.2) <= 1e-12,
    ]
    report(1, "inertia and spread laws hit their closed-form endpoints", all(checks))


def test_criterion_02_exploration_law_shape():
    raw = lambda e: 1.0 / (1.0 + 0.67 * math.exp(-2.67 * e))
    sweep = np.linspace(0.0, 1.0, 10_000)
    from ampso.adaptation import omega_exploration

    clamped = np.array([omega_exploration(e) for e in sweep])
    checks = [
        abs(raw(0.0) - 0.5988) <= 1e-3,
        abs(raw(1.0) - 0.9558) <= 1e-3,
        clamped.min() == 0.6,
        clamped.max() == 0.9,
        bool(np.all(np.diff(clamped) >= 0.0)),
    ]
    report(2, "exploration inertia: raw values as derived, clamped span [0.6, 0.9], monotone", all(checks))


def test_criterion_03_entropy_suite():
    bounds = Bounds.cube(-20.0, 20.0, 3)
    collapse_ok = histogram_entropy([1.0] * 40, (0.0, 10.0), 10) == 0.0
    centers = np.repeat(np.arange(10) + 0.5, 4)
    uniform_ok = abs(histogram_entropy(centers, (0.0, 10.0), 10) - 1.0) <= 1e-12

    rng = np.random.default_rng(42)
    range_ok = perm_ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 12))
        positions = rng.uniform(-20, 20, size=(n, 3))
        fitness = rng.uniform(-5, 5, size=n)
        reading = hybrid_diversity(build_swarm(positions, fitness), bounds, 10)
        values = (reading.position_entropy, reading.fitness_entropy, reading.hybrid)
        range_ok &= all(0.0 <= v <= 1.0 for v in values)
        order = rng.permutation(n)
        shuffled = hybrid_diversity(build_swarm(positions[order], fitness[order]), bounds, 10)
        perm_ok &= shuffled.hybrid == reading.hybrid

    adap_ok = True
    oracle_bounds = Bounds.cube(-50.0, 50.0, 5)
    for _ in range(1000):
        positions = rng.uniform(-50, 50, size=(int(rng.integers(2, 51)), 5))
        swarm = build_swarm(positions)
        adap_ok &= (
            abs(adap_center_diversity(swarm, oracle_bounds) - naive_center_diversity(positions, oracle_bounds))
            <= 1e-12
        )
        adap_ok &= (
            abs(adap_pairwise_diversity(swarm, oracle_bounds) - naive_pairwise_diversity(positions, oracle_bounds))
            <= 1e-12
        )

    report(
        3,
        "entropy collapse/uniform laws, [0,1] range, permutation invariance, distance oracles",
        collapse_ok and uniform_ok and range_ok and perm_ok and adap_ok,
    )


def test_criterion_04_evolution_rate_oracle():
    rng = np.random.default_rng(7)
    oracle_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 60))
        length = int(rng.integers(1, 150))
        values = list(np.sort(rng.uniform(1, 200, size=length))[::-1])
        history = FitnessHistory(window=k)
        for v in values:
            history.record(v)
        oracle_ok &= abs(evolution_rate(history) - oracle_rate(values, k)) <= 1e-12

    flat = FitnessHistory(window=50)
    flat.record(3.0)
    first_ok = evolution_rate(flat) == 1.0
    constant_ok = True
    for _ in range(80):
        flat.record(3.0)
        constant_ok &= evolution_rate(flat) == 0.0

    report(4, "evolution rate matches the piecewise oracle; constant history 0; start 1", oracle_ok and first_ok and constant_ok)


def test_criterion_05_gaussian_scaling():
    spec = make_spec("sphere", 10)
    span = 200.0
    ok = True

    # spawn spread is pinned at 0.1
    counter = EvalCounter(budget=10_001)
    swarm = spawn_artificial_swarm(
        np.zeros(10), 0.0, 10_000, spec, RngStream(1), counter, 0.01 * spec.bounds.span
    )
    ok &= abs(swarm.positions.std() - 0.1 * span) / (0.1 * span) <= 0.05

    # one-dimension rebuild at sigma = 0.13: the single moved coordinate per row
    big = build_swarm(np.zeros((100_000, 10)), current_fitness=np.arange(100_000, dtype=float))
    partial_reconstruct(big, 100_000, 0.13, spec, RngStream(2), EvalCounter(budget=100_000))
    offsets = big.positions.sum(axis=1)  # rows equal the best except one coordinate
    ok &= abs(offsets.std() - 0.13 * span) / (0.13 * span) <= 0.05

    # whole-swarm rebuild at sigma = 0.2
    wide = build_swarm(np.zeros((10_000, 10)), current_fitness=np.zeros(10_000))
    full_reconstruct(wide, 0.2, spec, RngStream(3), EvalCounter(budget=10_000))
    ok &= abs(wide.positions.std() - 0.2 * span) / (0.2 * span) <= 0.05

    report(5, "spawn/rebuild offsets scale as sigma times the box span (5%)", ok)


def test_criterion_06_budget_law_with_spy():
    ok = True
    for dim in (2, 10):
        config = AmpsoConfig()
        budget = config.resolved_budget(dim)
        for seed in range(20):
            spec = make_spec("rastrigin", dim)
            calls = {"rows": 0}
            inner = spec.function

            def spy(block, inner=inner, calls=calls):
                calls["rows"] += block.shape[0] if block.ndim == 2 else 1
                return inner(block)

            spec.function = spy
            result = run_ampso(config, spec, seed=seed)
            ok &= budget - config.convergence_size < result.fe_used <= budget
            ok &= result.fe_used == calls["rows"]
    report(6, "20 seeded runs per dimension end within one convergence iteration of the budget", ok)


def test_criterion_07_structural_invariants(monkeypatch):
    spec = make_spec("griewank", 10)
    config = AmpsoConfig(fe_budget=60_000)

    in_bounds_checks = {"n": 0, "ok": True}
    real_step = optimizer_module.pso_step

    def checked_step(swarm, *args, **kwargs):
        real_step(swarm, *args, **kwargs)
        in_bounds_checks["n"] += 1
        in_bounds_checks["ok"] &= bool(
            np.all(swarm.positions >= spec.bounds.lower) and np.all(swarm.positions <= spec.bounds.upper)
        )

    monkeypatch.setattr(optimizer_module, "pso_step", checked_step)
    result = run_ampso(config, spec, seed=9)
    monkeypatch.setattr(optimizer_module, "pso_step", real_step)

    word = "".join(
        {"exploration": "R", "exploitation": "X", "convergence": "C"}[s.phase] for s in result.phase_log
    )
    grammar_ok = re.fullmatch(r"(RX)+C", word) is not None
    errors = [p.best_error for p in result.trace]
    monotone_ok = all(b <= a for a, b in zip(errors, errors[1:]))
    bounds_ok = in_bounds_checks["ok"] and in_bounds_checks["n"] >= 100

    report(
        7,
        "phases follow (exploration exploitation)+ convergence; error trace monotone; positions in bounds",
        grammar_ok and monotone_ok and bounds_ok,
    )


def test_criterion_08_exploitation_iteration_cost():
    spec = make_spec("ackley", 10)
    config = AmpsoConfig(fe_budget=60_000)
    result = run_ampso(config, spec, seed=13)
    found = False
    ok = True
    for span in result.phase_log:
        if span.phase != "exploitation":
            continue
        found = True
        rows = [p for p in result.trace if span.start_fe < p.fe <= span.end_fe]
        # spawn plus first iteration, then one swarm's worth per iteration
        if not rows or rows[0].fe - span.start_fe != 2 * config.exploitation_size:
            ok = False
        for a, b in zip(rows, rows[1:]):
            if b.fe - a.fe != config.exploitation_size:
                ok = False
    report(8, "every exploitation iteration costs exactly the exploitation swarm size", found and ok)


def test_criterion_09_comparative_performance(campaign_twice):
    _, _, cells = campaign_twice[0]
    means = {(c.algorithm, c.function): c.stats.mean for c in cells}
    wins = sum(
        means[("ampso", fn)] <= means[("gpso", fn)] for fn in ("rastrigin", "ackley", "griewank")
    )
    for fn in ("rastrigin", "ackley", "griewank"):
        print(f"    {fn:10s} ampso mean {means[('ampso', fn)]:.4e}   gpso mean {means[('gpso', fn)]:.4e}")
    report(9, f"multi-swarm beats the baseline on {wins} of 3 functions (need 2)", wins >= 2)


def test_criterion_10_campaign_determinism(campaign_twice):
    (paths_a, _, _), (paths_b, _, _) = campaign_twice
    ok = True
    for key in ("runs", "summary_csv", "summary_json"):
        with open(paths_a[key], "rb") as fa, open(paths_b[key], "rb") as fb:
            ok &= fa.read() == fb.read()
    report(10, "rerunning the campaign reproduces byte-identical output files", ok)


def test_criterion_11_statistics_oracle(campaign_twice):
    paths, _, _ = campaign_twice[0]
    with open(paths["runs"]) as handle:
        rows = list(csv.DictReader(handle))
    with open(paths["summary_json"]) as handle:
        summary = json.load(handle)

    def one_pass(errors):
        n = len(errors)
        mean = sum(errors) / n
        var = sum((e - mean) ** 2 for e in errors) / n
        ordered = sorted(errors)
        mid = n // 2
        median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        return mean, math.sqrt(var), min(errors), max(errors), median

    ok = True
    for cell in summary["cells"]:
        errors = [
            float(r["best_error"])
            for r in rows
            if (r["algorithm"], r["function"], int(r["dim"]))
            == (cell["algorithm"], cell["function"], cell["dim"])
        ]
        mean, std, best, worst, median = one_pass(errors)
        ok &= abs(cell["mean"] - mean) <= 1e-12
        ok &= abs(cell["std"] - std) <= 1e-12
        ok &= cell["best"] == best and cell["worst"] == worst
        ok &= abs(cell["median"] - median) <= 1e-12

    from ampso.harness import StatsSummary

    hand = StatsSummary.from_errors([1.0, 2.0, 3.0])
    ok &= abs(hand.std - math.sqrt(2.0 / 3.0)) <= 1e-12
    ok &= (hand.mean, hand.median, hand.best, hand.worst) == (2.0, 2.0, 1.0, 3.0)

    report(11, "published statistics match an independent one-pass recomputation", ok)
