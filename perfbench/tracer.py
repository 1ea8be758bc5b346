"""Span tracing of ampso's layers, done from the benchmark's own files.

The tracer replaces public ampso functions with timing wrappers at the
places the library looks them up (for example ``ampso.optimizer.pso_step``,
which the optimizer binds at import), so the library itself is unchanged.
A name that no longer exists is recorded as absent instead of failing.

Per span name the tracer aggregates calls, total time, self time (total
minus wrapped child calls) and rows.  Full spans (run id, name, start, end,
parent) are kept only while ``keep`` is set, which the workloads turn on for
one run per cell.

In a forked process-pool worker the tracer's state is a copy; the wrapper
of ``harness.execute_run`` resets it per task and spools the task's
aggregates to a JSON file that the parent merges with :meth:`merge_spool`.
"""

from __future__ import annotations

import copy
import csv
import functools
import gzip
import importlib
import json
import os
import time

perf = time.perf_counter

MISSING = object()

# (span name, module, attribute): lookups the optimizer and its operators use
LOOKUPS = (
    ("diversity.hybrid_diversity", "ampso.optimizer", "hybrid_diversity"),
    ("swarm_ops.pso_step", "ampso.optimizer", "pso_step"),
    ("swarm_ops.partial_reconstruct", "ampso.optimizer", "partial_reconstruct"),
    ("swarm_ops.full_reconstruct", "ampso.optimizer", "full_reconstruct"),
    ("swarm_ops.spawn_artificial_swarm", "ampso.optimizer", "spawn_artificial_swarm"),
    ("core.initialize_swarm", "ampso.optimizer", "initialize_swarm"),
    ("core.evaluate_batch", "ampso.core", "evaluate_batch"),
    ("core.evaluate_batch", "ampso.swarm_ops", "evaluate_batch"),
    ("adaptation.evolution_rate", "ampso.optimizer", "evolution_rate"),
    ("adaptation.omega_exploration", "ampso.optimizer", "omega_exploration"),
    ("adaptation.omega_standard", "ampso.optimizer", "omega_standard"),
    ("adaptation.sigma_reconstruction", "ampso.optimizer", "sigma_reconstruction"),
    ("adaptation.reconstruct_probability", "ampso.optimizer", "reconstruct_probability"),
    ("adaptation.linear_inertia", "ampso.optimizer", "linear_inertia"),
)

# lookups only the campaign path goes through
CAMPAIGN_LOOKUPS = (
    ("harness.run_campaign", "ampso.cli", "run_campaign"),
    ("harness.write_campaign_outputs", "ampso.cli", "write_campaign_outputs"),
)

COUNTERS = ("runs", "iterations", "phase_switches", "fe_used", "budget")


def _rows_of_block(args) -> int:
    shape = getattr(args[0], "shape", None)
    return shape[0] if shape is not None and len(shape) > 1 else 1


def _rows_of_positions(args) -> int:
    return len(args[1])


class Tracer:
    def __init__(self, spool_dir: str | None = None):
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, rows]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.stack: list[list] = []  # open spans: [child_s, span_index]
        self.keep = False
        self.keep_first_task = False  # keep spans of each campaign cell's run 0
        self.run_id = ""
        self.spans: list = []  # (run_id, name, start, end, parent_index)
        self.absent: set[str] = set()
        self.worker_busy_s = 0.0  # summed task time spooled by pool workers
        self._patches: list = []
        self._spool_seq = 0

    # ---- wrapping
    def wrap(self, name: str, fn, rows=None):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            index = -1
            if tracer.keep:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if rows is not None:
                    entry[3] += rows(args)
                if stack:
                    stack[-1][0] += elapsed
                if index >= 0:
                    parent = stack[-1][1] if stack else -1
                    tracer.spans[index] = (tracer.run_id, name, start, end, parent)

        return traced

    def wrap_run(self, name: str, fn):
        """Wrap ``run_ampso``/``run_gpso`` and count what each run did."""
        timed = self.wrap(name, fn)
        counters = self.counters

        @functools.wraps(fn)
        def run(config, spec, seed=None):
            result = timed(config, spec, seed=seed)
            counters["runs"] += 1
            counters["fe_used"] += result.fe_used
            counters["budget"] += config.resolved_budget(spec.dimension)
            if result.trace:
                counters["iterations"] += result.trace[-1].iteration
            counters["phase_switches"] += max(0, len(result.phase_log) - 1)
            return result

        return run

    def wrap_spec(self, spec):
        """Copy of ``spec`` whose objective and transform are traced."""
        traced = copy.copy(spec)
        traced.function = self.wrap("benchmarks.objective", spec.function, _rows_of_block)
        traced.transform = self.wrap("core.transform", spec.transform)
        return traced

    # ---- installing wrappers at lookup sites
    def _patch(self, owner, key, replacement_for, name) -> None:
        is_dict = isinstance(owner, dict)
        original = owner.get(key, MISSING) if is_dict else getattr(owner, key, MISSING)
        if original is MISSING:
            self.absent.add(name)
            return
        replacement = replacement_for(original)
        if is_dict:
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)
        self._patches.append((owner, key, original, is_dict))

    def install(self, campaign: bool = False) -> None:
        lookups = LOOKUPS + (CAMPAIGN_LOOKUPS if campaign else ())
        for name, module_name, attr in lookups:
            rows = _rows_of_positions if name == "core.evaluate_batch" else None
            self._patch(
                importlib.import_module(module_name), attr, lambda f, n=name, r=rows: self.wrap(n, f, r), name
            )
        if campaign:
            harness = importlib.import_module("ampso.harness")
            algorithms = getattr(harness, "ALGORITHMS", {})
            for algorithm in ("ampso", "gpso"):
                name = f"optimizer.run_{algorithm}"
                self._patch(algorithms, algorithm, lambda f, n=name: self.wrap_run(n, f), name)
            self._patch(harness, "make_spec", self._spec_factory, "harness.make_spec")
            self._patch(harness, "execute_run", self._task_wrapper, "harness.execute_run")

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _spec_factory(self, make_spec):
        @functools.wraps(make_spec)
        def traced_make_spec(*args, **kwargs):
            return self.wrap_spec(make_spec(*args, **kwargs))

        return traced_make_spec

    def _task_wrapper(self, execute_run):
        """One campaign task; in a pool worker its aggregates go to the spool."""
        timed = self.wrap("harness.execute_run", execute_run)

        @functools.wraps(execute_run)
        def task(spec_tuple):
            in_worker = os.getpid() != self.pid
            if in_worker:
                self._reset()
            algorithm, function, dim, run, seed = spec_tuple[:5]
            self.keep = run == 0 and self.keep_first_task
            self.run_id = f"{algorithm}/{function}/d{dim}/run{run}/seed{seed}"
            try:
                return timed(spec_tuple)
            finally:
                self.keep = False
                if in_worker:
                    self._spool()

        return task

    # ---- worker spool
    def _reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0, 0]
        for key in self.counters:
            self.counters[key] = 0
        self.stack.clear()
        self.spans = []

    def _spool(self) -> None:
        self._spool_seq += 1
        path = os.path.join(self.spool_dir, f"{os.getpid()}-{self._spool_seq}.json")
        payload = {"stats": self.stats, "counters": self.counters, "spans": self.spans}
        with open(path + ".tmp", "w") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    def merge_spool(self) -> None:
        """Fold every spooled worker task into this tracer."""
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path) as handle:
                payload = json.load(handle)
            os.remove(path)
            for name, values in payload["stats"].items():
                mine = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
                for i, value in enumerate(values):
                    mine[i] += value
            self.worker_busy_s += payload["stats"].get("harness.execute_run", [0, 0.0])[1]
            for key, value in payload["counters"].items():
                self.counters[key] += value
            offset = len(self.spans)
            for run_id, name, start, end, parent in payload["spans"]:
                self.spans.append((run_id, name, start, end, parent + offset if parent >= 0 else -1))

    # ---- reading results
    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def rows(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0, 0])[3]

    def snapshot_counts(self) -> dict:
        counts = {f"{name}.calls": v[0] for name, v in self.stats.items()}
        counts.update({f"{name}.rows": v[3] for name, v in self.stats.items() if v[3]})
        counts.update(self.counters)
        return counts

    def write_spans(self, path: str) -> int:
        """Write kept spans as gzip'd CSV; returns the span count."""
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("index", "run_id", "name", "start_s", "end_s", "parent"))
            for index, span in enumerate(self.spans):
                if span is not None:
                    run_id, name, start, end, parent = span
                    writer.writerow((index, run_id, name, f"{start:.9f}", f"{end:.9f}", parent))
        return len(self.spans)
