"""Command-line harness.

Subcommands:
    run     one seeded run and its one-line summary; --out writes its
            convergence trace CSV, --stride thins it
    bench   a seeded campaign with per-cell statistics (CSV + JSON)

Configuration precedence (lowest to highest): built-in defaults, --config
JSON file, AMPSO_<FIELD> environment variables, explicit flags.  Config
keys and environment variable names mirror the AmpsoConfig fields, e.g.
AMPSO_ENTROPY_BINS=12; environment values are read as JSON scalars.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
import time
from dataclasses import fields

from .benchmarks import make_spec
from .harness import (
    ALGORITHMS,
    CampaignSpec,
    run_campaign,
    write_campaign_outputs,
    write_trace_csv,
)
from .optimizer import AmpsoConfig, ConfigError

ENV_PREFIX = "AMPSO_"

USAGE_ERROR = 2
RUNTIME_ERROR = 1


class UsageError(Exception):
    pass


def load_config(path: str | None, env: dict[str, str], cli_overrides: dict) -> AmpsoConfig:
    """Layer file, environment and flag overrides over the defaults."""
    overrides: dict = {}

    if path is not None:
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        except ValueError as exc:  # bad JSON, too many digits or not UTF-8
            raise UsageError(f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
        overrides.update(data)

    for name in (f.name for f in fields(AmpsoConfig)):
        raw = env.get(ENV_PREFIX + name.upper())
        if raw is not None:
            try:
                overrides[name] = json.loads(raw)
            except ValueError:  # not a JSON scalar: validate() names the field
                overrides[name] = raw

    overrides.update(cli_overrides)
    try:
        config = AmpsoConfig().with_overrides(**overrides)
        config.validate()
    except ConfigError as exc:
        raise UsageError(str(exc))
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ampso",
        description="Multi-swarm particle swarm optimizer and benchmark harness.",
        epilog=(
            "Config keys mirror AmpsoConfig fields and may also be set via "
            f"environment variables with the {ENV_PREFIX} prefix "
            f"(e.g. {ENV_PREFIX}ENTROPY_BINS=12)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algo", default="ampso", help="algorithm: ampso or gpso")
        p.add_argument("--function", default="rastrigin", help="registry function name")
        p.add_argument("--dim", type=int, default=10, help="problem dimension")
        p.add_argument(
            "--seed",
            default=None,
            help="run seed (bench: base seed); 'clock' draws one from the wall clock",
        )
        p.add_argument("--fe-budget", type=int, default=None, help="evaluation budget (default 10000*dim)")
        p.add_argument("--config", default=None, help="JSON file with AmpsoConfig fields")

    run_p = sub.add_parser("run", help="execute one run and print a summary line")
    add_common(run_p)
    run_p.add_argument("--out", default=None, help="optional trace CSV path")
    run_p.add_argument("--stride", type=int, default=None, help="minimum FEs between trace rows (needs --out)")

    bench_p = sub.add_parser("bench", help="run a seeded campaign and write statistics")
    add_common(bench_p)
    bench_p.add_argument("--runs", type=int, default=30, help="runs per cell")
    bench_p.add_argument("--jobs", type=int, default=1, help="concurrent runs")
    bench_p.add_argument("--out", default="bench_out", help="output directory")

    return parser


def _resolve_seed(raw: str | None, config: AmpsoConfig) -> int:
    """Parse --seed; absent falls back to the config, 'clock' draws fresh."""
    if raw is None:
        return config.seed
    if raw == "clock":
        return time.time_ns() % 2**63  # headroom for per-run seed offsets
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"--seed must be an integer or 'clock', got {raw!r}")


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in raw.split(",") if item.strip())


def _campaign(args, config: AmpsoConfig, base_seed: int, runs: int = 1, jobs: int = 1) -> CampaignSpec:
    """The command's grid, validated: names, dimension, seeds and config."""
    campaign = CampaignSpec(
        algorithms=_split_list(args.algo),
        functions=_split_list(args.function),
        dimensions=(args.dim,),
        runs=runs,
        base_seed=base_seed,
        config=config,
        jobs=jobs,
    )
    try:
        campaign.validate()
    except ValueError as exc:
        raise UsageError(str(exc))
    return campaign


def cmd_run(args, config: AmpsoConfig) -> int:
    """One seeded run, its summary line and, with ``--out``, its trace CSV."""
    if args.stride is not None:
        if not args.out:
            raise UsageError("--stride needs --out")
        if args.stride < 1:
            raise UsageError("--stride must be at least 1")
    config = config.with_overrides(seed=_resolve_seed(args.seed, config))
    campaign = _campaign(args, config, config.seed)
    if len(campaign.algorithms) != 1 or len(campaign.functions) != 1:
        raise UsageError("this command takes a single algorithm and function")
    (algorithm,), (function,) = campaign.algorithms, campaign.functions
    if args.out:
        _check_trace_path(args.out)
    # the summary line reads only best_error and fe_used: a trace is kept only to be written
    result = ALGORITHMS[algorithm](config, make_spec(function, args.dim), trace=bool(args.out))
    if args.out:
        write_trace_csv(args.out, result, stride=args.stride)
    print(
        f"{algorithm} {function} dim={args.dim} seed={config.seed} "
        f"best_error={result.best_error:.6e} fe_used={result.fe_used}"
    )
    return 0


def _check_trace_path(path: str) -> None:
    """Raise what writing a trace to ``path`` would, before the run spends anything.

    A missing directory, a file where a directory should be and a ``path``
    that is a directory each raise their ``OSError``, naming ``path``.
    """
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None


def cmd_bench(args, config: AmpsoConfig) -> int:
    base_seed = _resolve_seed(args.seed, config)
    campaign = _campaign(args, config, base_seed, runs=args.runs, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)  # a bad output directory fails before any run
    records, cells = run_campaign(campaign)
    paths = write_campaign_outputs(args.out, records, cells)
    for cell in cells:
        status = f"FAILED ({cell.error})" if cell.error else f"mean={cell.stats.mean:.6e} std={cell.stats.std:.6e}"
        print(f"{cell.algorithm} {cell.function} dim={cell.dim} runs={cell.runs} {status}")
    print(f"base_seed={base_seed} wrote {paths['runs']}, {paths['summary_csv']}, {paths['summary_json']}")
    return 1 if any(cell.error for cell in cells) else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = cmd_bench if args.command == "bench" else cmd_run
    flags = {} if args.fe_budget is None else {"fe_budget": args.fe_budget}
    try:
        return handler(args, load_config(args.config, os.environ, flags))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # runtime failure, an unwritable output included
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
