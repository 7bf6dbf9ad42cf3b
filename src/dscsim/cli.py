"""Command-line experiment front-end.

Subcommands:
  sample     environment time series            -> samples.csv
  simulate   one network run                    -> simulation.csv
  sweep      parameter grid x seeds             -> sweep.csv + manifest.json
  analyze    calibration and scaling fits       -> analysis.json
  meanfield  analytic report for the config     -> meanfield.json (+ stdout)
  pde        spatial-model front tracking       -> front.csv

Every output is a pure function of (config file bytes, seed): repeated
invocations produce byte-identical files. Flags: --config, --out, --seed
(overrides the config seed), --jobs (sweep worker processes; sample,
simulate and meanfield reject it). Environment variables DSCSIM_CONFIG,
DSCSIM_OUT, DSCSIM_SEED and DSCSIM_JOBS supply defaults for the
corresponding flags, so DSCSIM_JOBS is read only where --jobs is.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, environment, meanfield, netsim, rng
from .checks import check_integer
from .config import (
    ExperimentConfig,
    apply_override,
    load_config,
    serialize_config,
    sweep_points,
)

# Subcommands that accept --jobs. Only sweep reads it; analyze and pde still
# accept it, without effect, because bench/test_bench.py passes it to every
# command of a workload (ROADMAP item 1 drops that, then these two reject it).
_JOBS_SUBCOMMANDS = ("sweep", "analyze", "pde")


def _fmt(value) -> str:
    """Locale-independent cell formatting; floats at 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinite value raises before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _cmd_sample(config: ExperimentConfig, out: Path, jobs: int) -> dict | None:
    steps = config.run.steps
    series = environment.time_series(
        config.environment, steps, rng.sensor_stream(config.network.seed, 0)
    )
    _write_csv(
        out / "samples.csv",
        ["step", "concentration"],
        ((t + 1, float(c)) for t, c in enumerate(series)),
    )
    return None


def _cmd_simulate(config: ExperimentConfig, out: Path, jobs: int) -> dict | None:
    records = netsim.run(config.network, config.sensor, config.environment, config.run.steps)
    _write_csv(
        out / "simulation.csv",
        ["step", "n_active", "n_passive", "n_faulty", "messages", "detections"],
        (
            (r.step, r.n_active, r.n_passive, r.n_faulty, r.messages_sent, r.detections)
            for r in records
        ),
    )
    return None


def _cmd_sweep(config: ExperimentConfig, out: Path, jobs: int) -> dict | None:
    axes = [axis.path for axis in config.sweep]
    _write_csv(
        out / "sweep.csv", ["point", *axes, *analysis.SWEEP_COLUMNS], analysis.sweep(config, jobs)
    )
    return {
        "grid": [{"path": a.path, "values": list(a.values)} for a in config.sweep],
        "points": sweep_points(config),
        "n_seeds": config.run.n_seeds,
        "base_seed": config.network.seed,
    }


def _cmd_analyze(config: ExperimentConfig, out: Path, jobs: int, input_csv: Path | None = None) -> dict | None:
    path = input_csv or out / "sweep.csv"
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _write_json(out / "analysis.json", analysis.analyze_sweep(rows))
    return None


def _cmd_meanfield(config: ExperimentConfig, out: Path, jobs: int) -> dict | None:
    report = meanfield.meanfield_report(config)
    _write_json(out / "meanfield.json", report)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return None


def _cmd_pde(config: ExperimentConfig, out: Path, jobs: int) -> dict | None:
    traj, level = meanfield.run_pde(config)
    positions = meanfield.front_positions(traj, level)
    _write_csv(
        out / "front.csv",
        ["time", "front_position"],
        zip((float(t) for t in traj.times), (float(x) for x in positions)),
    )
    try:
        speed = meanfield.front_speed(traj, level)
        print(f"front speed: {_fmt(speed)} m/step")
    except ValueError as exc:
        print(f"front speed unavailable: {exc}", file=sys.stderr)
    return None


_HANDLERS = {
    "sample": _cmd_sample,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "meanfield": _cmd_meanfield,
    "pde": _cmd_pde,
}


def dispatch(subcommand: str, config: ExperimentConfig, out_dir, jobs: int = 1, **kwargs) -> int:
    """Run one subcommand against a parsed config; returns the exit status.

    jobs must be an integer >= 1, and 1 for a subcommand that takes no
    --jobs.

    Every subcommand also writes a manifest.json with the resolved config
    and versions (plus grid details for sweep), so outputs are
    self-describing.
    """
    if subcommand not in _HANDLERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    check_integer("jobs", jobs, 1)
    if jobs != 1 and subcommand not in _JOBS_SUBCOMMANDS:
        raise ValueError(f"{subcommand} takes no jobs, got {jobs}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    extras = _HANDLERS[subcommand](config, out, jobs, **kwargs) or {}
    manifest = {
        "subcommand": subcommand,
        "config": serialize_config(config),
        "versions": {"dscsim": __version__, "numpy": np.__version__},
        **extras,
    }
    _write_json(out / "manifest.json", manifest)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dscsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=os.environ.get("DSCSIM_CONFIG"))
        p.add_argument("--out", default=os.environ.get("DSCSIM_OUT", "."))
        p.add_argument("--seed", type=int, default=None)
        if name in _JOBS_SUBCOMMANDS:
            p.add_argument("--jobs", type=int, default=None)
        if name == "analyze":
            p.add_argument("--input", default=None, help="sweep CSV (default: OUT/sweep.csv)")
    return parser


def _env_int(name: str, default: int | None = None) -> int | None:
    raw = os.environ.get(name)
    try:
        return default if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if not args.config:
            raise ValueError("--config is required (or set DSCSIM_CONFIG)")
        seed = args.seed if args.seed is not None else _env_int("DSCSIM_SEED")
        jobs = 1
        if args.subcommand in _JOBS_SUBCOMMANDS:
            jobs = args.jobs if args.jobs is not None else _env_int("DSCSIM_JOBS", 1)
        config = load_config(args.config)
        if seed is not None:
            config = apply_override(config, "network.seed", seed)
        kwargs = {}
        if args.subcommand == "analyze" and args.input:
            kwargs["input_csv"] = Path(args.input)
        return dispatch(args.subcommand, config, args.out, jobs=jobs, **kwargs)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"dscsim {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
