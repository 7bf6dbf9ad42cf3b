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
(overrides the config seed), --jobs (parallel sweep/ensemble workers).
Environment variables DSCSIM_CONFIG, DSCSIM_OUT, DSCSIM_SEED and
DSCSIM_JOBS supply defaults for the corresponding flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, environment, meanfield, netsim, rng, sensor
from .config import (
    ExperimentConfig,
    apply_override,
    load_config,
    resolve_pde,
    serialize_config,
    sweep_points,
)

SUBCOMMANDS = ("sample", "simulate", "sweep", "analyze", "meanfield", "pde")

# Columns of sweep.csv after "point" and the sweep axes.
SWEEP_COLUMNS = (
    "seed", "plateau_mean", "plateau_std", "p", "alpha_theory_g1", "n", "tau_star", "initial_active",
)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def meanfield_report(config: ExperimentConfig) -> dict:
    """Analytic summary used by the `meanfield` subcommand."""
    model, spec, net, mf = config.environment, config.sensor, config.network, config.meanfield
    s = net.area
    p = sensor.detection_probability(spec, model)
    alpha = meanfield.alpha_theory(spec, s, p, mf.g)
    r0_value = meanfield.r0(p, net.n, spec.r_star, s, mf.g)
    supercritical = r0_value > 1.0
    theta = 1.0 / r0_value if supercritical else None
    relax = meanfield.relaxation_time(r0_value, spec.tau_star) if supercritical else None
    try:
        c_star_opt = sensor.optimal_threshold(model)
    except ValueError:
        c_star_opt = None
    conditions = None
    delta_min = None
    n_threshold = None
    n_star = math.ceil(4.0 / math.pi * s / spec.r_star ** 2)
    if 0.0 < p < 1.0:
        report = meanfield.info_gain_conditions(
            theta=1.0 / r0_value,
            delta=net.delta,
            p=p,
            tau_star=spec.tau_star,
            n=net.n,
            t_detect=mf.t_detect,
            s=s,
            r_star=spec.r_star,
        )
        delta_min = report.delta_min
        n_threshold = report.n_threshold
        n_star = report.n_star
        conditions = {
            "dsc_superior": report.dsc_superior,
            "epidemic_within_t": report.epidemic_within_t,
            "consistency": report.consistency,
            "event_gain": report.event_gain,
        }
    return {
        "p": p,
        "alpha": alpha,
        "r0": r0_value,
        "theta": theta,
        "relaxation_time": relax,
        "delta_min": delta_min,
        "n_threshold": n_threshold,
        "n_star": n_star,
        "c_star_opt": c_star_opt,
        "synchronized": meanfield.synchronization_check(
            alpha, spec.tau_star, spec.r_star, mf.v_star
        ),
        "conditions": conditions,
    }


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


def _apply_point(config: ExperimentConfig, point: dict) -> ExperimentConfig:
    for path, value in point.items():
        config = apply_override(config, path, value)
    return config


def _sweep_task(args) -> tuple[float, float]:
    config, seed = args
    net = replace(config.network, seed=seed)
    traj = netsim.active_fraction(
        netsim.run(net, config.sensor, config.environment, config.run.steps), net.n
    )
    return analysis.extract_plateau(traj, config.run.tail_fraction, check_stationary=False)


def _cmd_sweep(config: ExperimentConfig, out: Path, jobs: int) -> dict | None:
    points = sweep_points(config)
    axes = [axis.path for axis in config.sweep]
    n_seeds = config.run.n_seeds
    base_seed = config.network.seed

    configs = [_apply_point(config, point) for point in points]
    tasks = [(cfg_pt, base_seed + k) for cfg_pt in configs for k in range(n_seeds)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_task, tasks, chunksize=1))
    else:
        results = [_sweep_task(t) for t in tasks]

    rows = []
    for point_idx, (point, cfg_pt) in enumerate(zip(points, configs)):
        spec, net = cfg_pt.sensor, cfg_pt.network
        p = sensor.detection_probability(spec, cfg_pt.environment)
        alpha_g1 = meanfield.alpha_theory(spec, net.area, p, 1.0)
        for k in range(n_seeds):
            mean, std = results[point_idx * n_seeds + k]
            rows.append(
                [point_idx]
                + [point[a] for a in axes]
                + [
                    base_seed + k,
                    mean,
                    std,
                    p,
                    alpha_g1,
                    net.n,
                    spec.tau_star,
                    net.initial_active,
                ]
            )
    _write_csv(out / "sweep.csv", ["point", *axes, *SWEEP_COLUMNS], rows)
    return {
        "grid": [{"path": a.path, "values": list(a.values)} for a in config.sweep],
        "points": points,
        "n_seeds": n_seeds,
        "base_seed": base_seed,
    }


def _cmd_analyze(config: ExperimentConfig, out: Path, jobs: int, input_csv: Path | None = None) -> dict | None:
    path = input_csv or out / "sweep.csv"
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"no sweep rows in {path}")

    fixed = {"point", *SWEEP_COLUMNS}
    axes = [c for c in rows[0] if c not in fixed]

    grouped: dict[int, list[dict]] = {}
    for row in rows:
        grouped.setdefault(int(row["point"]), []).append(row)

    per_point = []
    pairs = []
    power_xs, power_ys = [], []
    for point_idx in sorted(grouped):
        members = grouped[point_idx]
        first = members[0]
        plateau_sim = float(np.mean([float(r["plateau_mean"]) for r in members]))
        plateau_scatter = float(np.std([float(r["plateau_mean"]) for r in members]))
        p = float(first["p"])
        alpha_g1 = float(first["alpha_theory_g1"])
        n = int(first["n"])
        tau_star = float(first["tau_star"])
        initial_fraction = int(first["initial_active"]) / n
        supercritical = plateau_sim > initial_fraction and plateau_sim < 1.0
        alpha_s = (
            analysis.alpha_from_sim(plateau_sim, tau_star, n) if supercritical else None
        )
        if alpha_s is not None:
            pairs.append((alpha_s, alpha_g1))
            power_xs.append(p)
            power_ys.append(alpha_s)
        per_point.append(
            {
                "point": point_idx,
                "params": {a: first[a] for a in axes},
                "p": p,
                "plateau_sim": plateau_sim,
                "plateau_scatter": plateau_scatter,
                "alpha_s": alpha_s,
                "alpha_theory_g1": alpha_g1,
                "supercritical": supercritical,
            }
        )

    g = analysis.calibrate_g(pairs) if pairs else None
    if g is not None:
        for entry, point_idx in zip(per_point, sorted(grouped)):
            first = grouped[point_idx][0]
            r0_cal = g * entry["alpha_theory_g1"] * float(first["tau_star"]) * int(first["n"])
            entry["r0"] = r0_cal
            entry["plateau_theory"] = 1.0 - 1.0 / r0_cal if r0_cal > 1.0 else 0.0
    fit = None
    if len(set(power_xs)) >= 3:
        result = analysis.fit_power_law(power_xs, power_ys)
        fit = {"q": result.exponent, "intercept": result.intercept,
               "r_squared": result.r_squared}

    _write_json(
        out / "analysis.json",
        {
            "g": g,
            "q": fit["q"] if fit else None,
            "power_law": fit,
            "supercritical_rule": "ensemble plateau above the initial active fraction",
            "sweep_axes": axes,
            "per_point": per_point,
        },
    )
    return None


def _cmd_meanfield(config: ExperimentConfig, out: Path, jobs: int) -> dict | None:
    report = meanfield_report(config)
    _write_json(out / "meanfield.json", report)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return None


def _cmd_pde(config: ExperimentConfig, out: Path, jobs: int) -> dict | None:
    pde = resolve_pde(config)
    active = np.zeros((pde.ny, pde.nx))
    active[:, : pde.seed_columns] = pde.seed_level
    passive = 1.0 - active
    grid = meanfield.PdeGrid(
        nx=pde.nx, ny=pde.ny, dx=pde.dx, d=pde.diffusivity,
        field_active=active, field_passive=passive,
    )
    record_every = pde.record_every or max(1, round(1.0 / pde.dt))
    traj = meanfield.integrate_pde(
        grid, pde.alpha, config.sensor.tau_star, pde.t_end, pde.dt, record_every
    )
    positions = meanfield.front_positions(traj, pde.level)
    _write_csv(
        out / "front.csv",
        ["time", "front_position"],
        zip((float(t) for t in traj.times), (float(x) for x in positions)),
    )
    try:
        speed = meanfield.front_speed(traj, pde.level)
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

    Every subcommand also writes a manifest.json with the resolved config
    and versions (plus grid details for sweep), so outputs are
    self-describing.
    """
    if subcommand not in _HANDLERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
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
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=os.environ.get("DSCSIM_CONFIG"))
        p.add_argument("--out", default=os.environ.get("DSCSIM_OUT", "."))
        p.add_argument("--seed", type=int,
                       default=(int(os.environ["DSCSIM_SEED"]) if "DSCSIM_SEED" in os.environ else None))
        p.add_argument("--jobs", type=int, default=int(os.environ.get("DSCSIM_JOBS", "1")))
        if name == "analyze":
            p.add_argument("--input", default=None, help="sweep CSV (default: OUT/sweep.csv)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if not args.config:
            raise ValueError("--config is required (or set DSCSIM_CONFIG)")
        config = load_config(args.config)
        if args.seed is not None:
            config = apply_override(config, "network.seed", args.seed)
        kwargs = {}
        if args.subcommand == "analyze" and args.input:
            kwargs["input_csv"] = Path(args.input)
        return dispatch(args.subcommand, config, args.out, jobs=args.jobs, **kwargs)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"dscsim {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
