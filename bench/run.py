#!/usr/bin/env python3
"""dscsim benchmark: one workload per invocation, in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed becomes the workload's
network.seed. The workload repeats, always on the same inputs, while the
next repetition should end within `--seconds` (at least once). Each
repetition's outputs are checked: sha256 digests against the recorded
ones at the default seed, invariants at every seed, and byte equality
across repetitions. README.md in this directory documents the workloads
and metrics.

--trace 0 measures with tracing off and reports the end-to-end metrics of
BENCHMARK.json. --trace 1 splits the time between untraced repetitions
(for the tracing overhead and the fan-out efficiency) and traced ones
(for the per-layer metrics). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the lines before it
repeat every metric by name and unit with the run's metadata.

Exit status: 0 after a result, 2 when the dscsim sources are missing, 3
when the workload is skipped because its --jobs exceeds os.cpu_count().
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SETUP_REPEATS = 5  # at least this many set-up samples per run
TRACED_JOBS = 1  # counters inside pool workers are not collected


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    # Internal: one set-up in a fresh interpreter, timed by the parent.
    parser.add_argument("--setup-only", type=Path, metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def time_setup(args, workdir: Path) -> float:
    """Wall time of one fresh interpreter that imports dscsim, parses the
    bundled config and writes the workload's config."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def repeat(workload, config_path: Path, out: Path, jobs: int, seconds: float, traced: bool,
           before_each=lambda: None):
    """Repetitions on the same inputs while the next one, judged by the
    longest so far, should end within `seconds`; at least one. Returns
    (Repetition or None if it raised, Tracer or None) pairs. `before_each`
    runs ahead of every repetition, outside its timed section.

    On a shared host each CPU's speed drifts on its own by up to +-20 %
    over tens of seconds. A one-job repetition is therefore pinned to the
    allowed CPUs in turn, so that a run samples all of them; see
    median_wall. A run with more jobs uses all CPUs at once anyway.
    """
    from layers import Tracer
    from workloads import run_once

    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed) if jobs == 1 else [None]
    reps, longest = [], 0.0
    start = time.perf_counter()
    try:
        while not reps or time.perf_counter() - start + longest <= seconds:
            begin = time.perf_counter()
            cpu = cpus[len(reps) % len(cpus)]
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            before_each()
            shutil.rmtree(out, ignore_errors=True)
            gc.collect()
            tracer = Tracer() if traced else None
            try:
                with tracer or contextlib.nullcontext():
                    rep = run_once(workload, config_path, out, jobs)
                rep.cpu = cpu
            except Exception as exc:  # noqa: BLE001 - a failing run is counted, not fatal
                print(f"repetition failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                rep = None
            reps.append((rep, tracer))
            longest = max(longest, time.perf_counter() - begin)
    finally:
        os.sched_setaffinity(0, allowed)
    return reps


def median_wall(reps) -> float:
    """Median wall time per CPU, averaged over the CPUs used."""
    by_cpu = {}
    for rep, _ in reps:
        if rep is not None:
            by_cpu.setdefault(rep.cpu, []).append(rep.wall_s)
    return statistics.fmean(statistics.median(walls) for walls in by_cpu.values())


def check(reps, want: dict | None) -> list[list[str]]:
    """Problems of each repetition: its own output check, byte equality
    with the first repetition, and the recorded digests where they apply."""
    first = next((r.digests for r, _ in reps if r is not None), None)
    found = []
    for rep, _ in reps:
        if rep is None:
            found.append(["run raised an exception"])
            continue
        issues = list(rep.problems)
        if rep.digests != first:
            issues.append("outputs differ from the first repetition")
        if want is not None and rep.digests != want:
            issues.append(f"output digests differ from the recorded ones: {rep.digests}")
        found.append(issues)
    return found


def end_to_end(wall_s: float, units: int, setup_s: float) -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": wall_s,
        "updates_per_s": units / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": max(own, children) / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def per_layer(traced, untraced_wall, baseline_wall, jobs, graphs) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced repetitions, plus count mismatches."""
    ok = [(r, t) for r, t in traced if r is not None]
    problems = []

    def span(label, attr="s"):
        return _median(getattr(t.spans[label], attr) for _, t in ok)

    counted = [{**t.counts, **{f"{k}.calls": v.calls for k, v in t.spans.items()}} for _, t in ok]
    if any(c != counted[0] for c in counted[1:]):
        problems.append("traced counts differ between repetitions")
    counts = counted[0] if counted else {}
    if counts.get("netsim.conservation_violations"):
        problems.append("a step's populations did not sum to n")

    steps = [us for _, t in ok for us in t.step_us + t.refill_step_us]
    pde_steps = counts.get("meanfield.integrate_pde.steps", 0)
    sensor_steps = counts.get("netsim.sensor_steps", 0)
    traced_wall = median_wall(ok)
    degrees = [g["mean_degree"] for g in graphs] or [0.0]
    giants = [g["giant_fraction"] for g in graphs] or [0.0]
    values = {
        "rng.sensor_stream.calls": counts.get("rng.sensor_stream.calls", 0),
        "rng.sensor_stream.s": span("rng.sensor_stream"),
        "rng.substream.self_s": span("rng.substream", "self_s"),
        "netsim.place_sensors.s": span("netsim.place_sensors"),
        "netsim.neighbor_csr.s": span("netsim.neighbor_csr"),
        "netsim.neighbor_csr.edges": counts.get("netsim.neighbor_csr.edges", 0),
        "netsim.Simulation.init.s": span("netsim.Simulation.init"),
        "netsim.Simulation.init.self_s": span("netsim.Simulation.init", "self_s"),
        "netsim.Simulation.step.calls": counts.get("netsim.Simulation.step.calls", 0),
        "netsim.Simulation.step.s": span("netsim.Simulation.step"),
        "netsim.Simulation.step.self_s": span("netsim.Simulation.step", "self_s"),
        "netsim.step.p50_us": _percentile(steps, 50),
        "netsim.step.p99_us": _percentile(steps, 99),
        "netsim.step.refill_us": _median(us for _, t in ok for us in t.refill_step_us),
        "environment.quantile.calls": counts.get("environment.quantile.calls", 0),
        "environment.quantile.values": counts.get("environment.quantile.values", 0),
        "environment.quantile.s": span("environment.quantile"),
        "netsim.draw_useful_ratio": (
            counts.get("netsim.active_sensor_steps", 0) / sensor_steps if sensor_steps else 0.0
        ),
        "netsim.sensor_steps": sensor_steps,
        "netsim.active_sensor_steps": counts.get("netsim.active_sensor_steps", 0),
        "netsim.messages": counts.get("netsim.messages", 0),
        "netsim.detections": counts.get("netsim.detections", 0),
        "netsim.graph.mean_degree.min": min(degrees),
        "netsim.graph.mean_degree.max": max(degrees),
        "netsim.graph.giant_fraction.min": min(giants),
        "netsim.graph.giant_fraction.max": max(giants),
        "fanout.member_s": span("netsim.run"),
        "fanout.efficiency": span("netsim.run") / (jobs * untraced_wall),
        "analysis.extract_plateau.calls": counts.get("analysis.extract_plateau.calls", 0),
        "analysis.extract_plateau.s": span("analysis.extract_plateau"),
        "cli.analyze.s": _median(r.command_s.get("analyze", 0.0) for r, _ in ok),
        "meanfield.integrate_pde.s": span("meanfield.integrate_pde"),
        "meanfield.integrate_pde.steps": pde_steps,
        "meanfield.integrate_pde.step_us": (
            span("meanfield.integrate_pde") / pde_steps * 1e6 if pde_steps else 0.0
        ),
        "meanfield.integrate_pde.snapshot_bytes": counts.get(
            "meanfield.integrate_pde.snapshot_bytes", 0
        ),
        "meanfield.front_positions.s": span("meanfield.front_positions"),
        "meanfield.integrate_sis.calls": counts.get("meanfield.integrate_sis.calls", 0),
        "meanfield.integrate_sis.s": span("meanfield.integrate_sis"),
        "config.load_config.s": _median(r.load_config_s for r, _ in ok),
        "cli.output_bytes": ok[0][0].output_bytes if ok else 0,
        "trace.overhead_s": traced_wall - baseline_wall,
    }
    return values, problems


def run_metadata(args, jobs: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": jobs,
        "trace": args.trace,
        "traced_jobs": TRACED_JOBS if args.trace else None,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
    }


def bench(args) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    from workloads import (
        WORKLOADS,
        expected_digests,
        graph_diagnostics,
        prepare,
        work_units,
    )
    from dscsim.config import load_config

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    meta = run_metadata(args, workload.jobs)
    lines = []
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        config_path = prepare(workload, args.seed, workdir, args.tiny)
        cfg = load_config(config_path)
        out = workdir / "out"

        if args.trace:
            # Untraced at the workload's jobs, untraced at TRACED_JOBS when that
            # differs (the baseline of the tracing overhead), then traced.
            extra_baseline = TRACED_JOBS != workload.jobs
            share = args.seconds / (3 if extra_baseline else 2)
            untraced = repeat(workload, config_path, out, workload.jobs, share, False)
            baseline = (repeat(workload, config_path, out, TRACED_JOBS, share, False)
                        if extra_baseline else [])
            traced = repeat(workload, config_path, out, TRACED_JOBS, share, True)
            reps = untraced + baseline + traced
        else:
            # Set-up is timed between repetitions, so that its samples span
            # the run (and its CPUs) as the repetitions do.
            setups = []
            setup_dir = workdir / "setup"
            setup_dir.mkdir()
            reps = repeat(workload, config_path, out, workload.jobs, args.seconds, False,
                          lambda: setups.append(time_setup(args, setup_dir)))
            setups += [time_setup(args, setup_dir) for _ in range(SETUP_REPEATS - len(setups))]

        if all(rep is None for rep, _ in reps):
            raise RuntimeError("every repetition raised; no metric to report")
        found = check(reps, None if args.tiny else expected_digests(workload, args.seed))
        failed = sum(1 for issues in found if issues)
        problems = [f"repetition {k}: {issue}" for k, issues in enumerate(found) for issue in issues]

        if args.trace:
            graphs = graph_diagnostics(workload, cfg)
            metrics, count_problems = per_layer(
                traced, median_wall(untraced), median_wall(baseline or untraced), workload.jobs, graphs
            )
            if count_problems:
                problems += count_problems
                failed = max(failed, 1)
            kind = "per_layer"
            for g in graphs:
                lines.append("graph " + json.dumps(g, sort_keys=True))
        else:
            metrics = end_to_end(median_wall(reps), work_units(workload, cfg),
                                 statistics.median(setups))
            kind = "end_to_end"
            step_kind = "cell" if "pde" in workload.commands else "sensor"
            lines.append(f"{step_kind}_steps_per_s {metrics['updates_per_s']!r} 1/s")
        units = {m["name"]: m["unit"] for m in spec[kind]}
        if set(units) != set(metrics):
            raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} do not match "
                               f"BENCHMARK.json's {kind} list")
        meta["repetitions"] = len(reps)
        meta["walls_s"] = [r.wall_s for r, _ in reps if r is not None]
        meta["cpus"] = [r.cpu for r, _ in reps if r is not None]
        lines.insert(0, "meta " + json.dumps(meta, sort_keys=True))
        lines += [f"{name} {metrics[name]!r} {units[name]}" for name in units]
        lines.append(f"failed_fraction {failed / len(reps)!r} 1")
        lines += [f"problem {p}" for p in problems]
        result = {
            "correct": failed == 0,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        return result, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "dscsim" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"bench: no dscsim sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        prepare(WORKLOADS[args.workload], args.seed, args.setup_only, args.tiny)
        return 0
    jobs = WORKLOADS[args.workload].jobs
    if jobs > (os.cpu_count() or 1):
        reason = f"--jobs {jobs} exceeds os.cpu_count() = {os.cpu_count()}; not oversubscribing"
        print("skipped " + json.dumps({**run_metadata(args, jobs), "reason": reason}, sort_keys=True))
        return 3
    result, lines = bench(args)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
