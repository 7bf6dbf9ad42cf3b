"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Every workload runs untraced and traced; every metric named in
BENCHMARK.json must appear with its unit, and the output checks must pass
and must catch corrupted outputs.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs src/ on the path)
from dscsim import cli  # noqa: E402


def _bench(capsys, workload: str, trace: int) -> tuple[dict, list[str]]:
    status = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                       "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(capsys, workload, trace):
    result, lines = _bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    assert {"nproc", "python", "numpy", "git_commit", "seed", "jobs"} <= set(meta)
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_median_wall_averages_the_cpus():
    reps = [(workloads.Repetition(wall, {}, 0.0, {}, 0, [], cpu), None)
            for wall, cpu in [(1.0, 0), (3.0, 1), (1.2, 0), (3.0, 1), (0.8, 0)]]
    assert run.median_wall(reps) == 2.0
    assert run.median_wall([(None, None), reps[1]]) == 3.0


def test_pinning_is_undone(capsys):
    allowed = run.os.sched_getaffinity(0)
    _bench(capsys, "theory-pde", 0)
    assert run.os.sched_getaffinity(0) == allowed


def test_counts_repeat_across_runs(capsys):
    counts = []
    for _ in range(2):
        result, _ = _bench(capsys, "sweep-sparse-j2", 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["netsim.sensor_steps"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_outputs_match_the_cli(tmp_path, workload):
    wl = workloads.WORKLOADS[workload]
    config = workloads.prepare(wl, 5, tmp_path, tiny=True)
    rep = workloads.run_once(wl, config, tmp_path / "bench", wl.jobs)
    assert rep.problems == []
    for command in wl.commands:
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "cli"),
                         "--jobs", str(wl.jobs)]) == 0
    for name in wl.outputs:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "bench" / name).read_bytes()


def test_checks_catch_bad_outputs(tmp_path):
    wl = workloads.WORKLOADS["sweep-sparse-j2"]
    config = workloads.prepare(wl, 0, tmp_path, tiny=True)
    out = tmp_path / "out"
    rep = workloads.run_once(wl, config, out, 1)
    assert rep.problems == []
    cfg = workloads.load_config(config)
    csv_path = out / "sweep.csv"
    rows = list(csv.DictReader(csv_path.open(newline="")))
    rows[1]["plateau_mean"] = "1.5"
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert workloads.check_outputs(wl, cfg, out, "", [])
    changed = workloads.Repetition(1.0, {}, 0.0, {"sweep.csv": "0" * 64}, 0, [])
    assert run.check([(rep, None), (changed, None)], None) == [
        [], ["outputs differ from the first repetition"]]
    assert run.check([(rep, None)], {"sweep.csv": "0" * 64})[0]


def test_checks_catch_a_wrong_front_speed(tmp_path):
    wl = workloads.WORKLOADS["theory-pde"]
    cfg = workloads.load_config(run.ROOT / wl.config)
    (tmp_path / "front.csv").write_text("time,front_position\n0,45\n")
    assert workloads.check_outputs(wl, cfg, tmp_path, "front speed: 15.0 m/step", []) == []
    assert workloads.check_outputs(wl, cfg, tmp_path, "front speed: 40.0 m/step", [])
    assert workloads.check_outputs(wl, cfg, tmp_path, "", [np.array([-1.0])])


def test_giant_fraction_matches_breadth_first_search():
    rng = np.random.default_rng(1)
    n = 300
    pts = rng.random((n, 2))
    adj = [np.flatnonzero((np.hypot(*(pts - p).T) <= 0.06) & (np.arange(n) != i))
           for i, p in enumerate(pts)]
    indptr = np.concatenate([[0], np.cumsum([a.size for a in adj])])
    indices = np.concatenate(adj)
    seen, largest = np.zeros(n, bool), 0
    for s in range(n):
        if seen[s]:
            continue
        stack, size = [s], 0
        seen[s] = True
        while stack:
            v = stack.pop()
            size += 1
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        largest = max(largest, size)
    assert workloads.giant_fraction(indptr, indices) == largest / n


def test_jobs_above_cpu_count_are_skipped(capsys, monkeypatch):
    monkeypatch.setattr(run.os, "cpu_count", lambda: 1)
    assert run.main(["--workload", "sweep-sparse-j2", "--seed", "0", "--tiny"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("skipped ") and '"correct"' not in out


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-sparse-j2",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
