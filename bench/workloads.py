"""The benchmark's workloads: inputs, the timed section and the output check.

Each workload derives a config from a bundled one plus fixed overrides and
the run's seed, writes it as INI text and then drives dscsim exactly as
`dscsim <subcommand> --config <that file> --seed <seed>` would, through
`config.load_config` and `cli.dispatch`. README.md in this directory says
why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dscsim import cli, meanfield, netsim, rng, sensor
from dscsim.config import (
    apply_override,
    load_config,
    resolve_pde,
    serialize_config,
    sweep_points,
)

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# The bundled configs carry network.seed = 0; output digests are recorded there.
DEFAULT_SEED = 0
SIS_NUS = (0.5, 0.7, 1.0)
SIS_REL_TOL = 1e-12
# Acceptance criterion 09: front speed in [sqrt(b d), 4 sqrt(b d)] m/step at
# b = 0.2, d = 320, the growth rate and diffusivity of demo-dense's [pde].
FRONT_SPEED_RANGE = (8.0, 32.0)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # bundled config, relative to the repository root
    commands: tuple[str, ...]
    outputs: tuple[str, ...]
    overrides: dict = field(default_factory=dict)
    jobs: int = 1
    # Sizes for the self-test; they replace the overrides above.
    tiny: dict = field(default_factory=dict)
    sis: bool = False  # also integrate the well-mixed model at SIS_NUS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-sparse-j2",
            "configs/demo-sparse.ini",
            ("sweep", "analyze"),
            ("sweep.csv", "analysis.json"),
            overrides={"run.n_seeds": 30},
            jobs=2,
            tiny={"run.n_seeds": 2, "run.steps": 40},
        ),
        Workload(
            "theory-pde",
            "configs/demo-dense.ini",
            ("pde",),
            ("front.csv",),
            tiny={"pde.nx": 100, "pde.ny": 4, "pde.t_end": 30.0, "run.steps": 50},
            sis=True,
        ),
    )
}


def prepare(workload: Workload, seed: int, workdir: Path, tiny: bool = False) -> Path:
    """Write the workload's config for this seed; returns its path."""
    cfg = load_config(ROOT / workload.config)
    overrides = workload.tiny if tiny else workload.overrides
    for path, value in {**overrides, "network.seed": seed}.items():
        cfg = apply_override(cfg, path, value)
    path = workdir / "config.ini"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    return path


def work_units(workload: Workload, cfg) -> int:
    """Elementary updates in one repetition: cell-steps of the PDE solve, or
    sensor-steps summed over the member runs of a sweep."""
    if "pde" in workload.commands:
        pde = resolve_pde(cfg)
        return pde.nx * pde.ny * max(1, round(pde.t_end / pde.dt))
    return cfg.network.n * cfg.run.steps * len(sweep_points(cfg)) * cfg.run.n_seeds


@dataclass
class Repetition:
    wall_s: float
    command_s: dict
    load_config_s: float
    digests: dict
    output_bytes: int
    problems: list
    cpu: int | None = None  # the CPU the repetition was pinned to, if any


def _sis_runs(cfg) -> list[np.ndarray]:
    spec, net = cfg.sensor, cfg.network
    p = sensor.detection_probability(spec, cfg.environment)
    alpha = meanfield.alpha_theory(spec, net.area, p, cfg.meanfield.g)
    return [
        meanfield.integrate_sis(
            alpha, spec.tau_star, net.n, nu, net.initial_active, float(cfg.run.steps), 1.0,
            rel_tol=SIS_REL_TOL,
        ).y
        for nu in SIS_NUS
    ]


def run_once(workload: Workload, config_path: Path, out: Path, jobs: int) -> Repetition:
    """One repetition: the timed section, then the output check."""
    start = time.perf_counter()
    cfg = load_config(config_path)
    load_s = time.perf_counter() - start

    command_s = {}
    printed = io.StringIO()
    sis = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        for command in workload.commands:
            t = time.perf_counter()
            status = cli.dispatch(command, cfg, out, jobs=jobs)
            command_s[command] = time.perf_counter() - t
            if status != 0:
                raise RuntimeError(f"dscsim {command} exited with status {status}")
        if workload.sis:
            sis = _sis_runs(cfg)
    wall = time.perf_counter() - start

    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in workload.outputs}
    if sis:
        digests["integrate_sis"] = hashlib.sha256(b"".join(y.tobytes() for y in sis)).hexdigest()
    problems = check_outputs(workload, cfg, out, printed.getvalue(), sis)
    output_bytes = sum(p.stat().st_size for p in out.iterdir())
    return Repetition(wall, command_s, load_s, digests, output_bytes, problems)


def expected_digests(workload: Workload, seed: int) -> dict | None:
    """Recorded digests for this workload and seed, or None if none apply.

    theory-pde reads no random stream, so its digests hold at every seed.
    """
    if seed != DEFAULT_SEED and "pde" not in workload.commands:
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _in_unit(x) -> bool:
    return x is not None and 0.0 <= float(x) <= 1.0


def check_outputs(workload: Workload, cfg, out: Path, printed: str, sis) -> list[str]:
    """Invariants that hold at any seed; returns the violations found."""
    problems = []
    n = cfg.network.n
    if "sweep" in workload.commands:
        rows = _rows(out / "sweep.csv")
        want = len(sweep_points(cfg)) * cfg.run.n_seeds
        if len(rows) != want:
            problems.append(f"sweep.csv has {len(rows)} rows, expected {want}")
        if not all(_in_unit(r["plateau_mean"]) for r in rows):
            problems.append("sweep.csv: plateau_mean outside [0, 1]")
        report = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
        for entry in report["per_point"]:
            if not _in_unit(entry["plateau_sim"]) or not _in_unit(entry.get("plateau_theory", 0.0)):
                problems.append(f"analysis.json: plateau outside [0, 1] at point {entry['point']}")
    if "pde" in workload.commands:
        speed = None
        for line in printed.splitlines():
            if line.startswith("front speed:"):
                speed = float(line.split()[2])
        lo, hi = FRONT_SPEED_RANGE
        if speed is None or not lo <= speed <= hi:
            problems.append(f"front speed {speed} m/step outside [{lo}, {hi}]")
        if not _rows(out / "front.csv"):
            problems.append("front.csv is empty")
    for nu, y in zip(SIS_NUS, sis):
        if not (np.all(np.isfinite(y)) and np.all((y >= 0) & (y <= n))):
            problems.append(f"integrate_sis(nu={nu}) left [0, n]")
    return problems


def giant_fraction(indptr: np.ndarray, indices: np.ndarray) -> float:
    """Share of nodes in the largest connected component of a CSR graph.

    Min-label propagation with pointer jumping: every node takes the
    smallest label among itself and its neighbours until nothing changes,
    which leaves each component labelled by its smallest node.
    """
    n = indptr.size - 1
    labels = np.arange(n)
    linked = np.diff(indptr) > 0
    starts = indptr[:-1][linked]
    while True:
        lowest = labels.copy()
        if starts.size:
            lowest[linked] = np.minimum(labels[linked],
                                        np.minimum.reduceat(labels[indices], starts))
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            return float(np.bincount(labels).max() / n)
        labels = lowest


def graph_diagnostics(workload: Workload, cfg) -> list[dict]:
    """Mean degree and giant-component share of each sweep point's graph,
    built at the run's base seed from the public placement and CSR."""
    if "sweep" not in workload.commands:
        return []
    table = []
    for index, point in enumerate(sweep_points(cfg)):
        c = cfg
        for path, value in point.items():
            c = apply_override(c, path, value)
        positions = netsim.place_sensors(c.network, rng.substream(c.network.seed, rng.PLACEMENT))
        indptr, indices = netsim.neighbor_csr(positions, c.sensor.r_star)
        table.append({
            "point": index,
            **point,
            "mean_degree": indices.size / c.network.n,
            "giant_fraction": giant_fraction(indptr, indices),
        })
    return table
