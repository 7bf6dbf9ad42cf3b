"""Golden output digests: byte-level regression guard for the simulator.

The other determinism tests compare a rerun with a rerun, so a change in
how the random streams are consumed, or in which neighbor pairs the graph
holds, would pass them unnoticed. These sha256 values pin the bytes of
reduced-size outputs of the bundled configs, of one run with every
protocol option switched on, of the sweep -> analyze bridge and the
meanfield report, of the neighbor CSR itself, and of the theory layer's
solvers (`pde`'s front.csv, integrate_pde's recorded fields and
integrate_sis's trajectories). A change that alters any of them changes
the simulator's results.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from dscsim import __version__, cli, meanfield, netsim, rng
from dscsim.config import apply_override, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config(name, **overrides):
    cfg = load_config(CONFIGS / name)
    for path, value in overrides.items():
        cfg = apply_override(cfg, path, value)
    return cfg


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


SIMULATE = {
    "demo-sparse.ini": "cf189a9a8a21ae8400f509c256cc0b18d79b9b08d7ae96e024c051a4f6caa1bd",
    "demo-dense.ini": "9edf42861ec9cbde7935490afc3cc5b9f88265a10ea98a3fb08f858b6adf62c9",
}


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_digest(tmp_path, name):
    cfg = _config(name, **{"run.steps": 200})
    assert cli.dispatch("simulate", cfg, tmp_path) == 0
    assert _sha256(tmp_path / "simulation.csv") == SIMULATE[name]


# Sample streams are drawn in blocks of 128 steps, so only a run past step
# 256 can wake a sensor for the first time in its third block. The 500-step
# runs below reach the fourth block; the all-options run of demo-sparse
# first wakes sensors in every block, by messages and by permanent-set
# rotation.
SIMULATE_500 = "156d5c758d6b93903a34ab51f70b4c51c2357d8446ec820582b10eba924846ad"


def test_simulate_digest_500_steps(tmp_path):
    cfg = _config("demo-sparse.ini", **{"run.steps": 500})
    assert cli.dispatch("simulate", cfg, tmp_path) == 0
    assert _sha256(tmp_path / "simulation.csv") == SIMULATE_500


def _all_options_config(name, steps, delta, failure_rate):
    return _config(
        name,
        **{
            "run.steps": steps,
            "network.delta": delta,
            "network.failure_rate": failure_rate,
            "network.rotation_period": 15,
            "network.single_shot": True,
            "network.refresh_on_detect": True,
            "network.seed": 7,
        },
    )


ALL_OPTIONS = "05777d9bf4c2bcf8cf04c3e5d97264a30fe1e631001f28a6e97a0374bbc0c8ca"


def test_simulate_digest_all_protocol_options(tmp_path):
    cfg = _all_options_config("demo-dense.ini", 200, 0.05, 0.002)
    assert cli.dispatch("simulate", cfg, tmp_path) == 0
    assert _sha256(tmp_path / "simulation.csv") == ALL_OPTIONS


ALL_OPTIONS_500 = {
    ("demo-dense.ini", 0.05, 0.002): "8ebacc9fdee6a7b0aedba9a136f180f9c9d6eff2920219fe8591f9fe20357226",
    ("demo-sparse.ini", 0.01, 0.0005): "ecbe1c10a5336636af7d3a80410c00534703caded4c5a50fc3a6ec21cc39e6fc",
}


@pytest.mark.parametrize("name, delta, failure_rate", sorted(ALL_OPTIONS_500))
def test_simulate_digest_all_protocol_options_500_steps(tmp_path, name, delta, failure_rate):
    cfg = _all_options_config(name, 500, delta, failure_rate)
    assert cli.dispatch("simulate", cfg, tmp_path) == 0
    assert _sha256(tmp_path / "simulation.csv") == ALL_OPTIONS_500[(name, delta, failure_rate)]


SWEEP = {
    "demo-sparse.ini": "0c0b59458d03b8615b7516ff977fd0471c45ac7b8a008c19db89736fa74ec7f0",
    "demo-dense.ini": "0bfd5e39985e2b13fa874b6338555b3a13a3879ded69cd1a5f9fc3c08148001f",
}


# The sweep's manifest.json, hashed with the installed numpy version
# written as "NUMPY" so that the digest pins only what dscsim writes.
SWEEP_MANIFEST = {
    "demo-sparse.ini": "303d009e16d204c7524b26e4321ee15feff7886813afe48032e311767013c214",
    "demo-dense.ini": "283fb257ef536d5ec426b5f08b8f4927c96148baf4855e9e8dff737581ea585d",
}

ANALYSIS = {
    "demo-sparse.ini": "ef7e2b28b9f99ec882e8d9691d8d44286ac3e6c34afd81b69adfcbcab0c5c673",
    "demo-dense.ini": "d0b043ea496c77ed29a67cb01c69ece581061d57d300dc9199cd4d5b8a4c9e4b",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(SWEEP))
def test_sweep_digest(tmp_path, name, jobs):
    cfg = _config(name, **{"run.steps": 200, "run.n_seeds": 3})
    assert cli.dispatch("sweep", cfg, tmp_path, jobs=jobs) == 0
    assert _sha256(tmp_path / "sweep.csv") == SWEEP[name]
    manifest = (tmp_path / "manifest.json").read_text(encoding="utf-8")
    assert f'"numpy": "{np.__version__}"' in manifest
    assert f'"dscsim": "{__version__}"' in manifest
    masked = manifest.replace(f'"numpy": "{np.__version__}"', '"numpy": "NUMPY"')
    assert hashlib.sha256(masked.encode("utf-8")).hexdigest() == SWEEP_MANIFEST[name]
    assert cli.dispatch("analyze", cfg, tmp_path, jobs=jobs) == 0
    assert _sha256(tmp_path / "analysis.json") == ANALYSIS[name]


# sweep.csv with every protocol option on, 3 seeds x 300 steps, so that the
# members of each point cross the 128- and 256-step sample blocks with
# failures, rotation, single-shot broadcasts and detection refresh active.
SWEEP_ALL_OPTIONS = {
    ("demo-dense.ini", 0.05, 0.002): "a90f677aefda2ddb541afd8eab52095a355a4a4adf14f774b861bebe60bf36c4",
    ("demo-sparse.ini", 0.01, 0.0005): "acc7081c1b99eafd0469a336712a278ba77d77c28a71e120d242357281f7b6a3",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name, delta, failure_rate", sorted(SWEEP_ALL_OPTIONS))
def test_sweep_digest_all_protocol_options(tmp_path, name, delta, failure_rate, jobs):
    cfg = apply_override(_all_options_config(name, 300, delta, failure_rate), "run.n_seeds", 3)
    assert cli.dispatch("sweep", cfg, tmp_path, jobs=jobs) == 0
    assert _sha256(tmp_path / "sweep.csv") == SWEEP_ALL_OPTIONS[(name, delta, failure_rate)]


MEANFIELD = {
    "demo-sparse.ini": "b8e89268d7737e70a758d78d43280ad2ffa4a3b4f665f295d55cc695095d689d",
    "demo-dense.ini": "6323a8d2bff7ed74c9a922a104f63013b709039d8449dd70edf9a0a2850c4a2e",
}


@pytest.mark.parametrize("name", sorted(MEANFIELD))
def test_meanfield_digest(tmp_path, name, capsys):
    assert cli.dispatch("meanfield", _config(name), tmp_path) == 0
    assert _sha256(tmp_path / "meanfield.json") == MEANFIELD[name]


CSR = {
    (400, 20.0): "e9bd4bdbb957476d9fe89cb69d5bbf9c27c62c64eaf131dcb405c1a6471a80a1",
    (400, 40.0): "7c5af385959f53274214ff196346c239d4168ab7f2b7e1dd54e57e796661dcf1",
    (400, 65.0): "7151a6418a58f46370afd6f6d400478acdcfdd089e07cab9480760b774e462a8",
    (4000, 20.0): "5c9a373ba97bb16b4b67402fd3d1ead6ccf89dcf632187faac4b85b5fed33670",
}


@pytest.mark.parametrize("n, r_star", sorted(CSR))
def test_neighbor_csr_digest(n, r_star):
    net = netsim.NetworkConfig(n=n, width=1000.0, height=1000.0, seed=3)
    positions = netsim.place_sensors(net, rng.substream(net.seed, rng.PLACEMENT))
    indptr, indices = netsim.neighbor_csr(positions, r_star)
    digest = hashlib.sha256(indptr.tobytes() + indices.tobytes()).hexdigest()
    assert digest == CSR[(n, r_star)]


# `dscsim pde` on both bundled configs with the grid shrunk to about a
# second of work; demo-sparse's front dies out, demo-dense's advances.
PDE_FRONT = {
    "demo-sparse.ini": "20ac1b0cdc2eb6877371f3a3351f36376f8bebcb2623e75190a80946b822e166",
    "demo-dense.ini": "b52d300cc4ad9b4377950886fba803014e7cf487e6905ca429d3d2deaa76b54b",
}


@pytest.mark.parametrize("name", sorted(PDE_FRONT))
def test_pde_front_digest(tmp_path, name, capsys):
    cfg = _config(name, **{"pde.nx": 120, "pde.ny": 8, "pde.t_end": 60.0})
    assert cli.dispatch("pde", cfg, tmp_path) == 0
    assert _sha256(tmp_path / "front.csv") == PDE_FRONT[name]


def _seeded(nx, ny, dx, d, columns, level):
    active = np.zeros((ny, nx))
    active[:, :columns] = level
    return (active, 1.0 - active), dx, d


def _random_grid(nx, ny, dx, d, seed):
    gen = np.random.default_rng(seed)
    return (gen.uniform(0.0, 0.6, (ny, nx)), gen.uniform(0.2, 1.0, (ny, nx))), dx, d


def _alpha_ramp(nx, ny):
    x = np.linspace(0.1, 0.9, nx)
    y = np.linspace(0.8, 1.2, ny)
    return np.outer(y, x)


# ((fields, dx, d), alpha, tau_star, t_end, dt, record_every) per case. The clamp case
# is seeded so densely that RK4 overshoots below zero in both fields within
# its four steps (checked in test_pde_clamp_is_reached).
PDE_CASES = {
    "scalar-alpha": lambda: (_seeded(30, 8, 5.0, 10.0, 3, 0.5), 0.4, 5.0, 20.0, 0.5, 4),
    "alpha-field": lambda: (_seeded(24, 6, 5.0, 10.0, 3, 0.5), _alpha_ramp(24, 6), 5.0,
                            15.0, 0.25, 6),
    "tau-inf": lambda: (_random_grid(16, 7, 2.0, 1.0, 11), 0.3, math.inf, 10.0, 0.5, 3),
    "no-diffusion": lambda: (_random_grid(5, 3, 1.0, 0.0, 12), 0.4, 5.0, 10.0, 0.01, 100),
    "clamp": lambda: (_seeded(12, 5, 2.0, 1.0, 3, 0.8), 20.0, 5.0, 1.0, 0.25, 1),
}

# sha256 of the times and then each record's active and passive bytes.
PDE_DIGEST = {
    "alpha-field": "6c2f28f85f77a65e929d8a7affe41a27a378de342332c2df295170a963f2fa7e",
    "clamp": "479758f2cf8bbe4ff13b5e7e95cf566ed5065730a1770f0ede0893ea9f43320d",
    "no-diffusion": "ae07a23a681ad9d146fe3f6628fc5c6f15043f8e6bc959d5aa49189f5b4d7693",
    "scalar-alpha": "fed60ea10c15552c7ab025629536996a7b995aa02a09751d7c93c958d0d29d7b",
    "tau-inf": "554408cccb52ee33514c97873d827be3d58e7982c9b4c9444120195cc4e0eeb5",
}


def _pde_digest(trajectory):
    h = hashlib.sha256(trajectory.times.tobytes())
    assert len(trajectory.active) == len(trajectory.passive) == trajectory.times.size
    for a, p in zip(trajectory.active, trajectory.passive):
        h.update(a.tobytes())
        h.update(p.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(PDE_CASES))
def test_integrate_pde_digest(case):
    (fields, dx, d), alpha, tau_star, t_end, dt, record_every = PDE_CASES[case]()
    trajectory = meanfield.integrate_pde(fields, alpha, tau_star, t_end, dt, dx, d, record_every)
    assert _pde_digest(trajectory) == PDE_DIGEST[case]


def _unclamped_rk4_step(a, p, alpha, decay, d, dx, dt):
    """One RK4 step of the PDE without the non-negativity clamp."""
    def lap(f):
        padded = np.pad(f, 1, mode="edge")
        return (padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2]
                + padded[1:-1, 2:] - 4.0 * f) / (dx * dx)

    def rhs(a, p):
        react = alpha * a * p - decay * a
        return d * lap(a) + react, d * lap(p) - react

    ka1, kp1 = rhs(a, p)
    ka2, kp2 = rhs(a + 0.5 * dt * ka1, p + 0.5 * dt * kp1)
    ka3, kp3 = rhs(a + 0.5 * dt * ka2, p + 0.5 * dt * kp2)
    ka4, kp4 = rhs(a + dt * ka3, p + dt * kp3)
    return (a + (dt / 6.0) * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4),
            p + (dt / 6.0) * (kp1 + 2.0 * kp2 + 2.0 * kp3 + kp4))


def test_pde_clamp_is_reached():
    (fields, dx, d), alpha, tau_star, t_end, dt, record_every = PDE_CASES["clamp"]()
    trajectory = meanfield.integrate_pde(fields, alpha, tau_star, t_end, dt, dx, d, record_every)
    assert trajectory.times.size == 5
    clamped = {"active": 0, "passive": 0}
    snaps = list(zip(trajectory.active, trajectory.passive))
    for (a, p), (next_a, next_p) in zip(snaps, snaps[1:]):
        raw_a, raw_p = _unclamped_rk4_step(a, p, alpha, 1.0 / tau_star, d, dx, dt)
        for name, raw, kept in (("active", raw_a, next_a), ("passive", raw_p, next_p)):
            if raw.min() < 0:
                clamped[name] += 1
                assert kept.min() == 0.0
    assert clamped["active"] >= 1 and clamped["passive"] >= 1


# integrate_sis at the benchmark's tolerance and three densities.
SIS = {
    0.5: "aaf79fc05a0d8d6b57c99a143cb73e1583c0d3f0222f7235d936332394c240c9",
    0.7: "468298a97e7bc530a9aab4f9d61b0d4e20c5d8d5365c9a5b43490474ebe53624",
    1.0: "82b175fda1c0a2db22d83fb11cb29987b7ec9fc3d09617bcebcce53df6ba2703",
}


@pytest.mark.parametrize("nu", sorted(SIS))
def test_integrate_sis_digest(nu):
    traj = meanfield.integrate_sis(1e-3, 5.0, 400, nu, 10.0, 120.0, 1.0, rel_tol=1e-12)
    assert hashlib.sha256(traj.t.tobytes() + traj.y.tobytes()).hexdigest() == SIS[nu]
