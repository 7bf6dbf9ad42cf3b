"""Golden output digests: byte-level regression guard for the simulator.

The other determinism tests compare a rerun with a rerun, so a change in
how the random streams are consumed, or in which neighbor pairs the graph
holds, would pass them unnoticed. These sha256 values pin the bytes of
reduced-size outputs of the bundled configs, of one run with every
protocol option switched on, of the sweep -> analyze bridge and the
meanfield report, and of the neighbor CSR itself. A change that alters
any of them changes the simulator's results.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from dscsim import __version__, cli, netsim, rng
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
