"""The benchmark's tracer (bench/layers.py) wraps dscsim's module attributes
and reads some call arguments by position. These tests load it read-only
and check that everything it relies on still exists, so a change that
would break a traced benchmark run fails here first."""

import importlib.util
import inspect
from dataclasses import fields, replace
from pathlib import Path

from dscsim import meanfield, netsim
from dscsim.config import parse_config
from dscsim.environment import ConcentrationModel
from dscsim.sensor import SensorSpec

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

CONFIG = """\
[environment]
c0 = 150.0

[sensor]
c_star = 154.5
tau_star = 5
r_star = 40.0

[network]
n = 400
width = 1000.0
height = 1000.0

[pde]
nx = 12
ny = 2
t_end = 3.0
dt = 0.0625
"""


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_wraps_every_hook_and_restores_it():
    with _tracer() as tracer:
        hooks = list(tracer._undo)
        assert hooks
        for owner, attr, original in hooks:
            assert getattr(owner, attr) is not original, attr
    for owner, attr, original in hooks:
        assert getattr(owner, attr) is original, attr


def test_tracer_reads_the_pde_step_count_and_fields():
    # _on_pde reads t_end and dt as positional arguments 3 and 4, and the
    # snapshots from the trajectory's active and passive lists.
    assert list(inspect.signature(meanfield.integrate_pde).parameters)[3:5] == ["t_end", "dt"]
    assert {"active", "passive"} <= {f.name for f in fields(meanfield.PdeTrajectory)}
    with _tracer() as tracer:
        meanfield.run_pde(parse_config(CONFIG))
    assert tracer.spans["meanfield.integrate_pde"].calls == 1
    assert tracer.counts["meanfield.integrate_pde.steps"] == 48


def test_tracer_counts_the_simulator_hooks():
    # _on_step counts each traced step's sensors, messages and detections
    # from its record; the union's repeated seed is placed and linked once.
    config = netsim.NetworkConfig(n=60, width=300.0, height=300.0, initial_active=4,
                                  delta=0.1, rotation_period=6, failure_rate=0.01, seed=3)
    spec = SensorSpec(c_star=150.0, tau_star=4, r_star=60.0)
    model = ConcentrationModel(c0=150.0)
    with _tracer() as tracer:
        records = netsim.run(config, spec, model, 40)
        netsim.Simulation(config, [spec, replace(spec, r_star=30.0), spec], model,
                          seeds=(3, 4, 3))
    assert sum(r.messages_sent for r in records) > 0
    assert records[-1].n_faulty > 0
    counts = tracer.counts
    assert counts["netsim.sensor_steps"] == sum(
        r.n_active + r.n_passive + r.n_faulty for r in records)
    assert counts["netsim.messages"] == sum(r.messages_sent for r in records)
    assert counts["netsim.detections"] == sum(r.detections for r in records)
    assert "netsim.conservation_violations" not in counts
    assert tracer.spans["netsim.Simulation.step"].calls == 40
    # One distinct seed in the run, two in the union.
    assert tracer.spans["netsim.place_sensors"].calls == 3
    assert tracer.spans["netsim.neighbor_csr"].calls == 3
    # A sensor dropped from the active list keeps its timer, so every later
    # record counts one sensor short of n.
    with _tracer() as tracer:
        sim = netsim.Simulation(config, spec, model)
        sim.step()
        sim._active = sim._active[1:]
        for _ in range(3):
            sim.step()
    assert tracer.counts["netsim.conservation_violations"] == 3
