"""Agent-based protocol: placement, neighbor search, step semantics,
conservation, determinism, and the epidemic dichotomy."""

import math
import multiprocessing
import os
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dscsim import analysis, environment, meanfield, netsim, rng, sensor
from dscsim.config import load_config
from dscsim.environment import ConcentrationModel
from dscsim.netsim import (
    _SAMPLE_BLOCK,
    FAULTY,
    NetworkConfig,
    Simulation,
    active_fraction,
    ensemble_run,
    neighbor_csr,
    place_sensors,
    run,
    run_members,
)
from dscsim.sensor import SensorSpec

REFERENCE = ConcentrationModel(c0=150.0, gamma=26.0 / 3.0, omega=0.98)
SPEC40 = SensorSpec(c_star=1.03 * 150.0, tau_star=5, r_star=40.0)


def paper_config(**overrides):
    base = dict(n=400, width=1000.0, height=1000.0, initial_active=10, seed=0)
    base.update(overrides)
    return NetworkConfig(**base)


class TestConfigValidation:
    def test_permanent_plus_initial_bound(self):
        with pytest.raises(ValueError, match="exceed"):
            NetworkConfig(n=10, width=10.0, height=10.0, delta=0.5, initial_active=6)

    def test_delta_range(self):
        with pytest.raises(ValueError, match="delta"):
            NetworkConfig(n=10, width=10.0, height=10.0, delta=1.5)

    def test_failure_rate_range(self):
        with pytest.raises(ValueError, match="failure_rate"):
            NetworkConfig(n=10, width=10.0, height=10.0, failure_rate=2.0)

    @pytest.mark.parametrize("width, height", [
        (math.inf, 10.0), (10.0, math.inf), (math.nan, 10.0), (10.0, math.nan), (-math.inf, 10.0),
        (1e200, 1e200), (1e-200, 1e-200),  # width * height overflows, underflows
    ])
    def test_region_must_be_finite(self, width, height):
        with pytest.raises(ValueError, match="finite"):
            NetworkConfig(n=10, width=width, height=height)

    def test_permanent_count_ceil(self):
        cfg = NetworkConfig(n=10, width=10.0, height=10.0, delta=0.11, initial_active=0)
        assert cfg.permanent_count == 2

    @pytest.mark.parametrize("period", [2.5, 5.0, np.float64(5.0), "5", -1, np.int64(-1)])
    def test_rotation_period_must_be_an_integer_at_least_zero(self, period):
        # t % 2.5 == 0 would reshuffle every 5 steps, silently.
        with pytest.raises(ValueError, match="rotation_period must be an integer"):
            NetworkConfig(n=10, width=10.0, height=10.0, delta=0.1, initial_active=0,
                          rotation_period=period)

    @pytest.mark.parametrize("key, value", [
        ("n", 50.0), ("n", np.float64(50.0)), ("n", "50"), ("initial_active", 2.0),
        ("initial_active", 2.5), ("seed", 1.5), ("seed", 3.0), ("seed", None),
    ])
    def test_counts_and_seed_must_be_integers(self, key, value):
        # n = 50.0 failed later in numpy, seed = 1.5 inside SeedSequence.
        base = dict(n=10, width=10.0, height=10.0, initial_active=0)
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            NetworkConfig(**{**base, key: value})

    def test_numpy_integer_counts_and_seed_accepted(self):
        cfg = NetworkConfig(n=np.int64(10), width=10.0, height=10.0,
                            initial_active=np.int32(2), seed=np.uint64(7))
        assert (cfg.n, cfg.initial_active, cfg.seed) == (10, 2, 7)

    @pytest.mark.parametrize("period", [None, 0, 7, np.int64(7), np.int32(7)])
    def test_integer_rotation_periods_accepted(self, period):
        cfg = NetworkConfig(n=10, width=10.0, height=10.0, delta=0.1, initial_active=0,
                            rotation_period=period)
        assert cfg.rotation_period == period


class TestPlacement:
    def test_single_point_inside_region(self):
        cfg = NetworkConfig(n=1, width=30.0, height=7.0, initial_active=0)
        pos = place_sensors(cfg, rng.substream(0, rng.PLACEMENT))
        assert pos.shape == (1, 2)
        assert 0 <= pos[0, 0] <= 30.0 and 0 <= pos[0, 1] <= 7.0

    def test_layout_deterministic_per_seed(self):
        cfg = paper_config()
        a = place_sensors(cfg, rng.substream(3, rng.PLACEMENT))
        b = place_sensors(cfg, rng.substream(3, rng.PLACEMENT))
        assert a.tobytes() == b.tobytes()

    def test_quadrant_counts_binomial(self):
        # each quadrant holds n/4 +- 3 * sqrt(n * (1/4) * (3/4)) sensors
        cfg = paper_config()
        bound = 3.0 * math.sqrt(cfg.n * 0.25 * 0.75)
        for seed in range(20):
            pos = place_sensors(cfg, rng.substream(seed, rng.PLACEMENT))
            left = pos[:, 0] < cfg.width / 2
            low = pos[:, 1] < cfg.height / 2
            for quad in (left & low, left & ~low, ~left & low, ~left & ~low):
                assert abs(int(quad.sum()) - cfg.n / 4) <= bound


def _brute_force_csr(pos, r_star):
    """All-pairs oracle, with the builder's float expression d = pos[j] - pos[i]."""
    d = pos[None, :, :] - pos[:, None, :]
    adj = (d[..., 0] ** 2 + d[..., 1] ** 2 <= r_star * r_star) & ~np.eye(len(pos), dtype=bool)
    return np.concatenate([[0], np.cumsum(adj.sum(axis=1))]), np.nonzero(adj)[1]


_COORD = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_KM_SQUARE = np.random.default_rng(7).random((200, 2)) * 1000.0


@st.composite
def _placements(draw):
    """Free or lattice points in +-1e3, with duplicates drawn by index."""
    if draw(st.booleans()):
        base = draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=40))
    else:
        spacing = draw(st.floats(1e-3, 30.0))
        cells = st.tuples(st.integers(-30, 30), st.integers(-30, 30))
        base = [(i * spacing, j * spacing) for i, j in draw(st.lists(cells, min_size=1, max_size=40))]
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=60))
    return [base[k] for k in picks]


def _csr_row(pos, i, r_star):
    """Neighbors of sensor i: row i of the CSR."""
    indptr, indices = neighbor_csr(pos, r_star)
    return indices[indptr[i]:indptr[i + 1]]


class TestNeighborSearch:
    def test_inclusive_boundary_at_exact_range(self):
        pos = np.array([[0.0, 0.0], [40.0, 0.0], [40.0001, 40.0]])
        assert _csr_row(pos, 0, 40.0).tolist() == [1]

    def test_full_range_covers_everyone(self):
        gen = np.random.default_rng(1)
        pos = gen.random((30, 2)) * [100.0, 50.0]
        diag = math.hypot(100.0, 50.0)
        for i in range(30):
            assert _csr_row(pos, i, diag).tolist() == [
                j for j in range(30) if j != i
            ]

    @pytest.mark.parametrize("trial", range(25))
    def test_matches_brute_force(self, trial):
        gen = np.random.default_rng(1000 + trial)
        n = int(gen.integers(2, 120))
        pos = gen.random((n, 2)) * [400.0, 250.0]
        r = float(gen.uniform(5.0, 120.0))
        i = int(gen.integers(n))
        d2 = ((pos - pos[i]) ** 2).sum(axis=1)
        expected = np.flatnonzero((d2 <= r * r) & (np.arange(n) != i))
        assert np.array_equal(_csr_row(pos, i, r), expected)

    def test_csr_consistent_with_queries(self):
        gen = np.random.default_rng(5)
        pos = gen.random((60, 2)) * [200.0, 200.0]
        indptr, indices = neighbor_csr(pos, 35.0)
        expected_indptr, expected_indices = _brute_force_csr(pos, 35.0)
        assert np.array_equal(indptr, expected_indptr)
        assert np.array_equal(indices, expected_indices)

    @settings(derandomize=True, deadline=None)
    @given(positions=_placements(), r_star=st.floats(1e-3, 3e3))
    # Pairs that pass the distance test from two cells apart.
    @example(positions=[[0.9999999999999999, 0.0], [2.0, 0.0]], r_star=1.0)
    @example(positions=[[32 * 0.9999999999999999, 0.0], [64.0, 0.0]], r_star=32.0)
    @example(positions=[[1.0, -1.3e-38], [-1.3e-38, -1.3e-38]], r_star=1.0)
    # r_star**2 underflows to 0, so the test accepts any pair whose squared
    # separation underflows too.
    @example(positions=[[0.0, 0.0], [1e-170, 0.0]], r_star=1e-300)
    # Tiny range on a 1 km square: cell ids would overflow int64 at width r_star.
    @example(positions=np.vstack([_KM_SQUARE, _KM_SQUARE[:4]]), r_star=1e-9)
    def test_csr_is_the_brute_force_graph(self, positions, r_star):
        pos = np.asarray(positions, dtype=float)
        n = len(pos)
        indptr, indices = neighbor_csr(pos, r_star)
        expected_indptr, expected_indices = _brute_force_csr(pos, r_star)
        assert np.array_equal(indptr, expected_indptr)
        assert np.array_equal(indices, expected_indices)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        assert np.all(rows != indices)
        assert np.array_equal(np.sort(indices * n + rows), rows * n + indices)  # symmetric
        assert np.all(np.diff(indices)[rows[1:] == rows[:-1]] > 0)

    @pytest.mark.parametrize("r_star", [math.nan, 0.0, -0.0, -40.0, -math.inf])
    def test_range_must_be_positive(self, r_star):
        # At r_star = -40 the rule d**2 <= r_star**2 would admit most pairs.
        with pytest.raises(ValueError, match="r_star"):
            neighbor_csr(_KM_SQUARE[:50], r_star)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_positions_must_be_finite(self, bad):
        pos = _KM_SQUARE[:50].copy()
        pos[7, 1] = bad
        with pytest.raises(ValueError, match="positions"):
            neighbor_csr(pos, 40.0)

    def test_no_points_no_edges(self):
        indptr, indices = neighbor_csr(np.zeros((0, 2)), 40.0)
        assert indptr.tolist() == [0] and indices.size == 0

    @pytest.mark.parametrize("positions", [
        [[0.0, 0.0], [1e200, 1e200], [-1e200, 5.0]],  # used to overflow in square
        [[0.0, 0.0], [1e154, 1e154]],  # each square is finite, their sum is not
    ])
    def test_extent_whose_squares_overflow_rejected(self, positions):
        with pytest.raises(ValueError,
                           match=r"^2 \* extent\*\*2 of positions must be finite, got inf$"):
            neighbor_csr(positions, 1.0)

    def test_largest_extent_accepted(self):
        indptr, indices = neighbor_csr([[0.0, 0.0], [9e153, 9e153]], 1.3e154)
        assert indptr.tolist() == [0, 1, 2] and indices.tolist() == [1, 0]

    @pytest.mark.parametrize("shape", [(3, 3), (3,), (3, 1), (2, 3, 2), ()])
    def test_positions_must_be_k_by_2(self, shape):
        # (3, 3) and 1-D positions used to fail with "too many values to unpack"
        with pytest.raises(ValueError, match=r"positions must be .* of shape \(k, 2\)"):
            neighbor_csr(np.zeros(shape), 40.0)

    def test_cell_table_stays_linear_in_points(self):
        # Cells r_star wide would number 1e30 on a 1e6 m square at r_star =
        # 1e-9; the table is bounded by the points instead. Only the copied
        # points are neighbors.
        base = np.random.default_rng(11).random((19_996, 2)) * 1e6
        small = np.vstack([base[:200], base[:4]])
        for got, expected in zip(neighbor_csr(small, 1e-9), _brute_force_csr(small, 1e-9)):
            assert np.array_equal(got, expected)
        pos = np.vstack([base, base[:4]])
        tracemalloc.start()
        try:
            indptr, indices = neighbor_csr(pos, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        copies = np.arange(4)
        assert np.array_equal(np.flatnonzero(np.diff(indptr)), np.r_[copies, copies + 19_996])
        assert np.array_equal(indices, np.r_[copies + 19_996, copies])
        # 5.6 MB measured for these 20 000 points (numpy 2, 64-bit).
        assert peak < 8e6


class TestStepSemantics:
    def test_isolated_sensor_dies_after_tau(self):
        cfg = NetworkConfig(n=1, width=100.0, height=100.0, initial_active=1, seed=2)
        spec = SensorSpec(c_star=0.0, tau_star=4, r_star=5.0)
        records = run(cfg, spec, REFERENCE, 12)
        assert [r.n_active for r in records[:3]] == [1, 1, 1]
        assert all(r.n_active == 0 for r in records[3:])

    def test_zero_environment_decays_to_permanent_baseline(self):
        silent = ConcentrationModel(c0=1.0, omega=0.0)
        cfg = NetworkConfig(
            n=100, width=100.0, height=100.0, delta=0.1, initial_active=10, seed=4
        )
        spec = SensorSpec(c_star=0.5, tau_star=5, r_star=30.0)
        records = run(cfg, spec, silent, 40)
        assert all(r.detections == 0 for r in records)
        assert all(r.n_active == cfg.permanent_count for r in records[spec.tau_star:])

    def test_full_connectivity_certain_detection_saturates(self):
        sure = ConcentrationModel(c0=1.0, omega=1.0)
        cfg = NetworkConfig(n=20, width=100.0, height=100.0, initial_active=1, seed=6)
        spec = SensorSpec(c_star=0.0, tau_star=5, r_star=150.0)  # covers the diagonal
        records = run(cfg, spec, sure, 25)
        assert all(r.n_active == cfg.n for r in records[1:])

    def test_conservation_with_failures_and_rotation(self):
        cfg = NetworkConfig(
            n=150,
            width=400.0,
            height=400.0,
            delta=0.1,
            rotation_period=20,
            initial_active=5,
            failure_rate=0.01,
            seed=8,
        )
        records = run(cfg, SPEC40, REFERENCE, 250)
        for r in records:
            assert r.n_active + r.n_passive + r.n_faulty == cfg.n
        faulty = [r.n_faulty for r in records]
        assert all(a <= b for a, b in zip(faulty, faulty[1:]))  # absorbing
        assert faulty[-1] > 0

    def test_record_counts_the_active_list_and_the_timers(self):
        cfg = NetworkConfig(n=150, width=400.0, height=400.0, delta=0.1, rotation_period=20,
                            initial_active=5, failure_rate=0.01, seed=8)
        sim = Simulation(cfg, SPEC40, REFERENCE)
        for _ in range(100):
            record = sim.step()
            timers = sim.remaining
            assert record.n_active == sim._active.size == np.count_nonzero(timers > 0)
            assert record.n_passive == np.count_nonzero(timers == 0)
            assert record.n_faulty == np.count_nonzero(timers == FAULTY)
        assert record.n_faulty > 0
        # A sensor dropped from the active list keeps its timer: the record
        # no longer sums to n.
        sim._active = sim._active[1:]
        record = sim.step()
        assert record.n_active + record.n_passive + record.n_faulty == cfg.n - 1

    def test_all_faulty_network_goes_silent(self):
        cfg = NetworkConfig(
            n=30, width=100.0, height=100.0, initial_active=5, failure_rate=0.2, seed=9
        )
        records = run(cfg, SPEC40, REFERENCE, 120)
        assert records[-1].n_faulty == cfg.n
        assert records[-1].n_active == 0

    def test_rotation_reshuffles_permanent_set(self):
        cfg = NetworkConfig(
            n=60, width=100.0, height=100.0, delta=0.2, rotation_period=10,
            initial_active=0, seed=10,
        )
        sim = Simulation(cfg, SPEC40, REFERENCE)
        first = sim.permanent.copy()
        for _ in range(30):
            sim.step()
        assert sim.permanent.sum() == cfg.permanent_count
        assert not np.array_equal(first, sim.permanent)

    def test_single_shot_limits_messages(self):
        sure = ConcentrationModel(c0=1.0, omega=1.0)
        spec = SensorSpec(c_star=0.0, tau_star=5, r_star=150.0)
        cfg = NetworkConfig(n=15, width=100.0, height=100.0, initial_active=15, seed=11)
        per_step = run(cfg, spec, sure, 10)
        one_shot = run(
            NetworkConfig(n=15, width=100.0, height=100.0, initial_active=15,
                          seed=11, single_shot=True),
            spec, sure, 10,
        )
        assert sum(r.messages_sent for r in one_shot) < sum(r.messages_sent for r in per_step)
        # detections are counted regardless of broadcast suppression, until
        # the unrefreshed network dies
        assert all(r.detections == 15 for r in one_shot[: spec.tau_star])

    def test_refresh_on_detect_keeps_certain_detector_alive(self):
        sure = ConcentrationModel(c0=1.0, omega=1.0)
        spec = SensorSpec(c_star=0.0, tau_star=3, r_star=1.0)
        base = dict(n=1, width=100.0, height=100.0, initial_active=1, seed=12)
        plain = run(NetworkConfig(**base), spec, sure, 10)
        assert plain[-1].n_active == 0
        refreshed = run(NetworkConfig(**base, refresh_on_detect=True), spec, sure, 10)
        assert all(r.n_active == 1 for r in refreshed)


class TestDeterminism:
    def test_identical_runs_identical_records(self):
        cfg = paper_config(seed=21)
        a = run(cfg, SPEC40, REFERENCE, 120)
        b = run(cfg, SPEC40, REFERENCE, 120)
        assert a == b

    def test_stepwise_equals_batch(self):
        cfg = paper_config(seed=22, n=100)
        sim = Simulation(cfg, SPEC40, REFERENCE)
        stepped = [sim.step() for _ in range(260)]  # crosses sample-block refills
        assert stepped == run(cfg, SPEC40, REFERENCE, 260)

    def test_ensemble_parallel_matches_serial(self):
        cfg = paper_config(seed=23, n=100)
        serial = ensemble_run(cfg, SPEC40, REFERENCE, steps=60, n_seeds=4, jobs=1)
        parallel = ensemble_run(cfg, SPEC40, REFERENCE, steps=60, n_seeds=4, jobs=2)
        assert serial.mean.tobytes() == parallel.mean.tobytes()
        assert serial.std.tobytes() == parallel.std.tobytes()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_ensemble_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            ensemble_run(paper_config(n=10), SPEC40, REFERENCE, steps=5, n_seeds=2, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_members_keeps_input_order(self, jobs):
        # Different step counts make every member's trajectory recognisable.
        members = [(paper_config(seed=30 + k, n=60), SPEC40, REFERENCE, steps)
                   for k, steps in enumerate([7, 3, 9, 5])]
        got = run_members(members, jobs)
        assert [t.size for t in got] == [7, 3, 9, 5]
        for traj, (cfg, spec, model, steps) in zip(got, members):
            expected = active_fraction(run(cfg, spec, model, steps), cfg.n)
            assert traj.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, 2.0, "2"])
    def test_run_members_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            run_members([(paper_config(n=10), SPEC40, REFERENCE, 5)], jobs)

    @pytest.mark.parametrize("n_seeds", [0, 2.5, 2.0])
    def test_ensemble_rejects_non_integer_or_too_few_seeds(self, n_seeds):
        with pytest.raises(ValueError, match="n_seeds must be an integer >= 1"):
            ensemble_run(paper_config(n=10), SPEC40, REFERENCE, steps=5, n_seeds=n_seeds)

    @pytest.mark.parametrize("steps", [0, -2, 12.5, 12.0, np.float64(12.0), "12"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_members_checks_steps_before_any_union_or_pool(self, monkeypatch, steps,
                                                               jobs):
        def refuse(*args, **kwargs):
            raise AssertionError("built before the inputs were checked")

        monkeypatch.setattr(multiprocessing, "Process", refuse)
        monkeypatch.setattr(Simulation, "__init__", refuse)
        # The bad member comes last, after a union of good ones.
        members = [(paper_config(seed=s, n=10), SPEC40, REFERENCE, 5) for s in range(3)]
        members.append((paper_config(n=10), SPEC40, REFERENCE, steps))
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            run_members(members, jobs)

    @pytest.mark.parametrize("steps", [0, 12.5, np.float64(12.0)])
    def test_run_rejects_non_integer_or_too_few_steps(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            run(paper_config(n=10), SPEC40, REFERENCE, steps)

    def test_single_seed_ensemble_has_zero_std(self):
        cfg = paper_config(seed=24, n=100)
        res = ensemble_run(cfg, SPEC40, REFERENCE, steps=40, n_seeds=1)
        assert np.all(res.std == 0.0)


def _record_sensing(monkeypatch):
    """Collect (step, sensing sensors, their detection bits) for every step run."""
    seen = []
    original = Simulation._sense

    def recording(self, sensing):
        bits = original(self, sensing)
        seen.append((self.t, sensing.copy(), bits.copy()))
        return bits

    monkeypatch.setattr(Simulation, "_sense", recording)
    return seen


def _first_active(seen):
    first = {}
    for t, idx, _ in seen:
        for i in idx.tolist():
            first.setdefault(i, t)
    return first


def _assert_eager_readings(seen, sim, steps):
    """Every detection bit is the one that the t-th value of the sensor's
    stream, drawn from the stream's start, gives at its member's c_star."""
    n = sim.config.n
    eager = {}
    for t, idx, bits in seen:
        for i, bit in zip(idx.tolist(), bits.tolist()):
            if i not in eager:
                stream = rng.sensor_stream(sim.seeds[i // n], i % n)
                values = environment.quantile(sim.model, stream.random(steps))
                eager[i] = values >= sim.specs[i // n].c_star
            assert bit == eager[i][t - 1], (t, i)


def _counting_keys(monkeypatch):
    """Collect (seed, sensors) for every rng.sensor_keys call."""
    calls = []
    original = rng.sensor_keys

    def counting(seed, sensors):
        calls.append((seed, np.asarray(sensors).tolist()))
        return original(seed, sensors)

    monkeypatch.setattr(rng, "sensor_keys", counting)
    return calls


# Seeds whose 32-bit word count changes, or that fill or overflow the
# 4-word SeedSequence pool.
_EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**128, 2**128 + 1, 2**200]


class TestSensorKeys:
    """rng.sensor_keys is numpy's SeedSequence hash, vectorized over sensors."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(pairs=st.lists(
        st.tuples(st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**200)),
                  st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))),
        min_size=1, max_size=12))
    @example(pairs=[(s, i) for s in _EDGE_SEEDS for i in (0, 2**32 - 1)])
    def test_keys_are_the_spawned_seed_sequence_state(self, pairs):
        by_seed = {}
        for seed, i in pairs:
            by_seed.setdefault(seed, []).append(i)
        for seed, sensors in by_seed.items():
            keys = rng.sensor_keys(seed, np.array(sensors, dtype=np.int64))
            assert keys.dtype == np.uint64 and keys.shape == (len(sensors), 2)
            for i, key in zip(sensors, keys):
                ss = np.random.SeedSequence(seed, spawn_key=(2, i))  # 2: rng.ENVIRONMENT
                assert key.tolist() == ss.generate_state(2, np.uint64).tolist(), (seed, i)

    @pytest.mark.parametrize("sensor", [-1, 2**32, 2**63 - 1, 2**64, -2**64])
    def test_index_outside_one_word_rejected(self, sensor):
        # numpy would encode such an index in more than one word, or not at all.
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            rng.sensor_keys(1, [3, sensor])

    def test_no_sensors_give_no_keys(self):
        assert rng.sensor_keys(0, []).shape == (0, 2)


class TestLazyStreams:
    """A sensor's stream key comes with its seed's deployment; a block of its
    readings is drawn when it first senses in that block, with the readings
    an eagerly built stream would give."""

    @pytest.mark.parametrize("seed, sensor", [(0, 0), (5, 17), (2**40 + 3, 399)])
    def test_sensor_stream_is_the_spawned_philox_stream(self, seed, sensor):
        ss = np.random.SeedSequence(seed, spawn_key=(2, sensor))  # 2: rng.ENVIRONMENT
        expected = np.random.Generator(np.random.Philox(ss)).random(300)
        assert rng.sensor_stream(seed, sensor).random(300).tobytes() == expected.tobytes()

    def test_first_activation_at_block_boundaries(self, monkeypatch):
        seen = _record_sensing(monkeypatch)
        cfg = NetworkConfig(n=40, width=100.0, height=100.0, initial_active=0, seed=5)
        spec = SensorSpec(c_star=100.0, tau_star=5, r_star=25.0)
        sim = Simulation(cfg, spec, REFERENCE)
        steps = 3 * _SAMPLE_BLOCK + 16  # into a fourth sample block
        # The first step of the second sample block, and a step inside the
        # third, whose stream offset is counter 2 * _SAMPLE_BLOCK // 4 and
        # whose read lies at no 4-word boundary.
        second, inside_third = _SAMPLE_BLOCK + 1, 5 * _SAMPLE_BLOCK // 2
        assert (inside_third - 1) // _SAMPLE_BLOCK == 2 and (inside_third - 1) % 4
        forced = {}
        for step in range(1, steps + 1):
            if step in (second, inside_third):
                asleep = set(range(cfg.n)) - set(_first_active(seen))
                forced[step] = min(asleep)
                sim.remaining[forced[step]] = spec.tau_star
                sim._active = None  # the next tick reads the written state
            sim.step()
        first = _first_active(seen)
        assert min(first.values()) == second
        assert all(first[i] == step for step, i in forced.items())
        # Neighbors woken by messages first sense mid-block.
        assert any(t > second and (t - 1) % _SAMPLE_BLOCK for t in first.values())
        _assert_eager_readings(seen, sim, steps)

    def test_sensor_woken_by_rotation(self, monkeypatch):
        seen = _record_sensing(monkeypatch)
        cfg = NetworkConfig(
            n=50, width=1000.0, height=1000.0, delta=0.1, rotation_period=10,
            initial_active=0, seed=6,
        )
        spec = SensorSpec(c_star=150.0, tau_star=5, r_star=1e-3)
        sim = Simulation(cfg, spec, REFERENCE)
        assert sim.indices.size == 0  # no messages: only rotation wakes sensors
        steps = 3 * _SAMPLE_BLOCK + 16  # into a fourth sample block
        for _ in range(steps):
            sim.step()
        late = [t for t in _first_active(seen).values() if t > 1]
        assert late and all(t % cfg.rotation_period == 1 for t in late)
        assert any(t > 2 * _SAMPLE_BLOCK for t in late)  # after the second block
        _assert_eager_readings(seen, sim, steps)

    def test_keys_derived_once_while_built(self, monkeypatch):
        seen = _record_sensing(monkeypatch)
        calls = _counting_keys(monkeypatch)
        cfg = paper_config(seed=25, delta=0.01, rotation_period=15)
        sim = Simulation(cfg, SPEC40, REFERENCE)
        expected = [(25, list(range(cfg.n)))]
        assert calls == expected
        for _ in range(300):
            sim.step()
        assert calls == expected  # no tick derives a key
        assert 0 < len(_first_active(seen)) < cfg.n
        _assert_eager_readings(seen, sim, 300)

    def test_union_keys_derived_once_per_distinct_seed_while_built(self, monkeypatch):
        # Sensor k * n + i of the union is sensor i of the member at seeds[k].
        seen = _record_sensing(monkeypatch)
        calls = _counting_keys(monkeypatch)
        cfg = paper_config(delta=0.01, rotation_period=15)
        sim = Simulation(cfg, SPEC40, REFERENCE, seeds=(25, 26, 25, 9))
        expected = [(seed, list(range(cfg.n))) for seed in (25, 26, 9)]
        assert calls == expected
        for _ in range(300):
            sim._advance()
        assert calls == expected  # no tick derives a key
        ever_active = _first_active(seen)
        for k in range(len(sim.seeds)):
            assert 0 < sum(i // cfg.n == k for i in ever_active) < cfg.n
        _assert_eager_readings(seen, sim, 300)

    def test_every_member_holds_its_seeds_keys(self):
        # Seeds 25 and 26 repeat, each with a member below its largest r_star.
        cfg = paper_config(delta=0.01)
        seeds = (25, 26, 25, 9, 26)
        specs = [replace(SPEC40, r_star=r, c_star=c)
                 for r, c in ((40.0, 150.0), (30.0, 165.0), (20.0, 150.0), (40.0, 135.0),
                              (45.0, 150.0))]
        sim = Simulation(cfg, specs, REFERENCE, seeds=seeds)
        n = cfg.n
        for k, seed in enumerate(seeds):
            expected = rng.sensor_keys(seed, np.arange(n))
            assert sim._keys[k * n:(k + 1) * n].tobytes() == expected.tobytes(), k

    def test_rows_filled_once_per_block_and_only_when_read(self, monkeypatch):
        seen = _record_sensing(monkeypatch)
        fills = []
        original = Simulation._fill

        def recording(self, rows, block):
            fills.append((self.t, rows.copy(), block))
            return original(self, rows, block)

        monkeypatch.setattr(Simulation, "_fill", recording)
        cfg = paper_config(delta=0.01, rotation_period=15)
        sim = Simulation(cfg, SPEC40, REFERENCE, seeds=(25, 26, 9))
        steps = 3 * _SAMPLE_BLOCK + 16  # into a fourth sample block
        for _ in range(steps):
            sim._advance()
        sensing_at = {t: set(idx.tolist()) for t, idx, _ in seen}
        filled = [(row, block) for _, rows, block in fills for row in rows.tolist()]
        assert len(filled) == len(set(filled))
        for t, rows, block in fills:
            assert block == (t - 1) // _SAMPLE_BLOCK
            assert set(rows.tolist()) <= sensing_at[t], t
        read = {(i, (t - 1) // _SAMPLE_BLOCK) for t, idx in sensing_at.items() for i in idx}
        assert set(filled) == read
        assert len({block for _, block in filled}) == 4
        _assert_eager_readings(seen, sim, steps)

    def test_union_members_read_at_their_own_threshold(self, monkeypatch):
        cfg = paper_config(delta=0.05, rotation_period=15)
        # c_star = 0 detects at every reading; 1e9 lies above every reading.
        specs = [replace(SPEC40, c_star=c) for c in (150.0, 165.0, 135.0, 0.0, 1e9)]
        seeds = (25, 26, 25, 26, 25)
        lone = [active_fraction(run(replace(cfg, seed=s), spec, REFERENCE, 300), cfg.n)
                for s, spec in zip(seeds, specs)]
        seen = _record_sensing(monkeypatch)
        sim = Simulation(cfg, specs, REFERENCE, seeds=seeds)
        got = np.empty((300, len(seeds)))
        for row in got:
            sim._advance()
            row[:] = np.count_nonzero(sim.remaining.reshape(len(seeds), cfg.n) > 0, axis=1)
        # Members 0, 2 and 4 share a seed, hence their streams, but not c_star.
        assert {i // cfg.n for _, idx, _ in seen for i in idx.tolist()} == set(range(len(seeds)))
        _assert_eager_readings(seen, sim, 300)
        for k, expected in enumerate(lone):
            assert (got[:, k] / cfg.n).tobytes() == expected.tobytes()
        detected = {i // cfg.n for _, idx, bits in seen for i in idx[bits].tolist()}
        assert 3 in detected and 4 not in detected


_PROTOCOL_OPTIONS = st.fixed_dictionaries({
    "delta": st.sampled_from([0.0, 0.05]),
    "failure_rate": st.sampled_from([0.0, 0.004]),
    "rotation_period": st.sampled_from([None, 0, 7]),
    "single_shot": st.booleans(),
    "refresh_on_detect": st.booleans(),
})


class TestUnion:
    """run_members steps the members that share a deployment, tau_star, model
    and step count as one union, whatever their seeds, r_star and c_star;
    each member's trajectory is the one its lone run gives."""

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        options=_PROTOCOL_OPTIONS,
        seeds=st.lists(st.integers(0, 2**40), min_size=1, max_size=5),
        jobs=st.sampled_from([1, 2]),
        r_star=st.sampled_from([30.0, 60.0]),
    )
    def test_members_match_lone_runs(self, options, seeds, jobs, r_star):
        cfg = NetworkConfig(n=80, width=300.0, height=300.0, initial_active=4, **options)
        spec = SensorSpec(c_star=150.0, tau_star=4, r_star=r_star)
        members = [(replace(cfg, seed=s), spec, REFERENCE, 140) for s in seeds]  # two blocks
        got = run_members(members, jobs)
        assert len(got) == len(members)
        for trajectory, member in zip(got, members):
            expected = active_fraction(run(*member), cfg.n)
            assert trajectory.tobytes() == expected.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        options=_PROTOCOL_OPTIONS,
        picks=st.lists(st.tuples(st.integers(0, 2**40), st.sampled_from([30.0, 60.0]),
                                 st.sampled_from([140.0, 150.0])), min_size=2, max_size=6),
        jobs=st.sampled_from([1, 2]),
    )
    @example(options={"delta": 0.0, "failure_rate": 0.0, "rotation_period": None,
                      "single_shot": False, "refresh_on_detect": False},
             picks=[(1, 30.0, 140.0), (2, 60.0, 150.0), (1, 60.0, 140.0), (2, 30.0, 150.0),
                    (3, 30.0, 150.0)],
             jobs=2)
    def test_mixed_range_and_threshold_members_match_lone_runs(self, options, picks, jobs):
        cfg = NetworkConfig(n=80, width=300.0, height=300.0, initial_active=4, **options)
        members = [(replace(cfg, seed=s), SensorSpec(c_star=c, tau_star=4, r_star=r),
                    REFERENCE, 140) for s, r, c in picks]
        got = run_members(members, jobs)
        assert len(got) == len(members)
        for trajectory, member in zip(got, members):
            expected = active_fraction(run(*member), cfg.n)
            assert trajectory.tobytes() == expected.tobytes()

    def test_quantile_calls_do_not_grow_with_steps(self, monkeypatch):
        # Only the u* bisection at set-up calls quantile; the kernel compares uniforms.
        calls = []
        original = environment.quantile

        def counting(model, u):
            calls.append(1)
            return original(model, u)

        monkeypatch.setattr(environment, "quantile", counting)
        cfg = paper_config(delta=0.05, rotation_period=15)
        counts = []
        for steps in (140, 500):
            calls.clear()
            run_members([(replace(cfg, seed=s), replace(SPEC40, c_star=c), REFERENCE, steps)
                         for s, c in ((1, 150.0), (2, 135.0), (3, 0.0))])
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_union_state_is_the_members_side_by_side(self):
        cfg = paper_config(n=50, delta=0.1, rotation_period=6, failure_rate=0.01)
        union = Simulation(cfg, SPEC40, REFERENCE, seeds=(3, 4, 3))
        lone = [Simulation(replace(cfg, seed=s), SPEC40, REFERENCE) for s in (3, 4, 3)]
        for _ in range(20):
            union._advance()
            for sim in lone:
                sim.step()
        for name in ("remaining", "permanent"):
            assert np.array_equal(getattr(union, name),
                                  np.concatenate([getattr(sim, name) for sim in lone]))
        offsets = [0, 50, 100]
        assert np.array_equal(union.indices,
                              np.concatenate([s.indices + o for s, o in zip(lone, offsets)]))

    @pytest.mark.parametrize("options, extra", [
        ({}, set()),
        ({"failure_rate": 0.01}, {rng.FAILURE}),
        ({"delta": 0.1}, {rng.ROTATION}),
        ({"delta": 0.1, "rotation_period": 0}, set()),
        ({"delta": 0.1, "failure_rate": 0.01}, {rng.FAILURE, rng.ROTATION}),
    ])
    def test_union_builds_only_the_streams_it_draws(self, monkeypatch, options, extra):
        built = []
        original = rng.substream

        def spying(seed, *path):
            built.append((seed, path[0]))
            return original(seed, *path)

        monkeypatch.setattr(rng, "substream", spying)
        # A seed's members share its deployment and failure stream; each
        # member has its own rotation stream.
        per_seed = {rng.PLACEMENT, rng.INITIAL_STATE} | (extra - {rng.ROTATION})
        per_member = extra & {rng.ROTATION}
        for seeds in ((3, 4, 9), (3, 4, 3, 3)):
            built.clear()
            Simulation(paper_config(n=50, **options), SPEC40, REFERENCE, seeds=seeds)
            assert sorted(built) == sorted([(s, d) for s in set(seeds) for d in per_seed]
                                           + [(s, d) for s in seeds for d in per_member])

    def test_union_needs_a_seed_and_has_no_single_record(self):
        with pytest.raises(ValueError, match="at least one seed"):
            Simulation(paper_config(n=10), SPEC40, REFERENCE, seeds=())
        with pytest.raises(ValueError, match="single record"):
            Simulation(paper_config(n=10), SPEC40, REFERENCE, seeds=(1, 2)).step()

    def test_union_members_must_share_tau_star(self):
        specs = [SPEC40, replace(SPEC40, tau_star=6)]
        with pytest.raises(ValueError, match="share tau_star"):
            Simulation(paper_config(n=10), specs, REFERENCE, seeds=(1, 2))
        with pytest.raises(ValueError, match="needs 2 SensorSpecs"):
            Simulation(paper_config(n=10), specs[:1], REFERENCE, seeds=(1, 2))


def _member_csr(union, k):
    """Member k's block of a union's CSR, as its lone run's (indptr, indices)."""
    n = union.config.n
    indptr = union.indptr[k * n:(k + 1) * n + 1]
    return indptr - indptr[0], union.indices[indptr[0]:indptr[-1]] - k * n


# A 0.1-spaced lattice: pairs at exactly 0.1 and at the rounded sums of 0.1
# steps; with ranges 0.1 and 0.3, whose squares round, the distance test
# decides on its last bit.
_TENTH_LATTICE = np.array([(0.1 * i, 0.1 * j) for i in range(9) for j in range(9)]
                          + [(2.0, 2.0), (2.3, 2.0), (2.0, 2.3), (2.3, 2.4)])


class TestSharedDeployment:
    """A union builds each distinct seed's placement, initial order and
    neighbor CSR once, the CSR at the largest range among that seed's
    members, with each pair's squared distance in neighbor_csr's own
    expression; every member selects from that one list the pairs within
    its own range."""

    @pytest.mark.parametrize("ranges", [
        (0.1, 0.3, 0.2, 0.30000000000000004, 0.5, 0.1),
        (0.3, 0.1),
        (0.1,),
    ])
    def test_member_csr_is_the_lone_csr_on_range_boundaries(self, monkeypatch, ranges):
        positions = _TENTH_LATTICE
        monkeypatch.setattr(netsim, "place_sensors", lambda config, gen: positions.copy())
        cfg = NetworkConfig(n=len(positions), width=3.0, height=3.0, initial_active=0)
        specs = [replace(SPEC40, r_star=r) for r in ranges]
        union = Simulation(cfg, specs, REFERENCE, seeds=(5,) * len(ranges))
        for k, r in enumerate(ranges):
            expected = neighbor_csr(positions, r)
            got = _member_csr(union, k)
            assert got[0].tobytes() == expected[0].tobytes(), r
            assert got[1].tobytes() == expected[1].tobytes(), r
        # Pairs at exactly the range, which a strict test would drop.
        dx, dy = (positions[None, :, :] - positions[:, None, :]).transpose(2, 0, 1)
        assert np.any(dx**2 + dy**2 == 0.1 * 0.1)

    def test_member_csr_is_the_lone_csr_on_a_placement(self):
        cfg = paper_config(n=400)
        ranges = (20.0, 27.0, 30.0, 40.0, 27.0)
        union = Simulation(cfg, [replace(SPEC40, r_star=r) for r in ranges], REFERENCE,
                           seeds=(7, 8, 7, 7, 7))
        for k, (seed, r) in enumerate(zip(union.seeds, ranges)):
            positions = place_sensors(cfg, rng.substream(seed, rng.PLACEMENT))
            expected = neighbor_csr(positions, r)
            got = _member_csr(union, k)
            assert got[0].tobytes() == expected[0].tobytes(), (seed, r)
            assert got[1].tobytes() == expected[1].tobytes(), (seed, r)

    def test_one_placement_and_csr_per_seed(self, monkeypatch):
        calls = {"place_sensors": [], "neighbor_csr": []}
        for name, record in calls.items():
            def counting(*args, _original=getattr(netsim, name), _record=record):
                _record.append(args[1])
                return _original(*args)
            monkeypatch.setattr(netsim, name, counting)
        seeds, ranges = (3, 4, 9), (20.0, 40.0, 27.0, 30.0)
        Simulation(paper_config(n=100), [replace(SPEC40, r_star=r) for _ in seeds for r in ranges],
                   REFERENCE, seeds=[s for s in seeds for _ in ranges])
        assert len(calls["place_sensors"]) == 3
        assert calls["neighbor_csr"] == [40.0] * 3

    @pytest.mark.parametrize("seeds, dealt", [
        # Each seed whole in one chunk, with one member per grid point.
        ((0, 1), [[(0, 20.0), (0, 27.0), (0, 30.0), (0, 40.0)],
                  [(1, 20.0), (1, 27.0), (1, 30.0), (1, 40.0)]]),
        # One seed: the points interleave, so neither chunk gets only the
        # costly supercritical ranges.
        ((0,), [[(0, 20.0), (0, 30.0)], [(0, 27.0), (0, 40.0)]]),
    ])
    def test_sweep_deal_at_two_jobs(self, seeds, dealt):
        # As analysis.sweep lists them: grid point by grid point, then seed.
        ranges = (20.0, 27.0, 30.0, 40.0)
        members = [(paper_config(seed=s, n=100), replace(SPEC40, r_star=r), REFERENCE, 30)
                   for r in ranges for s in seeds]
        _, chunks = netsim._deal(members, 2)
        assert [[(seed, spec.r_star) for seed, spec in zip(chunk[3], chunk[4])]
                for chunk in chunks] == dealt
        got = run_members(members, jobs=2)
        for trajectory, member in zip(got, members):
            assert trajectory.tobytes() == active_fraction(run(*member), 100).tobytes()


# A patched _chunk_run reaches the workers only as a forked copy of this process.
_FORK = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                           reason="the workers are not forked")


@_FORK
class TestFanOut:
    """run_members at jobs > 1: one worker process per share, pinned to its
    stripe of the CPUs and sending its results once; no worker outlives the
    call, whether it returns or raises."""

    # Two union keys (the step counts differ), so two chunks at jobs 2.
    MEMBERS = [(paper_config(n=20), SPEC40, REFERENCE, steps) for steps in (3, 4)]

    def test_success_leaves_no_worker(self):
        got = run_members(self.MEMBERS, jobs=2)
        assert [t.tobytes() for t in got] == [t.tobytes() for t in run_members(self.MEMBERS)]
        assert multiprocessing.active_children() == []

    def test_a_worker_exception_is_raised(self, monkeypatch):
        # Worker 0 raises; worker 1 would run for a minute unless stopped.
        def boom(chunk):
            if chunk[2] == 4:
                time.sleep(60)
            raise ValueError("boom")

        monkeypatch.setattr(netsim, "_chunk_run", boom)
        start = time.monotonic()
        with pytest.raises(ValueError, match="^boom$"):
            run_members(self.MEMBERS, jobs=2)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_is_named_with_its_exit_code(self, monkeypatch):
        chunk_run = netsim._chunk_run
        # Worker 0 sends its share; worker 1 dies before sending.
        monkeypatch.setattr(netsim, "_chunk_run",
                            lambda chunk: os._exit(3) if chunk[2] == 4 else chunk_run(chunk))
        with pytest.raises(RuntimeError, match="worker 1 exited with code 3 "):
            run_members(self.MEMBERS, jobs=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity call")
    def test_each_worker_is_pinned_to_its_stripe(self, monkeypatch):
        monkeypatch.setattr(netsim, "_chunk_run",
                            lambda chunk: np.array([sorted(os.sched_getaffinity(0))]))
        allowed = sorted(os.sched_getaffinity(0))
        got = run_members(self.MEMBERS, jobs=2)
        assert [t.tolist() for t in got] == [allowed[0::2], allowed[1 % len(allowed)::2]]

    def test_one_chunk_starts_one_worker(self, monkeypatch):
        started = []

        class Counted(multiprocessing.Process):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(multiprocessing, "Process", Counted)
        member = self.MEMBERS[0]
        got = run_members([member], jobs=2)
        assert len(started) == 1
        assert got[0].tobytes() == active_fraction(run(*member), 20).tobytes()


def _demo_sparse_union():
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "demo-sparse.ini")
    specs = [replace(cfg.sensor, r_star=r) for r in (20.0, 27.0, 30.0, 40.0)]
    return Simulation(cfg.network, specs, cfg.environment, seeds=(0, 1, 2, 3))


class TestCarriedActiveList:
    """Each tick senses the active list the previous tick left in
    Simulation._active; the list must be the active set, each sensor once."""

    @pytest.mark.parametrize("options", [
        {"single_shot": True},
        {"refresh_on_detect": True},
        {"delta": 0.05, "rotation_period": 3},
        {"failure_rate": 0.004},
        {"delta": 0.05, "rotation_period": 7, "failure_rate": 0.004, "single_shot": True,
         "refresh_on_detect": True},
    ])
    def test_list_is_the_active_set(self, options):
        cfg = NetworkConfig(n=80, width=300.0, height=300.0, initial_active=4, **options)
        sim = Simulation(cfg, SPEC40, REFERENCE, seeds=(5, 6, 7))
        self._check_every_tick(sim, 300)

    def test_list_is_the_active_set_on_demo_sparse(self):
        self._check_every_tick(_demo_sparse_union(), 500)

    def test_list_is_the_active_set_when_every_tick_rotates(self):
        cfg = NetworkConfig(n=80, width=300.0, height=300.0, delta=0.1, rotation_period=1,
                            initial_active=4)
        self._check_every_tick(Simulation(cfg, SPEC40, REFERENCE, seeds=(5, 6, 7)), 60)

    def test_everything_fails_in_the_first_tick(self):
        # Every sensor detects every reading and hears every other, so the
        # first tick wakes every passive one; all of them then fail.
        cfg = NetworkConfig(n=6, width=10.0, height=10.0, delta=0.5, rotation_period=1,
                            initial_active=1, failure_rate=1.0)
        sim = Simulation(cfg, SensorSpec(c_star=0.0, tau_star=5, r_star=40.0),
                         ConcentrationModel(c0=1.0, omega=1.0))
        record = sim.step()
        assert record.messages_sent == 4  # the permanent and initial sensors
        assert sim._active.size == 0
        assert (sim.remaining == FAULTY).all()
        assert (record.n_active, record.n_passive, record.n_faulty) == (0, 0, cfg.n)

    @staticmethod
    def _check_every_tick(sim, steps):
        sizes = []
        for _ in range(steps):
            _, _, active = sim._advance()
            assert active is sim._active
            assert np.unique(active).size == active.size, sim.t
            assert np.array_equal(np.sort(active), np.flatnonzero(sim.remaining > 0)), sim.t
            timers = sim.remaining
            assert ((timers == FAULTY) | ((timers >= 0) & (timers <= sim.tau_star))).all(), sim.t
            assert (timers[active] > 0).all(), sim.t
            sizes.append(active.size)
        assert max(sizes) > 0

    @pytest.mark.parametrize("refresh", [False, True])
    @pytest.mark.parametrize("remaining", [(1, 3), (1, 1)])
    def test_expiry_and_wake_in_one_tick_listed_once(self, remaining, refresh):
        # Both sensors detect every reading and hear each other. Sensor 0's
        # timer ends in the tick that sensor 1's message reaches it, so the
        # message wakes it again (with (1, 1) each wakes the other).
        cfg = NetworkConfig(n=2, width=10.0, height=10.0, initial_active=0,
                            refresh_on_detect=refresh)
        sim = Simulation(cfg, SensorSpec(c_star=0.0, tau_star=5, r_star=40.0),
                         ConcentrationModel(c0=1.0, omega=1.0))
        assert sim.indices.size == 2
        sim.remaining[:] = remaining
        broadcasting, _, active = sim._advance()
        assert broadcasting.size == 2
        assert sorted(active.tolist()) == [0, 1]
        _, _, active = sim._advance()
        assert sorted(active.tolist()) == [0, 1]

    def test_members_conserve_sensors(self):
        cfg = NetworkConfig(n=150, width=400.0, height=400.0, delta=0.1, rotation_period=20,
                            initial_active=5, failure_rate=0.01)
        seeds = (8, 9, 10)
        sim = Simulation(cfg, SPEC40, REFERENCE, seeds=seeds)
        for _ in range(250):
            _, _, active = sim._advance()
            timers = sim.remaining.reshape(len(seeds), cfg.n)
            counts = (np.bincount(active // cfg.n, minlength=len(seeds)),
                      np.count_nonzero(timers == 0, axis=1),
                      np.count_nonzero(timers == FAULTY, axis=1))
            assert np.array_equal(sum(counts), [cfg.n] * len(seeds)), sim.t
        assert (counts[2] > 0).all()

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(options=_PROTOCOL_OPTIONS, seed=st.integers(0, 2**40))
    def test_run_records_are_the_step_records(self, options, seed):
        cfg = NetworkConfig(n=80, width=300.0, height=300.0, initial_active=4, seed=seed,
                            **options)
        spec = SensorSpec(c_star=150.0, tau_star=4, r_star=40.0)
        sim = Simulation(cfg, spec, REFERENCE)
        rescanned = []
        for _ in range(140):
            sim._active = None  # read the list from the timers
            rescanned.append(sim.step())
        assert run(cfg, spec, REFERENCE, 140) == rescanned


def _ensemble_plateaus(cfg, spec, steps, n_seeds):
    out = []
    for k in range(n_seeds):
        traj = active_fraction(
            run(replace(cfg, seed=cfg.seed + k), spec, REFERENCE, steps), cfg.n
        )
        out.append(analysis.extract_plateau(traj, 0.25, check_stationary=False)[0])
    return float(np.mean(out))


class TestEpidemicBehavior:
    def test_plateau_nondecreasing_in_range(self):
        cfg = paper_config(seed=100)
        plateaus = [
            _ensemble_plateaus(cfg, SensorSpec(c_star=1.03 * 150.0, tau_star=5, r_star=r), 300, 10)
            for r in (20.0, 30.0, 40.0)
        ]
        assert plateaus == sorted(plateaus)

    def test_plateau_nonincreasing_in_threshold(self):
        cfg = paper_config(seed=100)
        plateaus = [
            _ensemble_plateaus(cfg, SensorSpec(c_star=ratio * 150.0, tau_star=5, r_star=40.0), 300, 10)
            for ratio in (1.00, 1.05)
        ]
        assert plateaus[0] >= plateaus[1]

    def test_dead_network_stays_dead(self):
        cfg = paper_config(initial_active=0, seed=30)
        records = run(cfg, SPEC40, REFERENCE, 60)
        assert all(r.n_active == 0 and r.messages_sent == 0 for r in records)

    def test_subcritical_regime_goes_extinct(self):
        # r* = 10 m: mean degree ~0.13, calibrated R0 far below 0.8; with
        # delta = 0 the tail must be exactly zero active
        spec = SensorSpec(c_star=1.03 * 150.0, tau_star=5, r_star=10.0)
        for k in range(8):
            traj = active_fraction(run(paper_config(seed=400 + k), spec, REFERENCE, 500), 400)
            assert np.all(traj[-125:] == 0.0)

    def test_supercritical_regime_exceeds_theory_floor(self):
        # r* = 70 m percolates; plateau must clear half the calibrated
        # steady-state prediction 0.5 * (1 - 1/R0)
        spec = SensorSpec(c_star=1.03 * 150.0, tau_star=5, r_star=70.0)
        cfg = paper_config(seed=500)
        plateau = _ensemble_plateaus(cfg, spec, 400, 8)
        p = sensor.detection_probability(spec, REFERENCE)
        alpha_s = analysis.alpha_from_sim(plateau, spec.tau_star, cfg.n)
        g = analysis.calibrate_g(
            [(alpha_s, meanfield.alpha_theory(spec, cfg.area, p, 1.0))]
        )
        r0_cal = meanfield.r0(p, cfg.n, spec.r_star, cfg.area, g)
        assert r0_cal > 1.5
        assert plateau > 0.5 * (1.0 - 1.0 / r0_cal)

    def test_relative_scatter_shrinks_with_range(self):
        cfg = paper_config(seed=600)
        rels = []
        for r in (40.0, 70.0):
            spec = SensorSpec(c_star=1.03 * 150.0, tau_star=5, r_star=r)
            plats = []
            for k in range(8):
                traj = active_fraction(
                    run(paper_config(seed=600 + k), spec, REFERENCE, 300), cfg.n
                )
                plats.append(analysis.extract_plateau(traj, 0.25, check_stationary=False)[0])
            rels.append(np.std(plats) / np.mean(plats))
        assert rels[1] < rels[0]
