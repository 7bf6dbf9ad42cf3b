"""Agent-based protocol: placement, neighbor search, step semantics,
conservation, determinism, and the epidemic dichotomy."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dscsim import analysis, environment, meanfield, rng, sensor
from dscsim.environment import ConcentrationModel
from dscsim.netsim import (
    ACTIVE,
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
    ])
    def test_region_must_be_finite(self, width, height):
        with pytest.raises(ValueError, match="finite"):
            NetworkConfig(n=10, width=width, height=height)

    def test_permanent_count_ceil(self):
        cfg = NetworkConfig(n=10, width=10.0, height=10.0, delta=0.11, initial_active=0)
        assert cfg.permanent_count == 2


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

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_run_members_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_members([(paper_config(n=10), SPEC40, REFERENCE, 5)], jobs)

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
    """Collect every (seed, sensor) pair whose stream key is derived."""
    built = []
    original = rng.sensor_keys

    def counting(seeds, sensors):
        seeds = list(seeds)
        built.extend(zip(seeds, np.asarray(sensors).tolist()))
        return original(seeds, sensors)

    monkeypatch.setattr(rng, "sensor_keys", counting)
    return built


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
        seeds, sensors = zip(*pairs)
        keys = rng.sensor_keys(seeds, np.array(sensors, dtype=np.int64))
        assert keys.dtype == np.uint64 and keys.shape == (len(pairs), 2)
        for (seed, i), key in zip(pairs, keys):
            ss = np.random.SeedSequence(seed, spawn_key=(2, i))  # 2: rng.ENVIRONMENT
            assert key.tolist() == ss.generate_state(2, np.uint64).tolist(), (seed, i)

    @pytest.mark.parametrize("sensor", [-1, 2**32, 2**63 - 1, 2**64, -2**64])
    def test_index_outside_one_word_rejected(self, sensor):
        # numpy would encode such an index in more than one word, or not at all.
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            rng.sensor_keys([0, 1], [3, sensor])

    def test_no_sensors_give_no_keys(self):
        assert rng.sensor_keys([], []).shape == (0, 2)


class TestLazyStreams:
    """A sensor's sample stream is built when it first senses, with the
    readings an eagerly built stream would give."""

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
        forced = {}
        for step in range(1, 401):
            # Step 129 starts the second 128-step block; step 300 lies
            # inside the third, whose stream offset is counter 64.
            if step in (129, 300):
                asleep = set(range(cfg.n)) - set(_first_active(seen))
                forced[step] = min(asleep)
                sim.kind[forced[step]] = ACTIVE
                sim.remaining[forced[step]] = spec.tau_star
            sim.step()
        first = _first_active(seen)
        assert min(first.values()) == 129
        assert all(first[i] == step for step, i in forced.items())
        # Neighbors woken by messages first sense mid-block.
        assert any(t > 129 and (t - 1) % 128 for t in first.values())
        _assert_eager_readings(seen, sim, 400)

    def test_sensor_woken_by_rotation(self, monkeypatch):
        seen = _record_sensing(monkeypatch)
        cfg = NetworkConfig(
            n=50, width=1000.0, height=1000.0, delta=0.1, rotation_period=10,
            initial_active=0, seed=6,
        )
        spec = SensorSpec(c_star=150.0, tau_star=5, r_star=1e-3)
        sim = Simulation(cfg, spec, REFERENCE)
        assert sim.indices.size == 0  # no messages: only rotation wakes sensors
        for _ in range(400):
            sim.step()
        late = [t for t in _first_active(seen).values() if t > 1]
        assert late and all(t % cfg.rotation_period == 1 for t in late)
        assert any(t > 256 for t in late)
        _assert_eager_readings(seen, sim, 400)

    def test_streams_built_once_and_only_for_sensors_that_sense(self, monkeypatch):
        seen = _record_sensing(monkeypatch)
        built = _counting_keys(monkeypatch)
        cfg = paper_config(seed=25, delta=0.01, rotation_period=15)
        run(cfg, SPEC40, REFERENCE, 300)
        ever_active = {(cfg.seed, i) for i in _first_active(seen)}
        assert len(built) == len(set(built))
        assert set(built) == ever_active
        assert 0 < len(ever_active) < cfg.n

    def test_union_streams_built_once_and_only_for_sensors_that_sense(self, monkeypatch):
        # Sensor k * n + i of the union is sensor i of the member at seeds[k].
        seen = _record_sensing(monkeypatch)
        built = _counting_keys(monkeypatch)
        cfg = paper_config(delta=0.01, rotation_period=15)
        sim = Simulation(cfg, SPEC40, REFERENCE, seeds=(25, 26, 9))
        for _ in range(300):
            sim._advance()
        ever_active = {(sim.seeds[i // cfg.n], i % cfg.n) for i in _first_active(seen)}
        assert len(built) == len(set(built))
        assert set(built) == ever_active
        for seed in sim.seeds:
            assert 0 < sum(s == seed for s, _ in ever_active) < cfg.n
        _assert_eager_readings(seen, sim, 300)

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
        for _ in range(400):  # four sample blocks
            sim._advance()
        sensing_at = {t: set(idx.tolist()) for t, idx, _ in seen}
        built = np.flatnonzero(sim._row >= 0)
        sensor_of = np.empty(sim._streams, dtype=np.int64)
        sensor_of[sim._row[built]] = built
        filled = [(row, block) for _, rows, block in fills for row in rows.tolist()]
        assert len(filled) == len(set(filled))
        for t, rows, block in fills:
            assert block == (t - 1) // 128
            assert set(sensor_of[rows].tolist()) <= sensing_at[t], t
        read = {(int(sim._row[i]), (t - 1) // 128) for t, idx in sensing_at.items() for i in idx}
        assert set(filled) == read
        assert len({block for _, block in filled}) == 4
        _assert_eager_readings(seen, sim, 400)

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
            row[:] = np.count_nonzero(sim.kind.reshape(len(seeds), cfg.n) == ACTIVE, axis=1)
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
        for name in ("kind", "remaining", "permanent"):
            assert np.array_equal(getattr(union, name),
                                  np.concatenate([getattr(sim, name) for sim in lone]))
        offsets = [0, 50, 100]
        assert np.array_equal(union.indices,
                              np.concatenate([s.indices + o for s, o in zip(lone, offsets)]))

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
