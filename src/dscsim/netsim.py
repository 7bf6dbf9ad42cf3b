"""Agent-based simulation of the dynamic-collaboration wake-up protocol.

N identical sensors are placed uniformly in a rectangular region. Sensors
are passive (sleeping) by default. An active sensor samples the
environment once per step; on a positive reading it broadcasts a single
wake-up message heard by every sensor within its communication range.
Passive recipients switch to active for tau_star steps. Active recipients
ignore messages. A configurable fraction of sensors is kept permanently
active (re-armed on expiry, reshuffled periodically to spread the energy
cost), and an optional per-step failure probability moves sensors into an
absorbing faulty state that neither senses nor relays.

One simulation step, synchronously:

  1. every active non-faulty sensor draws a concentration sample from its
     own substream and broadcasts if the reading is positive (the
     substream is built when the sensor is first active at the start of a
     step and skipped ahead, so its t-th reading is the substream's t-th
     value however late it was built);
  2. active timers decrement; expired sensors go passive (permanent ones
     re-arm immediately);
  3. this step's messages activate recipients that are passive *after*
     expiry, with a fresh tau_star timer counting from the next step
     (one-step message latency; a sensor that was active while the
     message was sent ignores it, but a sensor whose activation just
     ended is woken again);
  4. non-faulty sensors fail with probability failure_rate;
  5. every rotation_period steps the permanent set is re-drawn uniformly
     among the non-faulty sensors;
  6. population counts are recorded.

Runs are reproducible: placement, initial selection, per-sensor
concentration series, failures and reshuffles all derive from the single
config seed through independent substreams, so per-sensor sample series
never depend on iteration order or sensor count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import environment, rng
from .environment import ConcentrationModel
from .sensor import SensorSpec

PASSIVE = 0
ACTIVE = 1
FAULTY = 2

# Steps of per-sensor samples drawn per refill; amortizes generator calls
# without changing any drawn value (streams are consumed sequentially). A
# multiple of the 4 words of one Philox4x64 block, so a stream first built
# at block start b reaches its b-th value by advancing its counter b // 4
# blocks, without drawing the values before it.
_SAMPLE_BLOCK = 128


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of one network deployment.

    rotation_period: steps between permanent-set reshuffles; None picks the
    default 10 * tau_star, 0 disables reshuffling.
    """

    n: int
    width: float
    height: float
    delta: float = 0.0
    rotation_period: int | None = None
    initial_active: int = 10
    seed: int = 0
    failure_rate: float = 0.0
    single_shot: bool = False
    refresh_on_detect: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError("region dimensions must be finite and > 0")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if self.initial_active < 0:
            raise ValueError("initial_active must be >= 0")
        if self.permanent_count + self.initial_active > self.n:
            raise ValueError(
                f"permanent sensors ({self.permanent_count}) plus initial_active "
                f"({self.initial_active}) exceed n ({self.n})"
            )
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError(f"failure_rate must be in [0, 1], got {self.failure_rate}")
        if self.rotation_period is not None and self.rotation_period < 0:
            raise ValueError("rotation_period must be >= 0 or None")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def permanent_count(self) -> int:
        return math.ceil(self.delta * self.n)


@dataclass(frozen=True)
class SimRecord:
    """Per-step population counts and traffic."""

    step: int
    n_active: int
    n_passive: int
    n_faulty: int
    messages_sent: int
    detections: int


def place_sensors(config: NetworkConfig, gen: np.random.Generator) -> np.ndarray:
    """n i.i.d. uniform positions in [0, width] x [0, height], shape (n, 2)."""
    return gen.random((config.n, 2)) * np.array([config.width, config.height])


def neighbors_within(positions: np.ndarray, index: int, r_star: float) -> np.ndarray:
    """All sensor indices within r_star of the given sensor (inclusive)."""
    indptr, indices = neighbor_csr(positions, r_star)
    return indices[indptr[index]:indptr[index + 1]]


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(start, start + count) over the given runs."""
    return np.arange(int(counts.sum())) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def neighbor_csr(positions: np.ndarray, r_star: float) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency of the communication graph in CSR form (indptr, indices).

    Row i lists, ascending, every j != i whose offset d = positions[j] -
    positions[i] satisfies d_x**2 + d_y**2 <= r_star**2 in floating point.
    Points are sorted by square cell; each point's 3 x 3 block of cells is
    found by binary search in that order and filtered by the exact test.
    """
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    lo = pos.min(axis=0)
    extent = float((pos.max(axis=0) - lo).max())
    # The 2**-16 margin exceeds the rounding error of the distance test and
    # of the cell arithmetic, so every accepted pair lies in the same or an
    # adjacent cell. Cells at least extent / 2**31 wide keep the cell ids
    # below 2**63; the 2**-500 floor covers an r_star whose square underflows.
    cell = max(r_star, extent / 2**31, 2.0**-500) * (1.0 + 2.0**-16)
    kx, ky = np.floor((pos - lo) / cell).astype(np.int64).T
    rows = int(ky.max()) + 3  # a padding row each side: ky +- 1 never wraps
    cell_id = kx * rows + ky + 1
    order = np.argsort(cell_id)
    sorted_id = cell_id[order]
    block = (np.arange(-1, 2)[:, None] * rows + np.arange(-1, 2)).ravel()
    target = (cell_id[:, None] + block).ravel()
    start = np.searchsorted(sorted_id, target, side="left")
    count = np.searchsorted(sorted_id, target, side="right") - start
    i = np.repeat(np.arange(target.size) // block.size, count)
    j = order[_ragged_arange(start, count)]
    d = pos[j] - pos[i]
    keep = (d[:, 0] ** 2 + d[:, 1] ** 2 <= r_star * r_star) & (i != j)
    pairs = np.sort(i[keep] * n + j[keep])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // n, minlength=n), out=indptr[1:])
    return indptr, pairs % n


class Simulation:
    """Mutable state of one run; step() advances it one synchronous tick."""

    def __init__(self, config: NetworkConfig, spec: SensorSpec, model: ConcentrationModel):
        self.config = config
        self.spec = spec
        self.model = model
        n = config.n

        self.positions = place_sensors(config, rng.substream(config.seed, rng.PLACEMENT))
        self.indptr, self.indices = neighbor_csr(self.positions, spec.r_star)

        self.kind = np.full(n, PASSIVE, dtype=np.int8)
        self.remaining = np.zeros(n, dtype=np.int64)
        self.permanent = np.zeros(n, dtype=bool)
        self._broadcast_used = np.zeros(n, dtype=bool)

        order = rng.substream(config.seed, rng.INITIAL_STATE).permutation(n)
        n_perm = config.permanent_count
        self.permanent[order[:n_perm]] = True
        starters = order[: n_perm + config.initial_active]
        self.kind[starters] = ACTIVE
        self.remaining[starters] = spec.tau_star

        self._fail_rng = rng.substream(config.seed, rng.FAILURE)
        self._rotate_rng = rng.substream(config.seed, rng.ROTATION)
        # Streams of the sensors that have sensed, by sensor index. Columns
        # of the sample block of sensors without a stream stay zero.
        self._streams: dict[int, np.random.Generator] = {}
        self._has_stream = np.zeros(n, dtype=bool)
        self._sample_block = np.zeros((_SAMPLE_BLOCK, n))

        period = config.rotation_period
        self.rotation_period = 10 * spec.tau_star if period is None else period
        self.t = 0

    def _next_samples(self, active: np.ndarray) -> np.ndarray:
        """Concentration for the coming step at every sensor that has sensed.

        A sensor active for the first time gets its stream here, advanced
        to the start of the current block, and its column of the block at
        once; at a block boundary only the existing streams are refilled.
        """
        pos = (self.t - 1) % _SAMPLE_BLOCK
        new = (active > self._has_stream).nonzero()[0].tolist()
        for i in new:
            gen = rng.sensor_stream(self.config.seed, i)
            gen.bit_generator.advance((self.t - 1 - pos) // 4)
            self._streams[i] = gen
            self._has_stream[i] = True
        ids = list(self._streams) if pos == 0 else new
        if ids:
            u = np.empty((len(ids), _SAMPLE_BLOCK))
            for i, row in zip(ids, u):
                self._streams[i].random(out=row)
            self._sample_block[:, ids] = environment.quantile(self.model, u).T
        return self._sample_block[pos]

    def _deliver(self, broadcasters: np.ndarray) -> np.ndarray:
        """Boolean mask of sensors receiving at least one message."""
        received = np.zeros(self.config.n, dtype=bool)
        if broadcasters.size:
            starts = self.indptr[broadcasters]
            counts = self.indptr[broadcasters + 1] - starts
            received[self.indices[_ragged_arange(starts, counts)]] = True
        return received

    def step(self) -> SimRecord:
        cfg, spec = self.config, self.spec
        self.t += 1

        # Phase 1: sense and broadcast.
        active = self.kind == ACTIVE
        samples = self._next_samples(active)
        detecting = active & (samples >= spec.c_star)
        broadcasting = detecting
        if cfg.single_shot:
            broadcasting = detecting & ~self._broadcast_used
            self._broadcast_used |= broadcasting
        broadcasters = np.flatnonzero(broadcasting)
        received = self._deliver(broadcasters)

        # Phase 2: timers.
        self.remaining[active] -= 1
        expired = active & (self.remaining == 0)
        rearm = expired & self.permanent
        self.kind[expired & ~self.permanent] = PASSIVE
        self.remaining[rearm] = spec.tau_star
        self._broadcast_used[rearm] = False
        if cfg.refresh_on_detect:
            # A detection re-arms the detector's own timer (including one
            # whose activation just ended this step).
            self.kind[detecting] = ACTIVE
            self.remaining[detecting] = spec.tau_star

        # Phase 3: wake-ups (messages from this step, passive after expiry).
        wake = received & (self.kind == PASSIVE)
        self.kind[wake] = ACTIVE
        self.remaining[wake] = spec.tau_star
        self._broadcast_used[wake] = False

        # Phase 4: failures (absorbing).
        if cfg.failure_rate > 0.0:
            dying = (self._fail_rng.random(cfg.n) < cfg.failure_rate) & (self.kind != FAULTY)
            self.kind[dying] = FAULTY
            self.remaining[dying] = 0
            self.permanent[dying] = False

        # Phase 5: permanent-set reshuffle.
        n_perm = cfg.permanent_count
        if n_perm and self.rotation_period and self.t % self.rotation_period == 0:
            alive = np.flatnonzero(self.kind != FAULTY)
            take = min(n_perm, alive.size)
            chosen = self._rotate_rng.choice(alive, size=take, replace=False)
            self.permanent[:] = False
            self.permanent[chosen] = True
            newly = self.permanent & (self.kind == PASSIVE)
            self.kind[newly] = ACTIVE
            self.remaining[newly] = spec.tau_star
            self._broadcast_used[newly] = False

        n_active = int(np.count_nonzero(self.kind == ACTIVE))
        n_faulty = int(np.count_nonzero(self.kind == FAULTY))
        return SimRecord(
            step=self.t,
            n_active=n_active,
            n_passive=cfg.n - n_active - n_faulty,
            n_faulty=n_faulty,
            messages_sent=int(broadcasters.size),
            detections=int(np.count_nonzero(detecting)),
        )


def run(
    config: NetworkConfig, spec: SensorSpec, model: ConcentrationModel, steps: int
) -> list[SimRecord]:
    """Full trajectory of `steps` records from the initial state."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    sim = Simulation(config, spec, model)
    return [sim.step() for _ in range(steps)]


def active_fraction(records: list[SimRecord], n: int) -> np.ndarray:
    """n_active / n per step, as a float array."""
    return np.array([r.n_active for r in records], dtype=float) / n


@dataclass(frozen=True)
class EnsembleResult:
    """Across-seed mean and standard deviation of the active fraction."""

    mean: np.ndarray
    std: np.ndarray
    n_seeds: int


def _member_run(args) -> np.ndarray:
    config, spec, model, steps = args
    return active_fraction(run(config, spec, model, steps), config.n)


def run_members(members, jobs: int = 1) -> list[np.ndarray]:
    """Active-fraction trajectory of each (config, spec, model, steps) member.

    Members are independent runs; with jobs > 1 they execute in separate
    processes, and the trajectories always come back in input order, so
    the result does not depend on scheduling.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return [_member_run(m) for m in members]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_member_run, members, chunksize=1))


def ensemble_run(
    config: NetworkConfig,
    spec: SensorSpec,
    model: ConcentrationModel,
    steps: int,
    n_seeds: int,
    jobs: int = 1,
) -> EnsembleResult:
    """Ensemble over seeds config.seed, config.seed + 1, ..., run by run_members."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    members = [
        (replace(config, seed=config.seed + i), spec, model, steps) for i in range(n_seeds)
    ]
    stack = np.vstack(run_members(members, jobs))
    return EnsembleResult(mean=stack.mean(axis=0), std=stack.std(axis=0), n_seeds=n_seeds)
