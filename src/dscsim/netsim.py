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
     step, and its t-th reading is the substream's t-th value however
     late it was built);
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

The members of an ensemble point (the same deployment, spec, model and
step count at different seeds) run as one disjoint union: one Simulation
holds every member's sensors side by side, with a block-diagonal neighbor
CSR, and one step kernel advances all of them per tick, reducing the
populations member by member. No drawn value changes: every member keeps
its own placement, initial-state, failure and rotation streams and draws
from them as a lone run does, and a sensor's concentration stream stays
keyed by (member seed, sensor index) and is built lazily, as only its
Philox key, when the sensor first senses. At every 128-step block the
kernel draws each built stream's next 128 values from one shared Philox
set to the stream's key and block counter, and keeps only whether each
reading reaches c_star, the one thing the protocol reads.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from . import environment, rng
from .environment import ConcentrationModel
from .sensor import SensorSpec

PASSIVE = 0
ACTIVE = 1
FAULTY = 2

# Steps of per-sensor samples drawn per refill; amortizes generator calls
# without changing any drawn value (streams are consumed sequentially). A
# multiple of the 4 words of one Philox4x64 block, so the block starting
# after step b of a stream starts at its counter b // 4, whatever the
# stream drew before.
_SAMPLE_BLOCK = 128
# Streams per environment.quantile call in a refill; bounds the float
# temporaries whatever the number of streams.
_QUANTILE_ROWS = 512
# Sensors per union at most (at least one member). A union holds about
# 170 bytes per sensor, most of it the detection block, plus 8 per edge.
_UNION_SENSORS = 1 << 16


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
    """Mutable state of one run, or of a union of runs that differ only by seed.

    Simulation(config, spec, model) is one run at config.seed; step()
    advances it one synchronous tick and returns its record. With seeds
    given, the object holds one member per seed (config.seed is then
    unused) as a disjoint union: member k owns sensors k*n .. k*n + n - 1 of
    every state array, the neighbor CSR is block-diagonal, and _advance()
    steps all members at once. Each member keeps its own placement,
    initial-state, failure, rotation and sensor streams, so a member's
    trajectory is the one it gives alone.
    """

    def __init__(
        self, config: NetworkConfig, spec: SensorSpec, model: ConcentrationModel, seeds=None
    ):
        self.config = config
        self.spec = spec
        self.model = model
        self.seeds = (config.seed,) if seeds is None else tuple(seeds)
        if not self.seeds:
            raise ValueError("a Simulation needs at least one seed")
        n, m = config.n, len(self.seeds)

        self.kind = np.full(m * n, PASSIVE, dtype=np.int8)
        self.remaining = np.zeros(m * n, dtype=np.int64)
        self.permanent = np.zeros(m * n, dtype=bool)
        self._broadcast_used = np.zeros(m * n, dtype=bool)
        kind, remaining, permanent = (a.reshape(m, n) for a in (self.kind, self.remaining,
                                                                self.permanent))
        n_perm = config.permanent_count
        degrees, neighbors = [], []
        self._fail_rngs, self._rotate_rngs = [], []
        for k, seed in enumerate(self.seeds):
            positions = place_sensors(config, rng.substream(seed, rng.PLACEMENT))
            indptr, indices = neighbor_csr(positions, spec.r_star)
            degrees.append(np.diff(indptr))
            neighbors.append(indices + k * n)
            order = rng.substream(seed, rng.INITIAL_STATE).permutation(n)
            permanent[k, order[:n_perm]] = True
            starters = order[: n_perm + config.initial_active]
            kind[k, starters] = ACTIVE
            remaining[k, starters] = spec.tau_star
            self._fail_rngs.append(rng.substream(seed, rng.FAILURE))
            self._rotate_rngs.append(rng.substream(seed, rng.ROTATION))
        self.indptr = np.zeros(m * n + 1, dtype=np.int64)
        np.cumsum(np.concatenate(degrees), out=self.indptr[1:])
        self.indices = np.concatenate(neighbors)

        # Sensor streams, in the order they were built: row r of _keys is a
        # stream's Philox key and row r of _detect holds, for each step of
        # the current sample block, whether its reading is >= c_star. _row
        # maps a sensor to its stream's row (-1: the sensor has not sensed).
        self._keys = np.empty((m * n, 2), dtype=np.uint64)
        self._detect = np.empty((m * n, _SAMPLE_BLOCK), dtype=bool)
        self._row = np.full(m * n, -1, dtype=np.int64)
        self._streams = 0
        self._draw = np.random.Generator(np.random.Philox(0))

        period = config.rotation_period
        self.rotation_period = 10 * spec.tau_star if period is None else period
        self.t = 0

    def _fill(self, first: int, block_start: int) -> None:
        """Detection bits of stream rows first .. _streams - 1 for the block
        of steps block_start + 1 .. block_start + _SAMPLE_BLOCK.

        Each row's uniforms are drawn from the shared Philox set to the
        stream's key and to counter block_start // 4 with an empty buffer,
        the state a fresh stream reaches by advance(block_start // 4) or by
        drawing its first block_start values.
        """
        bit_generator = self._draw.bit_generator
        state = bit_generator.state
        state["state"]["counter"] = np.array([block_start // 4, 0, 0, 0], dtype=np.uint64)
        state["buffer_pos"] = 4
        for start in range(first, self._streams, _QUANTILE_ROWS):
            stop = min(start + _QUANTILE_ROWS, self._streams)
            u = np.empty((stop - start, _SAMPLE_BLOCK))
            for key, row in zip(self._keys[start:stop], u):
                state["state"]["key"] = key
                bit_generator.state = state
                self._draw.random(out=row)
            self._detect[start:stop] = environment.quantile(self.model, u) >= self.spec.c_star

    def _sense(self, sensing: np.ndarray) -> np.ndarray:
        """Whether this step's reading is >= c_star at each sensing sensor.

        A sensor sensing for the first time gets its stream key here and its
        row of the current block at once; at a block boundary every stream's
        row is refilled.
        """
        pos = (self.t - 1) % _SAMPLE_BLOCK
        new = sensing[self._row[sensing] < 0]
        first = self._streams
        if new.size:
            n = self.config.n
            self._row[new] = np.arange(first, first + new.size)
            for row, i in enumerate(new.tolist(), first):
                self._keys[row] = rng.sensor_key(self.seeds[i // n], i % n)
            self._streams += new.size
        if pos == 0 or new.size:
            self._fill(0 if pos == 0 else first, self.t - 1 - pos)
        return self._detect[self._row[sensing], pos]

    def _deliver(self, broadcasters: np.ndarray) -> np.ndarray:
        """Boolean mask of sensors receiving at least one message."""
        received = np.zeros(self.kind.size, dtype=bool)
        starts = self.indptr[broadcasters]
        counts = self.indptr[broadcasters + 1] - starts
        received[self.indices[_ragged_arange(starts, counts)]] = True
        return received

    def _advance(self) -> tuple[np.ndarray, np.ndarray]:
        """One synchronous tick of every member; returns the indices of this
        tick's broadcasting and detecting sensors.

        Sensing and timers act on the indices of the active sensors, which
        are few in most ticks of a sparse network.
        """
        cfg, spec = self.config, self.spec
        n, m = cfg.n, len(self.seeds)
        kind, remaining, used = self.kind, self.remaining, self._broadcast_used
        self.t += 1

        # Phase 1: sense and broadcast.
        sensing = np.flatnonzero(kind == ACTIVE)
        detecting = sensing[self._sense(sensing)]
        broadcasting = detecting
        if cfg.single_shot:
            broadcasting = detecting[~used[detecting]]
            used[broadcasting] = True
        received = self._deliver(broadcasting)

        # Phase 2: timers.
        remaining[sensing] -= 1
        expired = sensing[remaining[sensing] == 0]
        rearm = self.permanent[expired]
        kind[expired[~rearm]] = PASSIVE
        remaining[expired[rearm]] = spec.tau_star
        used[expired[rearm]] = False
        if cfg.refresh_on_detect:
            # A detection re-arms the detector's own timer (including one
            # whose activation just ended this step).
            kind[detecting] = ACTIVE
            remaining[detecting] = spec.tau_star

        # Phase 3: wake-ups (messages from this step, passive after expiry).
        wake = received & (kind == PASSIVE)
        kind[wake] = ACTIVE
        remaining[wake] = spec.tau_star
        used[wake] = False

        # Phase 4: failures (absorbing); each member draws n uniforms.
        if cfg.failure_rate > 0.0:
            draws = np.empty((m, n))
            for gen, row in zip(self._fail_rngs, draws):
                gen.random(out=row)
            dying = (draws.ravel() < cfg.failure_rate) & (kind != FAULTY)
            kind[dying] = FAULTY
            remaining[dying] = 0
            self.permanent[dying] = False

        # Phase 5: permanent-set reshuffle, member by member.
        n_perm = cfg.permanent_count
        if n_perm and self.rotation_period and self.t % self.rotation_period == 0:
            for gen, member_kind, permanent in zip(self._rotate_rngs, kind.reshape(m, n),
                                                   self.permanent.reshape(m, n)):
                alive = np.flatnonzero(member_kind != FAULTY)
                chosen = gen.choice(alive, size=min(n_perm, alive.size), replace=False)
                permanent[:] = False
                permanent[chosen] = True
            newly = self.permanent & (kind == PASSIVE)
            kind[newly] = ACTIVE
            remaining[newly] = spec.tau_star
            used[newly] = False
        return broadcasting, detecting

    def step(self) -> SimRecord:
        """Advance a one-run Simulation one tick; returns its record."""
        if len(self.seeds) != 1:
            raise ValueError("step() advances one run; a union has no single record")
        broadcasting, detecting = self._advance()
        n_active = int(np.count_nonzero(self.kind == ACTIVE))
        n_faulty = int(np.count_nonzero(self.kind == FAULTY))
        return SimRecord(
            step=self.t,
            n_active=n_active,
            n_passive=self.config.n - n_active - n_faulty,
            n_faulty=n_faulty,
            messages_sent=int(broadcasting.size),
            detections=int(detecting.size),
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


def _union_key(member):
    config, spec, model, steps = member
    return replace(config, seed=0), spec, model, steps


def _chunk_run(chunk) -> list[np.ndarray]:
    """Active-fraction trajectories of one union's members, by seed order."""
    config, spec, model, steps, seeds = chunk
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    sim = Simulation(config, spec, model, seeds)
    counts = np.empty((len(seeds), steps))
    for column in counts.T:
        sim._advance()
        column[:] = np.count_nonzero(sim.kind.reshape(len(seeds), config.n) == ACTIVE, axis=1)
    return list(counts / config.n)


def run_members(members, jobs: int = 1) -> list[np.ndarray]:
    """Active-fraction trajectory of each (config, spec, model, steps) member.

    Consecutive members that differ only by config.seed run together as
    Simulation unions: each such group is split into `jobs` contiguous
    chunks of at most _UNION_SENSORS sensors (or of one member). With
    jobs > 1 the chunks execute in separate processes. Every member's
    trajectory is the one run() gives it alone, and the trajectories come
    back in input order, so the result depends on neither jobs nor
    scheduling.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    chunks = []
    for (config, spec, model, steps), group in groupby(members, key=_union_key):
        seeds = [member[0].seed for member in group]
        size = max(1, min(math.ceil(len(seeds) / jobs), _UNION_SENSORS // config.n))
        chunks += [(config, spec, model, steps, seeds[k:k + size])
                   for k in range(0, len(seeds), size)]
    if jobs == 1:
        results = map(_chunk_run, chunks)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_chunk_run, chunks, chunksize=1))
    return [trajectory for chunk in results for trajectory in chunk]


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
