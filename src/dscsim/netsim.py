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

  1. every active non-faulty sensor draws a uniform u from its own
     substream and broadcasts if u >= u*, i.e. if its reading reaches
     c_star (environment.uniform_threshold); the substream's key is
     derived in the step the sensor is first active at its start, its
     values are drawn per 128-step block when the sensor first senses in
     that block, and its t-th reading is the substream's t-th value
     however late the key was derived or the block drawn;
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

Runs that share the deployment, tau_star, model and step count run as
one disjoint union, whatever their seeds, r_star and c_star: one
Simulation holds every member's sensors side by side, with a
block-diagonal neighbor CSR built at each member's own r_star, and one
step kernel advances all of them per tick, reducing the populations
member by member. A sweep over r_star or c_star is thus one union (or one
per worker), not one per grid point. No drawn value changes: every member
keeps its own placement, initial-state, failure and rotation streams and
draws from them as a lone run does, and a sensor's concentration stream
stays keyed by (member seed, sensor index). The kernel pays for streams
only where sensors sense: a stream is kept as its Philox key alone,
derived (with every key new in that tick, in one rng.sensor_keys call) in
the tick its sensor first senses, and its row of a 128-step block is
filled the first time its sensor senses in that block, from one shared
Philox set to the stream's key and block counter. A row keeps only whether
each uniform is >= its member's u*, the one thing the protocol reads.
Phases 1-3 act on index arrays: the sensing sensors, and the recipients
of this step's messages, from which the wake-ups are taken.
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
# multiple of the 4 words of one Philox4x64 block, so the block starting
# after step b of a stream starts at its counter b // 4, whatever the
# stream drew before.
_SAMPLE_BLOCK = 128
# Sensors per union at most (at least one member). A union holds about
# 190 bytes per sensor: 128 of detection block, 32 of stream key, uniform
# threshold and filled block, and the state arrays; plus 8 per edge.
_UNION_SENSORS = 1 << 16
# Stream rows whose uniforms a fill holds at once (64 KiB of floats). One
# buffer for every stale row would outgrow the detection block at a block
# boundary of a large union where most sensors sense, and buffers of 256
# rows or more raised a sweep worker's peak RSS by 0.4 MB.
_FILL_ROWS = 64


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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
    """Mutable state of one run, or of a union of runs on one deployment.

    Simulation(config, spec, model) is one run at config.seed; step()
    advances it one synchronous tick and returns its record. With seeds
    given, the object holds one member per seed (config.seed is then
    unused) as a disjoint union: member k owns sensors k*n .. k*n + n - 1 of
    every state array, the neighbor CSR is block-diagonal, and _advance()
    steps all members at once. spec is then one SensorSpec for every member
    or a sequence of one per seed; the members may differ in r_star and
    c_star but not in tau_star. Each member keeps its own placement,
    initial-state, failure, rotation and sensor streams, its own range and
    threshold, so a member's trajectory is the one it gives alone.
    """

    def __init__(
        self, config: NetworkConfig, spec, model: ConcentrationModel, seeds=None
    ):
        self.config = config
        self.model = model
        self.seeds = (config.seed,) if seeds is None else tuple(seeds)
        if not self.seeds:
            raise ValueError("a Simulation needs at least one seed")
        n, m = config.n, len(self.seeds)
        self.specs = (spec,) * m if isinstance(spec, SensorSpec) else tuple(spec)
        if len(self.specs) != m:
            raise ValueError(f"a union of {m} seeds needs {m} SensorSpecs, got {len(self.specs)}")
        self.tau_star = self.specs[0].tau_star
        if any(s.tau_star != self.tau_star for s in self.specs):
            raise ValueError("the members of a union must share tau_star")

        self.kind = np.full(m * n, PASSIVE, dtype=np.int8)
        self.remaining = np.zeros(m * n, dtype=np.int64)
        self.permanent = np.zeros(m * n, dtype=bool)
        self._broadcast_used = np.zeros(m * n, dtype=bool)
        kind, remaining, permanent = (a.reshape(m, n) for a in (self.kind, self.remaining,
                                                                self.permanent))
        n_perm = config.permanent_count
        degrees, neighbors = [], []
        self._fail_rngs, self._rotate_rngs = [], []
        for k, (seed, spec) in enumerate(zip(self.seeds, self.specs)):
            positions = place_sensors(config, rng.substream(seed, rng.PLACEMENT))
            indptr, indices = neighbor_csr(positions, spec.r_star)
            degrees.append(np.diff(indptr))
            neighbors.append(indices + k * n)
            order = rng.substream(seed, rng.INITIAL_STATE).permutation(n)
            permanent[k, order[:n_perm]] = True
            starters = order[: n_perm + config.initial_active]
            kind[k, starters] = ACTIVE
            remaining[k, starters] = self.tau_star
            self._fail_rngs.append(rng.substream(seed, rng.FAILURE))
            self._rotate_rngs.append(rng.substream(seed, rng.ROTATION))
        self.indptr = np.zeros(m * n + 1, dtype=np.int64)
        np.cumsum(np.concatenate(degrees), out=self.indptr[1:])
        self.indices = np.concatenate(neighbors)

        # Sensor streams, in the order they were built: row r of _keys is a
        # stream's Philox key, row r of _threshold its member's u*, and row r
        # of _detect holds, for each step of sample block _block[r], whether
        # its uniform is >= that threshold. _row maps a sensor to its
        # stream's row (-1: the sensor has not sensed).
        self._u_star = environment.uniform_threshold(model, [s.c_star for s in self.specs])
        self._keys = np.empty((m * n, 2), dtype=np.uint64)
        self._threshold = np.empty(m * n)
        self._detect = np.empty((m * n, _SAMPLE_BLOCK), dtype=bool)
        self._block = np.empty(m * n, dtype=np.int64)
        self._row = np.full(m * n, -1, dtype=np.int64)
        self._streams = 0
        self._draw = np.random.Generator(np.random.Philox(0))

        period = config.rotation_period
        self.rotation_period = 10 * self.tau_star if period is None else period
        self.t = 0

    def _fill(self, rows: np.ndarray, block: int) -> None:
        """Detection bits of the given stream rows for sample block `block`,
        steps block * _SAMPLE_BLOCK + 1 .. (block + 1) * _SAMPLE_BLOCK.

        Each row's uniforms are drawn from the shared Philox set to the
        stream's key and to counter block * _SAMPLE_BLOCK // 4 with an empty
        buffer, the state a fresh stream reaches by drawing its first
        block * _SAMPLE_BLOCK values. At most _FILL_ROWS rows of uniforms are
        held at once.
        """
        bit_generator = self._draw.bit_generator
        state = bit_generator.state
        state["state"]["counter"] = np.array([block * _SAMPLE_BLOCK // 4, 0, 0, 0],
                                             dtype=np.uint64)
        state["buffer_pos"] = 4
        for start in range(0, rows.size, _FILL_ROWS):
            part = rows[start:start + _FILL_ROWS]
            uniforms = np.empty((part.size, _SAMPLE_BLOCK))
            for key, out in zip(self._keys[part], uniforms):
                state["state"]["key"] = key
                bit_generator.state = state
                self._draw.random(out=out)
            self._detect[part] = uniforms >= self._threshold[part, None]
        self._block[rows] = block

    def _sense(self, sensing: np.ndarray) -> np.ndarray:
        """Whether this step's reading reaches its member's c_star at each
        sensing sensor.

        A sensor sensing for the first time gets its stream key (all of this
        tick's new keys in one rng.sensor_keys call) and threshold here, and
        a stream's row is filled for a sample block the first time its
        sensor senses in that block.
        """
        block, pos = divmod(self.t - 1, _SAMPLE_BLOCK)
        rows = self._row[sensing]
        new = np.flatnonzero(rows < 0)
        if new.size:
            n, first = self.config.n, self._streams
            fresh = sensing[new]
            member = fresh // n
            self._streams += new.size
            rows[new] = self._row[fresh] = np.arange(first, self._streams)
            self._keys[first:self._streams] = rng.sensor_keys(
                [self.seeds[k] for k in member.tolist()], fresh % n)
            self._threshold[first:self._streams] = self._u_star[member]
            self._block[first:self._streams] = -1
        stale = rows[self._block[rows] != block]
        if stale.size:
            self._fill(stale, block)
        return self._detect[rows, pos]

    def _deliver(self, broadcasters: np.ndarray) -> np.ndarray:
        """Indices of the recipients of the broadcasters' messages; a sensor
        that hears several broadcasters appears once per message."""
        starts = self.indptr[broadcasters]
        counts = self.indptr[broadcasters + 1] - starts
        return self.indices[_ragged_arange(starts, counts)]

    def _advance(self) -> tuple[np.ndarray, np.ndarray]:
        """One synchronous tick of every member; returns the indices of this
        tick's broadcasting and detecting sensors.

        Sensing, timers and wake-ups act on index arrays, of the active
        sensors and of this tick's message recipients, which are few in most
        ticks of a sparse network.
        """
        cfg, tau_star = self.config, self.tau_star
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
        remaining[expired[rearm]] = tau_star
        used[expired[rearm]] = False
        if cfg.refresh_on_detect:
            # A detection re-arms the detector's own timer (including one
            # whose activation just ended this step).
            kind[detecting] = ACTIVE
            remaining[detecting] = tau_star

        # Phase 3: wake-ups (messages from this step, passive after expiry).
        wake = received[kind[received] == PASSIVE]  # repeats write the same values
        kind[wake] = ACTIVE
        remaining[wake] = tau_star
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
            remaining[newly] = tau_star
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
    """What the members of one union share: all but seed, r_star and c_star."""
    config, spec, model, steps = member
    return replace(config, seed=0), spec.tau_star, model, steps


def _chunk_run(chunk) -> list[np.ndarray]:
    """Active-fraction trajectories of one union's members, in member order."""
    config, model, steps, seeds, specs = chunk
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    sim = Simulation(config, specs, model, seeds)
    counts = np.empty((len(seeds), steps))
    for column in counts.T:
        sim._advance()
        column[:] = np.bincount(np.flatnonzero(sim.kind == ACTIVE) // config.n,
                                minlength=len(seeds))
    return list(counts / config.n)


def run_members(members, jobs: int = 1) -> list[np.ndarray]:
    """Active-fraction trajectory of each (config, spec, model, steps) member.

    Members that differ only in config.seed, spec.r_star and spec.c_star,
    wherever they stand in the list, run together as Simulation unions: each
    such group is dealt round-robin into as few chunks as hold at most
    ceil(len / jobs) members and _UNION_SENSORS sensors (or one member), so
    every chunk of a sweep gets its share of each grid point. With jobs > 1
    the chunks execute in separate processes. Every member's trajectory is
    the one run() gives it alone, and the trajectories come back in input
    order, so the result depends on neither jobs nor scheduling.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    groups: dict[tuple, list[int]] = {}
    for index, member in enumerate(members):
        groups.setdefault(_union_key(member), []).append(index)
    chunks, order = [], []
    for (config, _, model, steps), indices in groups.items():
        size = max(1, min(math.ceil(len(indices) / jobs), _UNION_SENSORS // config.n))
        count = math.ceil(len(indices) / size)
        for part in (indices[k::count] for k in range(count)):
            order += part
            chunks.append((config, model, steps, [members[i][0].seed for i in part],
                           [members[i][1] for i in part]))
    if jobs == 1:
        results = map(_chunk_run, chunks)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_chunk_run, chunks, chunksize=1))
    trajectories = [None] * len(order)
    for index, trajectory in zip(order, (t for chunk in results for t in chunk)):
        trajectories[index] = trajectory
    return trajectories


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
