"""Agent-based simulation of the dynamic-collaboration wake-up protocol.

N identical sensors are placed uniformly in a rectangular region. Sensors
are passive (sleeping) by default. An active sensor samples the
environment once per step; on a positive reading it broadcasts a single
wake-up message heard by every sensor within its communication range.
Passive recipients switch to active for tau_star steps. Active recipients
ignore messages. A configurable fraction of sensors is kept permanently
active (re-armed on expiry, reshuffled periodically to spread the energy
cost), and an optional per-step failure probability moves sensors into an
absorbing faulty state that neither senses nor relays. A sensor's state is
its timer alone: remaining > 0 is active with that many steps left, 0 is
passive and FAULTY (-1) is faulty.

One simulation step, synchronously:

  1. every active non-faulty sensor draws a uniform u from its own
     substream and broadcasts if u >= u*, i.e. if its reading reaches
     c_star (environment.uniform_threshold); the substream's values
     are drawn per 128-step block when the sensor first senses in that
     block, and its t-th reading is the substream's t-th value however
     late the block was drawn;
  2. active timers decrement; expired sensors go passive (permanent ones
     re-arm immediately);
  3. this step's messages activate recipients that are passive *after*
     expiry, with a fresh tau_star timer counting from the next step
     (one-step message latency; a sensor that was active while the
     message was sent ignores it, but a sensor whose activation just
     ended is woken again);
  4. non-faulty sensors fail with probability failure_rate;
  5. every rotation_period steps the permanent set is re-drawn uniformly
     among the non-faulty sensors.

Simulation.step records the active list's size and counts the timers.

Runs are reproducible: placement, initial selection, per-sensor
concentration series, failures and reshuffles all derive from the single
config seed through independent substreams, so per-sensor sample series
never depend on iteration order or sensor count.

The union. Runs that share the deployment, tau_star, model and step count
run as one disjoint union, whatever their seeds, r_star and c_star: member
k of a Simulation owns sensors k*n .. k*n + n - 1 of every state array,
the neighbor CSR is block-diagonal, and one step kernel advances every
member per tick. Member k's seed is distinct seed _seed_row[k], the
distinct seeds in order of first appearance; the members of one row are
siblings. One loop over the distinct seeds builds everything a seed
determines, once: its placement, its initial order, its sensors' n stream
keys (one rng.sensor_keys call), its failure stream, whose n uniforms per
tick every sibling reads, and its neighbor CSR at the siblings' largest
r_star with each pair's squared distance, computed as neighbor_csr does.
Each member keeps the pairs with d2 <= r_star * r_star at its own r_star;
rounding is monotone, so those are neighbor_csr's pairs at that range, byte
for byte. Its u* and rotation stream stay its own, so a member reads every
value its lone run draws.

The stream store. _keys holds one (n, 2) block of Philox keys per distinct
seed, so sensor i of member k has key _keys[_seed_row[k], i]. Row k*n + i
of _detect holds that sensor's bits for sample block _block[k*n + i] (-1
before it first senses): for each of the block's 128 steps, whether its
uniform is >= member k's u*, the one thing the protocol reads. Only the
fills are lazy: a row is filled the first time its sensor senses in a
block, so streams are drawn only where sensors sense. Philox4x64 gives 4
words per counter value and Generator.random one value per word, so block
b of a stream starts at counter 128 b / 4: one shared Philox, set to the
key and that counter with an empty buffer, stands where the stream stands
after its first 128 b values, and a sensor's t-th reading is its stream's
t-th value however late its block was filled.

The active list. Every phase acts on index arrays: the sensing sensors,
and the recipients of this step's messages, from which the wake-ups are
taken. The list is part of the Simulation's state: each tick senses it and
rewrites it from those arrays (the sensing sensors still active after
their timers, then each wake-up once, less this tick's failures, plus the
sensors a rotation wakes). So a tick costs what its active sensors and
messages cost, not a pass over every sensor of the union. Only the first
tick reads the list from the timers, so state written before it is read.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import environment, rng
from .checks import check_array, check_flag, check_integer, check_real
from .environment import ConcentrationModel
from .sensor import SensorSpec

# A faulty sensor's timer; an active one's is > 0, a passive one's 0.
FAULTY = -1

# Steps of per-sensor samples drawn per refill; amortizes generator calls
# without changing any drawn value. A multiple of Philox4x64's 4 words, so
# every block starts on a counter (module docstring, the stream store).
_SAMPLE_BLOCK = 128
# Sensors per union at most (at least one member). A union holds about
# 170 bytes per sensor: 128 of detection block, 8 of filled block, at most
# 16 of stream key, and the state arrays; plus 8 per edge.
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
        check_integer("n", self.n, 1)
        check_real("width", self.width, gt=0)
        check_real("height", self.height, gt=0)
        check_real("width * height", self.area, gt=0)  # no overflow, no underflow
        check_real("delta", self.delta, ge=0, le=1)
        check_integer("initial_active", self.initial_active, 0)
        if self.permanent_count + self.initial_active > self.n:
            raise ValueError(
                f"permanent sensors ({self.permanent_count}) plus initial_active "
                f"({self.initial_active}) exceed n ({self.n})"
            )
        check_real("failure_rate", self.failure_rate, ge=0, le=1)
        if self.rotation_period is not None:
            check_integer("rotation_period", self.rotation_period, 0)
        check_integer("seed", self.seed, 0)
        check_flag("single_shot", self.single_shot)
        check_flag("refresh_on_detect", self.refresh_on_detect)

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def permanent_count(self) -> int:
        return math.ceil(self.delta * self.n)


@dataclass(frozen=True)
class SimRecord:
    """Per-step population counts and traffic. n_active is the size of the
    active list, n_passive and n_faulty count the timers at 0 and FAULTY:
    the three sum to n only while the list and the timers agree."""

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
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)


def neighbor_csr(positions: np.ndarray, r_star: float) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency of the communication graph in CSR form (indptr, indices).

    Row i lists, ascending, every j != i whose offset d = positions[j] -
    positions[i] satisfies d_x**2 + d_y**2 <= r_star**2 in floating point.
    Points are sorted by square cell, and a table of cell counts gives where
    each cell's points start in that order. The 3 x 3 block of cells around
    a point is three runs of that order, one per column (a column's cells
    have consecutive ids), and its points are filtered by the exact test.
    """
    check_real("r_star", r_star, gt=0)
    shape = np.shape(positions)
    if len(shape) != 2 or shape[1] != 2:
        raise ValueError(f"positions must be of shape (k, 2), got shape {shape}")
    pos = check_array("positions", positions)
    n = len(pos)
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    lo = pos.min(axis=0)
    # in Python floats, which overflow to inf without a warning
    extent = max(high - low for high, low in zip(pos.max(axis=0).tolist(), lo.tolist()))
    check_real("2 * extent**2 of positions", 2.0 * extent * extent)  # bounds dx**2 + dy**2 below
    # The 2**-16 margin exceeds the rounding error of the distance test and
    # of the cell arithmetic, so every accepted pair lies in the same or an
    # adjacent cell. Cells at least extent / (2 isqrt(n) + 2) wide keep the
    # table at O(n) cells; the 2**-500 floor covers an r_star whose square
    # underflows.
    cell = max(r_star, extent / (2 * math.isqrt(n) + 2), 2.0**-500) * (1.0 + 2.0**-16)
    kx, ky = np.floor((pos - lo) / cell).astype(np.int64).T
    rows = int(ky.max()) + 3  # a padding row and column each side: no wrap
    cell_id = (kx + 1) * rows + ky + 1
    offset = np.zeros((int(kx.max()) + 3) * rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell_id, minlength=offset.size - 1), out=offset[1:])
    first = (cell_id[:, None] + np.array([-rows - 1, -1, rows - 1])).ravel()
    begin = offset[first]
    count = offset[first + 3] - begin
    i = np.repeat(np.arange(first.size) // 3, count)
    j = np.argsort(cell_id)[_ragged_arange(begin, count)]
    x, y = pos.T
    dx, dy = x[j] - x[i], y[j] - y[i]
    keep = (dx**2 + dy**2 <= r_star * r_star) & (i != j)
    pairs = np.sort(i[keep] * n + j[keep])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // n, minlength=n), out=indptr[1:])
    return indptr, pairs % n


class Simulation:
    """Mutable state of one run, or of a union of runs on one deployment.

    Simulation(config, spec, model) is one run at config.seed; step()
    advances it one synchronous tick and returns its record. With seeds
    given, the object holds one member per seed (config.seed is then
    unused) as a disjoint union (module docstring): member k owns sensors
    k*n .. k*n + n - 1 of every state array, and _advance() steps all
    members at once. spec is then one SensorSpec for every member or a
    sequence of one per seed; the members may differ in r_star and c_star
    but not in tau_star, and a seed may repeat. Each member's trajectory is
    the one it gives alone.
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

        self.remaining = np.zeros(m * n, dtype=np.int64)
        self.permanent = np.zeros(m * n, dtype=bool)
        self._broadcast_used = np.zeros(m * n, dtype=bool)
        remaining, permanent = self.remaining.reshape(m, n), self.permanent.reshape(m, n)
        n_perm = config.permanent_count
        period = config.rotation_period
        self.rotation_period = 10 * self.tau_star if period is None else period
        # Streams exist only where _advance draws them.
        failing, rotating = config.failure_rate > 0.0, n_perm and self.rotation_period
        members: dict[int, list[int]] = {}
        for k, seed in enumerate(self.seeds):
            members.setdefault(seed, []).append(k)
        # The stream store (module docstring): member k's seed is distinct seed
        # _seed_row[k], whose sensor i has Philox key _keys[_seed_row[k], i].
        self._seed_row = np.empty(m, dtype=np.int64)
        self._keys = np.empty((len(members), n, 2), dtype=np.uint64)
        self._detect = np.empty((m * n, _SAMPLE_BLOCK), dtype=bool)
        self._block = np.full(m * n, -1, dtype=np.int64)
        degrees, neighbors, self._fail_rngs = [None] * m, [None] * m, []
        for row, (seed, ks) in enumerate(members.items()):
            self._seed_row[ks] = row
            self._keys[row] = rng.sensor_keys(seed, np.arange(n))
            if failing:  # read by every member of the seed
                self._fail_rngs.append(rng.substream(seed, rng.FAILURE))
            positions = place_sensors(config, rng.substream(seed, rng.PLACEMENT))
            order = rng.substream(seed, rng.INITIAL_STATE).permutation(n)
            indptr, indices = neighbor_csr(positions, max(self.specs[k].r_star for k in ks))
            rows = np.repeat(np.arange(n), np.diff(indptr))
            x, y = positions.T
            d2 = (x[indices] - x[rows])**2 + (y[indices] - y[rows])**2
            for k in ks:
                keep = d2 <= self.specs[k].r_star * self.specs[k].r_star
                degrees[k] = np.bincount(rows[keep], minlength=n)
                neighbors[k] = indices[keep] + k * n
                permanent[k, order[:n_perm]] = True
                remaining[k, order[: n_perm + config.initial_active]] = self.tau_star
        self.indptr = np.zeros(m * n + 1, dtype=np.int64)
        np.cumsum(np.concatenate(degrees), out=self.indptr[1:])
        self.indices = np.concatenate(neighbors)

        self._u_star = environment.uniform_threshold(model, [s.c_star for s in self.specs])
        self._draw = np.random.Generator(np.random.Philox(0))
        # A rotation reads its own member's faulty set.
        self._rotate_rngs = [rng.substream(s, rng.ROTATION) for s in self.seeds if rotating]
        self.t = 0
        # The sensors active after tick t, each once; None: read the timers.
        self._active = None

    def _fill(self, sensors: np.ndarray, block: int) -> None:
        """Detection bits of the given sensors for sample block `block`:
        steps block * _SAMPLE_BLOCK + 1 .. (block + 1) * _SAMPLE_BLOCK,
        compared with each sensor's member's u*. The uniforms come from the
        shared Philox set to each sensor's key and block counter (module
        docstring), at most _FILL_ROWS rows at once.
        """
        bit_generator = self._draw.bit_generator
        # Python ints, which the state setter reads faster than numpy
        # scalars; buffer_pos 4 refills the buffer before it is read.
        state = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0,
                 "state": {"counter": [block * _SAMPLE_BLOCK // 4, 0, 0, 0]}}
        for start in range(0, sensors.size, _FILL_ROWS):
            part = sensors[start:start + _FILL_ROWS]
            member, sensor = np.divmod(part, self.config.n)
            uniforms = np.empty((part.size, _SAMPLE_BLOCK))
            for key, out in zip(self._keys[self._seed_row[member], sensor].tolist(), uniforms):
                state["state"]["key"] = key
                bit_generator.state = state
                self._draw.random(out=out)
            self._detect[part] = uniforms >= self._u_star[member, None]
        self._block[sensors] = block

    def _sense(self, sensing: np.ndarray) -> np.ndarray:
        """Whether this step's reading reaches its member's c_star at each
        sensing sensor.

        A sensor's row is filled for a sample block the first time it senses
        in that block.
        """
        block, pos = divmod(self.t - 1, _SAMPLE_BLOCK)
        stale = sensing[self._block[sensing] != block]
        if stale.size:
            self._fill(stale, block)
        return self._detect[sensing, pos]

    def _deliver(self, broadcasters: np.ndarray) -> np.ndarray:
        """Indices of the recipients of the broadcasters' messages; a sensor
        that hears several broadcasters appears once per message."""
        starts = self.indptr[broadcasters]
        counts = self.indptr[broadcasters + 1] - starts
        return self.indices[_ragged_arange(starts, counts)]

    def _advance(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One synchronous tick of every member; returns the indices of this
        tick's broadcasting, detecting and (after the tick) active sensors.

        The tick senses the active list the previous tick left in _active,
        each active sensor once, and leaves its own there; a first tick
        (_active is None) reads the list from the timers. Every phase acts on
        index arrays, of the active sensors and of this tick's message
        recipients, which are few in most ticks of a sparse network.
        """
        cfg, tau_star = self.config, self.tau_star
        n, m, n_perm = cfg.n, len(self.seeds), cfg.permanent_count
        remaining, used = self.remaining, self._broadcast_used
        self.t += 1

        # Phase 1: sense and broadcast.
        sensing = self._active
        if sensing is None:
            sensing = np.flatnonzero(remaining > 0)
        detecting = sensing[self._sense(sensing)]
        broadcasting = detecting
        if cfg.single_shot:
            broadcasting = detecting[~used[detecting]]
            used[broadcasting] = True
        received = self._deliver(broadcasting)

        # Phase 2: timers.
        left = remaining[sensing] - 1
        remaining[sensing] = left
        if n_perm:  # else no sensor is permanent
            expired = sensing[left == 0]
            rearm = expired[self.permanent[expired]]
            remaining[rearm] = tau_star
            used[rearm] = False
        if cfg.refresh_on_detect:
            # A detection re-arms the detector's own timer (including one
            # whose activation just ended this step).
            remaining[detecting] = tau_star
        # Taken before phase 3, which may wake a sensor that just expired.
        staying = sensing[remaining[sensing] > 0]

        # Phase 3: wake-ups (messages from this step, passive after expiry).
        wake = received[remaining[received] == 0]  # repeats write the same values
        remaining[wake] = tau_star
        used[wake] = False
        wake.sort()  # each woken sensor once: drop the repeats of a sorted list
        first = np.ones(wake.size, dtype=bool)
        np.not_equal(wake[1:], wake[:-1], out=first[1:])
        active = np.concatenate((staying, wake[first]))

        # Phase 4: failures (absorbing); each distinct seed draws n uniforms,
        # which every member of the seed reads.
        if cfg.failure_rate > 0.0:
            draws = np.empty((len(self._fail_rngs), n))
            for gen, row in zip(self._fail_rngs, draws):
                gen.random(out=row)
            failed = (draws < cfg.failure_rate)[self._seed_row].ravel()
            dying = failed & (remaining != FAULTY)
            remaining[dying] = FAULTY
            self.permanent[dying] = False
            active = active[remaining[active] > 0]

        # Phase 5: permanent-set reshuffle, member by member.
        if self._rotate_rngs and self.t % self.rotation_period == 0:
            for gen, timers, permanent in zip(self._rotate_rngs, remaining.reshape(m, n),
                                              self.permanent.reshape(m, n)):
                alive = np.flatnonzero(timers != FAULTY)
                chosen = gen.choice(alive, size=min(n_perm, alive.size), replace=False)
                permanent[:] = False
                permanent[chosen] = True
            newly = np.flatnonzero(self.permanent & (remaining == 0))
            remaining[newly] = tau_star
            used[newly] = False
            active = np.concatenate((active, newly))

        self._active = active
        return broadcasting, detecting, active

    def step(self) -> SimRecord:
        """Advance a one-run Simulation one tick; returns its record."""
        if len(self.seeds) != 1:
            raise ValueError("step() advances one run; a union has no single record")
        broadcasting, detecting, active = self._advance()
        n_faulty, n_passive, _ = np.bincount(  # timers FAULTY, 0 and > 0
            np.minimum(self.remaining, 1) + 1, minlength=3).tolist()
        return SimRecord(
            step=self.t,
            n_active=active.size,
            n_passive=n_passive,
            n_faulty=n_faulty,
            messages_sent=broadcasting.size,
            detections=detecting.size,
        )


def run(
    config: NetworkConfig, spec: SensorSpec, model: ConcentrationModel, steps: int
) -> list[SimRecord]:
    """Full trajectory of `steps` records from the initial state."""
    check_integer("steps", steps, 1)
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


def _chunk_run(chunk) -> np.ndarray:
    """Active-fraction trajectories of one union's members, one row per
    member in member order, counted member by member from the active list
    each _advance returns."""
    config, model, steps, seeds, specs = chunk
    sim = Simulation(config, specs, model, seeds)
    counts = np.empty((len(seeds), steps))
    for column in counts.T:
        column[:] = np.bincount(sim._advance()[2] // config.n, minlength=len(seeds))
    return counts / config.n


def _deal(members, jobs: int) -> tuple[list[int], list[tuple]]:
    """The members dealt into unions: (order, chunks), the chunks
    run_members runs and, chunk after chunk, the member index of each row
    of their results. Checks every member's steps."""
    groups: dict[tuple, list[int]] = {}
    for index, (config, spec, model, steps) in enumerate(members):
        check_integer("steps", steps, 1)
        # A union's members share all but seed, r_star and c_star.
        groups.setdefault((replace(config, seed=0), spec.tau_star, model, steps), []).append(index)
    order, chunks = [], []
    for (config, _, model, steps), indices in groups.items():
        size = max(1, min(math.ceil(len(indices) / jobs), _UNION_SENSORS // config.n))
        count = math.ceil(len(indices) / size)
        for part in (indices[k::count] for k in range(count)):
            order += part
            chunks.append((config, model, steps, [members[i][0].seed for i in part],
                           [members[i][1] for i in part]))
    return order, chunks


def _share_run(chunks, cpus, conn) -> None:
    """A worker's share: pin to the cpus (None: leave the affinity), run the
    chunks in order and send their arrays, or the exception raised, once."""
    try:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
        result = [_chunk_run(chunk) for chunk in chunks]
    except Exception as exc:  # handed to the parent, which raises it
        result = exc
    conn.send(result)
    conn.close()


def _fan_out(chunks, jobs: int) -> list[np.ndarray]:
    """_chunk_run of every chunk, in chunk order, from w = min(jobs, chunks)
    worker processes. Worker k runs chunks[k::w] pinned to its stripe
    allowed[k % len(allowed)::w] of the parent's CPUs, so no two workers
    share a CPU while w <= len(allowed), and sends their arrays once over
    its own pipe. Every share is received before any worker is joined (a
    child cannot exit while its pipe holds unread data), and no worker
    outlives the call, whether it returns or raises."""
    import multiprocessing  # only a fan-out needs it

    w = min(jobs, len(chunks))
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    workers, results = [], [None] * len(chunks)
    try:
        for k in range(w):
            receive, send = multiprocessing.Pipe(duplex=False)
            cpus = None if allowed is None else allowed[k % len(allowed)::w]
            process = multiprocessing.Process(target=_share_run, args=(chunks[k::w], cpus, send))
            process.start()
            workers.append((process, receive))
            send.close()  # the worker's copy is then the last: its exit gives EOF
        for k, (process, receive) in enumerate(workers):
            try:
                share = receive.recv()
            except EOFError:
                process.join()
                raise RuntimeError(f"run_members worker {k} exited with code "
                                   f"{process.exitcode} before sending its results") from None
            if isinstance(share, Exception):
                raise share
            results[k::w] = share
    finally:
        for process, receive in workers:
            if process.is_alive():
                process.terminate()
            process.join()
            receive.close()
    return results


def run_members(members, jobs: int = 1) -> list[np.ndarray]:
    """Active-fraction trajectory of each (config, spec, model, steps) member.

    Members that differ only in config.seed, spec.r_star and spec.c_star,
    wherever they stand in the list, run together as Simulation unions: each
    such group is dealt round-robin into as few chunks as hold at most
    ceil(len / jobs) members and _UNION_SENSORS sensors (or one member), so
    every chunk of a sweep gets its share of each grid point. A sweep lists
    its members point by point, then seed by seed, so with a seed count
    that is a multiple of the chunk count each seed's members land in one
    chunk and share one deployment. jobs and every member's steps are
    checked before any union is built. With jobs > 1 the chunks run in
    worker processes, one pinned worker per share (_fan_out). Every member's
    trajectory is the one run() gives it alone, and the trajectories come
    back in input order, so the result depends on neither jobs nor
    scheduling.
    """
    check_integer("jobs", jobs, 1)
    order, chunks = _deal(members, jobs)
    results = map(_chunk_run, chunks) if jobs == 1 else _fan_out(chunks, jobs)
    trajectories = [None] * len(order)
    for index, trajectory in zip(order, (row for counts in results for row in counts)):
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
    check_integer("n_seeds", n_seeds, 1)
    members = [
        (replace(config, seed=config.seed + i), spec, model, steps) for i in range(n_seeds)
    ]
    stack = np.vstack(run_members(members, jobs))
    return EnsembleResult(mean=stack.mean(axis=0), std=stack.std(axis=0), n_seeds=n_seeds)
