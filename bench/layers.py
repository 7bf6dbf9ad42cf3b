"""Per-layer tracing by wrapping dscsim's module attributes from outside.

dscsim looks its collaborators up at call time (`netsim.neighbor_csr`,
`rng.sensor_stream`, `environment.quantile`, ...), so replacing a module
attribute or a class method with a timing wrapper sees every call without
touching the package. Each wrapper records a span: calls, inclusive time
and self time (inclusive minus the time covered by traced children).
Spans are aggregated in memory and read out after a repetition.

Only calls made in this process are seen: counters inside pool workers
are not collected, so traced passes run at one job.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Span:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    """Installs timing wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counts: dict[str, int] = defaultdict(int)
        self.step_us: list[float] = []
        self.refill_step_us: list[float] = []
        self._child_time: list[float] = []
        self._quantile_calls_seen = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, label: str, on_result=None) -> None:
        original = getattr(owner, attr)
        spans, child_time = self.spans, self._child_time

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                span = spans[label]
                span.calls += 1
                span.s += elapsed
                span.self_s += elapsed - children
            if on_result is not None:
                on_result(args, result, elapsed)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        from dscsim import analysis, environment, meanfield, netsim, rng

        self.wrap(rng, "substream", "rng.substream")
        self.wrap(rng, "sensor_stream", "rng.sensor_stream")
        self.wrap(netsim, "place_sensors", "netsim.place_sensors")
        self.wrap(netsim, "neighbor_csr", "netsim.neighbor_csr", self._on_csr)
        self.wrap(netsim, "run", "netsim.run")
        self.wrap(netsim.Simulation, "__init__", "netsim.Simulation.init")
        self.wrap(netsim.Simulation, "step", "netsim.Simulation.step", self._on_step)
        self.wrap(environment, "quantile", "environment.quantile", self._on_quantile)
        self.wrap(analysis, "extract_plateau", "analysis.extract_plateau")
        self.wrap(meanfield, "integrate_pde", "meanfield.integrate_pde", self._on_pde)
        self.wrap(meanfield, "front_positions", "meanfield.front_positions")
        self.wrap(meanfield, "integrate_sis", "meanfield.integrate_sis")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _on_csr(self, args, result, elapsed):
        self.counts["netsim.neighbor_csr.edges"] += int(result[1].size)

    def _on_quantile(self, args, result, elapsed):
        self.counts["environment.quantile.values"] += int(getattr(args[1], "size", 1))

    def _on_step(self, args, record, elapsed):
        # A step that called quantile is one that refilled the sample block.
        quantile_calls = self.spans["environment.quantile"].calls
        refilled = quantile_calls != self._quantile_calls_seen
        self._quantile_calls_seen = quantile_calls
        (self.refill_step_us if refilled else self.step_us).append(elapsed * 1e6)
        sim = args[0]
        n = sim.config.n
        c = self.counts
        c["netsim.sensor_steps"] += n
        c["netsim.active_sensor_steps"] += record.n_active
        c["netsim.messages"] += record.messages_sent
        c["netsim.detections"] += record.detections
        if record.n_active + record.n_passive + record.n_faulty != n:
            c["netsim.conservation_violations"] += 1

    def _on_pde(self, args, traj, elapsed):
        t_end, dt = args[3], args[4]
        self.counts["meanfield.integrate_pde.steps"] += max(1, round(t_end / dt))
        self.counts["meanfield.integrate_pde.snapshot_bytes"] += sum(
            a.nbytes for a in traj.active + traj.passive
        )
