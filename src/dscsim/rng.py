"""Deterministic random-stream derivation.

All randomness in a run derives from a single 64-bit seed. Independent
substreams are obtained from a counter-based generator (Philox) keyed by
(seed, spawn path), so any substream can be reconstructed on its own:
per-sensor streams do not depend on how many sensors exist or in which
order they are visited. A sensor's stream is fully described by its
2-word Philox key: netsim keeps only the key and draws any 128-value block
of the stream by setting a shared Philox to that key and to the block's
counter, which gives the values that drawing the stream from its start
would give.
"""

from __future__ import annotations

import numpy as np

# Spawn-path domains. First element of every spawn key.
PLACEMENT = 0
INITIAL_STATE = 1
ENVIRONMENT = 2
FAILURE = 3
ROTATION = 4


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given seed and spawn path.

    Same (seed, path) always yields the same stream; distinct paths give
    statistically independent streams.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def sensor_key(seed: int, sensor: int) -> np.ndarray:
    """Philox key (2 uint64 words) of one sensor's concentration stream.

    It is the key that Philox(SeedSequence(seed, spawn_key=(ENVIRONMENT,
    sensor))) sets, so the stream equals substream(seed, ENVIRONMENT, sensor).
    """
    ss = np.random.SeedSequence(seed, spawn_key=(ENVIRONMENT, sensor))
    return ss.generate_state(2, np.uint64)


def sensor_stream(seed: int, sensor: int) -> np.random.Generator:
    """Concentration-sampling stream owned by one sensor, from its first value."""
    return np.random.Generator(np.random.Philox(key=sensor_key(seed, sensor)))
