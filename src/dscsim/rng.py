"""Deterministic random-stream derivation.

All randomness in a run derives from a single 64-bit seed. Independent
substreams are obtained from a counter-based generator (Philox) keyed by
(seed, spawn path), so any substream can be reconstructed on its own:
per-sensor streams do not depend on how many sensors exist or in which
order they are visited. A stream can also be built late: netsim builds a
sensor's stream when the sensor first senses and skips it ahead with
`bit_generator.advance`, which gives the values that drawing it from its
start would give.
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


def sensor_stream(seed: int, sensor: int) -> np.random.Generator:
    """Concentration-sampling stream owned by one sensor."""
    return substream(seed, ENVIRONMENT, sensor)
