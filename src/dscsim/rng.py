"""Deterministic random-stream derivation.

All randomness in a run derives from a single 64-bit seed. Independent
substreams are obtained from a counter-based generator (Philox) keyed by
(seed, spawn path), so any substream can be reconstructed on its own:
per-sensor streams do not depend on how many sensors exist or in which
order they are visited. A sensor's stream is fully described by its
2-word Philox key, which sensor_keys derives for many sensors of one seed
in one array operation; the netsim module docstring says how a Simulation
stores the keys and draws from them.
"""

from __future__ import annotations

import operator

import numpy as np

# Spawn-path domains. First element of every spawn key.
PLACEMENT = 0
INITIAL_STATE = 1
ENVIRONMENT = 2
FAILURE = 3
ROTATION = 4

# Constants of numpy's SeedSequence hash (a pool of 4 uint32 words).
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given seed and spawn path.

    Same (seed, path) always yields the same stream; distinct paths give
    statistically independent streams.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


# Hash constants with which generate_state turns pool word w into output
# word w: ((pool[w] ^ g_w) * g_{w+1}).
_GENERATE = np.array([(_INIT_B * _MULT_B**w) & _MASK for w in range(5)], dtype=np.uint64)


def sensor_keys(seed: int, sensors) -> np.ndarray:
    """Philox keys, shape (k, 2) uint64, of the concentration streams of k
    sensors of one seed.

    Row j is the key that Philox(SeedSequence(seed, spawn_key=(ENVIRONMENT,
    sensors[j]))) sets, i.e. its generate_state(2, uint64), so the stream
    equals substream(seed, ENVIRONMENT, sensors[j]). The seed's share of the
    hash is computed once; the sensor word is mixed in with uint64 array
    arithmetic masked to 32 bits.
    """
    sensors = np.asarray(sensors)
    if sensors.size and (sensors.dtype.kind not in "iu" or sensors.min() < 0
                         or sensors.max() > _MASK):
        raise ValueError("sensor indices must be integers in [0, 2**32)")
    # The pool of spawn key (ENVIRONMENT,) is that of (ENVIRONMENT, sensor)
    # before the sensor word is mixed in, as (sensor ^ h_d) * h_{d+1} into
    # pool word d. The entropy is the seed's 32-bit words, zero-padded to the
    # pool size, then ENVIRONMENT. Each hash call multiplies h by _MULT_A:
    # mixing took 16 calls for the first 4 words and 4 for each further one.
    seeded = np.random.SeedSequence(seed, spawn_key=(ENVIRONMENT,)).pool.astype(np.uint64)
    words = max(4, -(-max(operator.index(seed).bit_length(), 1) // 32)) + 1
    calls = 16 + 4 * (words - 4)
    h = np.array([(_INIT_A * _MULT_A ** (calls + d)) & _MASK for d in range(5)], dtype=np.uint64)
    value = ((sensors.astype(np.uint64).reshape(-1, 1) ^ h[:4]) * h[1:]) & _MASK
    pool = (_MIX_L * seeded - _MIX_R * (value ^ (value >> 16))) & _MASK
    pool ^= pool >> 16
    state = ((pool ^ _GENERATE[:4]) * _GENERATE[1:]) & _MASK
    state ^= state >> 16
    return state[:, 0::2] | (state[:, 1::2] << 32)


def sensor_stream(seed: int, sensor: int) -> np.random.Generator:
    """Concentration-sampling stream owned by one sensor, from its first value."""
    return np.random.Generator(np.random.Philox(key=sensor_keys(seed, [sensor])[0]))
