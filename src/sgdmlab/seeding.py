"""Deterministic per-run seeding for parallel Monte-Carlo execution."""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["rng_for", "rngs_for"]


# SeedSequence's hash constants (NumPy's bit_generator module, after
# M. E. O'Neill's seed_seq_fe); all arithmetic is modulo 2**32
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hash(value, h: int, mult: int):
    """One SeedSequence hash of ``value`` (an int or a uint32 array) under
    the running constant ``h``; returns the hash and the next constant.
    ``mult`` is _MULT_A when mixing entropy, _MULT_B when generating state."""
    nxt = h * mult & _MASK
    value = (value ^ h) * nxt & _MASK
    return value ^ (value >> 16), nxt


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    r = ((_MIX_L * x & _MASK) - _MIX_R * y) & _MASK
    return r ^ (r >> 16)


def _words(n: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first."""
    out = [n & _MASK]
    while n > _MASK:
        n >>= 32
        out.append(n & _MASK)
    return out


class _SeedStates(ISeedSequence):
    """Hands each PCG64 seeded from it the next row of four state words, as
    ``SeedSequence.generate_state`` would (NumPy's interface for custom seed
    sources). A generator keeps its seed source, so one serves a batch."""

    def __init__(self, states: np.ndarray):
        self._rows = iter(states)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed state holds 4 uint64 words only")
        return next(self._rows)


def _generators(master_seed: int, keys) -> list[np.random.Generator]:
    """Generators for run ``keys`` (one index, or a uint32 array of them),
    run i's with the state of ``SeedSequence(entropy=master_seed,
    spawn_key=(i,))``, all in one pass.

    That SeedSequence hashes the master-seed words (zero-padded to the pool
    size) and then the one-word spawn key i into a pool of four words, and
    PCG64 takes four uint64 words generated from that pool. Only the last
    of these steps depends on i, so it runs in uint32 array arithmetic over
    all runs at once, or in int arithmetic for one.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    entropy = _words(int(master_seed))
    entropy += [0] * (_POOL_SIZE - len(entropy))
    h = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, h = _hash(word, h, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, h = _hash(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:] + [keys]:
        for dst in range(_POOL_SIZE):
            value, h = _hash(word, h, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    h = _INIT_B
    words = []
    for j in range(2 * _POOL_SIZE):
        value, h = _hash(pool[j % _POOL_SIZE], h, _MULT_B)
        words.append(value)
    # uint32 pairs read as little-endian uint64, as generate_state does
    state = np.column_stack(words).astype("<u4").view("<u8").astype(np.uint64)
    seeds = _SeedStates(state)
    return [np.random.Generator(np.random.PCG64(seeds)) for _ in state]


def rng_for(master_seed: int, run_index: int) -> np.random.Generator:
    """Generator for Monte-Carlo run ``run_index`` (below 2**32) of
    ``master_seed``: counter-based, so a run's stream depends neither on
    execution order nor on the worker count."""
    if not 0 <= run_index <= _MASK:
        raise ValueError(f"run_index must be in [0, 2**32), got {run_index}")
    return _generators(master_seed, int(run_index))[0]


def rngs_for(master_seed: int, n: int) -> list[np.random.Generator]:
    """Generators for runs ``0 .. n-1``, each with the state of
    ``rng_for(master_seed, i)``."""
    if not 0 <= n <= _MASK + 1:
        raise ValueError(f"n must be in [0, 2**32], got {n}")
    return _generators(master_seed, np.arange(n, dtype=np.uint32))
