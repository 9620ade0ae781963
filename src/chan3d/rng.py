"""Keyed random streams for parallel-safe reproducibility, all seeded by keyed_states."""
from __future__ import annotations

import numpy as np

# Stream tags keep unrelated parts of a run on disjoint substreams.
STREAM_DROP = 1
STREAM_LSP = 2
STREAM_LOS_STATE = 3
STREAM_SSP = 4
STREAM_FIELD = 5

# The seed-sequence hash constants (pool of four 32-bit words).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit halves.
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)


def _seed_words(master_seed: int) -> list:
    """The seed's 32-bit words, least significant first, as numpy's seed sequence splits it."""
    words = [master_seed & _MASK32]
    master_seed >>= 32
    while master_seed:
        words.append(master_seed & _MASK32)
        master_seed >>= 32
    return words


def _hasher(init: int, mult: int):
    """The seed sequence's 32-bit word hash; its multiplier advances at every call,
    the same for every element."""
    const = init

    def hash_word(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    return hash_word


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _mulhi(a, b):
    """High 64 bits of the 128-bit products of uint64 arrays, from 32-bit limbs."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_hi, hi_lo = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * multiplier + increment mod 2**128."""
    m_hi, m_lo = np.uint64(_PCG_MULT[0]), np.uint64(_PCG_MULT[1])
    return _add128(_mulhi(lo, m_lo) + lo * m_hi + hi * m_lo, lo * m_lo, inc_hi, inc_lo)


def keyed_states(master_seed: int, *key) -> tuple:
    """The seeded PCG64 state and increment of every key k of broadcast
    integer arrays, as uint64 halves (state high, state low, increment high,
    increment low): those of numpy's seed sequence of [master_seed, *k].

    Element i of each half belongs to the key of the i-th components. The
    entropy pool mix and the state generation run over arrays in 32-bit
    words, PCG64's seeding in 128-bit halves. Each component keeps its own
    shape until it meets the others in the pool mix, so words of a UE axis
    or a site axis alone are hashed once per UE or site. Each component must
    lie in [0, 2**32), one entropy word, as the seed's words are for every
    element. The halves have the broadcast shape, or (1,) for scalar keys.
    """
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    comps = [np.asarray(k) for k in key]
    shape = np.broadcast_shapes(*(comp.shape for comp in comps))
    # Size-1 axes, never 0-d: numpy scalars would warn where the words wrap.
    ones = (1,) * max(1, len(shape))
    entropy = [np.full(ones, w, np.uint64) for w in _seed_words(int(master_seed))]
    for comp in comps:
        if comp.dtype.kind not in "iu":
            raise ValueError("key components must be integers")
        if comp.size and (comp.min() < 0 or comp.max() > _MASK32):
            raise ValueError("key components must lie in [0, 2**32)")
        entropy.append(comp.reshape(ones[comp.ndim:] + comp.shape).astype(np.uint64))

    # The seed sequence's mix_entropy into a pool of four words.
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(ones, np.uint64)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words cycled from the pool,
    # paired little-endian into (seed high, seed low, seq high, seq low).
    hash_state = _hasher(_INIT_B, _MULT_B)
    words = [hash_state(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)]
    seed_hi, seed_lo, seq_hi, seq_lo = (lo | (hi << 32) for lo, hi in zip(words[::2], words[1::2]))

    # PCG64 seeding: state 0, increment 2*seq + 1, step (which leaves the
    # increment), add the seed, step.
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | np.uint64(1)
    hi, lo = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    return (*_pcg_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def keyed_uniforms(master_seed: int, *key) -> np.ndarray:
    """The first uniform of every keyed stream of keyed_states, in the keys'
    broadcast shape: one PCG64 step and its XSL-RR output, as random() takes."""
    hi, lo, inc_hi, inc_lo = keyed_states(master_seed, *key)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    xored, rot = hi ^ lo, hi >> 58
    out = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
    shape = np.broadcast_shapes(*(np.shape(k) for k in key))
    return ((out >> 11).astype(float) * 2.0**-53).reshape(shape)


def keyed_generators(master_seed: int, *key):
    """state_generators over one keyed_states pass: each key's Generator in C order."""
    return state_generators(keyed_states(master_seed, *key))


def state_generators(states):
    """Yield one reused Generator set to each state of keyed_states' halves
    in turn, in C order: draw each stream in full before taking the next. A
    state set and a few draws cost about 4 us, against about 26 us with a
    fresh generator (2-vCPU Xeon, numpy 2.4); a table of states made once,
    say per campaign, serves each of its rows."""
    halves = (np.ravel(half).tolist() for half in states)
    bits = np.random.PCG64(0)  # its own seeding is replaced by each key's state
    gen = np.random.Generator(bits)
    for hi, lo, inc_hi, inc_lo in zip(*halves):
        bits.state = {
            "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
        }
        yield gen


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """The Generator of one key: keyed_generators' stream as a generator of its own.

    The same (seed, key) pair always yields the same stream, regardless of
    process or thread scheduling, so per-entity draws are reproducible under
    any worker count. A call costs about 0.4 ms (2-vCPU Xeon, numpy 2.4),
    the keyed_states pass of one key: never call it per link, field or UE;
    take keyed_generators, or rows of one keyed_states table, over all keys.
    """
    return next(keyed_generators(master_seed, *key))
