"""Deterministic derivation of child RNG streams from a master seed.

Child seed = first 8 bytes (little endian) of SHA-256 over the string
``"{master}|{purpose}|{index}"``.  The topology (master, purpose, index) is
what other implementations should reproduce; the bit-exact stream contents
are specific to numpy's PCG64.  :func:`child_seed` derives one seed;
:func:`child_seeds` derives one per index as a ``uint64`` array, hashing
the ``"{master}|{purpose}|"`` prefix once and copying the hash state per
index, with the same values.

:func:`first_uniforms` and :func:`first_integers` reproduce the streams of
``np.random.default_rng(seed)`` in numpy array arithmetic, for many seeds
at once: ``SeedSequence`` hashing, ``PCG64`` seeding and its 128-bit LCG
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", HMC-CS-2014-0905), whose outputs
both read from :func:`_pcg_outputs`.

* :func:`first_uniforms` gives ``Generator.random``'s doubles: the top 53
  bits of each 64-bit output.
* :func:`first_integers` gives successive ``Generator.integers(0, n,
  size=k)`` calls.  numpy draws a range below 2**32 from 32-bit words, the
  low half of each 64-bit output first, and keeps the unused high half for
  the next call, so successive calls read one stream of 32-bit words.  Each
  word becomes a value by Lemire's multiply-shift (``word * n >> 32``;
  Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS 29(1),
  2019), which numpy rejects and redraws where the low 32 bits of the
  product fall below ``(2**32 - n) % n``.  That threshold is 0 when ``n`` is
  a power of two; a seed whose words hit it anywhere is redrawn with
  ``default_rng`` itself, so every row keeps numpy's bits.  ``n == 1``
  consumes no words, as numpy's zero-range branch does.

NEP 19 keeps bit-generator streams stable across numpy releases; tier-1
tests compare both functions with ``default_rng`` bit for bit, so a numpy
release that changed a stream would fail them.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

from .errors import StructuralError


def child_seed(master: int, purpose: str, index: int = 0) -> int:
    digest = hashlib.sha256(f"{master}|{purpose}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def child_seeds(master: int, purpose: str, indices: Iterable[int]) -> np.ndarray:
    """``child_seed(master, purpose, i)`` for each ``i`` in ``indices``, as a ``uint64`` array."""
    prefix = hashlib.sha256(f"{master}|{purpose}|".encode())
    digests = []
    for index in indices:
        item = prefix.copy()
        item.update(str(index).encode())
        digests.append(item.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8")[::4].astype(np.uint64)


def rng_for(master: int, purpose: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(child_seed(master, purpose, index))


# Every constant is an np.uint64, so that array arithmetic stays uint64 under
# both numpy 1.x promotion and NEP 50; 32-bit words are kept masked.
_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_XSHIFT = _U(16)
_POOL_SIZE = 4
_MIX_MULT_L = _U(0xCA01F9DD)
_MIX_MULT_R = _U(0x4973F715)
_PCG_MULT = (_U(0x2360ED051FC65DA4), _U(0x4385DF649FCCF645))  # PCG64's 128-bit LCG multiplier (high, low)
# Below this many seeds, first_integers calls default_rng itself, which costs
# less than the array arithmetic's fixed cost.
_ARRAY_SEEDS = 8


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``SeedSequence``'s running hash constant before and after each of its first ``n`` updates.

    The constant evolves the same way for every seed, so it is computed once
    in Python integers.  Both are ``(n, 1)`` columns, to broadcast over a
    block of hashed words whose rows are the updates.
    """
    before, after = [], []
    for _ in range(n):
        before.append(init)
        init = init * mult & 0xFFFFFFFF
        after.append(init)
    return np.array(before, dtype=np.uint64)[:, None], np.array(after, dtype=np.uint64)[:, None]


# mix_entropy hashes the 4 pool words, then 12 (source, destination) pairs,
# 3 per source; generate_state(4, uint64) hashes 8 words.
_MIX_CONSTANTS = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1))
_STATE_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)
_POOL_CONSTANTS = tuple(c[:_POOL_SIZE] for c in _MIX_CONSTANTS)
_SOURCE_CONSTANTS = tuple(  # the (source, destination) updates of each source, in destination order
    tuple(c[_POOL_SIZE:].reshape(_POOL_SIZE, _POOL_SIZE - 1, 1)[src] for c in _MIX_CONSTANTS) for src in range(_POOL_SIZE)
)
_DESTINATIONS = tuple(np.array([dst for dst in range(_POOL_SIZE) if dst != src]) for src in range(_POOL_SIZE))
_STATE_SLOTS = np.arange(2 * _POOL_SIZE) % _POOL_SIZE


def _hashmix(value: np.ndarray, constants: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    before, after = constants
    value = (value ^ before) * after & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for each seed, as a ``(4, n)`` array.

    The entropy is the seed's little-endian 32-bit words: one below 2**32,
    else two.  Pool slots past the entropy hash a zero word, so a seed below
    2**32 hashes the same as its two words with a zero high word.  The pool
    is a ``(4, n)`` block: a source slot's three mixes into the other slots
    read only the source, so they are one operation, and so are the eight
    state-word hashes.
    """
    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint64)
    pool[0], pool[1] = seeds & _MASK32, seeds >> _U(32)
    pool = _hashmix(pool, _POOL_CONSTANTS)
    for src, dst in enumerate(_DESTINATIONS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _SOURCE_CONSTANTS[src]))
    state = _hashmix(pool[_STATE_SLOTS], _STATE_CONSTANTS)
    return state[0::2] | state[1::2] << _U(32)


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * b``, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> _U(32)
    b0, b1 = b & _MASK32, b >> _U(32)
    low, cross_a, cross_b = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> _U(32)) + (cross_a & _MASK32) + (cross_b & _MASK32)
    return a1 * b1 + (cross_a >> _U(32)) + (cross_b >> _U(32)) + (mid >> _U(32))


def _add128(x_hi, x_lo, y_hi, y_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = x_lo + y_lo
    return x_hi + y_hi + (lo < x_lo).astype(np.uint64), lo


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step ``state * multiplier + inc`` modulo 2**128."""
    m_hi, m_lo = _PCG_MULT
    prod_hi = hi * m_lo + lo * m_hi + _mulhi(lo, m_lo)
    return _add128(prod_hi, lo * m_lo, *inc)


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``PCG64``'s output permutation of a 128-bit state: the xor of its halves, rotated right by its top 6 bits."""
    rot = hi >> _U(58)
    xored = hi ^ lo
    return xored >> rot | xored << ((_U(64) - rot) & _U(63))


def _pcg_outputs(seeds: Sequence[int], n: int) -> np.ndarray:
    """Row ``i`` is the first ``n`` 64-bit outputs of ``np.random.default_rng(int(seeds[i]))``'s ``PCG64``.

    Seeds must lie in [0, 2**64).  ``PCG64`` seeds its 128-bit state from
    the four generated words (state, then stream): one LCG step from state
    0, adding the state words, and one more step.  Output ``j`` is the
    XSL-RR permutation of the state ``j + 1`` steps later.
    """
    s0, s1, s2, s3 = _seed_words(np.asarray(seeds, dtype=np.uint64).reshape(-1))
    inc = ((s2 << _U(1)) | (s3 >> _U(63)), (s3 << _U(1)) | _U(1))
    hi, lo = _pcg_step(*_add128(*inc, s0, s1), inc)
    out = np.empty((n, len(s0)), dtype=np.uint64)  # outputs down the first axis: each operation loops over seeds
    for j in range(n):
        hi, lo = _pcg_step(hi, lo, inc)
        out[j] = _xsl_rr(hi, lo)
    return out.T


def first_uniforms(seeds: Sequence[int], k: int) -> np.ndarray:
    """Row ``i`` is ``np.random.default_rng(int(seeds[i])).random(k)``, bit for bit.

    Each double is the top 53 bits of one :func:`_pcg_outputs` output.
    """
    return (_pcg_outputs(seeds, k) >> _U(11)).astype(np.float64) * 2.0**-53


def first_integers(seeds: Sequence[int], n_values: int, sizes: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Row ``i`` of output ``j`` is the ``j``-th of the calls ``default_rng(int(seeds[i])).integers(0, n_values, size=sizes[j])``.

    The calls are made in order on one generator per seed.  The outputs are
    ``(len(seeds), sizes[j])`` int64 column blocks of one fresh array.
    ``n_values`` must lie in [1, 2**32).  Fewer than ``_ARRAY_SEEDS`` seeds
    are drawn by ``default_rng`` itself, which is cheaper than the array
    arithmetic's fixed cost.
    """
    if not 1 <= n_values < 2**32:
        raise StructuralError(f"need 1 <= n_values < 2**32, got {n_values}")
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    ends = np.cumsum([0, *sizes])
    values = np.zeros((len(seeds), ends[-1]), dtype=np.int64)
    redraw = range(len(seeds) if n_values > 1 else 0)  # a single value is 0 and reads no word
    if len(redraw) >= _ARRAY_SEEDS:
        outputs = _pcg_outputs(seeds, (ends[-1] + 1) // 2)
        words = np.empty((len(seeds), 2 * outputs.shape[1]), dtype=np.uint64)
        words[:, 0::2], words[:, 1::2] = outputs & _MASK32, outputs >> _U(32)
        products = words[:, : ends[-1]]
        products *= _U(n_values)
        np.right_shift(products, _U(32), out=values, casting="unsafe")
        products &= _MASK32
        redraw = np.flatnonzero((products < _U((2**32 - n_values) % n_values)).any(axis=1))
    for i in redraw:
        rng = np.random.default_rng(int(seeds[i]))
        for start, size in zip(ends, sizes):
            values[i, start : start + size] = rng.integers(0, n_values, size=size)
    return tuple(values[:, start:stop] for start, stop in zip(ends[:-1], ends[1:]))
