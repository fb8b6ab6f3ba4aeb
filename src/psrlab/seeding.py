"""Deterministic derivation of child RNG streams from a master seed.

Child seed = first 8 bytes (little endian) of SHA-256 over the string
``"{master}|{purpose}|{index}"``.  The topology (master, purpose, index) is
what other implementations should reproduce; the bit-exact stream contents
are specific to numpy's PCG64.

:func:`first_uniforms` reproduces that stream in numpy array arithmetic,
for many seeds at once: ``SeedSequence`` hashing, ``PCG64`` seeding and its
128-bit LCG, and ``Generator.random``'s doubles (O'Neill, "PCG: A Family of
Simple Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905).  NEP 19 keeps bit-generator streams stable
across numpy releases; a tier-1 test compares it with ``default_rng`` bit
for bit, so a numpy release that changed the stream would fail it.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np


def child_seed(master: int, purpose: str, index: int = 0) -> int:
    digest = hashlib.sha256(f"{master}|{purpose}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


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
_PCG_MULT = (_U(2549297995355413924), _U(4865540595714422341))  # (high, low) words of the 128-bit multiplier


def _hash_constants(init: int, mult: int, n: int) -> list[tuple[np.uint64, np.uint64]]:
    """``SeedSequence``'s running hash constant before and after each of its first ``n`` updates.

    The constant evolves the same way for every seed, so it is computed once
    in Python integers.
    """
    out = []
    for _ in range(n):
        nxt = init * mult & 0xFFFFFFFF
        out.append((_U(init), _U(nxt)))
        init = nxt
    return out


# mix_entropy hashes the 4 pool words, then 12 (source, destination) pairs;
# generate_state(4, uint64) hashes 8 words.
_MIX_CONSTANTS = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1))
_STATE_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)


def _hashmix(value: np.ndarray, constants: tuple[np.uint64, np.uint64]) -> np.ndarray:
    before, after = constants
    value = (value ^ before) * after & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for each seed.

    The entropy is the seed's little-endian 32-bit words: one below 2**32,
    else two.  Pool slots past the entropy hash a zero word, so a seed below
    2**32 hashes the same as its two words with a zero high word.
    """
    words = [seeds & _MASK32, seeds >> _U(32)] + [np.zeros_like(seeds)] * (_POOL_SIZE - 2)
    constants = iter(_MIX_CONSTANTS)
    pool = [_hashmix(word, next(constants)) for word in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(constants)))
    state = [_hashmix(pool[i % _POOL_SIZE], c) for i, c in enumerate(_STATE_CONSTANTS)]
    return [state[2 * k] | state[2 * k + 1] << _U(32) for k in range(4)]


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


def first_uniforms(seeds: Sequence[int], k: int) -> np.ndarray:
    """Row ``i`` is ``np.random.default_rng(int(seeds[i])).random(k)``, bit for bit.

    Seeds must lie in [0, 2**64).  ``PCG64`` seeds its 128-bit state from
    the four generated words (state, then stream), and each double is the
    top 53 bits of one XSL-RR output.
    """
    s0, s1, s2, s3 = _seed_words(np.asarray(seeds, dtype=np.uint64).reshape(-1))
    inc = ((s2 << _U(1)) | (s3 >> _U(63)), (s3 << _U(1)) | _U(1))
    hi, lo = inc  # the first step from state 0
    hi, lo = _pcg_step(*_add128(hi, lo, s0, s1), inc)
    out = np.empty((len(s0), k))
    for j in range(k):
        hi, lo = _pcg_step(hi, lo, inc)
        rot = hi >> _U(58)
        xored = hi ^ lo
        raw = xored >> rot | xored << ((_U(64) - rot) & _U(63))
        out[:, j] = (raw >> _U(11)).astype(np.float64) * 2.0**-53
    return out
