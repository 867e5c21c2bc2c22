"""Counter-based uniform random streams.

Every draw is a pure function of (seed, stream, index) built from the
splitmix64 finalizer, so parallel or resumed sampling reproduces bit-exactly
regardless of scheduling.  Stream quality is that of splitmix64, which is
ample for Monte Carlo estimates guarded by exact binomial intervals.

The finalizer's last step, z ^= z >> 31, leaves the top 31 bits of a word as
they are.  step_words therefore yields each draw before that step, which
samplers reading only a word's top <= 31 bits never need, and to_unit applies
it before it scales a word to a double.
"""

from __future__ import annotations

import numpy as np

_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF

_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)
_SHIFT1, _SHIFT2, _SHIFT3, _SHIFT_53 = (np.uint64(b) for b in (30, 27, 31, 11))
_INV_2_53 = 1.0 / (1 << 53)


def _finalize_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer but its last xor-shift, applied to z in place;
    tmp is scratch of z's shape."""
    for shift, mix in ((_SHIFT1, _MIX1), (_SHIFT2, _MIX2)):
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mix, out=z)
    return z


def _last_xorshift(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The finalizer's last step, z ^= z >> 31, in place."""
    np.right_shift(z, _SHIFT3, out=tmp)
    return np.bitwise_xor(z, tmp, out=z)


def stream_key(seed: int, stream: int) -> int:
    base = _finalize_int((seed & _MASK) + _GOLDEN_INT)
    return _finalize_int(base + ((stream & _MASK) * _GOLDEN_INT & _MASK))


def uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """count doubles in [0,1) at positions start..start+count-1 of one stream."""
    key = np.uint64(stream_key(seed, stream))
    idx = (np.arange(start, start + count, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    words = key + idx
    return to_unit(_mix(words, np.empty_like(words)))


def step_words(seed: int, streams: np.ndarray, n_steps: int):
    """Yield the 64-bit words of draw i of every stream, for i = 0..n_steps-1.

    Each word is the splitmix64 output before the finalizer's last xor-shift
    z ^= z >> 31, so its top 31 bits are the finalized word's; to_unit maps it
    to the double of uniforms().  That double is u = (final >> 11) * 2^-53, so
    the top b <= 31 bits of a yielded word (word >> (64 - b)) are exactly
    floor(u * 2^b).  One buffer is reused, so each yielded array is valid
    until the next step and the caller may consume it in place.
    """
    base = np.uint64(_finalize_int((seed & _MASK) + _GOLDEN_INT))
    keys = base + np.asarray(streams).astype(np.uint64) * _GOLDEN
    words, tmp = np.empty_like(keys), np.empty_like(keys)
    _last_xorshift(_mix(keys, tmp), tmp)
    idx = (np.arange(n_steps, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    for i in range(n_steps):
        np.add(keys, idx[i], out=words)
        yield _mix(words, tmp)


def to_unit(words: np.ndarray) -> np.ndarray:
    """The doubles in [0,1) of step_words' words: the finalizer's last
    xor-shift, then the top 53 bits times 2^-53.  Consumes words."""
    _last_xorshift(words, np.empty_like(words))
    np.right_shift(words, _SHIFT_53, out=words)
    return words * _INV_2_53
