import numpy as np
import pytest

from smallball.rngstreams import step_words, stream_key, to_unit, uniforms
from smallball.sampling import CHUNK


def _block(seed, streams, n_steps):
    """(n_steps, len(streams)) doubles: row i holds draw i of every stream."""
    return np.array([to_unit(words) for words in step_words(seed, streams, n_steps)])


def test_deterministic():
    assert np.array_equal(uniforms(7, 2, 0, 50), uniforms(7, 2, 0, 50))
    assert stream_key(7, 2) == stream_key(7, 2)


def test_offset_slices_the_same_stream():
    whole = uniforms(11, 0, 0, 100)
    assert np.array_equal(uniforms(11, 0, 40, 30), whole[40:70])


def test_block_matches_per_stream():
    # step-major: column s is the head of stream s, row i draw i of every stream
    streams = np.array([0, 5, 2, 2**40 + 3, 7])
    block = _block(3, streams, 16)
    assert block.shape == (16, streams.size)
    for s, stream in enumerate(streams):
        assert np.array_equal(block[:, s], uniforms(3, int(stream), 0, 16))


def test_streams_and_seeds_decorrelate():
    a = uniforms(1, 0, 0, 4000)
    b = uniforms(1, 1, 0, 4000)
    c = uniforms(2, 0, 0, 4000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.05


def test_range_and_moments():
    u = _block(13, np.arange(500), 100).ravel()
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.005


# splitmix64's finalizer in pure Python: the reference for step_words' words
_GOLDEN, _MIX1, _MIX2, _MASK = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                0x94D049BB133111EB, (1 << 64) - 1)


def _finalized(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1,
                                  *np.random.default_rng(25).integers(0, 1 << 63, 4).tolist()])
def test_step_words_are_final_words_before_the_last_xorshift(seed):
    streams = np.array([0, CHUNK - 1, CHUNK, 1 << 63], dtype=np.uint64)
    n_steps = 5
    final = np.array([[_finalized(stream_key(seed, int(s)) + (i + 1) * _GOLDEN)
                       for s in streams.tolist()] for i in range(n_steps)], dtype=np.uint64)
    words = np.array([w.copy() for w in step_words(seed, streams, n_steps)])
    # the top 31 bits are the finalized word's
    assert np.array_equal(words >> np.uint64(33), final >> np.uint64(33))
    # the last xor-shift maps each word onto its finalized word, and its
    # inverse y ^ (y >> 31) ^ (y >> 62) maps the finalized word back
    assert np.array_equal(words ^ (words >> np.uint64(31)), final)
    assert np.array_equal(final ^ (final >> np.uint64(31)) ^ (final >> np.uint64(62)), words)
    # to_unit gives uniforms() bit for bit
    for s, stream in enumerate(streams.tolist()):
        want = uniforms(seed, stream, 0, n_steps)
        assert to_unit(words[:, s].copy()).tobytes() == want.tobytes()
        assert want.tobytes() == ((final[:, s] >> np.uint64(11)) * 2.0**-53).tobytes()
