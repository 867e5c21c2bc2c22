import numpy as np

from smallball.rngstreams import step_words, stream_key, to_unit, uniforms


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

