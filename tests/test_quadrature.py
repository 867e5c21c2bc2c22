import hashlib
import math

import numpy as np
import pytest

from smallball import families as fam
from smallball.errors import QuadratureNonConvergence
from smallball.fitting import esseen_formula
from smallball.quadrature import adaptive_simpson, alias_safe_depth
from smallball.sampling import first_coord_tail
from smallball.transfer import exact_sum_distribution

# sha256 of the comma-joined float.hex values of single-interval runs, pinned
# while the engine still kept a depth and a budget per interval: keeping one
# of each per wave must not move a bit
ESSEEN_CRITERION_12_DIGEST = "37a898705444e09aef881f22439e16554c795afc6d0ff250135b9fd69a2b3c9e"
COORD_TAIL_DIGEST = "1d15eda02f9a9d25284e5489be82a0377c245e35026f0587cbedde454d21bb87"


def _digest(values):
    return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()


def test_polynomial_is_exact():
    val = adaptive_simpson(lambda x: x**3 - 2 * x + 1, -1.0, 3.0)
    assert val == pytest.approx(16.0, abs=1e-10)


def test_oscillatory_closed_form():
    val = adaptive_simpson(lambda x: np.sin(x), 0.0, math.pi)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_kinked_absolute_value():
    val = adaptive_simpson(lambda x: np.abs(x - 0.3), -1.0, 1.0)
    expect = (1.3**2 + 0.7**2) / 2
    assert val == pytest.approx(expect, abs=1e-10)


def test_peak_aligned_cosine_power_does_not_alias():
    # probes at multiples of 1/2 all hit |cos| = 1; forced depth must save this
    val = adaptive_simpson(lambda x: np.abs(np.cos(2 * np.pi * x)) ** 50,
                           -1.0, 1.0, min_depth=3)
    expect = 2 * math.exp(math.lgamma(25.5) - math.lgamma(26)) / math.sqrt(math.pi)
    assert val == pytest.approx(expect, abs=1e-9)


def test_empty_interval():
    assert adaptive_simpson(lambda x: np.ones_like(x), 1.0, 1.0) == 0.0


def test_budget_exhaustion_raises():
    with pytest.raises(QuadratureNonConvergence):
        adaptive_simpson(lambda x: np.abs(x) ** 0.1, -1.0, 1.0, tol=1e-14,
                         max_intervals=32)
    with pytest.raises(QuadratureNonConvergence):
        adaptive_simpson(lambda x: np.abs(x) ** 0.1, -1.0, 1.0, tol=1e-14,
                         max_intervals=32, cuts=[-0.5, 0.5])


def test_piecewise_matches_plain():
    f = lambda x: np.exp(-x * x)
    plain = adaptive_simpson(f, -2.0, 2.0)
    # repeated cuts and cuts outside (a, b) are dropped: three pieces
    pieces = adaptive_simpson(f, -2.0, 2.0, min_depth=2, cuts=[0.1, -0.5, 0.1, 2.0, 7.0])
    assert pieces == pytest.approx(plain, abs=1e-9)
    assert adaptive_simpson(f, -2.0, 2.0, cuts=[-2.0, 2.0, 7.0]) == plain


def test_budget_counts_per_starting_piece():
    # below min_depth = 2 each piece splits into 1 + 2 + 4 intervals before the
    # linear integrand is accepted: 28 for four pieces
    f = lambda x: 2.0 * x + 1.0
    cuts = [-0.5, 0.0, 0.5]
    val = adaptive_simpson(f, -1.0, 1.0, max_intervals=7, min_depth=2, cuts=cuts)
    assert val == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(QuadratureNonConvergence):
        adaptive_simpson(f, -1.0, 1.0, max_intervals=6, min_depth=2, cuts=cuts)


def test_single_interval_runs_keep_their_bits():
    values = []
    for inst in fam.esseen_family(fam.ESSEEN_SEED, fam.ESSEEN_COUNT):
        dist = exact_sum_distribution(inst.chain, inst.signs, inst.weights)
        values.append(esseen_formula(inst.chain, inst.signs, inst.weights, dist,
                                     inst.radius))
    assert _digest(values) == ESSEEN_CRITERION_12_DIGEST
    assert _digest(first_coord_tail(d, 0.3) for d in range(2, 65)) == COORD_TAIL_DIGEST


def test_alias_safe_depth_resolves_frequency():
    # base grid must be finer than a quarter period
    depth = alias_safe_depth(2.0, 8.0)
    assert 2.0 / 2**depth < 1.0 / (2 * 8.0)
    assert alias_safe_depth(2.0, 0.0) >= 3
