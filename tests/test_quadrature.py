import hashlib
import math

import numpy as np
import pytest

from smallball import families as fam
from smallball.errors import QuadratureNonConvergence
from smallball.fitting import esseen_formula
from smallball.quadrature import (
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    PANEL_DEPTH_OFFSET,
    adaptive_simpson,
    alias_safe_depth,
)
from smallball.sampling import first_coord_tail
from smallball.transfer import exact_sum_distribution

# sha256 of the comma-joined float.hex values of single-interval runs of the
# G7-K15 engine, pinned once its closed-form and Gauss-Legendre oracle tests
# passed: a refactor of the engine must not move a bit
ESSEEN_CRITERION_12_DIGEST = "ab93bf4ed496657f2dbb6b430107d9fed2e53e7510c7bccc5e483c7f00471765"
COORD_TAIL_DIGEST = "5669add6c8755566e3f888808ffa8a4139af383f32be3aae273f75e09828ce56"


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
    # one budget for the whole run: three starting pieces are three panels,
    # and the middle one, which holds the kink, bisects into two more
    cuts = [-0.5, 0.5]
    val = adaptive_simpson(np.abs, -1.0, 1.0, max_intervals=5, cuts=cuts)
    assert val == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(QuadratureNonConvergence):
        adaptive_simpson(np.abs, -1.0, 1.0, max_intervals=4, cuts=cuts)
    # min_depth = PANEL_DEPTH_OFFSET + 1 starts each piece from two panels
    f = lambda x: 2.0 * x + 1.0
    depth = PANEL_DEPTH_OFFSET + 1
    val = adaptive_simpson(f, -1.0, 1.0, max_intervals=6, min_depth=depth, cuts=cuts)
    assert val == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(QuadratureNonConvergence):
        adaptive_simpson(f, -1.0, 1.0, max_intervals=5, min_depth=depth, cuts=cuts)


def _rule_errors(degree):
    """(K15 error, G7 error) on the monomial x^degree over [-1, 1]."""
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    kronrod = float(np.sum(KRONROD_WEIGHTS * KRONROD_NODES**degree))
    gauss = float(np.sum(GAUSS_WEIGHTS * KRONROD_NODES[1::2]**degree))
    return abs(kronrod - exact), abs(gauss - exact)


def test_rules_integrate_monomials_exactly():
    # K15 is exact through degree 22 and G7 through degree 13 on [-1, 1], and
    # neither further: the next even degree is missed
    for degree in range(23):
        kronrod, gauss = _rule_errors(degree)
        assert kronrod <= 1e-15, degree
        assert gauss <= 1e-15 or degree > 13, degree
    assert _rule_errors(24)[0] > 1e-12
    assert _rule_errors(14)[1] > 1e-12


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
