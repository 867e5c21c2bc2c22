import hashlib
import math

import numpy as np
import pytest

from smallball import families as fam
from smallball import quadrature
from smallball.errors import QuadratureNonConvergence
from smallball.fitting import esseen_formula
from smallball.quadrature import (
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    PANEL_DEPTH_OFFSET,
    adaptive_simpson,
    alias_safe_depth,
    integrate_family,
    scalar_powers,
)
from smallball.sampling import first_coord_tails
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


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 32)  # read at call time
    with pytest.raises(QuadratureNonConvergence):
        adaptive_simpson(lambda x: np.abs(x) ** 0.1, -1.0, 1.0, tol=1e-14)
    with pytest.raises(QuadratureNonConvergence):
        adaptive_simpson(lambda x: np.abs(x) ** 0.1, -1.0, 1.0, tol=1e-14,
                         cuts=[-0.5, 0.5])


def test_piecewise_matches_plain():
    f = lambda x: np.exp(-x * x)
    plain = adaptive_simpson(f, -2.0, 2.0)
    # repeated cuts and cuts outside (a, b) are dropped: three pieces
    pieces = adaptive_simpson(f, -2.0, 2.0, min_depth=2, cuts=[0.1, -0.5, 0.1, 2.0, 7.0])
    assert pieces == pytest.approx(plain, abs=1e-9)
    assert adaptive_simpson(f, -2.0, 2.0, cuts=[-2.0, 2.0, 7.0]) == plain


def test_budget_counts_per_starting_piece(monkeypatch):
    # one budget for the whole run: three starting pieces are three panels,
    # and the middle one, which holds the kink, bisects into two more
    cuts = [-0.5, 0.5]
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 5)
    val = adaptive_simpson(np.abs, -1.0, 1.0, cuts=cuts)
    assert val == pytest.approx(1.0, abs=1e-12)
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 4)
    with pytest.raises(QuadratureNonConvergence):
        adaptive_simpson(np.abs, -1.0, 1.0, cuts=cuts)
    # min_depth = PANEL_DEPTH_OFFSET + 1 starts each piece from two panels
    f = lambda x: 2.0 * x + 1.0
    depth = PANEL_DEPTH_OFFSET + 1
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 6)
    val = adaptive_simpson(f, -1.0, 1.0, min_depth=depth, cuts=cuts)
    assert val == pytest.approx(2.0, abs=1e-12)
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 5)
    with pytest.raises(QuadratureNonConvergence):
        adaptive_simpson(f, -1.0, 1.0, min_depth=depth, cuts=cuts)


def test_family_errors_stop_only_their_own_run(monkeypatch):
    # run 1 cannot bisect its one panel, run 2 needs more than MAX_INTERVALS
    # panels; runs 0 and 3 keep the bits of their runs alone
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 64)
    a = 0.3
    runs = [(0.0, 1.0, 1e-12, 3, ()), (a, math.nextafter(a, 1.0), 1e-12, 3, ()),
            (-1.0, 1.0, 1e-14, 3, ()), (-2.0, 2.0, 1e-10, 4, [0.5])]
    integrands = [np.exp, lambda x: np.full_like(x, np.nan), lambda x: np.abs(x) ** 0.1,
                  np.cos]

    evaluated = [0] * len(runs)

    def f(x, owner):
        node_owner = np.repeat(owner, KRONROD_NODES.size)
        out = np.empty_like(x)
        for i, g in enumerate(integrands):
            out[node_owner == i] = g(x[node_owner == i])
            evaluated[i] += int(np.count_nonzero(node_owner == i))
        return out

    values = integrate_family(f, runs)
    for g, run, value in zip(integrands, runs, values):
        try:
            alone = adaptive_simpson(g, *run)
        except QuadratureNonConvergence as exc:
            assert isinstance(value, QuadratureNonConvergence)
            assert str(value) == str(exc)
        else:
            assert value.hex() == alone.hex()
    assert "cannot be refined further" in str(values[1])
    assert "panels exhausted" in str(values[2])
    assert [isinstance(v, float) for v in values] == [True, False, False, True]
    # a stopped run's panels go: the stuck one was evaluated in one wave only
    assert evaluated[1] == KRONROD_NODES.size


def test_family_of_empty_and_refused_runs():
    values = integrate_family(lambda x, owner: x, [(1.0, 1.0, 1e-10, 3, ()),
                                                   (0.0, 1.0, 1e-10, 60, ())])
    assert values[0] == 0.0
    assert "starting panels exceed" in str(values[1])


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
    assert _digest(first_coord_tails([(d, 0.3)])[0] for d in range(2, 65)) == COORD_TAIL_DIGEST


def test_alias_safe_depth_resolves_frequency():
    # base grid must be finer than a quarter period
    depth = alias_safe_depth(2.0, 8.0)
    assert 2.0 / 2**depth < 1.0 / (2 * 8.0)
    assert alias_safe_depth(2.0, 0.0) >= 3


def test_scalar_powers_round_as_scalar_exponents():
    rng = np.random.default_rng(21)
    base = np.abs(np.cos(rng.uniform(-3.0, 3.0, 5000)))
    exps = rng.integers(0, 8, base.size).astype(float)
    got = scalar_powers(base, exps)
    for e in range(8):
        pick = exps == e
        assert np.array_equal(got[pick], base[pick] ** e), e
