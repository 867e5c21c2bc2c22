import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import balanced_signs, ones_weights, read_bound_reports
from smallball.bounds import (
    C_COS,
    QUAD_TOL,
    BoundReport,
    FittedConstant,
    binomial_negative_moments,
    cosine_power_integral,
    cosine_product_integrals,
    esseen_bound,
    fit_constant,
    theorem_bound,
    write_bound_reports,
)
from smallball.errors import (
    DegenerateGap,
    EmptyFamily,
    HypothesisViolated,
    OutOfRange,
    PreconditionViolated,
    QuadratureNonConvergence,
    UnsupportedDimension,
)
from smallball.quadrature import adaptive_simpson
from smallball.transfer import exact_sum_distribution, smallball_exact


class TestEsseenBound:
    def test_point_mass_bound(self, constants):
        # phi == 1 (a point mass); bound = C * (1 + 1) * 2 and must cover
        # the true point-mass window probability of 1
        bound = esseen_bound(lambda x: np.ones_like(x), 1, 1.0, 1.0,
                             constants["C_esseen"])
        assert bound == pytest.approx(4.0 * constants["C_esseen"].value, rel=1e-9)
        assert bound >= 1.0

    def test_dominates_extremal_instance(self, uniform_independent, constants):
        n = 4
        dist = exact_sum_distribution(uniform_independent,
                                      balanced_signs(uniform_independent, n),
                                      ones_weights(n))
        prob = smallball_exact(dist, 0.0, 1.0)
        bound = esseen_bound(
            lambda x: np.abs(np.cos(2 * np.pi * x)) ** n, 1, 1.0, 1.0,
            constants["C_esseen"], min_depth=5)
        assert prob == pytest.approx(0.375, abs=1e-15)
        assert prob <= bound

    def test_cosine_power_bound_decays_like_sqrt(self, constants):
        ns = [16, 32, 64, 128, 256]
        bounds = [esseen_bound(lambda x, n=n: np.abs(np.cos(2 * np.pi * x)) ** n,
                               1, 1.0, 1.0, constants["C_esseen"], min_depth=5)
                  for n in ns]
        slope = np.polyfit(np.log(ns), np.log(bounds), 1)[0]
        assert -0.6 <= slope <= -0.4

    def test_rejects_higher_dimension(self, constants):
        with pytest.raises(UnsupportedDimension):
            esseen_bound(lambda x: np.ones_like(x), 2, 1.0, 1.0,
                         constants["C_esseen"])

    def test_rejects_bad_window(self, constants):
        for radius, eps in ((-1.0, 1.0), (np.nan, 1.0), (1.0, np.nan), (1.0, np.inf),
                            (1.0, 0.0)):
            with pytest.raises(OutOfRange):
                esseen_bound(lambda x: np.ones_like(x), 1, radius, eps,
                             constants["C_esseen"])


class TestCosineProductIntegral:
    def test_single_factor_closed_form(self):
        assert cosine_product_integrals([[1.0]])[0] == pytest.approx(4 / math.pi,
                                                                      abs=1e-10)

    def test_empty_product(self):
        assert cosine_product_integrals([[]])[0] == 2.0

    def test_large_power_within_committed_constant(self):
        k = 25
        val = cosine_product_integrals([np.ones(k)])[0]
        assert val <= C_COS / 5.0

    def test_closed_form_within_proved_constant_for_every_power(self):
        # Wallis: the integral is 4/pi at k = 1, 1 at k = 2, and its ratio
        # from k to k + 2 is (k+1)/(k+2); the constant fitted on k = 1..100,
        # 1.5917847477451674, is exceeded from k = 101 on
        k = np.arange(1, 10**6 + 1)
        integral = np.empty(k.size)
        for first, start in ((0, 4.0 / math.pi), (1, 1.0)):
            steps = (k[first:-2:2] + 1.0) / (k[first:-2:2] + 2.0)
            integral[first::2] = start * np.cumprod(np.concatenate([[1.0], steps]))
        scaled = integral * np.sqrt(k)
        assert np.all(scaled < C_COS)
        assert scaled[101 - 1] > 1.5917847477451674
        for j in (1, 2, 101, 1000):
            assert cosine_power_integral(j) * math.sqrt(j) == pytest.approx(
                scaled[j - 1], rel=1e-12)

    def test_nonincreasing_in_k(self):
        vals = [cosine_product_integrals([np.ones(k)])[0] for k in range(1, 30)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_sqrt_k_scaling_is_bounded(self):
        vals = [cosine_product_integrals([np.ones(k)])[0] * math.sqrt(k)
                for k in range(1, 101)]
        assert max(vals) < 1.6

    def test_mixed_weights_against_midpoint_rule(self):
        v = [1.0, 2.5, 4.0]
        # dense midpoint rule as an independent cross-check
        xs = (np.arange(400000) + 0.5) / 200000 - 1.0
        ref = np.prod(np.abs(np.cos(2 * np.pi * np.outer(xs, v))), axis=1).mean() * 2
        assert cosine_product_integrals([v])[0] == pytest.approx(ref, abs=1e-7)

    def test_repeated_and_signed_weights_match_midpoint_rule(self):
        v = [1.0, -1.0, 2.5, 2.5, 2.5, -4.0]
        xs = (np.arange(400000) + 0.5) / 200000 - 1.0
        ref = np.prod(np.abs(np.cos(2 * np.pi * np.outer(xs, v))), axis=1).mean() * 2
        assert cosine_product_integrals([v])[0] == pytest.approx(ref, abs=1e-7)

    def test_thousands_of_zeros_in_one_run(self):
        # cos^2(2 pi xi v) averages 1/2 over [-1, 1] when 4v is an integer
        assert cosine_product_integrals([[2000.0, 2000.0]])[0] == pytest.approx(1.0, abs=1e-12)

    def test_powers_within_quad_tol_of_closed_form(self):
        # integral of |cos(2 pi xi)|^k over [-1, 1] = 2 G((k+1)/2) / (sqrt(pi) G(k/2+1))
        for k in range(1, 101):
            expect = 2.0 * math.exp(math.lgamma((k + 1) / 2) - math.lgamma(k / 2 + 1)
                                    ) / math.sqrt(math.pi)
            assert abs(cosine_product_integrals([np.ones(k)])[0] - expect) <= QUAD_TOL, k

    def test_one_budget_bounds_a_run_with_forty_thousand_pieces(self):
        # 4 |v| + 1 starting pieces share one panel budget, so memory stays
        # bounded for any |v|: the run finishes within it or gives up
        tracemalloc.start()
        try:
            val = cosine_product_integrals([[10000.0, 10000.0]])[0]
        except QuadratureNonConvergence:
            val = None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert val is None or abs(val - 1.0) <= 1e-10
        assert peak <= 128 * 2**20

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            cosine_product_integrals([[1.0, 0.5]])


class TestBinomialNegativeMoment:
    def test_degenerate_single_trial(self):
        exact, bound = binomial_negative_moments(1, [1.0], [1])[0][0]
        assert exact == pytest.approx(0.5, abs=1e-15)
        assert bound == 1.0

    def test_two_trial_hand_sum(self):
        exact, bound = binomial_negative_moments(2, [0.5], [1])[0][0]
        assert exact == pytest.approx(7 / 12, abs=1e-14)
        assert bound == 1.0

    def test_exact_below_bound_at_scale(self):
        exact, bound = binomial_negative_moments(50, [0.36], [2])[0][0]
        assert bound == pytest.approx(4 / (50**2 * 0.36**2), rel=1e-12)
        assert exact <= bound

    def test_enumeration_oracle(self):
        # direct summation with math.comb as the independent route
        n, p, d = 12, 0.3, 2
        exact, _ = binomial_negative_moments(n, [p], [d])[0][0]
        byhand = sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) / (i + 1) ** d
                     for i in range(n + 1))
        assert exact == pytest.approx(byhand, rel=1e-12)

    def test_rejects_zero_probability(self):
        with pytest.raises(OutOfRange):
            binomial_negative_moments(5, [0.0], [1])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 50), st.integers(1, 10), st.integers(1, 3))
    def test_bound_always_dominates(self, n, p10, d):
        exact, bound = binomial_negative_moments(n, [p10 / 10.0], [d])[0][0]
        assert exact <= bound * (1 + 1e-12)


class TestTheoremBound:
    def test_scalar_half_unit_formula(self):
        val = theorem_bound("scalar-half-unit", {"n": 100, "lam": 0.0},
                            {"C_equal": 1.0})
        assert val == pytest.approx(0.1, abs=1e-15)

    def test_distinct_int_formula(self):
        val = theorem_bound("distinct-int", {"n": 16, "lam": 0.5},
                            {"C_diff": 1.0})
        assert val == pytest.approx(0.125, abs=1e-15)

    def test_highdim_dominates_extremal_probability(self, constants):
        val = theorem_bound("highdim", {"n": 4, "d": 1, "R": 1.0, "lam": 0.0},
                            constants)
        assert val >= 0.375

    def test_highdim_hypothesis_floor(self, constants):
        with pytest.raises(HypothesisViolated):
            theorem_bound("highdim", {"n": 4, "d": 1, "R": 0.01, "lam": 0.0},
                          constants)

    def test_degenerate_gap(self, constants):
        with pytest.raises(DegenerateGap):
            theorem_bound("scalar-half-unit", {"n": 4, "lam": 1.0}, constants)

    def test_strictly_increasing_in_lambda(self, constants):
        grid = np.linspace(0.0, 0.95, 20)
        for kind in ("scalar-half-unit", "distinct-int"):
            vals = [theorem_bound(kind, {"n": 25, "lam": float(l)}, constants)
                    for l in grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestFitConstant:
    def test_single_instance(self):
        c = fit_constant([(0.375, 0.5)], "C_test", "one point")
        assert c.value == pytest.approx(0.75, abs=1e-12)

    def test_equal_ratios(self):
        c = fit_constant([(0.2, 0.4), (0.3, 0.6), (0.1, 0.2)], "C_test", "flat")
        assert c.value == pytest.approx(0.5, abs=1e-12)

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            fit_constant([], "C_test", "none")

    def test_nonpositive_formula(self):
        with pytest.raises(PreconditionViolated):
            fit_constant([(0.5, 0.0)], "C_test", "bad")

    def test_even_all_ones_family_lands_near_theory(self, uniform_independent):
        pairs = []
        for n in range(4, 21, 2):
            dist = exact_sum_distribution(uniform_independent,
                                          balanced_signs(uniform_independent, n),
                                          ones_weights(n))
            pairs.append((smallball_exact(dist, 0.0, 1.0), 1.0 / math.sqrt(n)))
        c = fit_constant(pairs, "C_even_ones", "all-ones, even n in 4..20")
        assert 0.70 <= c.value <= 1.0


class TestConstantsFile:
    def test_committed_constants_load(self, constants):
        for name in ("C_equal", "C_diff", "C_prg", "C_esseen"):
            assert name in constants
            assert constants[name].value > 0
            assert constants[name].family

    def test_doc_round_trip(self):
        c = FittedConstant(name="C_x", value=1.5, family="f", grid={"n": 3})
        assert FittedConstant.from_doc(c.to_doc()) == c


def test_bound_report_round_trip(tmp_path):
    rows = [BoundReport(instance_id="a", n=4, d=1, lam=0.25, radius=1.0,
                        prob=0.3, bound=0.5),
            BoundReport(instance_id="b", n=9, d=1, lam=0.0, radius=0.0,
                        prob=0.6, bound=0.5)]
    path = tmp_path / "rep.csv"
    assert write_bound_reports(path, rows) is False  # second row fails
    back = read_bound_reports(path)
    assert [r.instance_id for r in back] == ["a", "b"]
    assert [r.passed for r in back] == [True, False]
    assert back[0].ratio == pytest.approx(0.6, abs=1e-15)


# ---------------------------------------------------------------------------
# the batched families of criteria 5 and 6 against the per-member code they
# replaced, kept here as its oracle
# ---------------------------------------------------------------------------


def negative_moment_alone(n, p, d):
    """binomial_negative_moments of one (n, p, d) as it was evaluated before batches."""
    from scipy.special import gammaln, xlogy

    i = np.arange(n + 1)
    log_terms = (gammaln(n + 1) - gammaln(i + 1) - gammaln(n - i + 1)
                 + xlogy(i, p) + xlogy(n - i, 1.0 - p))
    return (math.fsum((np.exp(log_terms) / (i + 1.0) ** d).tolist()),
            d**d / (n**d * p**d))


def cosine_integral_alone(vs):
    """cosine_product_integrals of one vs as one adaptive_simpson run evaluated it."""
    vs = np.asarray(vs, dtype=float)
    freqs, mults = np.unique(np.abs(vs), return_counts=True)

    def f(xi):
        out = np.ones_like(xi)
        for v, m in zip(freqs.tolist(), mults.tolist()):
            out = out * np.abs(np.cos(2.0 * np.pi * xi * v)) ** m
        return out

    zeros = []
    for v in freqs.tolist():
        m = np.arange(math.floor(-2.0 * v - 0.5), math.ceil(2.0 * v + 0.5) + 1)
        zeros.append((2 * m + 1) / (4.0 * v))
    return adaptive_simpson(f, -1.0, 1.0, tol=QUAD_TOL, min_depth=2,
                            cuts=np.concatenate(zeros))


class TestBatchedFamilies:
    def test_negative_moments_equal_the_lone_calls_on_the_criterion_grid(self):
        ps = [p10 / 10.0 for p10 in range(1, 11)]
        for n in range(1, 51):
            got = binomial_negative_moments(n, ps, (1, 2, 3))
            for d, row in zip((1, 2, 3), got):
                for p, pair in zip(ps, row):
                    want = negative_moment_alone(n, p, d)
                    assert [x.hex() for x in pair] == [x.hex() for x in want], (n, p, d)
                    assert binomial_negative_moments(n, [p], [d]) == [[pair]]

    def test_negative_moments_check_every_member_first(self):
        with pytest.raises(OutOfRange) as lone:
            binomial_negative_moments(5, [1.5], [2])
        with pytest.raises(OutOfRange) as batch:
            binomial_negative_moments(5, [0.5, 1.5, 0.0], [1, 2])
        assert str(batch.value) == str(lone.value)
        with pytest.raises(OutOfRange, match="d = 0"):
            binomial_negative_moments(5, [0.0], [2, 0])

    def test_cosine_integrals_equal_lone_runs_bit_for_bit(self):
        vss = [np.ones(k) for k in range(1, 101)]
        got = cosine_product_integrals(vss)
        assert [x.hex() for x in got] == [cosine_integral_alone(vs).hex() for vs in vss]
        # distinct frequencies, multiplicities 1 and 2 side by side, the
        # empty product, and a batch of one
        mixed = [[1.0, 2.0, 2.0, 3.5], [], [-1.5], [2.0, 1.0, 2.0], [3.0] * 5, [1.25, -1.25]]
        got = cosine_product_integrals(mixed)
        assert got[1] == 2.0
        for vs, value in zip(mixed, got):
            if vs:
                assert value.hex() == cosine_integral_alone(vs).hex()
            assert cosine_product_integrals([vs]) == [value]

    def test_cosine_integrals_check_every_member_first(self):
        with pytest.raises(PreconditionViolated) as lone:
            cosine_product_integrals([[1.0, 0.5]])
        with pytest.raises(PreconditionViolated) as batch:
            cosine_product_integrals([[1.0], [1.0, 0.5], [0.25]])
        assert str(batch.value) == str(lone.value)
