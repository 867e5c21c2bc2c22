import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import balanced_signs, ones_weights
from smallball import transfer
from smallball.chains import (
    make_independent_chain,
    make_sign_system,
    make_two_state_chain,
    make_weight_system,
)
from smallball.errors import (
    BudgetExceeded,
    DimensionMismatch,
    NonIntegerWeights,
    NotPrime,
    OutOfRange,
)
from smallball.families import (
    DEFAULT_SEED,
    ESSEEN_COUNT,
    ESSEEN_EXTRA_SEED,
    ESSEEN_SEED,
    TIGHTNESS_LAMBDAS,
    TIGHTNESS_N_GRID,
    diff_instances,
    esseen_family,
    half_unit_family,
    oracle_family,
    random_reversible_chain,
)
from smallball.oracles import enumerate_paths
from smallball.transfer import (
    LawBlock,
    PHASE_TABLE_BUDGET,
    char_fn,
    char_fn_values,
    distribution_from_contributions,
    exact_sum_distribution,
    find_prime,
    fold_mod,
    mod_p_point_probability,
    sign_contributions,
    smallball_exact,
    zp_fourier_average,
)


def random_instance(seed, n_states_max=4, n_max=8, v_max=5):
    rng = np.random.default_rng(seed)
    chain = random_reversible_chain(rng, int(rng.integers(2, n_states_max + 1)))
    n = int(rng.integers(1, n_max + 1))
    signs = make_sign_system(rng.choice([-1, 1], size=(n, chain.n_states)),
                             chain.stationary)
    weights = make_weight_system(rng.integers(1, v_max + 1, size=n).astype(float))
    return chain, signs, weights


class TestCharFn:
    def test_at_origin_is_one(self, two_state_03):
        signs = balanced_signs(two_state_03, 3)
        val = char_fn(two_state_03, signs, ones_weights(3), 0.0)
        assert val.re == pytest.approx(1.0, abs=1e-15)
        assert val.im == pytest.approx(0.0, abs=1e-15)

    def test_single_balanced_factor_vanishes_at_quarter(self, uniform_independent):
        signs = balanced_signs(uniform_independent, 1)
        val = char_fn(uniform_independent, signs, ones_weights(1), 0.25)
        assert val.modulus <= 1e-12

    def test_two_step_chain_matches_path_enumeration(self, two_state_03):
        signs = balanced_signs(two_state_03, 2)
        w = ones_weights(2)
        fast = char_fn(two_state_03, signs, w, 0.1)
        slow = enumerate_paths(two_state_03, signs, w).char_fn(0.1)
        assert abs(complex(fast.re, fast.im) - complex(slow.re, slow.im)) <= 1e-12

    def test_independent_chain_factorizes_into_cosines(self, uniform_independent):
        n = 6
        signs = balanced_signs(uniform_independent, n)
        v = np.array([1.0, 2.0, 1.0, 3.0, 2.0, 1.0])
        weights = make_weight_system(v)
        for xi in (0.05, 0.17, 0.31):
            val = char_fn(uniform_independent, signs, weights, xi)
            expect = np.prod(np.abs(np.cos(2.0 * np.pi * xi * v)))
            assert abs(val.modulus - expect) <= 1e-12

    def test_dimension_mismatch(self, two_state_03):
        signs = balanced_signs(two_state_03, 2)
        with pytest.raises(DimensionMismatch):
            char_fn(two_state_03, signs, ones_weights(3), 0.1)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-10.0, 10.0))
    def test_modulus_never_exceeds_one(self, seed, xi):
        chain, signs, weights = random_instance(seed)
        val = char_fn(chain, signs, weights, xi)
        assert val.modulus <= 1.0 + 1e-12

    def test_modulus_bounded_on_large_population(self):
        rng = np.random.default_rng(2718)
        for i in range(1000):
            chain, signs, weights = random_instance(int(rng.integers(2**31)))
            xi = float(rng.uniform(-5.0, 5.0))
            assert char_fn(chain, signs, weights, xi).modulus <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    def test_matches_brute_force(self, seed, xi):
        chain, signs, weights = random_instance(seed, n_states_max=3, n_max=6)
        fast = char_fn(chain, signs, weights, xi)
        slow = enumerate_paths(chain, signs, weights).char_fn(xi)
        assert abs(complex(fast.re, fast.im) - complex(slow.re, slow.im)) <= 1e-10


class TestExactDistribution:
    def test_equal_weights_extremal_case(self, uniform_independent):
        n = 4
        dist = exact_sum_distribution(uniform_independent,
                                      balanced_signs(uniform_independent, n),
                                      ones_weights(n))
        assert dist.probability_at(0) == pytest.approx(6 / 16, abs=1e-15)

    def test_alternating_chain_cancels(self):
        chain = make_two_state_chain(1.0)
        dist = exact_sum_distribution(chain, balanced_signs(chain, 2),
                                      ones_weights(2))
        assert dist.probability_at(0) == pytest.approx(1.0, abs=1e-15)

    def test_two_state_three_point_law(self, two_state_03):
        dist = exact_sum_distribution(two_state_03, balanced_signs(two_state_03, 2),
                                      ones_weights(2))
        law = enumerate_paths(two_state_03, balanced_signs(two_state_03, 2),
                              ones_weights(2)).law()
        assert dist.probability_at(0) == pytest.approx(0.65, abs=1e-12)
        assert dist.probability_at(2) == pytest.approx(0.175, abs=1e-12)
        assert dist.probability_at(-2) == pytest.approx(0.175, abs=1e-12)
        for s, p in law.items():
            assert dist.probability_at(s) == pytest.approx(p, abs=1e-12)

    def test_non_integer_weights_rejected(self, two_state_03):
        with pytest.raises(NonIntegerWeights):
            exact_sum_distribution(two_state_03, balanced_signs(two_state_03, 2),
                                   make_weight_system([1.0, 1.5]))

    @pytest.mark.parametrize("big", [2.0**53 + 2, 1e20, 1e300])
    def test_contributions_beyond_exact_integers_rejected(self, two_state_03, big):
        # an int64 cast of 1e20 is invalid, and past 2^53 a float holds no
        # odd integer; 2^53 itself stays (its lattice then fails the budget)
        with pytest.raises(OutOfRange, match="beyond"):
            exact_sum_distribution(two_state_03, balanced_signs(two_state_03, 4),
                                   make_weight_system([big, 1.0, 1.0, 1.0]))
        with pytest.raises(BudgetExceeded):
            exact_sum_distribution(two_state_03, balanced_signs(two_state_03, 4),
                                   make_weight_system([2.0**53, 1.0, 1.0, 1.0]))

    def test_budget_guard(self, two_state_03, monkeypatch):
        # read at call time: 2 states x 8 steps x 17 sums = 272 cells
        monkeypatch.setattr(transfer, "DP_BUDGET", 271)
        with pytest.raises(BudgetExceeded, match="272 cells"):
            exact_sum_distribution(two_state_03, balanced_signs(two_state_03, 8),
                                   ones_weights(8))
        monkeypatch.setattr(transfer, "DP_BUDGET", 272)
        exact_sum_distribution(two_state_03, balanced_signs(two_state_03, 8),
                               ones_weights(8))

    def test_parity_class_is_empty(self, uniform_independent):
        # integer weights force sum = v_1 + ... + v_n mod 2
        rng = np.random.default_rng(3)
        n = 6
        v = rng.integers(1, 7, size=n).astype(float)
        signs = make_sign_system(rng.choice([-1, 1], size=(n, 2)), [0.5, 0.5])
        dist = exact_sum_distribution(uniform_independent, signs,
                                      make_weight_system(v))
        parity = int(v.sum()) % 2
        for s, p in zip(dist.support().tolist(), dist.masses.tolist()):
            if s % 2 != parity:
                assert p == 0.0

    def test_symmetric_under_global_flip(self, two_state_03):
        dist = exact_sum_distribution(two_state_03, balanced_signs(two_state_03, 5),
                                      ones_weights(5))
        for s in dist.support().tolist():
            assert dist.probability_at(s) == pytest.approx(
                dist.probability_at(-s), abs=1e-12)

    def test_rational_mode_agrees_with_floats(self, two_state_03):
        signs = balanced_signs(two_state_03, 4)
        w = make_weight_system([1.0, 2.0, 1.0, 3.0])
        plain = exact_sum_distribution(two_state_03, signs, w)
        exact = exact_sum_distribution(two_state_03, signs, w, exact=True)
        assert exact.rational is not None
        assert sum(exact.rational.values()) == pytest.approx(1, abs=1e-14)
        for s in plain.support().tolist():
            assert plain.probability_at(s) == pytest.approx(
                exact.probability_at(s), abs=1e-13)

    def test_empty_sum_is_the_point_mass_at_zero(self, two_state_03):
        signs, weights = balanced_signs(two_state_03, 0), ones_weights(0)
        assert sign_contributions(signs, weights).shape == (0, 2)
        law = enumerate_paths(two_state_03, signs, weights).law()
        for exact in (False, True):
            dist = exact_sum_distribution(two_state_03, signs, weights, exact=exact)
            assert (dist.offset, dist.masses.tolist(), dist.span) == (0, [1.0], (0, 0))
            assert {int(s): p for s, p in zip(dist.support(), dist.masses)} == law
        assert exact_sum_distribution(two_state_03, signs, weights,
                                      exact=True).rational == {0: 1}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_path_enumeration(self, seed):
        chain, signs, weights = random_instance(seed, n_states_max=3, n_max=6)
        dist = exact_sum_distribution(chain, signs, weights)
        law = enumerate_paths(chain, signs, weights).law()
        for s in set(law) | set(dist.support().tolist()):
            assert dist.probability_at(s) == pytest.approx(
                law.get(s, 0.0), abs=1e-10)

    @pytest.mark.parametrize("n_states", [2, 4])
    def test_float_dp_against_rational_oracle_at_n400(self, n_states):
        # rounding of the float DP builds up over the steps; against the exact
        # law at n = 400 the worst deviations measured 2.1e-17 (two states) and
        # 1.4e-17 (four) absolute, 1.2e-15 and 1.3e-15 relative: the bounds
        # below leave a factor of about 5
        rng = np.random.default_rng(400 + n_states)
        chain = (make_two_state_chain(0.3) if n_states == 2
                 else random_reversible_chain(rng, n_states))
        contribs = rng.choice([-1.0, 1.0], size=(400, n_states))
        plain = distribution_from_contributions(chain, contribs)
        exact = distribution_from_contributions(chain, contribs, exact=True)
        # exact in the binary values of the chain, whose rows need not sum to
        # 1: the total is mu' A^(n-1) 1 in those values (A = ints / 2^e)
        e = max(Fraction(x).denominator.bit_length() for x in chain.transition.flat)
        a = [[int(Fraction(x) * 2**e) for x in row] for row in chain.transition.tolist()]
        ones = [1] * n_states
        for _ in range(399):
            ones = [sum(p * v for p, v in zip(row, ones)) for row in a]
        total = sum(Fraction(m) * v for m, v in zip(chain.stationary.tolist(), ones))
        assert sum(exact.rational.values()) == total / 2**(399 * e)
        assert set(exact.rational) == set(
            plain.support()[plain.masses > 0].tolist())
        worst_abs = worst_rel = 0.0
        for s, frac in exact.rational.items():
            want = float(frac)
            assert exact.probability_at(s) == want
            dev = abs(plain.probability_at(s) - want)
            worst_abs = max(worst_abs, dev)
            worst_rel = max(worst_rel, dev / want)
        assert worst_abs <= 1e-16
        assert worst_rel <= 6e-15

    @pytest.mark.parametrize("n", [200, 257])
    def test_float_dp_floor_against_rational_oracle(self, n):
        # P(+1) = 0.01 per step: the masses C(n, k) 0.01^k 0.99^(n-k) of the
        # upper tail fall below FLOOR (35 of them at n = 200, 78 at n = 257).
        # The float DP zeroes them, returns no mass below FLOOR, and stays
        # within its declared bound, cells swept * FLOOR, of the exact law,
        # beyond the rounding that test_float_dp_against_rational_oracle_at_n400
        # measures
        chain = make_independent_chain([0.01, 0.99])
        contribs = np.tile([1.0, -1.0], (n, 1))
        plain = distribution_from_contributions(chain, contribs)
        exact = distribution_from_contributions(chain, contribs, exact=True)
        assert plain.masses[plain.masses > 0].min() >= transfer.FLOOR
        cells = 2 * n * (2 * n + 1)  # states x steps x lattice: at least those swept
        removed = [frac for s, frac in exact.rational.items()
                   if plain.probability_at(s) == 0]
        assert len(removed) >= 35
        assert sum(removed) <= cells * Fraction(transfer.FLOOR)
        for s, frac in exact.rational.items():
            want = float(frac)
            assert abs(plain.probability_at(s) - want) <= 6e-15 * want + cells * transfer.FLOOR

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_float_dp_matches_exact_dp(self, seed):
        # mixed signs, zeros and a shared factor d, so the lattice stride is a
        # multiple of d; seeds 0..299 gave at most 1.1e-16 absolute deviation
        rng = np.random.default_rng(seed)
        chain = random_reversible_chain(rng, int(rng.integers(2, 5)))
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 13))
        contribs = d * rng.integers(-3, 4, size=(n, chain.n_states)).astype(float)
        plain = distribution_from_contributions(chain, contribs)
        exact = distribution_from_contributions(chain, contribs, exact=True)
        assert plain.offset == exact.offset
        assert all(s % d == exact.offset % d for s in exact.rational)
        for s in plain.support().tolist():
            assert plain.probability_at(s) == pytest.approx(
                float(exact.rational.get(s, 0)), abs=1e-15)

    def test_rational_budget_is_checked_before_any_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("DP started")

        monkeypatch.setattr(transfer, "_banded_dp", forbidden)
        monkeypatch.setattr(transfer, "_rational_dp", forbidden)
        contribs = np.tile([1.0, -1.0], (1000, 1))  # 2 * 1000 * 2001 cells
        assert 2 * 1000 * 2001 * 2 * 1000 > transfer.RATIONAL_BUDGET
        with pytest.raises(BudgetExceeded, match="rational DP"):
            distribution_from_contributions(make_two_state_chain(0.3), contribs,
                                            exact=True)

    def test_rational_budget_counts_states_and_steps(self, monkeypatch):
        # 16 states at n = 216 and 4 states at n = 430 both fit 1.5e6 cells,
        # but each band column costs 16^2 products: 6-9 s against ~3 s
        def forbidden(*args):
            raise AssertionError("DP started")

        monkeypatch.setattr(transfer, "_banded_dp", forbidden)
        monkeypatch.setattr(transfer, "_rational_dp", forbidden)
        rng = np.random.default_rng(216)
        chain = random_reversible_chain(rng, 16)
        contribs = rng.choice([-1.0, 1.0], size=(216, 16))
        assert 16 * 216 * 433 <= 1_500_000
        with pytest.raises(BudgetExceeded, match="rational DP"):
            distribution_from_contributions(chain, contribs, exact=True)


class TestSmallballExact:
    def test_window_captures_single_lattice_point(self, uniform_independent):
        dist = exact_sum_distribution(uniform_independent,
                                      balanced_signs(uniform_independent, 4),
                                      ones_weights(4))
        assert smallball_exact(dist, 0.0, 1.0) == pytest.approx(0.375, abs=1e-15)

    def test_whole_support(self, two_state_03):
        dist = exact_sum_distribution(two_state_03, balanced_signs(two_state_03, 5),
                                      ones_weights(5))
        assert smallball_exact(dist, 0.0, 10.0) == pytest.approx(1.0, abs=1e-12)

    def test_far_window_is_empty(self, two_state_03):
        dist = exact_sum_distribution(two_state_03, balanced_signs(two_state_03, 5),
                                      ones_weights(5))
        assert smallball_exact(dist, 100.0, 2.0) == 0.0

    def test_closed_boundary_convention(self, uniform_independent):
        dist = exact_sum_distribution(uniform_independent,
                                      balanced_signs(uniform_independent, 4),
                                      ones_weights(4))
        # |s - 1| <= 1 closes over both 0 and 2
        expect = dist.probability_at(0) + dist.probability_at(2)
        assert smallball_exact(dist, 1.0, 1.0) == pytest.approx(expect, abs=1e-15)

    def test_negative_radius_rejected(self, uniform_independent):
        dist = exact_sum_distribution(uniform_independent,
                                      balanced_signs(uniform_independent, 2),
                                      ones_weights(2))
        with pytest.raises(OutOfRange):
            smallball_exact(dist, 0.0, -1.0)

    @pytest.mark.parametrize("x0, radius", [(np.nan, 1.0), (0.0, np.nan),
                                            (np.inf, 1.0), (0.0, np.inf)])
    def test_non_finite_window_rejected(self, uniform_independent, x0, radius):
        dist = exact_sum_distribution(uniform_independent,
                                      balanced_signs(uniform_independent, 2),
                                      ones_weights(2))
        with pytest.raises(OutOfRange):
            smallball_exact(dist, x0, radius)


class TestPrimesAndZp:
    def test_find_prime_examples(self):
        mk = lambda v: make_weight_system(v, "distinct-positive-integers")
        assert find_prime(mk([1.0, 2.0, 3.0])) == 7
        assert find_prime(mk([1.0])) == 3
        assert find_prime(mk(np.arange(1.0, 11.0))) == 23

    def test_find_prime_takes_any_weights(self):
        # the rule reads max |v|, so repeated and negative weights have a prime too
        assert find_prime(make_weight_system([-5.0, 1.0])) == 11
        assert find_prime(make_weight_system([2.0, -2.0, 2.0])) == 5

    def test_find_prime_refuses_a_start_above_the_budget(self, monkeypatch):
        # the weight 1e20, whose trial division would run for hours, is
        # checked in a subprocess with a timeout in test_cli.py
        monkeypatch.setattr(transfer, "DP_BUDGET", 7)
        assert find_prime(make_weight_system([2.0, 3.0])) == 7  # starts at 7
        monkeypatch.setattr(transfer, "DP_BUDGET", 6)
        with pytest.raises(BudgetExceeded, match="starts at 7"):
            find_prime(make_weight_system([2.0, 3.0]))

    def test_zp_cells_count_before_the_primality_test(self, uniform_independent,
                                                      monkeypatch):
        # p n N = 7 * 3 * 2 = 42 cells
        signs = balanced_signs(uniform_independent, 3)
        monkeypatch.setattr(transfer, "DP_BUDGET", 42)
        zp_fourier_average(uniform_independent, signs, ones_weights(3), 7)
        with pytest.raises(NotPrime):
            mod_p_point_probability(uniform_independent, signs, ones_weights(3), 6, 0)
        monkeypatch.setattr(transfer, "DP_BUDGET", 41)
        # a composite p is refused by the budget, not tested
        for p, cells in ((7, "42 cells"), (8, "48 cells")):
            with pytest.raises(BudgetExceeded, match=cells):
                zp_fourier_average(uniform_independent, signs, ones_weights(3), p)
            with pytest.raises(BudgetExceeded, match=cells):
                mod_p_point_probability(uniform_independent, signs, ones_weights(3), p, 0)

    def test_three_term_average(self, uniform_independent):
        signs = balanced_signs(uniform_independent, 1)
        avg = zp_fourier_average(uniform_independent, signs, ones_weights(1), 3)
        assert avg == pytest.approx((1 + 2 * abs(math.cos(2 * math.pi / 3))) / 3,
                                    abs=1e-14)
        assert avg == pytest.approx(2 / 3, abs=1e-14)

    def test_empty_product_averages_to_one(self, uniform_independent):
        signs = make_sign_system(np.zeros((0, 2)), [0.5, 0.5])
        weights = make_weight_system(np.zeros((0, 1)))
        assert zp_fourier_average(uniform_independent, signs, weights, 5) == 1.0

    def test_not_prime_rejected(self, uniform_independent):
        signs = balanced_signs(uniform_independent, 1)
        with pytest.raises(NotPrime):
            zp_fourier_average(uniform_independent, signs, ones_weights(1), 4)

    def test_average_bounds_distinct_integer_instance(self):
        for inst in diff_instances():
            p = find_prime(inst.weights)
            avg = zp_fourier_average(inst.chain, inst.signs, inst.weights, p)
            _, max_prob = exact_sum_distribution(inst.chain, inst.signs,
                                                 inst.weights).max_point_mass()
            assert max_prob <= avg  # inversion dominates every point mass
            # the zero frequency gives 1/p, each of the other p - 1 at most max |phi|;
            # the upper side is met to rounding at lambda = 0, n = 9 and 36: 1e-15 slack
            contribs = sign_contributions(inst.signs, inst.weights)
            phi = np.abs(char_fn_values(inst.chain, contribs, np.arange(1, p) / p))
            assert 1 / p - 1e-15 <= avg <= 1 / p + (p - 1) / p * phi.max() + 1e-15

    def test_independent_average_is_cosine_product_average(self, uniform_independent):
        n, p = 4, 11
        signs = balanced_signs(uniform_independent, n)
        v = np.array([1.0, 2.0, 3.0, 1.0])
        avg = zp_fourier_average(uniform_independent, signs,
                                 make_weight_system(v), p)
        xs = np.arange(p)
        byhand = np.mean([np.prod(np.abs(np.cos(2 * np.pi * x * v / p)))
                          for x in xs])
        assert avg == pytest.approx(byhand, abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_point_prob_dominated_by_residue_class(self, seed):
        chain, signs, weights = random_instance(seed, n_max=7)
        rng = np.random.default_rng(seed + 1)
        p = 11
        x0 = int(rng.integers(-4, 5))
        dist = exact_sum_distribution(chain, signs, weights)
        residue = float(fold_mod(dist, p)[x0 % p])
        assert dist.probability_at(x0) <= residue
        inverted = mod_p_point_probability(chain, signs, weights, p, x0)
        assert inverted == pytest.approx(residue, abs=1e-11)

    def test_point_prob_needs_an_integral_x0(self, uniform_independent):
        signs = balanced_signs(uniform_independent, 3)
        weights = make_weight_system([1.0, 2.0, 3.0])

        def point(x0):
            return mod_p_point_probability(uniform_independent, signs, weights, 11, x0)

        assert point(2.0) == point(2)
        for x0 in (1.7, float("nan"), float("inf")):
            with pytest.raises(OutOfRange, match="x0"):
                point(x0)


def test_contribution_table_shapes(two_state_03):
    signs = balanced_signs(two_state_03, 3)
    table = sign_contributions(signs, make_weight_system([1.0, 2.0, 3.0]))
    assert table.shape == (3, 2)
    np.testing.assert_array_equal(table[:, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(table[:, 1], [-1.0, -2.0, -3.0])


def test_char_fn_values_vectorizes(two_state_03):
    signs = balanced_signs(two_state_03, 4)
    table = sign_contributions(signs, ones_weights(4))
    xis = np.linspace(-1.0, 1.0, 17)
    batch = char_fn_values(two_state_03, table, xis)
    for x, v in zip(xis, batch):
        single = char_fn(two_state_03, signs, ones_weights(4), float(x))
        assert abs(v - complex(single.re, single.im)) <= 1e-14


def tensor_char_fn_values(chain, contribs, xis):
    """Reference sweep over the whole (xi, step, state) phase tensor."""
    n = contribs.shape[0]
    phases = np.exp(2j * np.pi * xis[:, None, None] * contribs[None, :, :])
    w = phases[:, n - 1, :].copy()
    at = chain.transition.T
    for j in range(n - 2, -1, -1):
        w = phases[:, j, :] * (w @ at)
    return w @ chain.stationary


def full_lattice_law(chain, contribs, floor=0.0):
    """Reference DP over the whole lattice of partial sums at every step.

    Every FLUSH_EVERY steps and after the last it zeroes each mass below
    floor.  Returns (offset, masses, subnormal): the masses trimmed to the
    first and last nonzero one, and the number of (step, state, partial sum)
    cells that a step left in (0, 2^-1022), before any flush.
    """
    table = np.asarray(contribs).astype(np.int64)
    n, n_states = table.shape
    pmin = np.cumsum(table.min(axis=1))
    pmax = np.cumsum(table.max(axis=1))
    glo = int(min(pmin.min(), 0))
    size = int(max(pmax.max(), 0)) - glo + 1
    a_t = chain.transition.T
    dp = np.zeros((n_states, size))
    for y in range(n_states):
        dp[y, table[0, y] - glo] = chain.stationary[y]
    tiny = np.finfo(float).tiny
    subnormal = 0
    for j in range(1, n):
        mixed = a_t @ dp
        dp = np.zeros_like(dp)
        for y in range(n_states):
            c = int(table[j, y])
            if c >= 0:
                dp[y, c:] = mixed[y, :size - c]
            else:
                dp[y, :size + c] = mixed[y, -c:]
        subnormal += np.count_nonzero(dp < tiny) - np.count_nonzero(dp == 0.0)
        if j % transfer.FLUSH_EVERY == 0:
            dp[dp < floor] = 0.0
    dp[dp < floor] = 0.0
    masses = dp.sum(axis=0)
    nonzero = np.flatnonzero(masses)
    return glo + int(nonzero[0]), masses[nonzero[0]:nonzero[-1] + 1], subnormal


def _dp_cases():
    for inst in esseen_family(ESSEEN_SEED, 200):
        yield inst.chain, sign_contributions(inst.signs, inst.weights)
    for inst in oracle_family(DEFAULT_SEED, 200):
        yield inst["chain"], sign_contributions(inst["signs"], inst["weights"])
    rng = np.random.default_rng(16)
    chain16 = random_reversible_chain(rng, 16)
    for n in (1, 2, 3, 5, 9, 17, 40, 200):  # small and large band widths
        yield chain16, rng.choice([-1.0, 1.0], size=(n, 16))
        yield chain16, rng.integers(-3, 4, size=(n, 16)).astype(float)
    for n_states in (2, 4, 5, 16):
        chain = random_reversible_chain(rng, n_states)
        signs = rng.choice([-1.0, 1.0], size=(30, n_states))
        yield chain, 2.0 * signs  # all-even weights: stride 4
        zero_rows = signs.copy()
        zero_rows[[0, 7, 8, 29]] = 0.0
        yield chain, zero_rows
        same_first = signs.copy()
        same_first[0] = 2.0  # a band of width 1 after step 0
        yield chain, same_first
        for _ in range(4):  # every row constant: a band of width 1 at every step
            yield chain, np.repeat(rng.integers(-2, 3, size=(12, 1)), n_states, axis=1)
        yield chain, np.zeros((6, n_states))


def test_banded_dp_bit_identical_to_full_lattice():
    for chain, contribs in _dp_cases():
        offset, masses, _ = full_lattice_law(chain, contribs)
        dist = distribution_from_contributions(chain, contribs)
        assert dist.offset == offset
        assert np.array_equal(dist.masses, masses)


def rational_lattice_law(chain, contribs):
    """{partial sum: Fraction} of nonzero mass, by a forward sweep over one
    dict per state in the exact binary values of the chain."""
    table = np.asarray(contribs).astype(np.int64).tolist()
    a = [[Fraction(x) for x in row] for row in chain.transition.tolist()]
    law = [{c: Fraction(m)} for c, m in zip(table[0], chain.stationary.tolist())]
    for row in table[1:]:
        nxt = [{} for _ in row]
        for x, masses in enumerate(law):
            for y, c in enumerate(row):
                if a[x][y]:
                    for s, m in masses.items():
                        nxt[y][s + c] = nxt[y].get(s + c, 0) + m * a[x][y]
        law = nxt
    out = {}
    for masses in law:
        for s, m in masses.items():
            out[s] = out.get(s, 0) + m
    return {s: m for s, m in out.items() if m}


def _live_band_cases():
    """Edge cases of the float sweep's live columns, and whether each is
    small enough for the rational oracle."""
    rng = np.random.default_rng(2100)
    chain4 = random_reversible_chain(rng, 4)
    flip = make_two_state_chain(1.0)  # deterministic alternation
    # n < FLUSH_EVERY, a flush on the last step (n = 33: j = 32), one step
    # before and one past it
    for n in (9, 32, 33, 34):
        yield chain4, rng.choice([-1.0, 1.0], size=(n, 4)), n < 16
    # only two paths carry mass, so each flush trims the band on both sides
    # to their span, and shifts up to 6 spread it again
    for n in (17, 33, 50):
        yield flip, rng.integers(-3, 4, size=(n, 2)).astype(float), True
    yield flip, np.tile([1.0, -1.0], (40, 1)), True  # exact zeros inside the band
    zero_rows = rng.integers(-3, 4, size=(40, 4)).astype(float)
    zero_rows[[0, 15, 16, 17, 32, 39]] = 0.0
    yield chain4, zero_rows, False
    yield random_reversible_chain(rng, 16), rng.integers(-3, 4, size=(33, 16)).astype(float), False
    for n_states in (2, 4):
        yield random_reversible_chain(rng, n_states), np.zeros((40, n_states)), True


def test_floored_band_bit_identical_to_floored_full_lattice():
    # long chains whose tails fall below FLOOR, so flushes zero masses on
    # both sides; the floored full-lattice sweep is the oracle
    rng = np.random.default_rng(1600)
    cases = [(make_two_state_chain(0.6), np.tile([1.0, -1.0], (2000, 1))),
             (make_independent_chain([0.01, 0.99]), np.tile([1.0, -1.0], (257, 1))),
             (random_reversible_chain(rng, 4), rng.integers(-3, 4, size=(700, 4)).astype(float)),
             (random_reversible_chain(rng, 3), 2.0 * rng.choice([-1.0, 1.0], size=(2500, 3)))]
    for chain, contribs in cases:
        offset, masses, _ = full_lattice_law(chain, contribs, floor=transfer.FLOOR)
        # the floored law is narrower than the lattice
        assert masses.size - 1 < np.sum(contribs.max(axis=1) - contribs.min(axis=1))
        dist = distribution_from_contributions(chain, contribs)
        assert dist.offset == offset
        assert np.array_equal(dist.masses, masses)
    for chain, contribs, rational in _live_band_cases():
        offset, masses, _ = full_lattice_law(chain, contribs, floor=transfer.FLOOR)
        dist = distribution_from_contributions(chain, contribs)
        assert dist.offset == offset
        assert np.array_equal(dist.masses, masses)
        if rational:
            exact = distribution_from_contributions(chain, contribs, exact=True)
            assert exact.rational == rational_lattice_law(chain, contribs)


def test_float_sweep_does_no_subnormal_arithmetic():
    # masses that fall below FLOOR between two flushes stay normal on long
    # chains; at the least normal double as the floor they do not, so the
    # count can fail
    rng = np.random.default_rng(2101)
    chain16 = random_reversible_chain(rng, 16)
    cases = [(make_two_state_chain(lam), np.tile([1.0, -1.0], (2000, 1)))
             for lam in (0.0, 0.3, 0.6)]
    cases.append((chain16, rng.choice([-1.0, 1.0], size=(1000, 16))))
    for chain, contribs in cases:
        assert full_lattice_law(chain, contribs, floor=transfer.FLOOR)[2] == 0
        assert full_lattice_law(chain, contribs, floor=np.finfo(float).tiny)[2] > 0


@pytest.mark.parametrize("n_states", [2, 3, 8])
@pytest.mark.parametrize("m", [1, 7, 1000, 4096])
def test_char_fn_values_bit_identical_to_tensor_sweep(n_states, m):
    # m * n_states complex values cross 256 KiB, where numpy starts reusing
    # temporaries in place, for the larger m
    rng = np.random.default_rng(100 * n_states + m)
    chain = random_reversible_chain(rng, n_states)
    xis = rng.uniform(-1.0, 1.0, m)
    for contribs in (rng.integers(-4, 5, size=(20, n_states)).astype(float),
                     rng.normal(scale=3.0, size=(20, n_states))):
        assert np.array_equal(char_fn_values(chain, contribs, xis),
                              tensor_char_fn_values(chain, contribs, xis))


def test_char_fn_values_memory_is_per_step():
    # the (xi, step, state) phase tensor of this call alone is 125 MiB
    rng = np.random.default_rng(8)
    chain = random_reversible_chain(rng, 8)
    contribs = rng.integers(-3, 4, size=(500, 8)).astype(float)
    xis = np.linspace(0.0, 0.5, 2048)
    tracemalloc.start()
    try:
        vals = char_fn_values(chain, contribs, xis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # recorded from the tensor sweep
    assert hashlib.sha256(vals.tobytes()).hexdigest() == (
        "957ff261335fb6034f8b425a40b4e204a0363de07a8638a39cd21b9ce34b92a8")


def test_law_modulus_matches_transfer_sweep_and_path_enumeration():
    worst_sweep = worst_paths = 0.0
    for inst in oracle_family(DEFAULT_SEED, 200):
        chain, signs, weights = inst["chain"], inst["signs"], inst["weights"]
        xis = inst["xis"]
        law = exact_sum_distribution(chain, signs, weights)
        got = LawBlock.of([law.masses]).char_fn_modulus(xis, np.zeros(xis.size, dtype=np.intp))
        sweep = np.abs(char_fn_values(chain, sign_contributions(signs, weights), xis))
        paths = [abs(complex(v.re, v.im))
                 for v in map(enumerate_paths(chain, signs, weights).char_fn, xis)]
        worst_sweep = max(worst_sweep, float(np.max(np.abs(got - sweep))))
        worst_paths = max(worst_paths, float(np.max(np.abs(got - paths))))
    assert worst_sweep <= 1e-12
    assert worst_paths <= 1e-12


def _horner_modulus(masses, xis):
    """The per-law Horner sweep LawBlock replaced, kept as its oracle."""
    z = np.exp(2j * np.pi * np.asarray(xis, dtype=float))
    acc = np.full(z.shape, masses[-1], dtype=complex)
    for m in masses[-2::-1].tolist():
        acc *= z
        if m:
            acc += m
    return np.abs(acc)


def test_block_horner_equals_per_law_horner_bit_for_bit():
    laws = [exact_sum_distribution(inst.chain, inst.signs, inst.weights)
            for inst in esseen_family(ESSEEN_SEED, 200)]
    lengths = [law.masses.size for law in laws]
    assert min(lengths) == 1 and max(lengths) >= 100
    rng = np.random.default_rng(12)
    for begin in range(0, len(laws), 50):
        block = laws[begin:begin + 50]
        xis = rng.uniform(-2.0, 2.0, 6000)
        owner = rng.integers(0, len(block), xis.size)
        got = LawBlock.of([law.masses for law in block]).char_fn_modulus(xis, owner)
        for i, law in enumerate(block):
            want = _horner_modulus(law.masses, xis[owner == i])
            assert np.array_equal(got[owner == i], want)
            alone = xis[owner == i]
            assert np.array_equal(LawBlock.of([law.masses]).char_fn_modulus(
                alone, np.zeros(alone.size, dtype=np.intp)), want)


def test_phase_table_rule_takes_integer_tables_only():
    rng = np.random.default_rng(5)
    ints = rng.integers(-4, 5, size=(20, 3)).astype(float)
    values, index = transfer._distinct_contributions(ints, 1000)
    assert np.array_equal(values[index], ints)
    for contribs in (rng.normal(scale=3.0, size=(20, 3)),  # all distinct
                     ints[:4]):  # a range as wide as the table
        assert transfer._distinct_contributions(contribs, 1000) is None
    # a sweep of few phases keeps its per-step exps
    assert 8 * ints.size < transfer.PHASE_TABLE_MIN
    assert transfer._distinct_contributions(ints, 8) is None


def test_negative_zero_contributions_keep_their_bits():
    # the table holds 0.0 for -0.0 cells, whose phase differs in the sign of
    # a zero imaginary part at xi < 0; an all-zero table has phi = 1 exactly,
    # so that sign would show, but the BLAS sums start from +0.0
    chain = random_reversible_chain(np.random.default_rng(6), 3)
    xis = np.linspace(-1.0, 1.0, 65)
    for contribs in (np.zeros((8, 3)), np.full((8, 3), -0.0)):
        assert transfer._distinct_contributions(contribs, xis.size) is not None
        assert (char_fn_values(chain, contribs, xis).tobytes()
                == tensor_char_fn_values(chain, contribs, xis).tobytes())


@pytest.mark.parametrize("m, tabled", [(4096, True), (8192, False)])
def test_phase_table_fits_its_byte_budget(m, tabled):
    # 64 distinct values among 200 cells: the table takes 16 * m * 64 bytes,
    # 4 MiB at m = 4096 (the budget) and twice that at m = 8192
    rng = np.random.default_rng(m)
    chain = random_reversible_chain(rng, 2)
    contribs = rng.integers(0, 64, size=(100, 2)).astype(float)
    contribs[0] = [0.0, 63.0]
    table_bytes = 16 * m * 64
    assert (table_bytes <= PHASE_TABLE_BUDGET) == tabled
    xis = rng.uniform(-1.0, 1.0, m)
    tracemalloc.start()
    try:
        vals = char_fn_values(chain, contribs, xis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak >= table_bytes) == tabled
    assert np.array_equal(vals, tensor_char_fn_values(chain, contribs, xis))


# ---------------------------------------------------------------------------
# the stacked float DP against the one-law sweep it replaced, kept here as
# its oracle
# ---------------------------------------------------------------------------


def _flush_loop(cur, live, end):
    band = cur[:, live:end]
    kept = band >= transfer.FLOOR
    np.multiply(band, kept, out=band)
    cols = np.flatnonzero(kept.any(axis=0))
    return live + int(cols[0]), live + int(cols[-1]) + 1


def law_loop(chain, contribs):
    """(offset, masses, span) of one float law by a banded sweep of its own,
    as distribution_from_contributions took it before stacks."""
    table = np.asarray(contribs).astype(np.int64)
    n, n_states = table.shape
    low = table.min(axis=1)
    pmin, pmax = np.cumsum(low), np.cumsum(table.max(axis=1))
    rise = table - low[:, None]
    g = max(int(np.gcd.reduce(rise.ravel())), 1)
    shifts = rise // g
    reach = shifts.max(axis=1)
    pad = int(reach.max()) or int(table.any())
    least = 2 if pad else 1
    width = int(reach.sum()) + 1 + 2 * pad
    a_t = chain.transition.T
    cur = np.zeros((n_states, width))
    nxt, products = np.zeros_like(cur), np.zeros_like(cur)
    for y in range(n_states):
        cur[y, pad + shifts[0, y]] = chain.stationary[y]
    live, end = pad, pad + int(reach[0]) + 1
    stale, stale_end = width, 0
    for j in range(1, n):
        r = int(reach[j])
        lo = min(live, stale - r)
        hi = max(end, stale_end, lo + least)
        mixed = np.matmul(a_t, cur[:, lo:hi], out=products[:, :hi - lo])
        for y in range(n_states):
            s = int(shifts[j, y])
            nxt[y, lo + s:hi + s] = mixed[y]
        cur, nxt = nxt, cur
        stale, stale_end = live, end
        end += r
        if j % transfer.FLUSH_EVERY == 0:
            live, end = _flush_loop(cur, live, end)
    _flush_loop(cur, live, end)
    masses = np.zeros(int(pmax[-1] - pmin[-1]) + 1)
    masses[::g] = cur[:, pad:width - pad].sum(axis=0)
    kept = np.flatnonzero(masses)
    return (int(pmin[-1]) + int(kept[0]), masses[kept[0]:kept[-1] + 1],
            (int(pmin[-1]), int(pmax[-1])))


def _law_hex(offset, masses, span):
    return offset, [x.hex() for x in masses.tolist()], span


def _instance_members(instances):
    return [(inst.chain, sign_contributions(inst.signs, inst.weights)) for inst in instances]


def _tightness_members():
    members = []
    for lam in TIGHTNESS_LAMBDAS:
        chain = make_two_state_chain(lam)
        members += [(chain, sign_contributions(balanced_signs(chain, n), ones_weights(n)))
                    for n in TIGHTNESS_N_GRID]
    return members


STACKED_FAMILIES = {
    "esseen": lambda: _instance_members(esseen_family(ESSEEN_SEED, ESSEEN_COUNT)),
    "esseen_extra": lambda: _instance_members(esseen_family(ESSEEN_EXTRA_SEED, ESSEEN_COUNT)),
    "oracle": lambda: [(inst["chain"], sign_contributions(inst["signs"], inst["weights"]))
                       for inst in oracle_family(DEFAULT_SEED, 200)],
    "half_unit": lambda: _instance_members(half_unit_family()),
    "diff": lambda: _instance_members(diff_instances()),
    "tightness": _tightness_members,
}


class TestStackedLaws:
    @pytest.mark.parametrize("family", sorted(STACKED_FAMILIES))
    def test_family_laws_equal_the_loop_bit_for_bit(self, family):
        members = STACKED_FAMILIES[family]()
        got = transfer.distributions_from_contributions(members)
        assert [_law_hex(d.offset, d.masses, d.span) for d in got] == [
            _law_hex(*law_loop(chain, contribs)) for chain, contribs in members]

    def test_mixed_shapes_and_batches_of_one_equal_the_loop_bit_for_bit(self):
        # every (N, n) shape of the DP cases in one batch, the all-zero and
        # constant-row tables among them, and the long floored bands
        members = list(_dp_cases()) + [(chain, contribs)
                                       for chain, contribs, _ in _live_band_cases()]
        order = np.random.default_rng(23).permutation(len(members))
        members = [members[i] for i in order]
        assert len({np.shape(contribs) for _, contribs in members}) > 50
        want = [_law_hex(*law_loop(chain, contribs)) for chain, contribs in members]
        got = transfer.distributions_from_contributions(members)
        assert [_law_hex(d.offset, d.masses, d.span) for d in got] == want
        for member, law in list(zip(members, want))[::17]:
            one = transfer.distributions_from_contributions([member])[0]
            assert _law_hex(one.offset, one.masses, one.span) == law
            lone = distribution_from_contributions(*member)
            assert _law_hex(lone.offset, lone.masses, lone.span) == law

    def test_exact_laws_run_one_at_a_time(self):
        members = STACKED_FAMILIES["oracle"]()[:40]
        got = transfer.distributions_from_contributions(members, exact=True)
        for (chain, contribs), law in zip(members, got):
            lone = distribution_from_contributions(chain, contribs, exact=True)
            assert law.rational == lone.rational
            assert law.masses.tobytes() == lone.masses.tobytes()

    @pytest.mark.parametrize("bad, error, needle", [
        (0.5, NonIntegerWeights, "not an integer"),
        (2.0**60, OutOfRange, "beyond"),
        (1e9, BudgetExceeded, "DP needs"),
    ])
    def test_a_bad_member_raises_the_lone_message_before_any_work(self, bad, error, needle,
                                                                 monkeypatch):
        members = STACKED_FAMILIES["esseen"]()
        k = 120
        chain, contribs = members[k]
        contribs = contribs.copy()
        contribs[-1, -1] = bad
        members[k] = (chain, contribs)
        # a later member that fails an earlier check, in a shape stacked first
        late_chain, late = members[0]
        late = late.copy()
        late[0, 0] = 0.25
        members.append((late_chain, late))
        with pytest.raises(error, match=needle) as lone:
            distribution_from_contributions(chain, contribs)

        def forbidden(*args):
            raise AssertionError("a sweep began before every member was checked")

        monkeypatch.setattr(transfer, "_banded_dp", forbidden)
        monkeypatch.setattr(transfer, "_rational_dp", forbidden)
        with pytest.raises(error) as batch:
            transfer.distributions_from_contributions(members)
        assert str(batch.value) == str(lone.value)

    def test_a_member_on_too_few_states_raises_the_lone_message(self):
        members = STACKED_FAMILIES["oracle"]()
        chain = make_two_state_chain(0.3)
        members.insert(7, (chain, np.ones((5, 3))))
        with pytest.raises(DimensionMismatch) as lone:
            distribution_from_contributions(chain, np.ones((5, 3)))
        with pytest.raises(DimensionMismatch) as batch:
            transfer.distributions_from_contributions(members)
        assert str(batch.value) == str(lone.value)


def _law_digest(dist):
    return hashlib.sha256(dist.masses.tobytes()
                          + repr((dist.offset, dist.span)).encode()).hexdigest()


def test_lone_long_laws_keep_their_bits():
    # the 16-state n = 3000 and the lambda = 0.3, n = 8192 laws of the
    # large-n benchmark, pinned before the DP took stacks
    rng = np.random.default_rng(20240513)
    chain = random_reversible_chain(rng, 16)
    signs = make_sign_system(rng.choice([-1, 1], size=(3000, 16)), chain.stationary)
    assert _law_digest(exact_sum_distribution(chain, signs, ones_weights(3000))) == (
        "1cfec44678ddff82730e60c52d31e9b02f3a0308cd03d934d83ddfd31e832072")
    chain = make_two_state_chain(0.3)
    assert _law_digest(exact_sum_distribution(
        chain, balanced_signs(chain, 8192), ones_weights(8192))) == (
        "b7935a98e8f5b945e723a7fcd852f10fe7a5abd665d76838eb6b3775defe4b5c")
