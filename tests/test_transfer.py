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
    PreconditionViolated,
)
from smallball.families import (
    DEFAULT_SEED,
    ESSEEN_SEED,
    esseen_family,
    oracle_family,
    random_reversible_chain,
)
from smallball.oracles import brute_force_char_fn, brute_force_distribution
from smallball.transfer import (
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
        slow = brute_force_char_fn(two_state_03, signs, w, 0.1)
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
        slow = brute_force_char_fn(chain, signs, weights, xi)
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
        law = brute_force_distribution(two_state_03, balanced_signs(two_state_03, 2),
                                       ones_weights(2))
        assert dist.probability_at(0) == pytest.approx(0.65, abs=1e-12)
        assert dist.probability_at(2) == pytest.approx(0.175, abs=1e-12)
        assert dist.probability_at(-2) == pytest.approx(0.175, abs=1e-12)
        for s, p in law.items():
            assert dist.probability_at(s) == pytest.approx(p, abs=1e-12)

    def test_non_integer_weights_rejected(self, two_state_03):
        with pytest.raises(NonIntegerWeights):
            exact_sum_distribution(two_state_03, balanced_signs(two_state_03, 2),
                                   make_weight_system([1.0, 1.5]))

    def test_budget_guard(self, two_state_03):
        with pytest.raises(BudgetExceeded):
            exact_sum_distribution(two_state_03, balanced_signs(two_state_03, 8),
                                   ones_weights(8), budget=10)

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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_path_enumeration(self, seed):
        chain, signs, weights = random_instance(seed, n_states_max=3, n_max=6)
        dist = exact_sum_distribution(chain, signs, weights)
        law = brute_force_distribution(chain, signs, weights)
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


class TestPrimesAndZp:
    def test_find_prime_examples(self):
        mk = lambda v: make_weight_system(v, "distinct-positive-integers")
        assert find_prime(mk([1.0, 2.0, 3.0])) == 7
        assert find_prime(mk([1.0])) == 3
        assert find_prime(mk(np.arange(1.0, 11.0))) == 23

    def test_find_prime_needs_variant(self):
        with pytest.raises(PreconditionViolated):
            find_prime(make_weight_system([1.0, 2.0]))

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

    def test_average_bounds_distinct_integer_instance(self, uniform_independent,
                                                      constants):
        n = 9
        signs = balanced_signs(uniform_independent, n)
        weights = make_weight_system(np.arange(1.0, n + 1),
                                     "distinct-positive-integers")
        p = find_prime(weights)
        avg = zp_fourier_average(uniform_independent, signs, weights, p)
        dist = exact_sum_distribution(uniform_independent, signs, weights)
        _, max_prob = dist.max_point_mass()
        assert max_prob <= avg  # inversion dominates every point mass
        assert avg <= constants["C_zp"].value * n**-1.5

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


def full_lattice_law(chain, contribs):
    """Reference DP over the whole lattice of partial sums at every step.

    Returns (offset, masses) trimmed to the first and last nonzero mass.
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
    for j in range(1, n):
        mixed = a_t @ dp
        dp = np.zeros_like(dp)
        for y in range(n_states):
            c = int(table[j, y])
            if c >= 0:
                dp[y, c:] = mixed[y, :size - c]
            else:
                dp[y, :size + c] = mixed[y, -c:]
    masses = dp.sum(axis=0)
    nonzero = np.flatnonzero(masses)
    return glo + int(nonzero[0]), masses[nonzero[0]:nonzero[-1] + 1]


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
        offset, masses = full_lattice_law(chain, contribs)
        dist = distribution_from_contributions(chain, contribs)
        assert dist.offset == offset
        assert np.array_equal(dist.masses, masses)


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
        got = exact_sum_distribution(chain, signs, weights).char_fn_modulus(xis)
        sweep = np.abs(char_fn_values(chain, sign_contributions(signs, weights), xis))
        paths = [abs(complex(v.re, v.im))
                 for v in (brute_force_char_fn(chain, signs, weights, x) for x in xis)]
        worst_sweep = max(worst_sweep, float(np.max(np.abs(got - sweep))))
        worst_paths = max(worst_paths, float(np.max(np.abs(got - paths))))
    assert worst_sweep <= 1e-12
    assert worst_paths <= 1e-12


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
