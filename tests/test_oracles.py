import hashlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from conftest import balanced_signs, ones_weights
from smallball import oracles
from smallball.chains import make_sign_system, make_weight_system, spectral_lambda
from smallball.errors import (
    BudgetExceeded,
    DimensionMismatch,
    HypothesisViolated,
    NonIntegerWeights,
    PreconditionViolated,
)
from smallball.families import (
    holder_family,
    identity_inputs,
    oracle_family,
    random_reversible_chain,
)
from smallball.oracles import (
    HolderInstance,
    averaging_operator,
    coordinate_tail,
    enumerate_paths,
    exact_sums,
    extraction_indices,
    lp_norm,
    operator_norm_l2mu,
    switching_stats,
    t_indices,
)


class TestNorms:
    def test_utilities_on_one_law(self):
        mu = np.array([0.25, 0.75])
        assert operator_norm_l2mu(np.eye(2), mu) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(averaging_operator(mu),
                                   [[0.25, 0.75], [0.25, 0.75]])

    def test_lp_norm_values(self):
        mu = np.array([0.25, 0.75])
        v = np.array([2.0, -1.0])
        assert lp_norm(v, mu, 1) == pytest.approx(0.25 * 2 + 0.75, abs=1e-15)
        assert lp_norm(v, mu, 2) == pytest.approx(math.sqrt(0.25 * 4 + 0.75),
                                                  abs=1e-15)
        assert lp_norm(v, mu, np.inf) == 2.0

    def test_inf_norm_ignores_zero_mass_states(self):
        assert lp_norm([5.0, 1.0], [0.0, 1.0], np.inf) == 1.0

    def test_operator_norm_of_averaging_gap_is_lambda(self):
        rng = np.random.default_rng(2)
        chain = random_reversible_chain(rng, 4)
        from smallball.chains import spectral_lambda

        gap = chain.transition - np.tile(chain.stationary, (4, 1))
        assert operator_norm_l2mu(gap, chain.stationary) == pytest.approx(
            spectral_lambda(chain), abs=1e-10)

    def test_stacked_norms_match_single_matrix_norms_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for i in range(300):
            n = int(rng.integers(1, 9))
            mu = rng.dirichlet(np.ones(n))
            stack = rng.normal(size=(int(rng.integers(1, 7)), n, n))
            if i % 2:
                stack = stack + 1j * rng.normal(size=stack.shape)
            root = np.sqrt(mu)
            got = operator_norm_l2mu(stack, mu)
            assert got.shape == stack.shape[:1]
            for m, norm in zip(stack, got.tolist()):
                single = np.linalg.norm(m * (root[:, None] / root[None, :]), ord=2)
                assert norm.hex() == float(single).hex()
                assert norm.hex() == operator_norm_l2mu(m, mu).hex()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_jensen_norm_chain(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        mu = rng.dirichlet(np.ones(n))
        v = rng.normal(size=n) * rng.uniform(0.1, 10)
        assert lp_norm(v, mu, 1) <= lp_norm(v, mu, 2) + 1e-12
        assert lp_norm(v, mu, 2) <= lp_norm(v, mu, np.inf) + 1e-12


class TestBruteForce:
    def test_origin_is_one(self, two_state_03):
        val = enumerate_paths(two_state_03, balanced_signs(two_state_03, 3),
                              ones_weights(3)).char_fn(0.0)
        assert val.re == pytest.approx(1.0, abs=1e-12)

    def test_single_state_chain_has_unit_modulus(self):
        from smallball.chains import validate_chain

        chain = validate_chain([[1.0]])
        signs = make_sign_system([[1], [-1], [1]], [1.0])
        val = enumerate_paths(chain, signs,
                              make_weight_system([1.0, 2.0, 3.0])).char_fn(0.37)
        assert val.modulus == pytest.approx(1.0, abs=1e-12)

    def test_budget(self, two_state_03, monkeypatch):
        # read at call time: 2^8 = 256 paths
        monkeypatch.setattr(oracles, "PATH_BUDGET", 255)
        with pytest.raises(BudgetExceeded, match="256 paths"):
            enumerate_paths(two_state_03, balanced_signs(two_state_03, 8), ones_weights(8))
        monkeypatch.setattr(oracles, "PATH_BUDGET", 256)
        enumerate_paths(two_state_03, balanced_signs(two_state_03, 8), ones_weights(8))

    def test_one_enumeration_matches_per_xi_paths_bit_for_bit(self):
        # the reference materialises every path and sums it with math.fsum,
        # once per xi, as the oracle did before it enumerated once
        xis = (-1.7, -0.3, 0.0, 0.125, 0.61, 1.9)
        for inst in oracle_family(99, 40):
            chain, signs, weights = inst["chain"], inst["signs"], inst["weights"]
            paths = enumerate_paths(chain, signs, weights)
            assert paths.measure.size == chain.n_states ** signs.n_steps
            for xi in xis:
                got = paths.char_fn(xi)
                want = _reference_char_fn(chain, signs, weights, xi)
                assert (got.re.hex(), got.im.hex()) == (want.real.hex(), want.imag.hex())
            assert {s: m.hex() for s, m in paths.law().items()} == {
                s: m.hex() for s, m in _reference_law(chain, signs, weights).items()}

    def test_char_fn_equals_one_exp_per_path_bit_for_bit(self):
        # the form before exp was taken once per distinct path sum
        def per_path(paths, xi):
            vals = paths.measure * np.exp(2j * np.pi * xi * paths.sums)
            return oracles.exact_sums(vals.view(float).reshape(-1, 2), oracles.RE_IM, 2)

        for inst in oracle_family(20240513, 200):
            paths = enumerate_paths(inst["chain"], inst["signs"], inst["weights"])
            for xi in (*inst["xis"].tolist(), -1.3, 0.0, 0.5):
                got = paths.char_fn(xi)
                assert [got.re.hex(), got.im.hex()] == [v.hex() for v in per_path(paths, xi)]

    def test_oracle_family_keeps_its_bits(self):
        # recorded from the per-xi enumeration with math.fsum over lists
        h = hashlib.sha256()
        for inst in oracle_family(20240513, 200):
            paths = enumerate_paths(inst["chain"], inst["signs"], inst["weights"])
            for xi in inst["xis"]:
                v = paths.char_fn(xi)
                h.update(f"{v.re.hex()} {v.im.hex()}\n".encode())
            for s, m in paths.law().items():
                h.update(f"{s} {m.hex()}\n".encode())
        assert h.hexdigest() == ORACLE_FAMILY_DIGEST

    def test_sign_system_on_other_states_is_rejected(self):
        chain = random_reversible_chain(np.random.default_rng(4), 3)
        signs = make_sign_system([[1, -1], [-1, 1]], [0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            enumerate_paths(chain, signs, make_weight_system([1.0, 2.0]))

    def test_law_needs_integer_path_sums(self, two_state_03):
        # rounding each contribution to 1 would give the law on {-3, -1, 1, 3}
        paths = enumerate_paths(two_state_03, balanced_signs(two_state_03, 3),
                                make_weight_system([1.4, 1.4, 1.4]))
        with pytest.raises(NonIntegerWeights, match="not an integer"):
            paths.law()

    def test_empty_sum_is_one_path(self, two_state_03):
        paths = enumerate_paths(two_state_03, balanced_signs(two_state_03, 0),
                                ones_weights(0))
        assert paths.law() == {0: 1.0}
        assert (paths.char_fn(0.3).re, paths.char_fn(0.3).im) == (1.0, 0.0)


ORACLE_FAMILY_DIGEST = "cd5adf9fda2d880ff8b00c5132735fbd9ab611807dd6271812dd5003786f703e"


def _reference_paths(chain, signs, weights):
    contribs = signs.functions.astype(float) * weights.scalars[:, None]
    n = contribs.shape[0]
    paths = np.indices((chain.n_states,) * n).reshape(n, -1).T
    w = chain.stationary[paths[:, 0]].copy()
    for i in range(1, n):
        w *= chain.transition[paths[:, i - 1], paths[:, i]]
    return contribs, paths, w


def _reference_char_fn(chain, signs, weights, xi) -> complex:
    contribs, paths, w = _reference_paths(chain, signs, weights)
    sums = np.zeros(paths.shape[0])
    for j in range(contribs.shape[0]):
        sums += contribs[j, paths[:, j]]
    vals = w * np.exp(2j * np.pi * xi * sums)
    return complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))


def _reference_law(chain, signs, weights) -> dict:
    contribs, paths, w = _reference_paths(chain, signs, weights)
    ints = np.rint(contribs).astype(np.int64)
    sums = ints[np.arange(ints.shape[0]), paths].sum(axis=1)
    out: dict = {}
    for s, mass in zip(sums.tolist(), w.tolist()):
        out.setdefault(s, []).append(mass)
    return {s: math.fsum(masses) for s, masses in sorted(out.items())}


def _assert_fsum(values, groups=None, n_groups=1):
    """exact_sums agrees with math.fsum per group, signed zeros and raising included."""
    x = np.array(values, dtype=float)
    picks = [x[np.asarray(groups) == g] if groups is not None else x
             for g in range(n_groups)]
    try:
        want = [math.fsum(p.tolist()).hex() for p in picks]
    except OverflowError:
        with pytest.raises(OverflowError):
            exact_sums(x, groups, n_groups)
        return
    assert [v.hex() for v in exact_sums(x, groups, n_groups)] == want


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SPREAD = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-300, 300))
SUBNORMAL = st.floats(-2.3e-308, 2.3e-308)


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(FINITE, SPREAD, SUBNORMAL, st.sampled_from([0.0, -0.0])),
                    max_size=60))
    def test_matches_fsum(self, values):
        with mock.patch.object(oracles, "FSUM_MAX_SIZE", 0):  # every size on arrays
            _assert_fsum(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(SPREAD, SUBNORMAL), min_size=1, max_size=40),
           st.lists(st.one_of(SPREAD, SUBNORMAL, st.just(-0.0)), max_size=5),
           st.randoms(use_true_random=False))
    def test_cancellation_matches_fsum(self, values, extra, rnd):
        pairs = values + [-v for v in values] + extra
        rnd.shuffle(pairs)
        with mock.patch.object(oracles, "FSUM_MAX_SIZE", 0):
            _assert_fsum(pairs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(SPREAD, SUBNORMAL), min_size=1, max_size=60),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_groups_match_fsum_per_group(self, values, n_groups, seed):
        groups = np.random.default_rng(seed).integers(0, n_groups, size=len(values))
        with mock.patch.object(oracles, "FSUM_MAX_SIZE", 0):
            _assert_fsum(values, groups, n_groups)

    def test_large_adversarial_arrays_take_the_array_path(self):
        rng = np.random.default_rng(8)
        for i in range(40):
            size = int(rng.integers(oracles.FSUM_MAX_SIZE + 1, 20_000))
            x = rng.normal(size=size) * np.ldexp(1.0, rng.integers(-300, 301, size=size))
            if i % 4 == 1:
                x[: size // 2] = -x[size // 2: 2 * (size // 2)]  # near-total cancellation
            elif i % 4 == 2:
                x *= 2.0**-760  # down into the subnormals
            elif i % 4 == 3:
                x[rng.random(size) < 0.3] = -0.0
            _assert_fsum(x)

    def test_empty_and_fallbacks(self):
        assert exact_sums(np.array([]))[0].hex() == (0.0).hex()
        for big in (np.full(2000, 1.5e308), np.array([1e308, 1e308, -1e308] + [0.0] * 1200)):
            with pytest.raises(OverflowError):
                exact_sums(big)  # fsum's intermediate overflow, even for a finite sum
        assert math.isinf(exact_sums(np.array([1.0, np.inf] * 600))[0])
        with pytest.raises(ValueError):
            exact_sums(np.array([np.inf, -np.inf] * 600))  # as fsum raises

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(3 * oracles.SUM_SLICE // 2, 3 * oracles.SUM_SLICE),
           st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_slices_match_fsum(self, size, seed, cancel, re_im):
        # 1.5 to 3 slices of mixed exponents with exact zeros, and cancelling
        # pairs: a quarter of the values, or all of them, so that a sum may
        # be an exact zero; one group, or the RE_IM groups of char_fn
        rng = np.random.default_rng(seed)
        x = rng.normal(size=size) * np.ldexp(1.0, rng.integers(-300, 301, size=size))
        x[rng.random(size) < 0.1] = 0.0
        pairs = size // 2 if cancel else size // 4
        x[:pairs] = -x[pairs:2 * pairs]
        if re_im:
            x = rng.permutation(x[:size // 2 * 2].reshape(-1, 2))
            want = [math.fsum(x[:, g].tolist()).hex() for g in range(2)]
            assert [v.hex() for v in exact_sums(x, oracles.RE_IM, 2)] == want
        else:
            _assert_fsum(rng.permutation(x))

    def test_transients_stay_below_a_mebibyte(self):
        # 2^17 values (1 MiB) in 16 slices: every transient array is one
        # slice's
        for x in (np.random.default_rng(3).normal(size=1 << 17),
                  np.random.default_rng(4).normal(size=(1 << 16, 2))):
            groups = (None, 1) if x.ndim == 1 else (oracles.RE_IM, 2)
            tracemalloc.start()
            try:
                exact_sums(x, *groups)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, x.shape


class TestCoordinateTail:
    def test_matches_the_incomplete_beta(self):
        # P[|v_1| >= t] = I_{1-t^2}((d-1)/2, 1/2), scipy's betainc as the oracle
        ts = np.linspace(0.0, 1.0, 41)
        for d in range(2, 65):
            want = betainc((d - 1) / 2.0, 0.5, 1.0 - ts * ts)
            got = np.array([coordinate_tail(d, t) for t in ts.tolist()])
            assert np.abs(got - want).max() <= 1e-14, d

    def test_dimensions_two_and_three_by_hand(self):
        for t in (0.0, 0.3, 0.9, 1.0):
            assert coordinate_tail(2, t) == pytest.approx(1.0 - 2.0 * math.asin(t) / math.pi,
                                                          abs=1e-15)
            assert coordinate_tail(3, t) == 1.0 - t

    @pytest.mark.parametrize("d,t", [(1, 0.5), (3, -0.1), (3, 1.5)])
    def test_rejects_bad_input(self, d, t):
        with pytest.raises(PreconditionViolated):
            coordinate_tail(d, t)


def t_indices_prose(s) -> list[int]:
    """oracles.t_indices' set via the edge-cased prose definition."""
    k = len(s)
    out = []
    for i in range(1, k + 2):
        if i == 1:
            ok = k == 0 or s[0] == 0
        elif i == k + 1:
            ok = s[k - 1] == 0
        else:
            ok = s[i - 1] == 0 and s[i - 2] == 0
        if ok:
            out.append(i)
    return out


class TestIndexConventions:
    def test_padded_and_prose_definitions_coincide(self):
        for k in range(1, 11):
            for s in itertools.product((0, 1), repeat=k):
                assert t_indices(s) == t_indices_prose(s)

    def test_extraction_drops_only_the_left_edge(self):
        for k in range(1, 9):
            for s in itertools.product((0, 1), repeat=k):
                full = set(t_indices(s))
                kept = set(extraction_indices(s))
                assert kept <= full
                assert full - kept <= {1}
                if s and s[0] == 0:
                    assert 1 in full and 1 not in kept

    def test_all_zero_string(self):
        assert t_indices((0, 0, 0)) == [1, 2, 3, 4]
        assert extraction_indices((0, 0, 0)) == [2, 3, 4]

    def test_all_one_string(self):
        assert t_indices((1, 1)) == []
        assert extraction_indices((1, 1)) == []


class TestHolder:
    def test_single_zero_block_equality(self):
        for lam in (0.0, 0.4, 1.0):
            inst = HolderInstance(mu=np.array([0.5, 0.5]), lam=lam,
                                  ts=(np.zeros((2, 2)),),
                                  us=(np.ones(2), np.ones(2)))
            lhs, rhs = oracles.holder_sides([inst])[0]
            assert lhs == pytest.approx(1.0 - lam, abs=1e-14)
            assert rhs == pytest.approx(1.0 - lam, abs=1e-14)

    def test_annihilated_product_at_lambda_one(self):
        inst = HolderInstance(mu=np.array([0.3, 0.7]), lam=1.0,
                              ts=(np.zeros((2, 2)), np.zeros((2, 2))),
                              us=(np.ones(2),) * 3)
        lhs, rhs = oracles.holder_sides([inst])[0]
        assert lhs == 0.0 and rhs == 0.0

    def test_printed_left_edge_convention_is_falsified(self):
        # the recorded counterexample: extracting the mean of the leftmost
        # diagonal underestimates; its L1(mu) norm is what the product keeps
        mu = np.array([0.5, 0.5])
        inst = HolderInstance(mu=mu, lam=0.0, ts=(np.zeros((2, 2)),),
                              us=(np.array([1.0, -1.0]), np.ones(2)))
        lhs, rhs = oracles.holder_sides([inst])[0]
        assert lhs == pytest.approx(1.0, abs=1e-14)  # ||u_1||_L1(mu) = 1
        assert rhs == pytest.approx(1.0, abs=1e-14)  # repaired rhs keeps pace
        printed = (1.0 - inst.lam) * abs(np.dot(inst.us[0], mu)) * abs(
            np.dot(inst.us[1], mu))
        assert printed == 0.0  # the unrepaired term would claim zero

    def test_family_has_no_violations(self):
        for inst in holder_family(777, 120):
            lhs, rhs = oracles.holder_sides([inst])[0]
            assert lhs <= rhs + 1e-9

    def test_rhs_equals_term_by_term_loop_bit_for_bit(self):
        # the loop form before the terms were one array expression: the same
        # factors in the same order, the bits of s, then the extraction indices
        instances = holder_family(20240513, 500)
        assert {inst.k for inst in instances} == set(range(1, 7))
        for inst in instances:
            assert oracles.holder_sides([inst])[0][1].hex() == holder_loop(inst)[1].hex()

    def test_u_norm_precondition(self):
        with pytest.raises(PreconditionViolated):
            HolderInstance(mu=np.array([0.5, 0.5]), lam=0.2,
                           ts=(np.zeros((2, 2)),),
                           us=(np.array([2.0, 0.0]), np.ones(2)))

    def test_budget(self):
        k = 17
        with pytest.raises(BudgetExceeded):
            oracles.holder_sides([HolderInstance(
                mu=np.array([0.5, 0.5]), lam=0.1,
                ts=(np.zeros((2, 2)),) * k, us=(np.ones(2),) * (k + 1))])


class TestAveragingIdentities:
    def test_idempotence_special_case(self):
        mu = np.array([0.2, 0.3, 0.5])
        rep, = oracles.averaging_identity_reports(
            [(mu, [np.ones(3), np.ones(3)], [np.eye(3)], [np.eye(3)])])
        assert rep.averaging_sandwich <= 1e-14  # E_mu^2 = E_mu
        assert rep.passed

    def test_single_matrix_equality(self):
        mu = np.array([0.4, 0.6])
        r = np.array([[1.0, 2.0], [0.5, -1.0]])
        rep, = oracles.averaging_identity_reports([(mu, [np.ones(2), np.ones(2)], [r], [r])])
        assert rep.l1_product <= 1e-14

    def test_passed_reads_the_tolerance_at_call_time(self, monkeypatch):
        rep = oracles.IdentityReport(averaging_sandwich=0.0, l1_product=5e-11,
                                     diagonal_contraction=0.0)
        assert rep.passed
        monkeypatch.setattr(oracles, "IDENTITY_TOL", 1e-11)
        assert not rep.passed

    def test_random_inputs_hold(self):
        for inputs in identity_inputs(31337, 150):
            rep, = oracles.averaging_identity_reports(
                [(inputs["mu"], inputs["us"], inputs["r_mats"], inputs["t_mats"])])
            assert rep.passed, rep


class TestSwitching:
    def test_lambda_zero_is_deterministic(self):
        rep = switching_stats(10, 0.0)
        assert rep.r_plus_one_pmf[10 - 2] == pytest.approx(1.0, abs=1e-14)
        assert rep.dominates

    def test_lambda_one_pins_at_one(self):
        rep = switching_stats(9, 1.0)
        assert rep.r_plus_one_pmf[0] == pytest.approx(1.0, abs=1e-14)
        assert rep.minorant_pmf[0] == pytest.approx(1.0, abs=1e-14)
        assert rep.dominates

    def test_mid_lambda_domination(self):
        rep = switching_stats(10, 0.4)
        assert rep.dominates and rep.worst_margin >= -1e-12
        assert rep.moment_chain_holds

    def test_partial_mask(self):
        mask = np.array([True] * 5 + [False] * 5)
        rep = switching_stats(10, 0.3, mask)
        assert rep.dominates

    def test_mask_hypothesis(self):
        with pytest.raises(HypothesisViolated):
            switching_stats(10, 0.3, np.array([True] * 4 + [False] * 6))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            switching_stats(14, 0.5)

    def test_probabilities_sum_to_one(self):
        for lam in (0.0, 0.3, 0.7, 1.0):
            rep = switching_stats(8, lam)
            assert math.fsum(rep.r_plus_one_pmf.tolist()) == pytest.approx(
                1.0, abs=1e-12)
            assert math.fsum(rep.minorant_pmf.tolist()) == pytest.approx(
                1.0, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 10), st.integers(0, 2**31 - 1))
    def test_domination_with_random_masks(self, n, lam10, seed):
        rng = np.random.default_rng(seed)
        units = int(rng.integers((n + 1) // 2, n + 1))
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=units, replace=False)] = True
        rep = switching_stats(n, lam10 / 10.0, mask)
        assert rep.dominates
        assert rep.moment_chain_holds


# ---------------------------------------------------------------------------
# the batched Holder sides and identity reports against the per-instance
# loops they replaced, kept here as their oracles
# ---------------------------------------------------------------------------


SHAPE_SEEDS = (20240513, 20240514, 777, 31337)


def lp_norm_loop(v, mu, p):
    """One vector's L_p(mu) norm as lp_norm took it before stacks."""
    v = np.asarray(v)
    mu = np.asarray(mu, dtype=float)
    if p == np.inf:
        support = mu > 0
        return float(np.max(np.abs(v[support]))) if support.any() else 0.0
    return float(np.sum(np.abs(v) ** p * mu) ** (1.0 / p))


def holder_loop(inst):
    """Both sides of one splitting instance, one matrix product at a time."""
    e_mu = np.tile(inst.mu, (inst.mu.size, 1))
    w = np.asarray(inst.us[inst.k], dtype=complex)
    for j in range(inst.k - 1, -1, -1):
        block = np.asarray(inst.ts[j], dtype=complex) + (1.0 - inst.lam) * e_mu
        w = np.asarray(inst.us[j], dtype=complex) * (block @ w)
    lhs = lp_norm_loop(w, inst.mu, 1)
    n = inst.mu.size
    t_norms = operator_norm_l2mu(np.reshape(inst.ts, (inst.k, n, n)), inst.mu).tolist()
    u_dots = [abs(np.dot(np.asarray(u, dtype=complex), inst.mu)) for u in inst.us]
    terms = []
    for code in range(2**inst.k):
        s = [(code >> j) & 1 for j in range(inst.k)]
        factor = 1.0
        for j, bit in enumerate(s):
            factor *= t_norms[j] if bit else (1.0 - inst.lam)
        for i in extraction_indices(s):
            factor *= u_dots[i - 1]
        terms.append(factor)
    return lhs, math.fsum(terms)


def identity_loop(mu, us, r_mats, t_mats):
    """The three identity violations of one input set, matrix by matrix."""
    mu = np.asarray(mu, dtype=float)
    e_mu = np.tile(mu, (mu.size, 1))
    u0 = np.asarray(us[0], dtype=complex)
    sandwich = float(np.max(np.abs(e_mu @ np.diag(u0) @ e_mu - np.dot(u0, mu) * e_mu)))
    w = np.asarray(r_mats[-1], dtype=float) @ np.ones(mu.size)
    bound = lp_norm_loop(w, mu, 1)
    for r in reversed(r_mats[:-1]):
        r = np.asarray(r, dtype=float)
        w = r @ (e_mu @ w)
        bound *= lp_norm_loop(r @ np.ones(mu.size), mu, 1)
    l1_product = max(0.0, lp_norm_loop(w, mu, 1) - bound)
    ts = np.asarray(t_mats, dtype=complex).reshape(len(t_mats), mu.size, mu.size)
    t_norms = operator_norm_l2mu(ts, mu).tolist()
    w = np.asarray(us[len(t_mats)], dtype=complex).copy()
    bound = 1.0
    for j in range(len(t_mats) - 1, -1, -1):
        w = np.asarray(us[j], dtype=complex) * (ts[j] @ w)
        bound *= t_norms[j]
    return sandwich, l1_product, max(0.0, lp_norm_loop(w, mu, 1) - bound)


def holder_shape_instances(rng):
    """One splitting instance of every (N, k) with N in 2..8 and k in 1..6, a
    complex-T one beside each real one, so no shape is missed by the family."""
    out = []
    for n in range(2, 9):
        chain = random_reversible_chain(rng, n)
        lam = spectral_lambda(chain)
        t = chain.transition - (1.0 - lam) * averaging_operator(chain.stationary)
        for k in range(1, 7):
            us = tuple(np.exp(2j * np.pi * rng.uniform(size=n)) * rng.uniform(0.5, 1.0)
                       for _ in range(k + 1))
            out.append(HolderInstance(mu=chain.stationary, lam=lam, ts=(t,) * k, us=us))
            out.append(HolderInstance(mu=chain.stationary, lam=lam, us=us,
                                      ts=tuple(t + 0.1j * rng.normal(size=(n, n))
                                               for _ in range(k))))
    return out


def identity_shape_inputs(rng):
    """One identity input set of every (N, k) with N in 2..8 and k in 1..6."""
    out = []
    for n in range(2, 9):
        for k in range(1, 7):
            out.append((rng.dirichlet(np.ones(n)),
                        np.exp(2j * np.pi * rng.uniform(size=(k + 1, n)))
                        * rng.uniform(0.5, 1.0, size=(k + 1, n)),
                        list(rng.normal(size=(k, n, n))), list(rng.normal(size=(k, n, n)))))
    return out


def _hex_pairs(pairs):
    return [tuple(x.hex() for x in pair) for pair in pairs]


def _hex_reports(reports):
    return [(r.averaging_sandwich.hex(), r.l1_product.hex(), r.diagonal_contraction.hex())
            for r in reports]


class TestBatchedOracles:
    @pytest.mark.parametrize("seed", SHAPE_SEEDS)
    def test_holder_sides_equal_the_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        # the shape instances first and last, so groups hold members far apart
        extra = holder_shape_instances(rng)
        instances = extra[::2] + holder_family(seed, 300) + extra[1::2]
        assert {(i.mu.size, i.k) for i in instances} == set(
            itertools.product(range(2, 9), range(1, 7)))
        got = oracles.holder_sides(instances)
        assert _hex_pairs(got) == _hex_pairs(map(holder_loop, instances))
        # a batch of one gives the same bits
        for inst, pair in zip(instances[::37], got[::37]):
            assert _hex_pairs(oracles.holder_sides([inst])) == _hex_pairs([pair])

    @pytest.mark.parametrize("seed", SHAPE_SEEDS)
    def test_identity_reports_equal_the_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        members = [(d["mu"], d["us"], d["r_mats"], d["t_mats"])
                   for d in identity_inputs(seed, 300)] + identity_shape_inputs(rng)
        assert {(np.size(m[0]), len(m[3])) for m in members} == set(
            itertools.product(range(2, 9), range(1, 7)))
        got = oracles.averaging_identity_reports(members)
        want = [identity_loop(*m) for m in members]
        assert _hex_reports(got) == [tuple(x.hex() for x in w) for w in want]
        for m, rep in zip(members[::37], got[::37]):
            assert _hex_reports(oracles.averaging_identity_reports([m])) == _hex_reports([rep])

    def test_identity_inputs_draw_the_stacked_stream(self):
        # N and k for the whole family, then for each state count, in
        # increasing N, one stack each of laws, phases and moduli, and
        # matrices; every instance reads the first k + 1 vectors and k matrices
        count = 200
        for seed in SHAPE_SEEDS:
            got = identity_inputs(seed, count)
            rng = np.random.default_rng(seed)
            ns = rng.integers(2, 9, size=count).tolist()
            ks = rng.integers(1, 6, size=count).tolist()
            for n in sorted(set(ns)):
                members = [i for i in range(count) if ns[i] == n]
                mus = rng.dirichlet(np.ones(n), size=len(members))
                x = rng.random((len(members), 6, 2, n))
                mats = rng.normal(size=(len(members), 2, 5, n, n))
                for b, i in enumerate(members):
                    k = ks[i]
                    us = [np.exp(2j * np.pi * x[b, j, 0]) * (0.5 + 0.5 * x[b, j, 1])
                          for j in range(k + 1)]
                    assert got[i]["mu"].tobytes() == mus[b].tobytes()
                    assert np.asarray(got[i]["us"]).tobytes() == np.array(us).tobytes()
                    assert np.asarray(got[i]["r_mats"]).tobytes() == mats[b, 0, :k].tobytes()
                    assert np.asarray(got[i]["t_mats"]).tobytes() == mats[b, 1, :k].tobytes()

    @pytest.mark.parametrize("p", [1, 2, 3, 2.5, np.inf])
    def test_stacked_lp_norms_equal_one_vector_norms_bit_for_bit(self, p):
        rng = np.random.default_rng(40)
        for n in range(1, 9):
            mu = rng.dirichlet(np.ones(n), size=300)
            mu[::7, 0] = 0.0  # states outside the support
            real = rng.normal(size=(300, n)) * rng.uniform(0.1, 10.0, size=(300, 1))
            for v in (real, real + 1j * rng.normal(size=(300, n))):
                got = lp_norm(v, mu, p)
                assert got.shape == (300,)
                want = [lp_norm_loop(row, m, p).hex() for row, m in zip(v, mu)]
                assert [x.hex() for x in got.tolist()] == want
                assert [lp_norm(row, m, p).hex() for row, m in zip(v, mu)] == want
                # one law broadcast against a stack of vectors
                assert [x.hex() for x in lp_norm(v, mu[0], p).tolist()] == [
                    lp_norm_loop(row, mu[0], p).hex() for row in v]

    def test_a_broken_sup_norm_inside_a_batch_raises_the_lone_message(self):
        rng = np.random.default_rng(3)
        members = identity_shape_inputs(rng)
        a, b = 20, 37  # shapes (N, k) = (5, 3) and (8, 2)
        members[a] = (members[a][0], 1.5 * members[a][1]) + members[a][2:]
        members[b] = (members[b][0], 2.0 * members[b][1]) + members[b][2:]
        # a good member of b's shape first, so b's group is stacked before a's
        members.insert(0, identity_shape_inputs(rng)[b])
        with pytest.raises(PreconditionViolated) as lone:
            oracles.averaging_identity_reports([members[a + 1]])
        with pytest.raises(PreconditionViolated) as batch:
            oracles.averaging_identity_reports(members)
        assert str(batch.value) == str(lone.value)
        with pytest.raises(PreconditionViolated) as other:
            oracles.averaging_identity_reports([members[b + 1]])
        assert str(other.value) != str(lone.value)

    def test_breaches_are_found_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work began before every precondition was checked")

        monkeypatch.setattr(oracles, "averaging_operator", no_work)
        monkeypatch.setattr(oracles, "operator_norm_l2mu", no_work)
        rng = np.random.default_rng(4)
        members = identity_shape_inputs(rng)
        members[-1] = (members[-1][0], 3.0 * members[-1][1]) + members[-1][2:]
        with pytest.raises(PreconditionViolated, match=r"\|\|u_0\|\|_inf"):
            oracles.averaging_identity_reports(members)
        instances = holder_shape_instances(rng)
        k = 17
        instances.append(HolderInstance(mu=np.array([0.5, 0.5]), lam=0.1,
                                        ts=(np.zeros((2, 2)),) * k,
                                        us=(np.ones(2),) * (k + 1)))
        with pytest.raises(BudgetExceeded, match="k = 17"):
            oracles.holder_sides(instances)
