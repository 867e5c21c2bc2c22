import hashlib
import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from scipy.special import beta, betainc

from conftest import balanced_signs, ones_weights
from smallball import sampling
from smallball.chains import (
    make_independent_chain,
    make_sign_system,
    make_two_state_chain,
    make_weight_system,
)
from smallball.errors import DimensionMismatch, OutOfRange, UnsupportedDimension
from smallball.families import random_reversible_chain
from smallball.rngstreams import uniforms
from smallball.sampling import CHUNK, first_coord_tail, sample_signs, smallball_mc
from smallball.transfer import exact_sum_distribution, smallball_exact

# CHUNK + 3 samples cross one chunk edge
PINNED_COUNT = CHUNK + 3


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_instance(n_states, kind, n=24):
    """Seeded chain, +-1 signs and unit, real or unit-vector (d = 2) weights."""
    rng = np.random.default_rng(1000 + n_states)
    chain = random_reversible_chain(rng, n_states)
    signs = make_sign_system(rng.choice([-1, 1], size=(n, n_states)),
                             chain.stationary)
    if kind == "unit":
        w = np.ones(n)
    elif kind == "real":
        w = rng.uniform(1.0, 3.0, n)
    else:
        v = rng.normal(size=(n, 2))
        w = v / np.linalg.norm(v, axis=1, keepdims=True)
    return chain, signs, make_weight_system(w)


def _no_draws(*args, **kwargs):
    raise AssertionError("sampling started before the inputs were checked")


class TestSampleSigns:
    def test_alternating_chain_alternates(self):
        chain = make_two_state_chain(1.0)
        eps = sample_signs(chain, balanced_signs(chain, 6), 200, seed=4)
        assert set(np.unique(eps)) <= {-1, 1}
        diffs = eps[:, 1:] * eps[:, :-1]
        assert np.all(diffs == -1)

    def test_independent_mean_matches_balance(self):
        mu = [0.3, 0.7]
        chain = make_independent_chain(mu)
        signs = make_sign_system([[1, -1]], mu)  # imbalance -0.4, deliberately
        count = 40000
        eps = sample_signs(chain, signs, count, seed=9)
        assert abs(eps[:, 0].mean() - signs.balances[0]) <= 4 / math.sqrt(count)

    def test_two_state_pair_agreement_rate(self, two_state_03):
        count = 50000
        eps = sample_signs(two_state_03, balanced_signs(two_state_03, 2), count,
                           seed=13)
        agree = np.mean(eps[:, 0] == eps[:, 1])
        # staying probability is (1 - lambda)/2 * 2 states = 0.35
        assert abs(agree - 0.35) <= 4 * math.sqrt(0.35 * 0.65 / count)

    def test_pinned_digest(self):
        chain, signs, _ = pinned_instance(4, "unit")
        eps = sample_signs(chain, signs, PINNED_COUNT, seed=11)
        assert sha256(eps.tobytes()) == (
            "dd9aca4ef5e8b94326f4f0bf596f15c9cdfedb9bc4d227c40d0728d610d606a0")

    @pytest.mark.parametrize("chain", [
        random_reversible_chain(np.random.default_rng(5), 4),
        # ten masses of 0.1 accumulate to 0.9999999999999999: the clamp case
        make_independent_chain([0.1] * 10),
    ])
    def test_rows_follow_a_pure_python_walk(self, chain):
        n, seed, last = 12, 3, chain.n_states - 1
        signs = make_sign_system(
            np.random.default_rng(6).choice([-1, 1], size=(n, chain.n_states)),
            chain.stationary)
        eps = sample_signs(chain, signs, PINNED_COUNT, seed=seed)
        cum_mu = list(accumulate(chain.stationary.tolist()))
        cum_rows = [list(accumulate(row)) for row in chain.transition.tolist()]
        for stream in (0, 1, 7, CHUNK - 1, CHUNK, CHUNK + 2):
            u = uniforms(seed, stream, 0, n).tolist()
            y = min(bisect_right(cum_mu, u[0]), last)
            path = [y]
            for x in u[1:]:
                y = min(bisect_right(cum_rows[y], x), last)
                path.append(y)
            expect = [int(signs.functions[j, y]) for j, y in enumerate(path)]
            assert eps[stream].tolist() == expect

    def test_deterministic_in_seed(self, two_state_03):
        a = sample_signs(two_state_03, balanced_signs(two_state_03, 5), 100, seed=1)
        b = sample_signs(two_state_03, balanced_signs(two_state_03, 5), 100, seed=1)
        c = sample_signs(two_state_03, balanced_signs(two_state_03, 5), 100, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSmallballMc:
    def test_alternating_even_sum_is_always_zero(self):
        chain = make_two_state_chain(1.0)
        est = smallball_mc(chain, balanced_signs(chain, 6), ones_weights(6),
                           0.0, 0.5, 2000, seed=3)
        assert est.estimate == 1.0

    def test_zero_radius_generic_weights_never_hits(self, two_state_03):
        w = make_weight_system([math.pi, math.e, math.sqrt(2)])
        est = smallball_mc(two_state_03, balanced_signs(two_state_03, 3), w,
                           0.1234, 0.0, 2000, seed=3)
        assert est.estimate == 0.0

    def test_serialization_is_bit_stable(self, two_state_03):
        args = (two_state_03, balanced_signs(two_state_03, 4), ones_weights(4),
                0.0, 1.0, 5000)
        a = smallball_mc(*args, seed=42).serialize()
        b = smallball_mc(*args, seed=42).serialize()
        assert a.encode() == b.encode()

    def test_ci_orders(self, two_state_03):
        est = smallball_mc(two_state_03, balanced_signs(two_state_03, 4),
                           ones_weights(4), 0.0, 1.0, 3000, seed=5)
        assert 0.0 <= est.ci_low <= est.estimate <= est.ci_high <= 1.0

    def test_negative_radius_rejected(self, two_state_03):
        with pytest.raises(OutOfRange):
            smallball_mc(two_state_03, balanced_signs(two_state_03, 2),
                         ones_weights(2), 0.0, -1.0, 10, seed=0)

    def test_center_of_wrong_dimension_rejected_before_sampling(
            self, uniform_independent, monkeypatch):
        monkeypatch.setattr(sampling, "uniform_block", _no_draws)
        w = make_weight_system([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DimensionMismatch, match="3 coordinates"):
            smallball_mc(uniform_independent, balanced_signs(uniform_independent, 2),
                         w, [0.0, 0.0, 0.0], 1.0, 10, seed=0)

    def test_step_count_mismatch_rejected_before_sampling(self, two_state_03,
                                                          monkeypatch):
        monkeypatch.setattr(sampling, "uniform_block", _no_draws)
        with pytest.raises(DimensionMismatch,
                           match="3 sign functions vs 4 weights"):
            smallball_mc(two_state_03, balanced_signs(two_state_03, 3),
                         ones_weights(4), 0.0, 1.0, 10, seed=0)

    @pytest.mark.parametrize("chain_states,sign_states", [(4, 2), (2, 4)])
    def test_sign_state_count_mismatch_rejected_before_sampling(
            self, chain_states, sign_states, monkeypatch):
        monkeypatch.setattr(sampling, "uniform_block", _no_draws)
        chain = make_independent_chain(np.full(chain_states, 1.0 / chain_states))
        other = make_independent_chain(np.full(sign_states, 1.0 / sign_states))
        signs = balanced_signs(other, 3)
        match = f"sign functions cover {sign_states} states, chain has {chain_states}"
        with pytest.raises(DimensionMismatch, match=match):
            smallball_mc(chain, signs, ones_weights(3), 0.0, 1.0, 10, seed=0)
        with pytest.raises(DimensionMismatch, match=match):
            sample_signs(chain, signs, 10, seed=0)

    @pytest.mark.parametrize("n_states,kind,x0,radius,digest", [
        (2, "unit", 0.0, 2.0,
         "4c854c06ffd880802ba5ff868f1308be18fca5c80fb47a107c33756303708147"),
        (2, "real", 1.0, 3.0,
         "40934648c9e09d45800152f08765b4e5ac18c61121036535d090e1e30ac351f8"),
        (2, "d2", [0.5, -0.5], 2.5,
         "ca863ac98e3c5e465b080103a4e2b0e0055d2493f6e55cea2cd267874c7ba62c"),
        (4, "unit", 0.0, 2.0,
         "060ccdd67302238c556f13228a3e2bbdfd2ba0ba446b15ff46579bf01750f9c2"),
        (4, "real", 1.0, 3.0,
         "c547a2621fd8dde129d00ee50f0995c707edbf1a0770bc9cfcbb48013fa6f25c"),
        (4, "d2", [0.5, -0.5], 2.5,
         "ef5dcbfd350857f5aebec2e1fd7e7ad967ad83c37579051930fbe768af2cb273"),
        (16, "unit", 0.0, 2.0,
         "8d9919702e7df613186210dfa376087ab91c024bb527285154f631606e856b6b"),
        (16, "real", 1.0, 3.0,
         "3d9e71c81d8efed7d327e330bcf518e5d0463f59185d34ce853bcbd0e6bfbc92"),
        (16, "d2", [0.5, -0.5], 2.5,
         "406a265cddab3904d8e1cb1381b604a6a820a301be45f741ee92b885c7377a3d"),
    ])
    def test_pinned_estimates(self, n_states, kind, x0, radius, digest):
        # serialize() digests recorded before the step-major sampler
        chain, signs, weights = pinned_instance(n_states, kind)
        est = smallball_mc(chain, signs, weights, x0, radius, PINNED_COUNT,
                           seed=n_states)
        assert sha256(est.serialize().encode()) == digest

    @pytest.mark.parametrize("lam,n,x0,radius", [
        (0.0, 6, 0.0, 1.0), (0.3, 5, 1.0, 1.0), (0.6, 4, 0.0, 0.0),
    ])
    def test_ci_coverage_against_exact_dp(self, lam, n, x0, radius):
        chain = make_two_state_chain(lam)
        signs = balanced_signs(chain, n)
        weights = ones_weights(n)
        dist = exact_sum_distribution(chain, signs, weights)
        truth = smallball_exact(dist, x0, radius)
        covered = sum(
            smallball_mc(chain, signs, weights, x0, radius, 10000,
                         seed=s).covers(truth)
            for s in range(100))
        assert covered >= 98

    def test_multidimensional_ball(self, uniform_independent):
        # two orthogonal unit vectors: sum lands on the lattice (a, b),
        # |a|=|b|=... window radius sqrt(2) catches the four corners
        w = make_weight_system([[1.0, 0.0], [0.0, 1.0]])
        signs = balanced_signs(uniform_independent, 2)
        est = smallball_mc(uniform_independent, signs, w, [0.0, 0.0],
                           math.sqrt(2) + 1e-9, 4000, seed=8)
        assert est.estimate == 1.0
        est2 = smallball_mc(uniform_independent, signs, w, [0.0, 0.0], 1.0,
                            4000, seed=8)
        assert est2.estimate == 0.0


class TestFirstCoordTail:
    def test_dimension_three_is_uniform(self):
        assert first_coord_tail(3, 0.5) == pytest.approx(0.5, abs=1e-10)
        for t in (0.1, 0.25, 0.8):
            assert first_coord_tail(3, t) == pytest.approx(1 - t, abs=1e-10)

    def test_dimension_two_arcsine(self):
        assert first_coord_tail(2, math.sqrt(2) / 2) == pytest.approx(0.5,
                                                                      abs=1e-10)
        for t in (0.2, 0.6, 0.9):
            expect = 1 - (2 / math.pi) * math.asin(t)
            assert first_coord_tail(2, t) == pytest.approx(expect, abs=1e-10)

    def test_against_incomplete_beta(self):
        # P[|v_1| <= t] is the regularized incomplete beta I_{t^2}(1/2, (d-1)/2)
        for d in (2, 4, 7, 16, 33):
            for t in (0.15, 0.4, 0.75):
                expect = 1.0 - betainc(0.5, (d - 1) / 2.0, t * t)
                assert first_coord_tail(d, t) == pytest.approx(expect, abs=1e-10)

    def test_closed_form_up_to_dimension_64(self):
        # P[|v_1| >= t] = I_{1-t^2}((d-1)/2, 1/2); upper and total are each
        # integrated to 1e-12, so their ratio may be off by 2e-12 / total,
        # total = integral of cos^(d-2) over [0, pi/2] = B((d-1)/2, 1/2) / 2
        ts = np.linspace(0.0, 1.0, 41)
        for d in range(2, 65):
            allowed = 2e-12 / (beta((d - 1) / 2.0, 0.5) / 2.0)
            expect = betainc((d - 1) / 2.0, 0.5, 1.0 - ts * ts)
            for t, want in zip(ts.tolist(), expect.tolist()):
                assert abs(first_coord_tail(d, t) - want) <= allowed, (d, t)

    def test_endpoints(self):
        assert first_coord_tail(5, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert first_coord_tail(5, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_one_dimension_special_case(self):
        assert first_coord_tail(1, 0.7) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(UnsupportedDimension):
            first_coord_tail(0, 0.5)
        with pytest.raises(OutOfRange):
            first_coord_tail(3, 1.5)

    @pytest.mark.parametrize("d", [2, 3, 8, 32])
    def test_mc_agrees_with_exact(self, d):
        t = 1.0 / (2 * math.sqrt(d))
        exact = first_coord_tail(d, t)
        est = first_coord_tail(d, t, mode="mc", samples=120_000, seed=21)
        assert est.covers(exact)

    @pytest.mark.parametrize("d,t,digest", [
        (2, 0.3, "bbc51c9633497c18e84dddbfac02335a8db90c6f454c1a93a73a108b1c584669"),
        (5, 0.3, "e3e9b993ee9fa92c41300bfb2fe12101a6b8cabf6a7b815e63b14112238a88d6"),
        (32, 0.1, "dcb44b26c68b64d18fa1f4e82f14f523004ba564dd1e5c7f2778dc14d65d28b2"),
    ])
    def test_mc_pinned_estimates(self, d, t, digest):
        # serialize() digests recorded before the step-major block
        est = first_coord_tail(d, t, mode="mc", samples=PINNED_COUNT, seed=d)
        assert sha256(est.serialize().encode()) == digest

    def test_committed_constant_clears_half(self, constants):
        c = constants["C_coord"].value
        for d in (2, 3, 5, 9, 17, 33, 64):
            assert first_coord_tail(d, 1.0 / (c * math.sqrt(d))) >= 0.5


def test_highdim_bound_dominates_mc_estimates(constants, two_state_03):
    # vector weights: the d-dimensional window probability is estimated by
    # sampling and must sit below the scalar-reduction bound formula
    from smallball.bounds import theorem_bound
    from smallball.chains import spectral_lambda

    rng = np.random.default_rng(77)
    for d in (2, 3):
        n = 36
        v = rng.normal(size=(n, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        weights = make_weight_system(v, "at-least-unit")
        signs = balanced_signs(two_state_03, n)
        est = smallball_mc(two_state_03, signs, weights, np.zeros(d), 1.0,
                           50_000, seed=d)
        bound = theorem_bound("highdim", {
            "n": n, "d": d, "R": 1.0, "lam": spectral_lambda(two_state_03)},
            constants)
        assert est.ci_high <= bound
