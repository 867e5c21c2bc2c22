import hashlib
import math
import tracemalloc
import warnings
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from scipy import stats
from scipy.special import beta, betainc, betaincinv

from conftest import balanced_signs, ones_weights, serialize
from smallball import bounds, sampling
from smallball.chains import (
    make_independent_chain,
    make_sign_system,
    make_two_state_chain,
    make_weight_system,
)
from smallball.errors import (
    BudgetExceeded,
    DimensionMismatch,
    OutOfRange,
    UnsupportedDimension,
)
from smallball.families import random_reversible_chain
from smallball.quadrature import adaptive_simpson
from smallball.rngstreams import uniforms
from smallball.sampling import (
    CHUNK,
    first_coord_tails,
    sample_signs,
    smallball_mc,
)
from smallball.transfer import exact_sum_distribution, smallball_exact

# CHUNK + 3 samples cross one chunk edge
PINNED_COUNT = CHUNK + 3


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def coordinate_median(d):
    """Median of |v_1| for a uniform unit vector in R^d, d >= 2 (elementwise
    over an array of d): v_1^2 ~ Beta(1/2, (d-1)/2)."""
    return np.sqrt(betaincinv(0.5, (np.asarray(d) - 1) / 2.0, 0.5))


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


# cumulative cuts on cell edges, one double below one, and one uniform below one
EDGE_CHAINS = [
    make_independent_chain([0.5, 0.5]),
    make_independent_chain([0.25] * 4),
    make_independent_chain([np.nextafter(0.5, 0.0), 0.5]),
    make_independent_chain([0.5 - 2.0**-53, 0.5 + 2.0**-53]),
]


def python_path(chain, seed, stream, n):
    """The states of one sample, walked in pure Python: bisect on cumulative rows."""
    last = chain.n_states - 1
    cum_mu = list(accumulate(chain.stationary.tolist()))
    cum_rows = [list(accumulate(row)) for row in chain.transition.tolist()]
    u = uniforms(seed, stream, 0, n).tolist()
    y = min(bisect_right(cum_mu, u[0]), last)
    path = [y]
    for x in u[1:]:
        y = min(bisect_right(cum_rows[y], x), last)
        path.append(y)
    return path


def _words_at(grid: list) -> np.ndarray:
    """step_words' words whose uniforms are t * 2^-53: the finalized words
    t * 2^11 plus junk in the 11 low bits, taken back through the
    finalizer's last xor-shift z ^= z >> 31 by its inverse."""
    final = (np.array(grid, dtype=np.uint64) << np.uint64(11)) | np.uint64(0x5A5)
    return final ^ (final >> np.uint64(31)) ^ (final >> np.uint64(62))


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
        assert abs(eps[:, 0].mean() + 0.4) <= 4 / math.sqrt(count)

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
        *EDGE_CHAINS,
        # so many states that the table budget leaves few cell bits
        random_reversible_chain(np.random.default_rng(600), 600),
    ])
    def test_rows_follow_a_pure_python_walk(self, chain):
        n, seed = 37, 3
        signs = make_sign_system(
            np.random.default_rng(6).choice([-1, 1], size=(n, chain.n_states)),
            chain.stationary)
        eps = sample_signs(chain, signs, PINNED_COUNT, seed=seed)
        for stream in (0, 1, 7, CHUNK - 1, CHUNK, CHUNK + 2):
            path = python_path(chain, seed, stream, n)
            expect = [int(signs.functions[j, y]) for j, y in enumerate(path)]
            assert eps[stream].tolist() == expect

    def test_zero_cell_bits_keep_the_digest(self, monkeypatch):
        # one cell per row: every lane of a row with two successors counts
        monkeypatch.setattr(sampling, "_cell_bits", lambda rows: 0)
        self.test_pinned_digest()

    def test_fewer_cell_bits_for_many_states(self):
        many = sampling._InverseCdf(random_reversible_chain(np.random.default_rng(600), 600))
        few = sampling._InverseCdf(random_reversible_chain(np.random.default_rng(5), 4))
        assert 0 < many.bits < few.bits
        assert many.table.nbytes <= sampling.CELL_TABLE_BUDGET
        assert few.table.nbytes <= sampling.CELL_TABLE_BUDGET

    @pytest.mark.parametrize("chain", [
        random_reversible_chain(np.random.default_rng(5), 4),
        make_independent_chain([0.1] * 10),
        *EDGE_CHAINS,
    ])
    def test_cuts_and_cell_edges_follow_bisect(self, chain, monkeypatch):
        # words on every cumulative cut and cell edge and one uniform either
        # side: step 0 probes the stationary row, step 1 the row of a state
        # reached at step 0
        table = sampling._InverseCdf(chain)
        grid_top, last = (1 << 53) - 1, chain.n_states - 1
        cum_mu = list(accumulate(chain.stationary.tolist()))
        cum_rows = [list(accumulate(row)) for row in chain.transition.tolist()]

        def probes(cum):
            marks = [math.floor(c * 2.0**53) for c in cum[:last]]
            marks += [j << (53 - table.bits) for j in range(1 << table.bits)]
            return sorted({min(max(t + d, 0), grid_top)
                           for t in marks for d in (-1, 0, 1)} | {grid_top})

        def state(cum, t):
            return min(bisect_right(cum, t * 2.0**-53), last)

        first = probes(cum_mu)
        second = [0] * len(first)
        for y, row in enumerate(cum_rows):
            reach = [t for t in probes(cum_mu) if state(cum_mu, t) == y]
            if reach:  # a state of zero stationary mass is never entered
                first += [reach[0]] * len(probes(row))
                second += probes(row)
        expect = np.array([[state(cum_mu, a), state(cum_rows[state(cum_mu, a)], b)]
                           for a, b in zip(first, second)])
        words = [_words_at(first), _words_at(second)]
        monkeypatch.setattr(sampling, "step_words", lambda *args: iter(words))
        out = np.stack([state.copy() for state in
                        table.states(np.arange(len(first)), 0, 2)], axis=1)
        assert np.array_equal(out, expect)

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
        a = serialize(smallball_mc(*args, seed=42))
        b = serialize(smallball_mc(*args, seed=42))
        assert a.encode() == b.encode()

    def test_ci_orders(self, two_state_03):
        est = smallball_mc(two_state_03, balanced_signs(two_state_03, 4),
                           ones_weights(4), 0.0, 1.0, 3000, seed=5)
        assert 0.0 <= est.ci_low <= est.estimate <= est.ci_high <= 1.0

    @pytest.mark.parametrize("count", [0, -1])
    def test_no_samples_rejected(self, two_state_03, count):
        with pytest.raises(OutOfRange, match="at least one sample"):
            smallball_mc(two_state_03, balanced_signs(two_state_03, 2),
                         ones_weights(2), 0.0, 1.0, count, seed=0)

    def test_negative_radius_rejected(self, two_state_03):
        with pytest.raises(OutOfRange):
            smallball_mc(two_state_03, balanced_signs(two_state_03, 2),
                         ones_weights(2), 0.0, -1.0, 10, seed=0)

    @pytest.mark.parametrize("x0, radius", [(np.nan, 1.0), (0.0, np.nan), (np.inf, 1.0),
                                            (0.0, np.inf), ([np.nan], 1.0)])
    def test_non_finite_window_rejected(self, two_state_03, x0, radius):
        with pytest.raises(OutOfRange):
            smallball_mc(two_state_03, balanced_signs(two_state_03, 2),
                         ones_weights(2), x0, radius, 10, seed=0)

    @pytest.mark.parametrize("x0, radius", [(1e200, 1e200), (1e308, 1e308),
                                            (-1e308, 1e308),
                                            (np.float64(1e308), np.float64(1e308))])
    def test_windows_whose_ends_overflow(self, two_state_03, x0, radius):
        # x0 + radius is 2e200 or +-inf, and so may x0 - radius: no end may be
        # rounded to an integer unclipped, and no distance may be squared
        signs, weights = balanced_signs(two_state_03, 4), ones_weights(4)
        law = exact_sum_distribution(two_state_03, signs, weights)
        covered = law.support() >= 0 if x0 > 0 else law.support() <= 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = smallball_exact(law, x0, radius)
            est = smallball_mc(two_state_03, signs, weights, x0, radius, 20_000, seed=7)
        assert exact == math.fsum(law.masses[covered].tolist())
        assert est.ci_low <= exact <= est.ci_high

    def test_steps_budget_refused_before_sampling(self, two_state_03, monkeypatch):
        # 4 steps: 250 samples fill a budget of 1000 steps, 251 exceed it
        monkeypatch.setattr(sampling, "MC_STEP_BUDGET", 1000)
        args = (two_state_03, balanced_signs(two_state_03, 4), ones_weights(4), 0.0, 1.0)
        assert smallball_mc(*args, 250, seed=0).samples == 250
        monkeypatch.setattr(sampling, "step_words", _no_draws)
        with pytest.raises(BudgetExceeded, match="MC needs 1004 steps, budget is 1000"):
            smallball_mc(*args, 251, seed=0)

    def test_steps_budget_admits_the_runs_on_record(self):
        # large-n's Monte Carlo (1e5 samples of 256 steps) and sampled walks
        # (1e6 walks of 32 blocks), and the CLI's default 100,000 samples up
        # to n = 10,000
        for samples, steps in ((100_000, 256), (1_000_000, 32), (100_000, 10_000)):
            assert sampling.mc_steps(samples, steps) == samples * steps

    def test_center_of_wrong_dimension_rejected_before_sampling(
            self, uniform_independent, monkeypatch):
        monkeypatch.setattr(sampling, "step_words", _no_draws)
        w = make_weight_system([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DimensionMismatch, match="3 coordinates"):
            smallball_mc(uniform_independent, balanced_signs(uniform_independent, 2),
                         w, [0.0, 0.0, 0.0], 1.0, 10, seed=0)

    def test_step_count_mismatch_rejected_before_sampling(self, two_state_03,
                                                          monkeypatch):
        monkeypatch.setattr(sampling, "step_words", _no_draws)
        with pytest.raises(DimensionMismatch,
                           match="3 sign functions vs 4 weights"):
            smallball_mc(two_state_03, balanced_signs(two_state_03, 3),
                         ones_weights(4), 0.0, 1.0, 10, seed=0)

    def test_tables_refused_before_sampling(self, monkeypatch):
        # 8 bytes x 24 steps x (1 + 4 + 4) table entries at 4 states, d = 1
        monkeypatch.setattr(sampling, "step_words", _no_draws)
        monkeypatch.setattr(sampling, "MC_TABLE_BUDGET", 1727)
        chain, signs, weights = pinned_instance(4, "unit")
        with pytest.raises(BudgetExceeded, match="MC tables need 1728 bytes, budget is 1727"):
            smallball_mc(chain, signs, weights, 0.0, 2.0, 10, seed=0)

    @pytest.mark.parametrize("chain_states,sign_states", [(4, 2), (2, 4)])
    def test_sign_state_count_mismatch_rejected_before_sampling(
            self, chain_states, sign_states, monkeypatch):
        monkeypatch.setattr(sampling, "step_words", _no_draws)
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
         "ff55cef544522bce00ea827a2b2ec43d49815f6e16504fd9e22054ad9dfa67e8"),
        (2, "real", 1.0, 3.0,
         "58513de41effe8498bd301b4714d60cb1c3421270e7c00b2c33d107ba7f4bd3b"),
        (2, "d2", [0.5, -0.5], 2.5,
         "ca863ac98e3c5e465b080103a4e2b0e0055d2493f6e55cea2cd267874c7ba62c"),
        (4, "unit", 0.0, 2.0,
         "3a51ae719b7f081cda28f3b0a4360da47f4794c4badb5f5e32887b36a00a6943"),
        (4, "real", 1.0, 3.0,
         "d80f4074fb49981717463b9e1639de25dd6be006c37e870140f5211a2d1f43a3"),
        (4, "d2", [0.5, -0.5], 2.5,
         "3f854f87a274ebac7d391ec8572ffd359d9397c1be94f6fad20e5409f36f68b0"),
        (16, "unit", 0.0, 2.0,
         "de878f6a8075115125f3c8ef81ad9c74930c35743b8f9d9d4986b62344b01390"),
        (16, "real", 1.0, 3.0,
         "3d9e71c81d8efed7d327e330bcf518e5d0463f59185d34ce853bcbd0e6bfbc92"),
        (16, "d2", [0.5, -0.5], 2.5,
         "55f7dcb8d07f612593264471d333ae6f7a456bcf07aac1dd9047072bcb2fb879"),
    ])
    def test_pinned_estimates(self, n_states, kind, x0, radius, digest):
        # serialize digests re-pinned when the interval ends moved off scipy's
        chain, signs, weights = pinned_instance(n_states, kind)
        est = smallball_mc(chain, signs, weights, x0, radius, PINNED_COUNT,
                           seed=n_states)
        assert sha256(serialize(est).encode()) == digest

    def test_memory_stays_within_one_sign_matrix(self):
        # one chunk's float signs would be 8 n CHUNK bytes; the sums are taken
        # step by step, so the peak is a few step-sized buffers (measured
        # 10.5 and 11.9 x 8 CHUNK bytes) at every n
        for n in (256, 4096):
            chain, signs, weights = pinned_instance(4, "unit", n=n)
            tracemalloc.start()
            try:
                smallball_mc(chain, signs, weights, 0.0, 2.0, PINNED_COUNT, seed=4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 8 * CHUNK, n

    @pytest.mark.parametrize("n_states", [2, 4, 16])
    @pytest.mark.parametrize("kind", ["real", "d2"])
    def test_sums_follow_a_pure_python_walk_in_step_order(self, n_states, kind,
                                                          monkeypatch):
        # chunks of 8, 8 and 5 samples; a zero-radius window centred on one
        # sample's step-order sum f_1 v_1 + f_2 v_2 + ... holds exactly the
        # samples whose sums equal it bit for bit
        monkeypatch.setattr(sampling, "CHUNK", 8)
        count, seed = 21, 5
        chain, signs, weights = pinned_instance(n_states, kind)
        sums = []
        for stream in range(count):
            path = python_path(chain, seed, stream, signs.n_steps)
            total = [0.0] * weights.dimension
            for j, y in enumerate(path):
                f = float(signs.functions[j, y])
                total = [t + f * v for t, v in zip(total, weights.weights[j].tolist())]
            sums.append(total)
        for total in sums:
            est = smallball_mc(chain, signs, weights, total, 0.0, count, seed)
            assert est.estimate == sums.count(total) / count

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

    @pytest.mark.parametrize("scale", [1e155, 1e-170])
    def test_ball_distances_neither_overflow_nor_underflow(self, uniform_independent,
                                                           scale):
        # the corners (+-s, +-s) of test_multidimensional_ball, whose squared
        # distances 2 s^2 overflow at s = 1e155 and underflow at s = 1e-170
        w = make_weight_system([[scale, 0.0], [0.0, scale]])
        signs = balanced_signs(uniform_independent, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fractions = [smallball_mc(uniform_independent, signs, w, [0.0, 0.0],
                                      r * scale, 4000, seed=8).estimate for r in (1.5, 1.4)]
            # from (s, 0) the corners with first coordinate s lie at distance
            # s, on the sphere, and the others at sqrt(5) s
            half = smallball_mc(uniform_independent, signs, w, [scale, 0.0], scale,
                                4000, seed=8)
        assert fractions == [1.0, 0.0]
        assert 0.0 < half.estimate < 1.0 and half.covers(0.5)


def stats_interval(hits, total, level=sampling.CI_LEVEL):
    """Clopper-Pearson bounds from scipy.stats.beta.ppf, an independent
    implementation of the sampler's intervals."""
    alpha = 1.0 - level
    lo = 0.0 if hits == 0 else float(stats.beta.ppf(alpha / 2.0, hits, total - hits + 1))
    hi = 1.0 if hits == total else float(stats.beta.ppf(1.0 - alpha / 2.0, hits + 1,
                                                        total - hits))
    return lo, hi


def cp_tolerance(p: float) -> float:
    """The declared accuracy of an interval end p."""
    return 1e-14 * min(p, 1.0 - p) + 2.0 * math.ulp(p)


# totals up to 1e6, each with the edge counts 0, 1, total - 1 and total
CP_TOTALS = (1, 2, 3, 7, 100, 999, 4096, PINNED_COUNT, 123_457, 10**6)
CP_GRID = sorted({(h, t) for t in CP_TOTALS
                  for h in (0, 1, 2, t // 7, t // 2, t - 2, t - 1, t) if 0 <= h <= t})


def test_clopper_pearson_matches_beta_ppf_within_tolerance():
    rng = np.random.default_rng(20240513)
    random_pairs = [(int(rng.integers(0, t + 1)), t)
                    for t in rng.integers(1, 2 * 10**6, size=200).tolist()]
    assert len(CP_GRID) == 64
    for hits, total in CP_GRID + random_pairs:
        got = sampling._clopper_pearson(hits, total)
        want = stats_interval(hits, total)
        for end, other in zip(got, want):
            assert abs(end - other) <= cp_tolerance(other), (hits, total, end, other)


def fraction_tail(total, hits, p, upper):
    """P[Bin(total, p) >= hits] (upper) or P[Bin(total, p) <= hits], exactly."""
    p = Fraction(p)
    a, d = p.numerator, p.denominator
    js = range(hits, total + 1) if upper else range(hits + 1)
    return Fraction(sum(math.comb(total, j) * a**j * (d - a)**(total - j) for j in js),
                    d**total)


def decimal_tail(total, hits, p, upper):
    """The same tail at 60 digits, as at most three terms or one minus three."""
    with localcontext() as ctx:
        ctx.prec = 60
        p = +p
        q = 1 - p

        def pmf(j):
            return math.comb(total, j) * p**j * q**(total - j)

        if upper:
            return (sum(pmf(j) for j in range(hits, total + 1)) if total - hits < 3
                    else 1 - sum(pmf(j) for j in range(hits)))
        return (sum(pmf(j) for j in range(hits + 1)) if hits < 3
                else 1 - sum(pmf(j) for j in range(hits + 1, total + 1)))


def assert_ends_bracket_roots(hits, total, tail, number):
    """Each end p that solves its tail equation lies within cp_tolerance(p)
    of the root: the exact tail at p - delta and p + delta brackets
    (1 - CI_LEVEL)/2 (the upper tail rises with p, the lower falls)."""
    assert sampling.CI_LEVEL == 0.99
    half = number(1) / 200
    lo, hi = sampling._clopper_pearson(hits, total)
    if hits == 0:
        assert lo == 0.0
    else:
        delta = number(cp_tolerance(lo))
        assert (tail(total, hits, number(lo) - delta, True) <= half
                <= tail(total, hits, number(lo) + delta, True)), (hits, total, lo)
    if hits == total:
        assert hi == 1.0
    else:
        delta = number(cp_tolerance(hi))
        assert (tail(total, hits, number(hi) - delta, False) >= half
                >= tail(total, hits, number(hi) + delta, False)), (hits, total, hi)


@pytest.mark.parametrize("total", range(1, 65))
def test_clopper_pearson_brackets_fraction_roots(total):
    for hits in range(total + 1):
        assert_ends_bracket_roots(hits, total, fraction_tail, Fraction)


@pytest.mark.parametrize("total", [10**8, 10**9])
def test_clopper_pearson_brackets_decimal_roots(total):
    # scipy.stats.beta.ppf misses these upper ends at hits 1 and 2 by about
    # 5e-9 relative, far outside the tolerance
    for hits in (0, 1, 2, total - 2, total - 1, total):
        assert_ends_bracket_roots(hits, total, decimal_tail, Decimal)


class TestFirstCoordTail:
    def test_dimension_three_is_uniform(self):
        assert first_coord_tails([(3, 0.5)])[0] == pytest.approx(0.5, abs=1e-10)
        for t in (0.1, 0.25, 0.8):
            assert first_coord_tails([(3, t)])[0] == pytest.approx(1 - t, abs=1e-10)

    def test_dimension_two_arcsine(self):
        assert first_coord_tails([(2, math.sqrt(2) / 2)])[0] == pytest.approx(0.5, abs=1e-10)
        for t in (0.2, 0.6, 0.9):
            expect = 1 - (2 / math.pi) * math.asin(t)
            assert first_coord_tails([(2, t)])[0] == pytest.approx(expect, abs=1e-10)

    def test_against_incomplete_beta(self):
        # P[|v_1| <= t] is the regularized incomplete beta I_{t^2}(1/2, (d-1)/2)
        for d in (2, 4, 7, 16, 33):
            for t in (0.15, 0.4, 0.75):
                expect = 1.0 - betainc(0.5, (d - 1) / 2.0, t * t)
                assert first_coord_tails([(d, t)])[0] == pytest.approx(expect, abs=1e-10)

    def test_closed_form_up_to_dimension_64(self):
        # P[|v_1| >= t] = I_{1-t^2}((d-1)/2, 1/2); upper and total are each
        # integrated to 1e-12, so their ratio may be off by 2e-12 / total,
        # total = integral of cos^(d-2) over [0, pi/2] = B((d-1)/2, 1/2) / 2
        ts = np.linspace(0.0, 1.0, 41)
        for d in range(2, 65):
            allowed = 2e-12 / (beta((d - 1) / 2.0, 0.5) / 2.0)
            expect = betainc((d - 1) / 2.0, 0.5, 1.0 - ts * ts)
            for t, want in zip(ts.tolist(), expect.tolist()):
                assert abs(first_coord_tails([(d, t)])[0] - want) <= allowed, (d, t)

    def test_endpoints(self):
        assert first_coord_tails([(5, 0.0)])[0] == pytest.approx(1.0, abs=1e-12)
        assert first_coord_tails([(5, 1.0)])[0] == pytest.approx(0.0, abs=1e-12)

    def test_one_dimension_special_case(self):
        assert first_coord_tails([(1, 0.7)])[0] == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(UnsupportedDimension):
            first_coord_tails([(0, 0.5)])
        with pytest.raises(OutOfRange):
            first_coord_tails([(3, 1.5)])

    def test_committed_constant_clears_half(self):
        c = bounds.C_COORD
        for d in (2, 3, 5, 9, 17, 33, 64):
            assert first_coord_tails([(d, 1.0 / (c * math.sqrt(d)))])[0] >= 0.5

    def test_proved_constant_clears_half_past_the_criterion_grid(self):
        # the constant fitted on d = 2..64, 1.4678188662986078, left
        # P[|v_1| >= 1/(C sqrt(d))] below 1/2 from d = 65 on
        for d in (65, 128):
            assert first_coord_tails([(d, 1.0 / (bounds.C_COORD * math.sqrt(d)))])[0] >= 0.5

    def test_median_ratio_rises_below_the_proved_constant(self):
        d = np.arange(2, 10**5 + 1)
        ratio = 1.0 / (coordinate_median(d) * np.sqrt(d))
        assert ratio[0] == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.diff(ratio) > 0.0)
        assert np.all(ratio < bounds.C_COORD)
        assert ratio[65 - 2] > 1.4678188662986078


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


def coord_tail_alone(d, t):
    """first_coord_tails of one (d, t) as two lone adaptive_simpson runs evaluated it."""
    if d == 1:
        return 1.0

    def f(theta):
        return np.cos(theta) ** (d - 2)

    upper = adaptive_simpson(f, math.asin(t), math.pi / 2.0, tol=1e-12)
    total = adaptive_simpson(f, 0.0, math.pi / 2.0, tol=1e-12)
    return min(1.0, upper / total)


class TestFirstCoordTails:
    def test_criterion_grid_equals_lone_runs_bit_for_bit(self):
        ds = range(2, 65)
        floors = [(d, 1.0 / (bounds.C_COORD * math.sqrt(d))) for d in ds]
        medians = [(d, float(coordinate_median(d))) for d in ds]
        pairs = floors + medians + [(3, 0.5), (1, 0.7), (4, 0.0), (4, 1.0)]
        got = first_coord_tails(pairs)
        assert [x.hex() for x in got] == [coord_tail_alone(d, t).hex() for d, t in pairs]
        for (d, t), tail in zip(pairs[::9], got[::9]):
            assert first_coord_tails([(d, t)]) == [tail]

    def test_every_pair_is_checked_first(self):
        with pytest.raises(OutOfRange) as lone:
            first_coord_tails([(3, 1.5)])
        with pytest.raises(OutOfRange) as batch:
            first_coord_tails([(2, 0.5), (3, 1.5), (0, 0.5)])
        assert str(batch.value) == str(lone.value)
        with pytest.raises(UnsupportedDimension):
            first_coord_tails([(2, 0.5), (0, 0.5), (3, 1.5)])
