"""Monte Carlo estimation of small-ball probabilities and the coordinate tail.

Sampling is driven by the counter-based streams in rngstreams, keyed by
(seed, sample index), so estimates are bit-reproducible and embarrassingly
parallel.  Confidence intervals are exact binomial (Clopper-Pearson) at 99%,
which stays valid near probability zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import MarkovChain, SignSystem, WeightSystem, check_window
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    OutOfRange,
    QuadratureNonConvergence,
    UnsupportedDimension,
)
from .quadrature import DEFAULT_MIN_DEPTH, KRONROD_NODES, integrate_family, scalar_powers
from .rngstreams import step_words, to_unit

CHUNK = 1 << 14
# bytes of one chain's inverse-CDF cell table
CELL_TABLE_BUDGET = 1 << 18
CI_LEVEL = 0.99
MC_STEP_BUDGET = 10**9  # samples x steps of one Monte Carlo run
# bytes of one Monte Carlo run's weight, sign and contribution tables
MC_TABLE_BUDGET = 1 << 28


@dataclass(frozen=True)
class McEstimate:
    """A hit-fraction estimate with exact binomial confidence bounds."""

    estimate: float
    samples: int
    ci_low: float
    ci_high: float
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.ci_low <= self.estimate <= self.ci_high <= 1.0):
            raise OutOfRange(
                f"confidence bounds disordered: {self.ci_low!r} <= "
                f"{self.estimate!r} <= {self.ci_high!r} must hold within [0,1]"
            )

    def covers(self, p: float) -> bool:
        return self.ci_low <= p <= self.ci_high


# Clopper-Pearson ends from binomial tails, each the pmf at k (Loader 2000:
# Stirling remainders and deviance terms, free of cancellation) times the
# ratio of the tail to it (Gauss's continued fraction in the odds)

_LN_2PI = 1.8378770664093454835606594728112
# log(n!) - log(sqrt(2 pi n) (n/e)^n) at n = 0..15; Stirling's series beyond
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)
# the standard normal quantile at 1 - (1 - CI_LEVEL)/2; it sets only the Newton start
_Z = 2.5758293035489004


def _stirlerr(n: int) -> float:
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = float(n) * n
    if n > 500:
        return (1 / 12 - 1 / 360 / nn) / n
    if n > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / nn) / nn) / n
    if n > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / nn) / nn) / nn) / n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x, by its series in (x-m)/(x+m) where x is near m."""
    d = x - m
    if abs(d) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = d / (x + m)
    s, term, v2, j = d * v, 2.0 * x * v, v * v, 1
    while True:
        term *= v2
        nxt = s + term / (2 * j + 1)
        if nxt == s:
            return s
        s, j = nxt, j + 1


def _log_pmf(k: int, n: int, p: float, q: float) -> float:
    """log P[Bin(n, p) = k] for 0 < k < n, with q = 1 - p."""
    lc = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
          - _bd0(k, n * p) - _bd0(n - k, n * q))
    return lc - 0.5 * (_LN_2PI + math.log(k) + math.log1p(-k / n))


def _tail_ratio(m: int, c: int, rho: float) -> float:
    """sum_{j=0}^{m} prod_{i<j} rho (m-i)/(c+1+i), i.e. 2F1(-m, 1; c+1; -rho),
    by Gauss's continued fraction (modified Lentz), for rho m < c + 1.

    P[X >= k] = pmf(k) _tail_ratio(n-k, k, p/q) and P[X <= k] =
    pmf(k) _tail_ratio(k, n-k, q/p); only the odds enter, so neither p
    near 0 nor p near 1 is ever taken from 1 - the other.  About 50 steps
    at most, even at n = 1e9.
    """
    d = 1.0 / (1.0 - m * rho / (c + 1))
    f, lentz, i = d, 1.0, 0
    while i < m:
        i += 1
        e = i * (c + m + i) * rho / ((c + 2 * i - 1) * (c + 2 * i))
        d = 1.0 / (1.0 + e * d)
        lentz = 1.0 + e / lentz
        delta = lentz * d
        if i < m:  # the fraction ends after m pairs
            e = -(m - i) * (c + i) * rho / ((c + 2 * i) * (c + 2 * i + 1))
            d = 1.0 / (1.0 + e * d)
            lentz = 1.0 + e / lentz
            delta *= lentz * d
        f *= delta
        if abs(delta - 1.0) <= 2.0**-53:
            break
    return f


def _cp_end(k: int, n: int, upper: bool, log_target: float) -> float:
    """The p in (0, 1) with log P[Bin(n, p) >= k] (upper) or log P[Bin(n, p) <= k]
    equal to log_target, for 0 < k < n; the tail is the small one, p < k/n
    or p > k/n.

    Newton steps in theta = log(p/q) from the Wilson score end with
    continuity correction: the log tail is concave in theta, so after one
    step the iterates approach the root from one side (2-5 steps).  p and q
    are carried apart, each to a few ulps, and a step never reaches k/n.
    """
    x = k - 0.5 if upper else k + 0.5
    z2 = _Z * _Z
    centre = (x + z2 / 2.0) / (n + z2)
    half = _Z * math.sqrt(x * (n - x) / n + z2 / 4.0) / (n + z2)
    p = centre - half if upper else centre + half
    q = 1.0 - p
    for _ in range(100):
        if upper:
            ratio = _tail_ratio(n - k, k, p / q)
            slope = k * q / ratio
        else:
            ratio = _tail_ratio(k, n - k, q / p)
            slope = -(n - k) * p / ratio
        step = (log_target - _log_pmf(k, n, p, q) - math.log(ratio)) / slope
        # half the way to k/n at most, where theta = log(k/(n-k))
        room = math.log(k * q / ((n - k) * p))
        step = min(step, room / 2.0) if upper else max(step, room / 2.0)
        grow = math.expm1(step)
        scale = 1.0 + p * grow
        p, q = p * (1.0 + grow) / scale, q / scale
        if abs(step) <= 2.0**-46:
            break
    return p if p <= 0.5 else 1.0 - q


def _clopper_pearson(hits: int, total: int):
    """Exact binomial (Clopper-Pearson) ends at CI_LEVEL: P[Bin(total, lo) >=
    hits] = P[Bin(total, hi) <= hits] = (1 - CI_LEVEL)/2, with lo = 0 at no
    hits and hi = 1 at all; each end within 1e-14 min(p, 1-p) + 2 ulp(p)."""
    log_half = math.log((1.0 - CI_LEVEL) / 2.0)
    if hits == 0:
        lo = 0.0
    elif hits == total:
        lo = math.exp(log_half / total)
    else:
        lo = _cp_end(hits, total, True, log_half)
    if hits == total:
        hi = 1.0
    elif hits == 0:
        hi = -math.expm1(log_half / total)
    else:
        hi = _cp_end(hits, total, False, log_half)
    return lo, hi


def from_hits(hits: int, total: int, seed: int) -> McEstimate:
    if total < 1:
        raise OutOfRange(f"an estimate needs at least one sample, got {total}")
    lo, hi = _clopper_pearson(hits, total)
    est = hits / total
    return McEstimate(estimate=est, samples=total, ci_low=min(lo, est),
                      ci_high=max(hi, est), seed=seed)


def mc_steps(samples: int, steps: int) -> int:
    """Steps of a Monte Carlo run of `samples` walks of `steps` steps each."""
    total = samples * steps
    if total > MC_STEP_BUDGET:
        raise BudgetExceeded(f"MC needs {total} steps, budget is {MC_STEP_BUDGET}")
    return total


def mc_tables(n: int, n_states: int, dimension: int) -> int:
    """Bytes of the O(n) tables of a Monte Carlo run of n steps: the weights
    (n, dimension), the signs (n, states) and the contributions f_j(y) v_j
    (n, states, dimension), 8 bytes an entry; they must fit MC_TABLE_BUDGET."""
    total = 8 * n * (dimension + n_states + n_states * dimension)
    if total > MC_TABLE_BUDGET:
        raise BudgetExceeded(f"MC tables need {total} bytes, budget is {MC_TABLE_BUDGET}")
    return total


def _cell_bits(rows: int) -> int:
    """The most cell bits b with rows * 2^b table entries within CELL_TABLE_BUDGET."""
    cells = CELL_TABLE_BUDGET // (rows * np.dtype(np.intp).itemsize)
    return max(cells.bit_length() - 1, 0)


class _InverseCdf:
    """A chain's next-state rule as a table of cells with an exact fallback.

    Row y < N of cum holds the cumulative transition row y and row N the
    cumulative stationary law, both without their last entry.  From row y the
    uniform u picks the number of c with cum[y, c] <= u: the inverse CDF by
    counting, which also clamps to the last state when a row's total rounds
    below 1.  Cell j of a row covers the doubles u of rngstreams.uniforms()
    whose top `bits` <= 14 bits are j, which are the top bits of step_words'
    word; the table holds the state that every such u picks, or -1 when a cut
    of the row falls inside the cell, and only those lanes take u through
    to_unit and count exactly.
    """

    def __init__(self, chain: MarkovChain):
        n = chain.n_states
        self.start = n
        self.cum = np.empty((n + 1, n - 1))
        self.cum[:n] = np.cumsum(chain.transition, axis=1)[:, :-1]
        self.cum[n] = np.cumsum(chain.stationary)[:-1]
        self.bits = _cell_bits(n + 1)
        self.shift = np.uint64(64 - self.bits)
        # the first and last double of each cell, both exact; a validated row
        # is nondecreasing, so searchsorted counts the cuts <= u
        cells = np.arange(1 << self.bits, dtype=np.int64) << (53 - self.bits)
        lo = cells * 2.0**-53
        hi = (cells + ((1 << (53 - self.bits)) - 1)) * 2.0**-53
        table = np.empty((n + 1, 1 << self.bits), dtype=np.intp)
        for y, row in enumerate(self.cum):
            first = np.searchsorted(row, lo, side="right")
            table[y] = np.where(first == np.searchsorted(row, hi, side="right"),
                                first, -1)
        self.table = table.ravel()
        # exact lanes counted at once, so their gathered rows fit the budget too
        self.exact_batch = max(CELL_TABLE_BUDGET // (self.cum.itemsize * max(n - 1, 1)), 1)

    def states(self, streams: np.ndarray, seed: int, n_steps: int):
        """Yield, for j = 0..n_steps-1, the state at step j of every sample in streams.

        One buffer is reused, so each yielded array is valid until the next
        step and must not be written to.
        """
        m = streams.size
        state = np.full(m, self.start, dtype=np.intp)
        idx = np.empty(m, dtype=np.intp)
        cell = np.empty(m, dtype=np.uint64)
        exact = np.empty(m, dtype=bool)
        for words in step_words(seed, streams, n_steps):
            if self.bits:
                np.left_shift(state, self.bits, out=idx)
                np.right_shift(words, self.shift, out=cell)
                np.bitwise_or(idx, cell.view(np.intp), out=idx)
            else:
                np.copyto(idx, state)
            # every index is in range, so "clip" only skips the bounds check
            np.take(self.table, idx, out=state, mode="clip")
            np.less(state, 0, out=exact)
            lanes = np.flatnonzero(exact)
            for a in range(0, lanes.size, self.exact_batch):
                part = lanes[a:a + self.exact_batch]
                u = to_unit(words[part])
                prev = idx[part] >> self.bits
                state[part] = np.count_nonzero(self.cum[prev] <= u[:, None], axis=1)
            yield state


def sample_signs(chain: MarkovChain, signs: SignSystem, count: int,
                 seed: int) -> np.ndarray:
    """(count, n) matrix of +-1 samples; row i is sample i's sign sequence."""
    chain.check_states(signs.functions.shape[1])
    sampler = _InverseCdf(chain)
    functions = signs.functions.astype(np.int8)
    n = signs.n_steps
    out = np.empty((count, n), dtype=np.int8)
    for start in range(0, count, CHUNK):
        streams = np.arange(start, min(start + CHUNK, count))
        # signs gather step-major, then move into the sample rows at once
        steps = np.empty((n, streams.size), dtype=np.int8)
        for j, state in enumerate(sampler.states(streams, seed, n)):
            np.take(functions[j], state, out=steps[j], mode="clip")
        out[start:start + streams.size] = steps.T
    return out


def smallball_mc(chain: MarkovChain, signs: SignSystem, weights: WeightSystem,
                 x0, radius: float, count: int, seed: int) -> McEstimate:
    """Fraction of sampled sums inside the closed ball of the given radius.

    Each sample's sum is taken in step order, f_1 v_1 + f_2 v_2 + ..., from a
    (step, state) table of the products f_j(y) v_j, as the walk is sampled.
    In dimension 1 a sum s counts where x0 - radius <= s <= x0 + radius, the
    window smallball_exact sums, so no distance is squared and no end
    overflows the count; in d >= 2 hypot takes each distance, squaring none.
    count x n steps must fit MC_STEP_BUDGET, and the O(n) tables
    MC_TABLE_BUDGET.
    """
    check_window(x0, radius)
    if signs.n_steps != weights.n_weights:
        raise DimensionMismatch(
            f"{signs.n_steps} sign functions vs {weights.n_weights} weights")
    mc_steps(count, signs.n_steps)
    chain.check_states(signs.functions.shape[1])
    mc_tables(signs.n_steps, chain.n_states, weights.dimension)
    center = np.atleast_1d(np.asarray(x0, dtype=float))
    if center.size not in (1, weights.dimension):
        raise DimensionMismatch(
            f"center has {center.size} coordinates, weights have dimension "
            f"{weights.dimension}")
    center = np.broadcast_to(center, (weights.dimension,))
    lo, hi = float(center[0]) - float(radius), float(center[0]) + float(radius)
    sampler = _InverseCdf(chain)
    # contrib[j, y] = f_j(y) v_j, a (steps, states, dimension) table
    contrib = signs.functions.astype(float)[:, :, None] * weights.weights[:, None, :]
    hits = 0
    for start in range(0, count, CHUNK):
        streams = np.arange(start, min(start + CHUNK, count))
        sums = np.zeros((streams.size, weights.dimension))
        step = np.empty_like(sums)
        for j, state in enumerate(sampler.states(streams, seed, signs.n_steps)):
            np.take(contrib[j], state, axis=0, out=step, mode="clip")
            sums += step
        if weights.dimension == 1:
            inside = (sums[:, 0] >= lo) & (sums[:, 0] <= hi)
        else:  # a distance past the largest float is past every radius
            with np.errstate(over="ignore"):
                inside = np.hypot.reduce(sums - center, axis=1) <= radius
        hits += int(np.count_nonzero(inside))
    return from_hits(hits, count, seed)


# ---------------------------------------------------------------------------
# first coordinate of a uniform random unit vector
# ---------------------------------------------------------------------------


def first_coord_tails(pairs) -> list[float]:
    """P[|v_1| >= t] for v uniform on the unit sphere in R^d, for each pair
    (d, t), in order.

    The density of v_1 is proportional to (1-s^2)^((d-3)/2); substituting
    s = sin(theta) removes the d = 2 endpoint singularity, so the tail is a
    ratio of two smooth quadratures of cos(theta)^(d-2).  All come from one
    integrate_family run: one integral over [asin t, pi/2] per distinct
    (d, t) and one normaliser over [0, pi/2] per distinct d, each bit for bit
    the lone run's.  Every pair is checked before any work.
    """
    pairs = list(pairs)
    for d, t in pairs:
        if d < 1:
            raise UnsupportedDimension(f"dimension must be >= 1, got {d}")
        if not 0.0 <= t <= 1.0:
            raise OutOfRange(f"threshold must lie in [0,1], got {t!r}")
    runs, powers, index = [], [], {}
    for d, t in pairs:
        if d > 1:
            # the tail over [asin t, pi/2] is keyed (d, t), the normaliser (d, None)
            for key, lower in (((d, t), math.asin(t)), ((d, None), 0.0)):
                if key not in index:
                    index[key] = len(runs)
                    runs.append((lower, math.pi / 2.0, 1e-12, DEFAULT_MIN_DEPTH, ()))
                    powers.append(d - 2)
    powers = np.array(powers, dtype=float)

    def f(theta, owner):
        return scalar_powers(np.cos(theta), powers[np.repeat(owner, KRONROD_NODES.size)])

    values = integrate_family(f, runs)
    for value in values:
        if isinstance(value, QuadratureNonConvergence):
            raise value
    # d = 1: the coordinate is +-1, no density involved
    return [1.0 if d == 1 else min(1.0, values[index[d, t]] / values[index[d, None]])
            for d, t in pairs]

