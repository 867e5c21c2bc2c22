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


def _clopper_pearson(hits: int, total: int):
    # betaincinv(a, b, q) is the Boost routine behind scipy.stats.beta.ppf(q, a, b),
    # bit for bit, without the 0.5 s import of scipy.stats
    from scipy.special import betaincinv

    alpha = 1.0 - CI_LEVEL
    lo = 0.0 if hits == 0 else float(betaincinv(hits, total - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == total else float(betaincinv(hits + 1, total - hits, 1.0 - alpha / 2.0))
    return lo, hi


def from_hits(hits: int, total: int, seed: int) -> McEstimate:
    if total < 1:
        raise OutOfRange(f"an estimate needs at least one sample, got {total}")
    lo, hi = _clopper_pearson(hits, total)
    est = hits / total
    return McEstimate(estimate=est, samples=total, ci_low=min(lo, est),
                      ci_high=max(hi, est), seed=seed)


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
    overflows the count.
    """
    check_window(x0, radius)
    if signs.n_steps != weights.n_weights:
        raise DimensionMismatch(
            f"{signs.n_steps} sign functions vs {weights.n_weights} weights")
    chain.check_states(signs.functions.shape[1])
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
        else:
            inside = np.linalg.norm(sums - center[None, :], axis=1) <= radius
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


def coordinate_median(d):
    """Median of |v_1| for a uniform unit vector in R^d, d >= 2 (elementwise
    over an array of d): v_1^2 ~ Beta(1/2, (d-1)/2)."""
    from scipy.special import betaincinv

    return np.sqrt(betaincinv(0.5, (np.asarray(d) - 1) / 2.0, 0.5))
