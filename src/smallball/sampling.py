"""Monte Carlo estimation of small-ball probabilities and the coordinate tail.

Sampling is driven by the counter-based streams in rngstreams, keyed by
(seed, sample index), so estimates are bit-reproducible and embarrassingly
parallel.  Confidence intervals are exact binomial (Clopper-Pearson) at 99%,
which stays valid near probability zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import beta

from .chains import MarkovChain, SignSystem, WeightSystem
from .errors import DimensionMismatch, OutOfRange, UnsupportedDimension
from .quadrature import adaptive_simpson
from .rngstreams import standard_normals, uniform_block

CHUNK = 1 << 14
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

    def serialize(self) -> str:
        return json.dumps({
            "estimate": repr(self.estimate), "samples": self.samples,
            "ci_low": repr(self.ci_low), "ci_high": repr(self.ci_high),
            "seed": self.seed,
        }, sort_keys=True)


def _clopper_pearson(hits: int, total: int, level: float = CI_LEVEL):
    alpha = 1.0 - level
    lo = 0.0 if hits == 0 else float(beta.ppf(alpha / 2.0, hits, total - hits + 1))
    hi = 1.0 if hits == total else float(beta.ppf(1.0 - alpha / 2.0, hits + 1, total - hits))
    return lo, hi


def from_hits(hits: int, total: int, seed: int) -> McEstimate:
    if total < 1:
        raise OutOfRange(f"an estimate needs at least one sample, got {total}")
    lo, hi = _clopper_pearson(hits, total)
    est = hits / total
    return McEstimate(estimate=est, samples=total, ci_low=min(lo, est),
                      ci_high=max(hi, est), seed=seed)


def _sample_states(chain: MarkovChain, n_steps: int, streams: np.ndarray,
                   seed: int) -> np.ndarray:
    """(n_steps, len(streams)) state paths, step-major: column s is the path
    of sample streams[s], driven by its counter stream."""
    u = uniform_block(seed, streams, n_steps)
    last = chain.n_states - 1
    # inverse CDF by counting: the state after y is the number of c < last
    # with cum[y, c] <= u, which also clamps to last when a row's cumulative
    # total rounds below 1 (cum is nondecreasing along a row)
    cum_cols = np.cumsum(chain.transition, axis=1).T[:last].copy()
    states = np.empty(u.shape, dtype=np.intp)
    states[0] = np.minimum(
        np.searchsorted(np.cumsum(chain.stationary), u[0], side="right"), last)
    threshold = np.empty(streams.size)
    below = np.empty(streams.size, dtype=bool)
    for i in range(1, n_steps):
        prev, cur = states[i - 1], states[i]
        cur.fill(0)
        for col in cum_cols:
            np.take(col, prev, out=threshold)
            np.less_equal(threshold, u[i], out=below)
            cur += below
    return states


def _check_states(chain: MarkovChain, signs: SignSystem) -> None:
    if signs.functions.shape[1] != chain.n_states:
        raise DimensionMismatch(
            f"sign functions cover {signs.functions.shape[1]} states, "
            f"chain has {chain.n_states}")


def _sign_paths(chain: MarkovChain, signs: SignSystem, streams: np.ndarray,
                seed: int) -> np.ndarray:
    """(len(streams), n) +-1 matrix, row-major; row s is sample streams[s]."""
    states = _sample_states(chain, signs.n_steps, streams, seed)
    return np.take_along_axis(signs.functions, states, axis=1).T


def sample_signs(chain: MarkovChain, signs: SignSystem, count: int,
                 seed: int) -> np.ndarray:
    """(count, n) matrix of +-1 samples; row i is sample i's sign sequence."""
    _check_states(chain, signs)
    out = np.empty((count, signs.n_steps), dtype=np.int8)
    for start in range(0, count, CHUNK):
        streams = np.arange(start, min(start + CHUNK, count))
        out[streams] = _sign_paths(chain, signs, streams, seed)
    return out


def smallball_mc(chain: MarkovChain, signs: SignSystem, weights: WeightSystem,
                 x0, radius: float, count: int, seed: int) -> McEstimate:
    """Fraction of sampled sums inside the closed ball of the given radius."""
    if radius < 0:
        raise OutOfRange(f"radius must be nonnegative, got {radius!r}")
    if signs.n_steps != weights.n_weights:
        raise DimensionMismatch(
            f"{signs.n_steps} sign functions vs {weights.n_weights} weights")
    _check_states(chain, signs)
    center = np.atleast_1d(np.asarray(x0, dtype=float))
    if center.size not in (1, weights.dimension):
        raise DimensionMismatch(
            f"center has {center.size} coordinates, weights have dimension "
            f"{weights.dimension}")
    center = np.broadcast_to(center, (weights.dimension,))
    w = weights.weights
    hits = 0
    for start in range(0, count, CHUNK):
        streams = np.arange(start, min(start + CHUNK, count))
        # a C-ordered (samples, n) matrix keeps BLAS's summation order per sum
        eps = np.ascontiguousarray(_sign_paths(chain, signs, streams, seed),
                                   dtype=float)
        sums = eps @ w
        dist = np.linalg.norm(sums - center[None, :], axis=1)
        hits += int(np.count_nonzero(dist <= radius))
    return from_hits(hits, count, seed)


# ---------------------------------------------------------------------------
# first coordinate of a uniform random unit vector
# ---------------------------------------------------------------------------


def _cos_power(d: int):
    """theta -> cos(theta)^(d-2), the density of v_1 = sin(theta) up to a constant."""
    power = d - 2

    def f(theta):
        return np.cos(theta) ** power

    return f


def coord_tail_total(d: int) -> float:
    """The normaliser of first_coord_tail's exact mode for dimension d >= 2."""
    if d < 2:
        raise UnsupportedDimension(f"the normaliser needs dimension >= 2, got {d}")
    return adaptive_simpson(_cos_power(d), 0.0, math.pi / 2.0, tol=1e-12)


def first_coord_tail(d: int, t: float, mode: str = "exact",
                     samples: int = 200_000, seed: int = 0,
                     total: float | None = None):
    """P[|v_1| >= t] for v uniform on the unit sphere in R^d.

    The density of v_1 is proportional to (1-s^2)^((d-3)/2); substituting
    s = sin(theta) removes the d = 2 endpoint singularity, so exact mode is a
    ratio of two smooth quadratures.  A caller that evaluates many t at one d
    passes the normaliser coord_tail_total(d) as total, so it is integrated
    once.  mc mode normalizes spherical Gaussians built from counter streams
    and returns an McEstimate.
    """
    if d < 1:
        raise UnsupportedDimension(f"dimension must be >= 1, got {d}")
    if not 0.0 <= t <= 1.0:
        raise OutOfRange(f"threshold must lie in [0,1], got {t!r}")
    if d == 1:
        # the coordinate is +-1, no density involved
        return 1.0
    if mode == "exact":
        upper = adaptive_simpson(_cos_power(d), math.asin(t), math.pi / 2.0, tol=1e-12)
        if total is None:
            total = coord_tail_total(d)
        return min(1.0, upper / total)
    if mode != "mc":
        raise OutOfRange(f"mode must be 'exact' or 'mc', got {mode!r}")

    hits = 0
    for start in range(0, samples, CHUNK):
        streams = np.arange(start, min(start + CHUNK, samples))
        # one row per sample again, so each norm sums its row as it always has
        u = uniform_block(seed, streams, 2 * d).T.copy()
        g = standard_normals(u[:, :d], u[:, d:])
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0] = 1.0
        hits += int(np.count_nonzero(np.abs(g[:, 0]) / norms >= t))
    return from_hits(hits, samples, seed)
