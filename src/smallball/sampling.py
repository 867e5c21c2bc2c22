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
from .errors import OutOfRange, UnsupportedDimension
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
    """(len(streams), n_steps) state paths, one counter stream per sample."""
    u = uniform_block(seed, streams, n_steps)
    cum_mu = np.cumsum(chain.stationary)
    cum_rows = np.cumsum(chain.transition, axis=1)
    states = np.empty((streams.size, n_steps), dtype=np.int64)
    states[:, 0] = np.minimum(
        np.searchsorted(cum_mu, u[:, 0], side="right"), chain.n_states - 1)
    for i in range(1, n_steps):
        rows = cum_rows[states[:, i - 1]]
        states[:, i] = np.minimum(
            (rows <= u[:, i][:, None]).sum(axis=1), chain.n_states - 1)
    return states


def sample_signs(chain: MarkovChain, signs: SignSystem, count: int,
                 seed: int) -> np.ndarray:
    """(count, n) matrix of +-1 samples; row i is sample i's sign sequence."""
    n = signs.n_steps
    out = np.empty((count, n), dtype=np.int8)
    cols = np.arange(n)
    for start in range(0, count, CHUNK):
        streams = np.arange(start, min(start + CHUNK, count))
        states = _sample_states(chain, n, streams, seed)
        out[streams] = signs.functions[cols[None, :], states]
    return out


def smallball_mc(chain: MarkovChain, signs: SignSystem, weights: WeightSystem,
                 x0, radius: float, count: int, seed: int) -> McEstimate:
    """Fraction of sampled sums inside the closed ball of the given radius."""
    if radius < 0:
        raise OutOfRange(f"radius must be nonnegative, got {radius!r}")
    center = np.atleast_1d(np.asarray(x0, dtype=float))
    if center.size != weights.dimension:
        center = np.broadcast_to(center, (weights.dimension,))
    w = weights.weights
    hits = 0
    for start in range(0, count, CHUNK):
        streams = np.arange(start, min(start + CHUNK, count))
        states = _sample_states(chain, signs.n_steps, streams, seed)
        eps = signs.functions[np.arange(signs.n_steps)[None, :], states]
        sums = eps.astype(float) @ w
        dist = np.linalg.norm(sums - center[None, :], axis=1)
        hits += int(np.count_nonzero(dist <= radius))
    return from_hits(hits, count, seed)


# ---------------------------------------------------------------------------
# first coordinate of a uniform random unit vector
# ---------------------------------------------------------------------------


def first_coord_tail(d: int, t: float, mode: str = "exact",
                     samples: int = 200_000, seed: int = 0):
    """P[|v_1| >= t] for v uniform on the unit sphere in R^d.

    The density of v_1 is proportional to (1-s^2)^((d-3)/2); substituting
    s = sin(theta) removes the d = 2 endpoint singularity, so exact mode is a
    ratio of two smooth quadratures.  mc mode normalizes spherical Gaussians
    built from counter streams and returns an McEstimate.
    """
    if d < 1:
        raise UnsupportedDimension(f"dimension must be >= 1, got {d}")
    if not 0.0 <= t <= 1.0:
        raise OutOfRange(f"threshold must lie in [0,1], got {t!r}")
    if d == 1:
        # the coordinate is +-1, no density involved
        return 1.0
    if mode == "exact":
        power = d - 2

        def f(theta):
            return np.cos(theta) ** power

        upper = adaptive_simpson(f, math.asin(t), math.pi / 2.0, tol=1e-12)
        total = adaptive_simpson(f, 0.0, math.pi / 2.0, tol=1e-12)
        return min(1.0, upper / total)
    if mode != "mc":
        raise OutOfRange(f"mode must be 'exact' or 'mc', got {mode!r}")

    hits = 0
    for start in range(0, samples, CHUNK):
        streams = np.arange(start, min(start + CHUNK, samples))
        u = uniform_block(seed, streams, 2 * d)
        g = standard_normals(u[:, :d], u[:, d:])
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0] = 1.0
        hits += int(np.count_nonzero(np.abs(g[:, 0]) / norms >= t))
    return from_hits(hits, samples, seed)
