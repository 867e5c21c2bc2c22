"""Adaptive Simpson quadrature over vectorized integrands.

The engine is breadth-first: each wave evaluates the integrand at every new
midpoint in a single vectorized call, accepts the intervals whose Richardson
error estimate is within their share of the tolerance budget, and splits the
rest.  Accepted contributions are compensated with math.fsum.  min_depth
forces initial refinement so that periodic integrands whose peaks align with
the probe grid cannot alias into a spuriously converged estimate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureNonConvergence

DEFAULT_TOL = 1e-10
MAX_INTERVALS = 2**20
DEFAULT_MIN_DEPTH = 3


def adaptive_simpson(f, a: float, b: float, tol: float = DEFAULT_TOL,
                     max_intervals: int = MAX_INTERVALS,
                     min_depth: int = DEFAULT_MIN_DEPTH, cuts=()) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    f must map an ndarray of points to an ndarray of values.  cuts are points
    where f has kinks; those inside (a, b) split [a, b] into starting pieces,
    each given tol / pieces and max_intervals intervals of the run's budget.
    """
    if b <= a:
        return 0.0
    cuts = np.asarray(cuts, dtype=float)
    edges = np.unique(np.concatenate([[a, b], cuts[(cuts > a) & (cuts < b)]]))
    lo = edges[:-1]
    hi = edges[1:]
    fl, fc, fr = f(np.concatenate([lo, 0.5 * (lo + hi), hi])).reshape(3, -1)
    whole = (hi - lo) / 6.0 * (fl + 4.0 * fc + fr)
    # every live interval splits once per wave, so all share one depth and budget
    budget = tol / lo.size
    depth = 0
    max_intervals *= lo.size
    accepted: list[float] = []
    n_intervals = lo.size

    while lo.size:
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        fvals = f(np.concatenate([lm, rm]))
        flm = fvals[: lo.size]
        frm = fvals[lo.size:]
        left = (mid - lo) / 6.0 * (fl + 4.0 * flm + fc)
        right = (hi - mid) / 6.0 * (fc + 4.0 * frm + fr)
        delta = left + right - whole
        # a wave below min_depth accepts nothing
        done = np.abs(delta) <= (15.0 * budget if depth >= min_depth else -1.0)
        # an interval too narrow to split has converged as far as floats allow
        stuck = (lm <= lo) | (rm >= hi)
        if np.any(stuck & ~done):
            raise QuadratureNonConvergence(
                f"interval at {lo[np.argmax(stuck & ~done)]!r} cannot be refined further"
            )
        if np.any(done):
            accepted.extend((left + right + delta / 15.0)[done].tolist())
        keep = ~done
        n_intervals += 2 * int(np.count_nonzero(keep))
        if n_intervals > max_intervals:
            raise QuadratureNonConvergence(
                f"subdivision budget of {max_intervals} intervals exhausted"
            )
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        fl = np.concatenate([fl[keep], fc[keep]])
        fr = np.concatenate([fc[keep], fr[keep]])
        fc = np.concatenate([flm[keep], frm[keep]])
        whole = np.concatenate([left[keep], right[keep]])
        budget /= 2.0
        depth += 1

    return math.fsum(accepted)


def alias_safe_depth(interval_length: float, max_frequency: float) -> int:
    """Forced depth so the probe grid resolves oscillations of the given
    frequency: base intervals shorter than half the shortest half-period."""
    if max_frequency <= 0:
        return DEFAULT_MIN_DEPTH
    target = interval_length * 4.0 * max_frequency
    return max(DEFAULT_MIN_DEPTH, math.ceil(math.log2(target)) + 1)
