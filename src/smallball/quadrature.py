"""Adaptive Gauss–Kronrod (G7–K15) quadrature over vectorized integrands.

The engine is breadth-first: each wave evaluates the integrand at the 15
Kronrod nodes of every live panel in a single vectorized call, accepts the
panels whose |K15 - G7| is within their share of the tolerance budget, and
bisects the rest.  Accepted K15 values are summed with math.fsum.  min_depth
forces a fine starting grid so that periodic integrands whose peaks align with
the probe grid cannot alias into a spuriously converged estimate.

Panel edges are dyadic fractions of the starting pieces and the nodes are
symmetric within each panel, so a reflection that maps the panels of one run
onto each other maps its nodes onto each other too.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureNonConvergence

DEFAULT_TOL = 1e-10
MAX_INTERVALS = 2**20
DEFAULT_MIN_DEPTH = 3

# Kronrod nodes on [-1, 1] from the left end to the centre, and their weights;
# every second node, ending at the centre, is a 7-point Gauss node (Piessens,
# de Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK, 1983, routine QK15)
_HALF_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144845693013,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
])
_HALF_KRONROD = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_HALF_GAUSS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])
KRONROD_NODES = np.concatenate([_HALF_NODES, -_HALF_NODES[-2::-1]])
KRONROD_WEIGHTS = np.concatenate([_HALF_KRONROD, _HALF_KRONROD[-2::-1]])
GAUSS_WEIGHTS = np.concatenate([_HALF_GAUSS, _HALF_GAUSS[-2::-1]])  # nodes 1, 3, ..., 13

# min_depth counts levels of a grid of base intervals (see alias_safe_depth).
# A panel 2^k base intervals wide has its widest node gap, the one beside the
# centre, at 2^k * 0.104 base intervals; the run starts at the coarsest panels
# whose nodes still lie within one base interval of each other (k = 3).
PANEL_DEPTH_OFFSET = int(math.log2(2.0 / np.diff(KRONROD_NODES).max()))


def adaptive_simpson(f, a: float, b: float, tol: float = DEFAULT_TOL,
                     max_intervals: int = MAX_INTERVALS,
                     min_depth: int = DEFAULT_MIN_DEPTH, cuts=()) -> float:
    """Integrate f over [a, b] to absolute tolerance tol with G7–K15 panels.

    The name predates the Gauss–Kronrod rule; it stays because the benchmark's
    tracer finds the engine by it.  f must map an ndarray of points to an
    ndarray of values.  cuts are points where f has kinks; those inside (a, b)
    split [a, b] into starting pieces, each bisected into 2^(min_depth -
    PANEL_DEPTH_OFFSET) panels (at least one).  Every starting panel gets an
    equal share of tol, halved with each bisection.  max_intervals bounds the
    panels of the whole run.
    """
    if b <= a:
        return 0.0
    cuts = np.asarray(cuts, dtype=float)
    edges = np.unique(np.concatenate([[a, b], cuts[(cuts > a) & (cuts < b)]]))
    lo = edges[:-1]
    hi = edges[1:]
    n_panels = lo.size << max(min_depth - PANEL_DEPTH_OFFSET, 0)
    if n_panels > max_intervals:
        raise QuadratureNonConvergence(
            f"{n_panels} starting panels exceed the budget of {max_intervals}")
    while lo.size < n_panels:
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    # every live panel splits once per wave, so all share one budget
    budget = tol / n_panels
    accepted: list[float] = []

    while lo.size:
        centre = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fx = f((centre[:, None] + half[:, None] * KRONROD_NODES).ravel())
        fx = fx.reshape(lo.size, KRONROD_NODES.size)
        kronrod = half * (fx * KRONROD_WEIGHTS).sum(axis=1)
        gauss = half * (fx[:, 1::2] * GAUSS_WEIGHTS).sum(axis=1)
        done = np.abs(kronrod - gauss) <= budget
        # a panel too narrow to bisect has converged as far as floats allow
        stuck = (centre <= lo) | (centre >= hi)
        if np.any(stuck & ~done):
            raise QuadratureNonConvergence(
                f"panel at {lo[np.argmax(stuck & ~done)]!r} cannot be refined further"
            )
        if np.any(done):
            accepted.extend(kronrod[done].tolist())
        keep = ~done
        n_panels += 2 * int(np.count_nonzero(keep))
        if n_panels > max_intervals:
            raise QuadratureNonConvergence(
                f"subdivision budget of {max_intervals} panels exhausted"
            )
        lo, hi, centre = lo[keep], hi[keep], centre[keep]
        lo, hi = np.concatenate([lo, centre]), np.concatenate([centre, hi])
        budget /= 2.0

    return math.fsum(accepted)


def alias_safe_depth(interval_length: float, max_frequency: float) -> int:
    """Forced depth so the probe grid resolves oscillations of the given
    frequency: base intervals shorter than half the shortest half-period."""
    if max_frequency <= 0:
        return DEFAULT_MIN_DEPTH
    target = interval_length * 4.0 * max_frequency
    return max(DEFAULT_MIN_DEPTH, math.ceil(math.log2(target)) + 1)
