"""Adaptive Gauss–Kronrod (G7–K15) quadrature over vectorized integrands.

The engine is breadth-first: each wave evaluates the integrand at the 15
Kronrod nodes of every live panel in a single vectorized call, accepts the
panels whose |K15 - G7| is within their share of the tolerance budget, and
bisects the rest.  Accepted K15 values are summed with math.fsum.  min_depth
forces a fine starting grid so that periodic integrands whose peaks align with
the probe grid cannot alias into a spuriously converged estimate.  One wave
loop (integrate_family) carries the panels of many integrals at once, each
panel tagged with its owner, so many small integrals share each vectorized
call; adaptive_simpson is its one-integral case.

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
                     min_depth: int = DEFAULT_MIN_DEPTH, cuts=()) -> float:
    """Integrate f over [a, b] to absolute tolerance tol with G7–K15 panels.

    The name predates the Gauss–Kronrod rule; it stays because the benchmark's
    tracer finds the engine by it.  f must map an ndarray of points to an
    ndarray of values.  This is the one-integral case of integrate_family,
    whose docstring gives the rule.
    """
    value, = integrate_family(lambda x, owner: f(x), [(a, b, tol, min_depth, cuts)])
    if isinstance(value, QuadratureNonConvergence):
        raise value
    return value


def integrate_family(f, runs) -> list:
    """Integrate one integral per run (a, b, tol, min_depth, cuts), all in one
    breadth-first wave loop.

    f(x, owner) must map an ndarray of points to an ndarray of values, where
    the points x[15 p: 15 p + 15] belong to the run numbered owner[p].  A
    run's cuts are points where its integrand has kinks; those inside (a, b)
    split [a, b] into starting pieces, each bisected into
    2^(min_depth - PANEL_DEPTH_OFFSET) panels (at least one).  Every starting
    panel of a run gets an equal share of its tol, halved with each
    bisection, and MAX_INTERVALS bounds the panels of each run.  A run's
    panels, budgets and accepted K15 values are its own, so its value is bit
    for bit that of the run alone.  Returns each run's value, or the
    QuadratureNonConvergence that stopped it; the other runs go on.
    """
    n_runs = len(runs)
    values: list = [0.0] * n_runs
    budgets = np.zeros(n_runs)
    starting = np.zeros(n_runs, dtype=np.int64)
    pieces = []
    for i, (a, b, tol, min_depth, cuts) in enumerate(runs):
        if b <= a:
            continue
        start = _starting_panels(a, b, min_depth, cuts)
        if isinstance(start, QuadratureNonConvergence):
            values[i] = start
            continue
        pieces.append((i, start))
        starting[i] = start[0].size
        # every live panel of a run splits once per wave, so all share one budget
        budgets[i] = tol / start[0].size
    if not pieces:
        return values
    lo = np.concatenate([start[0] for _, start in pieces])
    hi = np.concatenate([start[1] for _, start in pieces])
    owner = np.repeat([i for i, _ in pieces], [start[0].size for _, start in pieces])
    # every panel made is accepted, bisected or live, so a run's count is
    # twice its accepted and live panels less its starting ones; the total
    # bounds each run's
    total = lo.size
    accepted, accepted_by = [], []

    while lo.size:
        centre = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fx = f((centre[:, None] + half[:, None] * KRONROD_NODES).ravel(), owner)
        fx = fx.reshape(lo.size, KRONROD_NODES.size)
        kronrod = half * (fx * KRONROD_WEIGHTS).sum(axis=1)
        gauss = half * (fx[:, 1::2] * GAUSS_WEIGHTS).sum(axis=1)
        done = np.abs(kronrod - gauss) <= budgets[owner]
        keep = ~done
        accepted.append(kronrod[done])
        accepted_by.append(owner[done])
        # a panel too narrow to bisect has converged as far as floats allow
        stuck = keep & ((centre <= lo) | (centre >= hi))
        if stuck.any():
            for i in sorted(set(owner[stuck].tolist())):
                first = lo[stuck & (owner == i)][0]
                values[i] = QuadratureNonConvergence(
                    f"panel at {first.item()!r} cannot be refined further")
            keep &= _live(values)[owner]
        lo, hi, centre, owner = lo[keep], hi[keep], centre[keep], owner[keep]
        total += 2 * lo.size
        if total > MAX_INTERVALS:
            made = (2 * np.bincount(np.concatenate(accepted_by), minlength=n_runs)
                    + 4 * np.bincount(owner, minlength=n_runs) - starting)
            for i in np.flatnonzero((made > MAX_INTERVALS) & _live(values)).tolist():
                values[i] = QuadratureNonConvergence(
                    f"subdivision budget of {MAX_INTERVALS} panels exhausted")
            keep = _live(values)[owner]
            lo, hi, centre, owner = lo[keep], hi[keep], centre[keep], owner[keep]
            total = int(made[_live(values)].sum())
        lo, hi = np.concatenate([lo, centre]), np.concatenate([centre, hi])
        owner = np.concatenate([owner, owner])
        budgets /= 2.0

    accepted_by = np.concatenate(accepted_by)
    accepted = np.concatenate(accepted)[np.argsort(accepted_by, kind="stable")].tolist()
    ends = np.bincount(accepted_by, minlength=n_runs).cumsum().tolist()
    for i, _ in pieces:
        if not isinstance(values[i], QuadratureNonConvergence):
            values[i] = math.fsum(accepted[(ends[i - 1] if i else 0):ends[i]])
    return values


def scalar_powers(base, exps) -> np.ndarray:
    """base ** e at each point with its own exponent e, each rounded as
    base ** e with e a Python scalar rounds it: numpy squares for e == 2 and
    calls pow for every other e, also when e is an array, and the two round
    some squares differently.  Batched integrands of integrate_family take
    their per-run powers through it, so each run keeps the bits it has alone."""
    out = np.power(base, exps)
    square = exps == 2
    out[square] = np.square(base[square])
    return out


def _live(values) -> np.ndarray:
    return np.array([not isinstance(v, QuadratureNonConvergence) for v in values])


def _starting_panels(a, b, min_depth, cuts):
    """(lo, hi) of the starting panels over [a, b], or the error that refuses them."""
    cuts = np.asarray(cuts, dtype=float)
    edges = np.array(sorted({a, b, *cuts[(cuts > a) & (cuts < b)].tolist()}), dtype=float)
    lo = edges[:-1]
    hi = edges[1:]
    n_panels = lo.size << max(min_depth - PANEL_DEPTH_OFFSET, 0)
    if n_panels > MAX_INTERVALS:
        return QuadratureNonConvergence(
            f"{n_panels} starting panels exceed the budget of {MAX_INTERVALS}")
    while lo.size < n_panels:
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return lo, hi


def alias_safe_depth(interval_length: float, max_frequency: float) -> int:
    """Forced depth so the probe grid resolves oscillations of the given
    frequency: base intervals shorter than half the shortest half-period."""
    if max_frequency <= 0:
        return DEFAULT_MIN_DEPTH
    target = interval_length * 4.0 * max_frequency
    return max(DEFAULT_MIN_DEPTH, math.ceil(math.log2(target)) + 1)
