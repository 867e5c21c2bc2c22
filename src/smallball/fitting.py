"""Derivation of every fitted constant from its recorded family.

Each routine walks a deterministic instance family, computes the exact (or
quadrature-exact) probability and the bound formula stripped of its constant,
and records the supremum of their ratio.  Rerunning reproduces the committed
values bit-for-bit.  The closed-form formulas come from bounds.theorem_bound
with every constant 1.0; the point-mass and walk sweeps also report against
the committed constants, for the acceptance criteria and the CLI.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from . import families as fam
from .bounds import (
    QUAD_TOL,
    BoundReport,
    FittedConstant,
    cosine_product_integral,
    fit_constant,
    theorem_bound,
)
from .chains import WeightSystem
from .errors import OutOfRange
from .prg import (
    ExpanderGraph,
    PrgSpec,
    build_mgg_expander,
    prg_smallball,
    size_bound_exponent,
)
from .quadrature import adaptive_simpson, alias_safe_depth
from .sampling import first_coord_tail
from .transfer import (
    SumDistribution,
    char_fn_values,
    exact_sum_distribution,
    find_prime,
    sign_contributions,
    smallball_exact,
    zp_fourier_average,
)


def abs_charfn(chain, signs, weights):
    contribs = sign_contributions(signs, weights)

    def f(xis):
        return np.abs(char_fn_values(chain, contribs, xis))

    return f


# Per point, the law's Horner form costs one complex multiply-add per mass and
# the transfer sweep about S multiply-adds and S exponentials per weight on S
# states, but the sweep's fixed cost per step is larger.  Timed on folded
# integrals the law is the cheaper |phi| up to 3-50 masses per step and state
# (the fewer, the fewer points per wave); past this many the sweep is used.
# The Esseen families have at most 6.25.
LAW_MASSES_PER_SWEEP_CELL = 10


def esseen_formula(chain, signs, weights: WeightSystem, dist: SumDistribution,
                   radius: float, eps: float = 1.0) -> float:
    """(R + 1/eps) * integral of |phi| over [-eps, eps]; the d=1 kernel.

    phi is the characteristic function of the integer-valued sum, whose exact
    law is dist; |phi| is evaluated from dist, or by the transfer sweep when the
    law has many masses per step and state.  On the integer lattice |phi| is
    even and 1-periodic, so the integral folds exactly onto [0, eps], and onto
    the half-period [0, 1/2] when eps >= 1/2 is a power of two.  Only those
    folds map the dyadic panels of one run over [-eps, eps] onto themselves,
    so the folded run keeps that run's nodes and per-panel error budget and
    gives its value up to rounding; when that run's starting panels straddle a
    fold point (small eps max |v|), it is that run started finer until none does.
    """
    if not 0.0 < eps < math.inf or radius < 0:
        raise OutOfRange(f"need finite eps > 0 and R >= 0, got eps = {eps!r}, R = {radius!r}")
    if dist.masses.size <= LAW_MASSES_PER_SWEEP_CELL * weights.n_weights * chain.n_states:
        modulus = dist.char_fn_modulus
    else:
        modulus = abs_charfn(chain, signs, weights)
    depth = alias_safe_depth(2.0 * eps, float(np.abs(weights.scalars).max()))
    mantissa, exponent = math.frexp(eps)
    if mantissa == 0.5 and eps >= 0.5:
        # 4 eps = 2^(exponent + 1) half-periods
        integral = 4.0 * eps * adaptive_simpson(
            modulus, 0.0, 0.5, tol=QUAD_TOL / (4.0 * eps),
            min_depth=depth - exponent - 1)
    else:
        integral = 2.0 * adaptive_simpson(modulus, 0.0, eps,
                                          tol=QUAD_TOL / 2.0, min_depth=depth - 1)
    return (radius + 1.0 / eps) * integral


# theorem_bound with every constant 1.0 is the bound formula stripped of its
# constant: the denominator each fitted supremum is taken against
UNIT_CONSTANTS = {"C_equal": 1.0, "C_diff": 1.0, "C_prg": 1.0}


def window_probability(inst: fam.BoundInstance) -> float:
    dist = exact_sum_distribution(inst.chain, inst.signs, inst.weights)
    return smallball_exact(dist, inst.x0, inst.radius)


def fit_c_equal(seed: int = fam.DEFAULT_SEED, probs=None) -> FittedConstant:
    """probs, when given, are the family's window probabilities in order."""
    insts = fam.half_unit_family(seed)
    if probs is None:
        probs = [window_probability(inst) for inst in insts]
    pairs = [(prob, theorem_bound("scalar-half-unit",
                                  {"n": inst.signs.n_steps, "lam": inst.lam},
                                  UNIT_CONSTANTS))
             for inst, prob in zip(insts, probs)]
    return fit_constant(pairs, "C_equal", fam.HALF_UNIT_FAMILY_DESC,
                        grid={"seed": seed, "buckets": list(fam.HALF_UNIT_BUCKETS),
                              "n": [fam.HALF_UNIT_N_RANGE[0], fam.HALF_UNIT_N_RANGE[-1]]})


def point_mass_reports(constants, lams=fam.DIFF_LAMBDAS,
                       ns=fam.DIFF_N_GRID) -> list[BoundReport]:
    """Max point mass of each distinct-integer instance vs its C_diff bound."""
    reports = []
    for inst in fam.diff_instances(lams, ns):
        dist = exact_sum_distribution(inst["chain"], inst["signs"], inst["weights"])
        _, prob = dist.max_point_mass()
        bound = theorem_bound("distinct-int", {"n": inst["n"], "lam": inst["lam"]},
                              constants)
        reports.append(BoundReport(instance_id=inst["instance_id"], n=inst["n"], d=1,
                                   lam=inst["lam"], radius=0.0, prob=prob, bound=bound))
    return reports


def fit_c_diff() -> FittedConstant:
    pairs = [(r.prob, r.bound) for r in point_mass_reports(UNIT_CONSTANTS)]
    return fit_constant(pairs, "C_diff", fam.DIFF_FAMILY_DESC,
                        grid={"n": list(fam.DIFF_N_GRID),
                              "lambda": list(fam.DIFF_LAMBDAS)})


def fit_c_zp() -> FittedConstant:
    """The mod-p averaged transfer product needs its own constant: the zero
    frequency alone contributes 1/p, so the point-probability constant
    provably under-covers the average (n=9 already exceeds it)."""
    pairs = []
    for inst in fam.diff_instances():
        p = find_prime(inst["weights"])
        avg = zp_fourier_average(inst["chain"], inst["signs"], inst["weights"], p)
        pairs.append((avg, theorem_bound("distinct-int",
                                         {"n": inst["n"], "lam": inst["lam"]},
                                         UNIT_CONSTANTS)))
    return fit_constant(pairs, "C_zp", fam.ZP_FAMILY_DESC,
                        grid={"n": list(fam.DIFF_N_GRID),
                              "lambda": list(fam.DIFF_LAMBDAS)})


def walk_reports(constants, graph: ExpanderGraph, ns, x0: float = 0.0,
                 radius: float = 1.0) -> list[BoundReport]:
    """Walk-measure window probability of all-ones weights vs its C_prg bound."""
    return [BoundReport(instance_id=f"prg-k{graph.k}-n{n}", n=n, d=1,
                        lam=graph.certified_lambda or 0.0, radius=radius,
                        prob=prg_smallball(PrgSpec(graph=graph, n=n), np.ones(n),
                                           x0, radius),
                        bound=theorem_bound("prg", {"n": n}, constants))
            for n in ns]


def fit_c_prg() -> FittedConstant:
    pairs = [(r.prob, r.bound) for k in fam.PRG_K_GRID
             for r in walk_reports(UNIT_CONSTANTS, build_mgg_expander(k), fam.PRG_N_GRID)]
    return fit_constant(pairs, "C_prg", fam.PRG_FAMILY_DESC,
                        grid={"k": list(fam.PRG_K_GRID), "n": list(fam.PRG_N_GRID)})


def fit_c_esseen() -> FittedConstant:
    pairs = []
    for seed in (fam.ESSEEN_SEED, fam.ESSEEN_EXTRA_SEED):
        for inst in fam.esseen_family(seed, fam.ESSEEN_COUNT):
            dist = exact_sum_distribution(inst.chain, inst.signs, inst.weights)
            pairs.append((smallball_exact(dist, inst.x0, inst.radius),
                          esseen_formula(inst.chain, inst.signs, inst.weights, dist,
                                         inst.radius)))
    return fit_constant(pairs, "C_esseen", fam.ESSEEN_FAMILY_DESC,
                        grid={"seeds": [fam.ESSEEN_SEED, fam.ESSEEN_EXTRA_SEED],
                              "count": fam.ESSEEN_COUNT})


def fit_c_cos() -> FittedConstant:
    pairs = []
    for k in range(1, fam.COS_K_MAX + 1):
        integral = cosine_product_integral(np.ones(k))
        pairs.append((integral, 1.0 / math.sqrt(k)))
    return fit_constant(pairs, "C_cos", fam.COS_FAMILY_DESC,
                        grid={"k_max": fam.COS_K_MAX})


def coordinate_median(d: int) -> float:
    """Median of |v_1| for a uniform unit vector in R^d."""
    return brentq(lambda t: first_coord_tail(d, t) - 0.5, 0.0, 1.0,
                  xtol=1e-13, rtol=8.9e-16)


def fit_c_coord() -> FittedConstant:
    pairs = []
    for d in fam.COORD_D_RANGE:
        med = coordinate_median(d)
        pairs.append((1.0, med * math.sqrt(d)))
    return fit_constant(pairs, "C_coord", fam.COORD_FAMILY_DESC,
                        grid={"d": [fam.COORD_D_RANGE[0], fam.COORD_D_RANGE[-1]]})


def fit_c_size() -> FittedConstant:
    pairs = []
    for n in fam.SIZE_N_RANGE:
        pairs.append((size_bound_exponent(n), math.sqrt(n)))
    return fit_constant(pairs, "C_size", fam.SIZE_FAMILY_DESC,
                        grid={"n": [fam.SIZE_N_RANGE[0], fam.SIZE_N_RANGE[-1]]})


FITTERS = {
    "C_equal": fit_c_equal,
    "C_diff": fit_c_diff,
    "C_zp": fit_c_zp,
    "C_prg": fit_c_prg,
    "C_esseen": fit_c_esseen,
    "C_cos": fit_c_cos,
    "C_coord": fit_c_coord,
    "C_size": fit_c_size,
}
