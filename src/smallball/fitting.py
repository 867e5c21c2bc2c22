"""Derivation of every fitted constant from its recorded family.

Each routine walks a deterministic instance family, computes the exact (or
quadrature-exact) probability and the bound formula stripped of its constant,
and records the supremum of their ratio.  Rerunning reproduces the committed
values bit-for-bit.  Every family is walked by one sweep that takes the
constant, which the fitter runs at 1.0 and the acceptance criterion (and the
CLI, where it has a command) at the committed value:

- half_unit_reports: fit_c_equal, criterion 3
- point_mass_reports: fit_c_diff, criterion 4, the diff-scaling config kind
- walk_reports: fit_c_prg, criterion 9, the prg config kind
- esseen_reports (instances and their laws): fit_c_esseen, criterion 12

The closed-form formulas come from bounds.theorem_bound.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds
from . import families as fam
from .bounds import BoundReport, FittedConstant, fit_constant, theorem_bound
from .chains import WeightSystem
from .errors import OutOfRange, QuadratureNonConvergence
from .prg import ExpanderGraph, PrgSpec, build_mgg_expander, prg_smallball
from .quadrature import KRONROD_NODES, alias_safe_depth, integrate_family
from .transfer import (
    LawBlock,
    SumDistribution,
    char_fn_values,
    distributions_from_contributions,
    sign_contributions,
    smallball_exact,
)


def abs_charfn(chain, signs, weights):
    """|phi| at an ndarray of frequencies, by the transfer sweep.

    The sum is real, so phi(-xi) = conj phi(xi) and the sweep's moduli at xi
    and -xi agree bit for bit: each distinct |xi| is swept once and its value
    scattered back, which halves the work of a run over panels symmetric
    about 0.  A batch of two or more points gives each point the bits it
    gets in any other such batch, but a lone point takes another BLAS path
    and may round differently; so when a batch's |xi| collapse to one value,
    that value is swept as a batch of two.
    """
    contribs = sign_contributions(signs, weights)

    def f(xis):
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        mags, inverse = np.unique(np.abs(xis), return_inverse=True)
        if mags.size == 1 < xis.size:
            mags = np.repeat(mags, 2)
        return np.abs(char_fn_values(chain, contribs, mags))[inverse]

    return f


# Per point, the law's Horner form costs one complex multiply-add per mass and
# the transfer sweep about S multiply-adds and S exponentials per weight on S
# states, but the sweep's fixed cost per step is larger.  Timed on folded
# integrals the law is the cheaper |phi| up to 3-50 masses per step and state
# (the fewer, the fewer points per wave); past this many the sweep is used.
# The Esseen families have at most 5.875.
LAW_MASSES_PER_SWEEP_CELL = 10


# Laws per quadrature run of esseen_formulas.  On the fit's 400 stride-folded
# laws a block of 50 took 0.07 s, as did one block of all 400 with 6 MiB more
# transient memory, and one law per run 0.33 s (2-core Xeon, numpy 2.4.6).
ESSEEN_BLOCK = 50


def esseen_formula(chain, signs, weights: WeightSystem, dist: SumDistribution,
                   radius: float, eps: float = 1.0) -> float:
    """(R + 1/eps) * integral of |phi| over [-eps, eps]; the d=1 kernel.

    phi is the characteristic function of the integer-valued sum with exact
    law dist, evaluated from dist, or by the transfer sweep for laws with many
    masses per step and state.  |phi| is even and 1-periodic, so the integral
    folds exactly onto [0, eps], and onto [0, 1/2] for eps >= 1/2 a power of
    two; there a law of stride g (gcd of its masses' offsets, 1 for one point)
    has |phi(xi)| = |P(exp(2 pi i eta))| with P(w) = sum_i masses[g i] w^i and
    eta = g xi, so the run integrates masses[::g] over eta in [0, 1/2], from
    the depth of max |v| / g (transfer-sweep members keep g = 1).  Each fold
    keeps the tolerance of the run over [-eps, eps]; the dyadic folds (g a
    power of two) map that run's panels onto their own, so give its value up
    to rounding unless they start finer (small eps max |v|).  This is the
    one-member case of esseen_formulas.
    """
    return esseen_formulas([(chain, signs, weights, dist, radius)], eps)[0]


def esseen_formulas(members, eps: float = 1.0) -> list[float]:
    """esseen_formula of each member (chain, signs, weights, dist, radius),
    each bit for bit its own.

    Members whose |phi| comes from their law are integrated ESSEEN_BLOCK at a
    time in one quadrature run, their moduli in one Horner sweep per wave;
    each keeps its own fold, depth and tolerance.  A member that needs the
    transfer sweep keeps its own run.  The first member, in order, whose
    integral does not converge raises its error.
    """
    runs, coefficients, integrals = [], {}, [None] * len(members)
    mantissa, exponent = math.frexp(eps)
    half_period = mantissa == 0.5 and eps >= 0.5
    # fold factor, end and depth offset of the run; 4 eps = 2^(exponent + 1) half-periods
    fold, end, levels = (4.0 * eps, 0.5, exponent + 1) if half_period else (2.0, eps, 1)
    for i, (chain, signs, weights, dist, radius) in enumerate(members):
        if not (0.0 < eps < math.inf and 0.0 <= radius < math.inf):
            raise OutOfRange(
                f"need finite eps > 0 and R >= 0, got eps = {eps!r}, R = {radius!r}")
        by_law = dist.masses.size <= LAW_MASSES_PER_SWEEP_CELL * weights.n_weights * chain.n_states
        stride = 1
        if by_law and half_period:  # gcd 0 is a one-point law's
            stride = int(np.gcd.reduce(np.flatnonzero(dist.masses))) or 1
        depth = alias_safe_depth(2.0 * eps, float(np.abs(weights.scalars).max()) / stride)
        runs.append((0.0, end, bounds.QUAD_TOL / fold, depth - levels, ()))
        if by_law:
            coefficients[i] = dist.masses[::stride]
        else:
            sweep = abs_charfn(chain, signs, weights)
            integrals[i], = integrate_family(lambda x, owner: sweep(x), [runs[i]])
    by_law = list(coefficients)
    for begin in range(0, len(by_law), ESSEEN_BLOCK):
        block = by_law[begin:begin + ESSEEN_BLOCK]
        laws = LawBlock.of([coefficients[i] for i in block])

        def modulus(x, owner, laws=laws):
            return laws.char_fn_modulus(x, np.repeat(owner, KRONROD_NODES.size))

        values = integrate_family(modulus, [runs[i] for i in block])
        for i, value in zip(block, values):
            integrals[i] = value
    for integral in integrals:
        if isinstance(integral, QuadratureNonConvergence):
            raise integral
    return [(member[4] + 1.0 / eps) * (fold * integral)
            for member, integral in zip(members, integrals)]


# theorem_bound with every constant 1.0 is the bound formula stripped of its
# constant: the denominator each fitted supremum is taken against
UNIT_CONSTANTS = {"C_equal": 1.0, "C_diff": 1.0, "C_prg": 1.0}


def _instance_report(inst: fam.BoundInstance, prob: float, bound: float) -> BoundReport:
    return BoundReport(instance_id=inst.instance_id, n=inst.signs.n_steps, d=1,
                       lam=inst.lam, radius=inst.radius, prob=prob, bound=bound)


def instance_laws(instances) -> list[SumDistribution]:
    """The exact law of each instance, all from one
    distributions_from_contributions call; instances that share their chain,
    signs and weights (objects) share one law."""
    keys = [(id(inst.chain), id(inst.signs), id(inst.weights)) for inst in instances]
    distinct = dict(zip(keys, instances))
    laws = dict(zip(distinct, distributions_from_contributions(
        [(inst.chain, sign_contributions(inst.signs, inst.weights))
         for inst in distinct.values()])))
    return [laws[key] for key in keys]


def half_unit_reports(constants, seed: int) -> list[BoundReport]:
    """Window probability of each half-unit instance vs its C_equal bound."""
    instances = fam.half_unit_family(seed)
    return [_instance_report(
                inst, smallball_exact(law, inst.x0, inst.radius),
                theorem_bound("scalar-half-unit",
                              {"n": inst.signs.n_steps, "lam": inst.lam}, constants))
            for inst, law in zip(instances, instance_laws(instances))]


def fit_c_equal(seed: int = fam.DEFAULT_SEED, reports=None) -> FittedConstant:
    """reports, when given, are half_unit_reports at this seed and any constants;
    the refit reads only their probabilities, n and lambda."""
    if reports is None:
        reports = half_unit_reports(UNIT_CONSTANTS, seed)
    pairs = [(r.prob, theorem_bound("scalar-half-unit", {"n": r.n, "lam": r.lam},
                                    UNIT_CONSTANTS))
             for r in reports]
    return fit_constant(pairs, "C_equal", fam.HALF_UNIT_FAMILY_DESC,
                        grid={"seed": seed, "buckets": list(fam.HALF_UNIT_BUCKETS),
                              "n": [fam.HALF_UNIT_N_RANGE[0], fam.HALF_UNIT_N_RANGE[-1]]})


def point_mass_reports(constants, lams=fam.DIFF_LAMBDAS,
                       ns=fam.DIFF_N_GRID) -> list[BoundReport]:
    """Max point mass of each distinct-integer instance vs its C_diff bound."""
    instances = fam.diff_instances(lams, ns)
    return [_instance_report(
                inst, law.max_point_mass()[1],
                theorem_bound("distinct-int", {"n": inst.signs.n_steps, "lam": inst.lam},
                              constants))
            for inst, law in zip(instances, instance_laws(instances))]


def fit_c_diff() -> FittedConstant:
    pairs = [(r.prob, r.bound) for r in point_mass_reports(UNIT_CONSTANTS)]
    return fit_constant(pairs, "C_diff", fam.DIFF_FAMILY_DESC,
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


def esseen_reports(instances, dists, c: float) -> list[BoundReport]:
    """Window probability of each instance, whose exact law is the matching
    dist, vs c times its Esseen formula at eps = 1."""
    formulas = esseen_formulas([(inst.chain, inst.signs, inst.weights, dist, inst.radius)
                                for inst, dist in zip(instances, dists)])
    return [_instance_report(inst, smallball_exact(dist, inst.x0, inst.radius), c * formula)
            for inst, dist, formula in zip(instances, dists, formulas)]


def fit_c_esseen() -> FittedConstant:
    instances = [inst for seed in (fam.ESSEEN_SEED, fam.ESSEEN_EXTRA_SEED)
                 for inst in fam.esseen_family(seed, fam.ESSEEN_COUNT)]
    pairs = [(r.prob, r.bound) for r in esseen_reports(instances, instance_laws(instances), 1.0)]
    return fit_constant(pairs, "C_esseen", fam.ESSEEN_FAMILY_DESC,
                        grid={"seeds": [fam.ESSEEN_SEED, fam.ESSEEN_EXTRA_SEED],
                              "count": fam.ESSEEN_COUNT})


FITTERS = {
    "C_equal": fit_c_equal,
    "C_diff": fit_c_diff,
    "C_prg": fit_c_prg,
    "C_esseen": fit_c_esseen,
}
