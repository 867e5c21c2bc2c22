"""The acceptance suite: every criterion as a callable, reportable check.

Each criterion returns a CriterionResult with JSON-able details; the CLI's
verify-all renders them to report files, and criterion 13 reruns the whole
battery to certify byte-identical output.  Each family sweep is defined once:
criteria 3, 4, 9 and 12 run the sweeps of smallball.fitting
(half_unit_reports, point_mass_reports, walk_reports, esseen_reports) at the
committed constants, where the fitters run them at 1.0; criteria 6, 9 and 11
check the proved bounds.C_COS, C_SIZE and C_COORD against closed forms and
quadrature; criterion 10 and the CLI's tightness run tightness_sweep; criteria
7 and 8 check the splitting inequality, the averaging identities and
switching domination on the oracles of smallball.oracles.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from . import families as fam
from . import oracles
from .bounds import (
    FittedConstant,
    binomial_negative_moments,
    cosine_power_integral,
    cosine_product_integrals,
    load_constants,
)
from .chains import (
    make_two_state_chain,
    make_weight_system,
    parity_labels,
    repeated_signs,
)
from .errors import OutOfRange
from .fitting import (
    esseen_reports,
    fit_c_equal,
    half_unit_reports,
    instance_laws,
    point_mass_reports,
    walk_reports,
)
from .prg import build_mgg_expander, certify_lambda, size_bound_exponent
from .sampling import first_coord_tails
from .transfer import (
    char_fn,
    distributions_from_contributions,
    dp_cells,
    sign_contributions,
)

MGG_SPECTRAL_CEILING = 0.884
SPLITTING_TOL = 1e-9
MAX_BATTERY_SECONDS = 600.0
# Holder instances and identity input sets of criterion 7
HOLDER_COUNT = 500
IDENTITY_COUNT = 1000


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: dict
    elapsed: float = 0.0
    bound_reports: list = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.cid:2d} [{status}] {self.title} ({self.elapsed:.1f}s)"


def _timed(cid, title, fn):
    t0 = time.perf_counter()
    passed, details, reports = fn()
    return CriterionResult(cid=cid, title=title, passed=passed, details=details,
                           elapsed=time.perf_counter() - t0, bound_reports=reports)


def loglog_slope(ns, probs) -> float:
    """Least-squares slope of log(prob) against log(n) over two or more distinct n."""
    if len(set(ns)) < 2:
        raise OutOfRange(f"a log-log slope needs two or more distinct n, got {list(ns)}")
    for n, p in zip(ns, probs):
        if not p > 0.0:
            raise OutOfRange(
                f"a log-log slope needs positive probabilities, got {p!r} at n = {n}")
    return float(np.polyfit([math.log(n) for n in ns],
                            [math.log(p) for p in probs], 1)[0])


def zero_masses(lams, ns) -> list[list[float]]:
    """P(sum = 0) on the two-state chain with all-ones weights, one list per
    lambda with one entry per n; every law from one DP call."""
    for n in ns:  # 2n (2n + 1) cells each, counted before any O(n) array
        dp_cells(2, n, 2 * n + 1)
    members = []
    for lam in lams:
        chain = make_two_state_chain(lam)
        for n in ns:
            signs = repeated_signs(parity_labels(2), n, chain.stationary, balanced=True)
            members.append((chain, sign_contributions(signs, make_weight_system(np.ones(n)))))
    probs = [law.probability_at(0) for law in distributions_from_contributions(members)]
    return [probs[k:k + len(ns)] for k in range(0, len(probs), len(ns))]


def tightness_sweep(lams, ns) -> list[tuple[float, float, list, list]]:
    """(lambda, log-log slope, P(sum = 0) per n, gap-normalized P per n) for
    each lambda; P sqrt((1 - lambda) n / (1 + lambda)) is flat in n when
    P ~ 1/sqrt(n)."""
    lams = list(map(float, lams))
    return [(lam, loglog_slope(ns, probs), probs,
             [p * math.sqrt((1.0 - lam) * n / (1.0 + lam)) for n, p in zip(ns, probs)])
            for lam, probs in zip(lams, zero_masses(lams, ns))]


def criterion_1(seed: int = fam.DEFAULT_SEED) -> CriterionResult:
    def run():
        instances = fam.oracle_family(seed, 200)
        dists = distributions_from_contributions(
            [(inst["chain"], sign_contributions(inst["signs"], inst["weights"]))
             for inst in instances])
        worst_char = 0.0
        worst_mass = 0.0
        for inst, dist in zip(instances, dists):
            paths = oracles.enumerate_paths(inst["chain"], inst["signs"], inst["weights"])
            for xi in inst["xis"]:
                fast = char_fn(inst["chain"], inst["signs"], inst["weights"], xi)
                slow = paths.char_fn(xi)
                dev = abs(complex(fast.re, fast.im) - complex(slow.re, slow.im))
                worst_char = max(worst_char, dev)
            law = paths.law()
            pts = set(law) | set(dist.support().tolist())
            for s in pts:
                worst_mass = max(worst_mass,
                                 abs(dist.probability_at(s) - law.get(s, 0.0)))
        ok = worst_char <= 1e-10 and worst_mass <= 1e-10
        return ok, {"instances": len(instances), "max_charfn_deviation": worst_char,
                    "max_mass_deviation": worst_mass}, []

    return _timed(1, "transfer matrix agrees with path enumeration", run)


def criterion_2() -> CriterionResult:
    def run():
        n = 10
        prob = zero_masses([0.0], [n])[0][0]  # lambda = 0: independent uniform signs
        expect = math.comb(n, n // 2) / 2**n
        dev = abs(prob - expect)
        return dev <= 1e-12, {"prob": prob, "expected": expect, "deviation": dev}, []

    return _timed(2, "extremal equal-weights point mass is binom(n,n/2)/2^n", run)


def criterion_3(constants, seed: int = fam.DEFAULT_SEED) -> CriterionResult:
    def run():
        c_equal = constants["C_equal"]
        reports = half_unit_reports(constants, seed)
        all_bounded = all(r.passed for r in reports)
        refit = fit_c_equal(seed, reports)
        drift = abs(refit.value - c_equal.value) / c_equal.value
        ok = all_bounded and drift < 0.05
        return ok, {"instances": len(reports), "all_bounded": all_bounded,
                    "committed": c_equal.value, "refit": refit.value,
                    "refit_drift": drift}, reports

    return _timed(3, "half-unit window bound holds with committed constant", run)


def criterion_4(constants) -> CriterionResult:
    def run():
        reports = point_mass_reports(constants, (0.0,))
        slope = loglog_slope([r.n for r in reports], [r.prob for r in reports])
        ok = all(r.passed for r in reports) and -1.7 <= slope <= -1.3
        return ok, {"slope": slope, "target": -1.5,
                    "all_bounded": all(r.passed for r in reports)}, reports

    return _timed(4, "distinct-integer point masses scale like n^-3/2", run)


def criterion_5() -> CriterionResult:
    def run():
        worst = -1.0
        count = 0
        ps = [p10 / 10.0 for p10 in range(1, 11)]
        for n in range(1, 51):
            for row in binomial_negative_moments(n, ps, (1, 2, 3)):
                for exact, bound in row:
                    worst = max(worst, exact - bound * (1.0 + 1e-12))
                    count += 1
        return worst <= 0.0, {"grid_points": count, "worst_excess": worst}, []

    return _timed(5, "binomial negative moment bound is exact on the whole grid", run)


def criterion_6() -> CriterionResult:
    def run():
        ks = range(1, fam.COS_K_MAX + 1)
        integrals = cosine_product_integrals([np.ones(k) for k in ks])
        worst_dev = worst_ratio = 0.0
        for k, integral in zip(ks, integrals):
            closed = cosine_power_integral(k)
            worst_dev = max(worst_dev, abs(integral - closed))
            worst_ratio = max(worst_ratio, closed / (bounds.C_COS / math.sqrt(k)))
        ok = worst_dev <= bounds.QUAD_TOL and worst_ratio <= 1.0
        return ok, {"k_max": fam.COS_K_MAX, "closed_form_deviation": worst_dev,
                    "worst_ratio": worst_ratio, "constant": bounds.C_COS}, []

    return _timed(6, "cosine-product integral decays like 1/sqrt(k)", run)


def criterion_7(seed: int = fam.DEFAULT_SEED) -> CriterionResult:
    def run():
        # largest lhs - rhs of the splitting inequality over the Holder family
        sides = oracles.holder_sides(fam.holder_family(seed, HOLDER_COUNT))
        worst_split = max(lhs - rhs for lhs, rhs in sides)
        # largest violation of each averaging-operator identity over the inputs
        reports = oracles.averaging_identity_reports(
            (inputs["mu"], inputs["us"], inputs["r_mats"], inputs["t_mats"])
            for inputs in fam.identity_inputs(seed + 1, IDENTITY_COUNT))
        worst = {name: max(0.0, *(getattr(rep, name) for rep in reports))
                 for name in ("averaging_sandwich", "l1_product", "diagonal_contraction")}
        ok = worst_split <= SPLITTING_TOL and max(worst.values()) <= oracles.IDENTITY_TOL
        return ok, {
            "holder_instances": len(sides), "worst_lhs_minus_rhs": worst_split,
            "identity_instances": len(reports), "worst_violations": worst}, []

    return _timed(7, "alternating-product splitting and averaging identities hold", run)


def criterion_8() -> CriterionResult:
    def run():
        # n in 2..SWITCHING_N_BUDGET and lambda in 0, 0.1, ..., 1
        reps = [oracles.switching_stats(n, lam10 / 10.0)
                for n in range(2, oracles.SWITCHING_N_BUDGET + 1) for lam10 in range(0, 11)]
        for rep in reps:
            if not (rep.dominates and rep.moment_chain_holds):
                return False, {"n": rep.n, "lam": rep.lam,
                               "worst_margin": rep.worst_margin}, []
        return True, {"grid_points": len(reps),
                      "worst_margin": min(rep.worst_margin for rep in reps)}, []

    return _timed(8, "switching count dominates its binomial minorant", run)


def criterion_9(constants) -> CriterionResult:
    def run():
        graphs = {k: build_mgg_expander(k) for k in fam.PRG_K_GRID}
        lam4 = certify_lambda(graphs[4])
        spectral_ok = lam4 < MGG_SPECTRAL_CEILING

        reports = [r for k in fam.PRG_K_GRID
                   for r in walk_reports(constants, graphs[k], fam.PRG_N_GRID)]
        bounds_ok = all(r.passed for r in reports)

        worst_size = max(size_bound_exponent(n) / (bounds.C_SIZE * math.sqrt(n))
                         for n in fam.SIZE_N_RANGE)
        size_ok = worst_size < 1.0
        ok = spectral_ok and bounds_ok and size_ok
        return ok, {"mgg_k4_lambda": lam4, "ceiling": MGG_SPECTRAL_CEILING,
                    "bounds_ok": bounds_ok, "worst_size_ratio": worst_size}, reports

    return _timed(9, "expander walks: spectrum, window bound, and set size", run)


def criterion_10() -> CriterionResult:
    def run():
        sweep = tightness_sweep(fam.TIGHTNESS_LAMBDAS, fam.TIGHTNESS_N_GRID)
        slopes = {str(lam): slope for lam, slope, _, _ in sweep}
        normalized = {str(lam): max(norm) for lam, _, _, norm in sweep}
        slopes_ok = all(-0.55 <= s <= -0.45 for s in slopes.values())
        ratio_ok = max(normalized.values()) <= 2.0 * normalized["0.0"]
        return slopes_ok and ratio_ok, {"slopes": slopes,
                                        "normalized_max": normalized}, []

    return _timed(10, "two-state tightness: sqrt scaling in the gap-adjusted n", run)


def criterion_11() -> CriterionResult:
    def run():
        ds = fam.COORD_D_RANGE
        floors = [1.0 / (bounds.C_COORD * math.sqrt(d)) for d in ds]
        tails = first_coord_tails(zip(ds, floors))
        worst_tail = min(1.0, *tails)
        closed = max(abs(a - oracles.coordinate_tail(d, t)) for d, t, a in zip(ds, floors, tails))
        d3_dev = abs(tails[1] - (1.0 - floors[1]))  # ds[1] = 3, whose tail is 1 - t
        ok = worst_tail >= 0.5 and d3_dev <= 1e-10 and closed <= 1e-10
        return ok, {"worst_tail": worst_tail, "d3_deviation": d3_dev,
                    "closed_form_deviation": closed, "constant": bounds.C_COORD}, []

    return _timed(11, "random unit vector coordinate tail clears one half", run)


def criterion_12(constants) -> CriterionResult:
    def run():
        c_esseen = constants["C_esseen"].value
        instances = fam.esseen_family(fam.ESSEEN_SEED, fam.ESSEEN_COUNT)
        reports = esseen_reports(instances, instance_laws(instances), c_esseen)
        ok = all(r.passed for r in reports)
        return ok, {"instances": len(reports), "bounds_ok": ok}, reports

    return _timed(12, "Fourier bound dominates: Esseen window", run)


def run_criteria(seed: int = fam.DEFAULT_SEED,
                 constants: dict[str, FittedConstant] | None = None) -> list[CriterionResult]:
    """Criteria 1..12; determinism (criterion_13) is checked over this output."""
    cc = constants if constants is not None else load_constants()
    return [
        criterion_1(seed),
        criterion_2(),
        criterion_3(cc, seed),
        criterion_4(cc),
        criterion_5(),
        criterion_6(),
        criterion_7(seed),
        criterion_8(),
        criterion_9(cc),
        criterion_10(),
        criterion_11(),
        criterion_12(cc),
    ]


def criterion_13(results: list[CriterionResult], seed: int = fam.DEFAULT_SEED,
                 constants: dict[str, FittedConstant] | None = None) -> CriterionResult:
    """Rerun criteria 1..12 and compare the rendered reports with results'."""
    rerun = run_criteria(seed, constants)
    identical = render_report(rerun, seed) == render_report(results, seed)
    elapsed = sum(r.elapsed for r in results) + sum(r.elapsed for r in rerun)
    in_budget = elapsed < MAX_BATTERY_SECONDS
    # wall time stays out of the details so the rendered report byte-compares
    return CriterionResult(cid=13, title="two runs render byte-identical reports",
                           passed=identical and in_budget,
                           details={"byte_identical": identical,
                                    "under_time_budget": in_budget},
                           elapsed=elapsed)


def render_report(results: list[CriterionResult], seed: int) -> str:
    """Canonical JSON for the whole battery; timing excluded so bytes compare."""
    doc = {
        "seed": seed,
        "criteria": [
            {"id": r.cid, "title": r.title, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
