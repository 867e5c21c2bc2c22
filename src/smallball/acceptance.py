"""The acceptance suite: every criterion as a callable, reportable check.

Each criterion returns a CriterionResult with JSON-able details; the CLI's
verify-all renders them to report files, and criterion 13 reruns the whole
battery to certify byte-identical output.  The sweeps behind criteria 4, 7, 8
and 10 are the ones the CLI's diff-scaling, verify-claims and tightness
experiments run over their own grids.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import families as fam
from .bounds import (
    BoundReport,
    FittedConstant,
    binomial_negative_moment,
    cosine_product_integral,
    load_constants,
    theorem_bound,
)
from .chains import (
    make_two_state_chain,
    make_weight_system,
    parity_labels,
    repeated_signs,
)
from .errors import OutOfRange
from .fitting import (
    esseen_formula,
    fit_c_equal,
    point_mass_reports,
    walk_reports,
    window_probability,
)
from .oracles import (
    SWITCHING_N_BUDGET,
    brute_force_char_fn,
    brute_force_distribution,
    check_averaging_identities,
    holder_lhs_rhs,
    switching_stats,
)
from .prg import build_mgg_expander, certify_lambda, size_bound_exponent
from .sampling import first_coord_tail
from .transfer import (
    char_fn,
    exact_sum_distribution,
    fold_mod,
    mod_p_point_probability,
    next_prime_above,
    smallball_exact,
)

MGG_SPECTRAL_CEILING = 0.884
SPLITTING_TOL = 1e-9
IDENTITY_TOL = 1e-10
MAX_BATTERY_SECONDS = 600.0


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
    return float(np.polyfit([math.log(n) for n in ns],
                            [math.log(p) for p in probs], 1)[0])


def zero_masses(lam: float, ns) -> list[float]:
    """P(sum = 0) on the two-state chain with all-ones weights, one per n."""
    chain = make_two_state_chain(lam)
    out = []
    for n in ns:
        signs = repeated_signs(parity_labels(2), n, chain.stationary, balanced=True)
        dist = exact_sum_distribution(chain, signs, make_weight_system(np.ones(n)))
        out.append(dist.probability_at(0))
    return out


def gap_normalized(prob: float, lam: float, n: int) -> float:
    """prob * sqrt((1 - lam) n / (1 + lam)), flat in n when prob ~ 1/sqrt(n)."""
    return prob * math.sqrt((1.0 - lam) * n / (1.0 + lam))


def splitting_worst(seed: int, count: int = 500) -> float:
    """Largest lhs - rhs of the splitting inequality over the Holder family."""
    return max(lhs - rhs for lhs, rhs in map(holder_lhs_rhs,
                                              fam.holder_family(seed, count)))


def identity_worsts(seed: int, count: int = 1000) -> dict[str, float]:
    """Largest violation of each averaging-operator identity over the inputs."""
    worst = {"averaging_sandwich": 0.0, "l1_product": 0.0,
             "diagonal_contraction": 0.0}
    for inputs in fam.identity_inputs(seed, count):
        rep = check_averaging_identities(inputs["mu"], inputs["us"],
                                         inputs["r_mats"], inputs["t_mats"])
        for name in worst:
            worst[name] = max(worst[name], getattr(rep, name))
    return worst


def switching_grid(n_max: int) -> list:
    """switching_stats for n in 2..n_max and lambda in 0, 0.1, ..., 1."""
    return [switching_stats(n, lam10 / 10.0)
            for n in range(2, n_max + 1) for lam10 in range(0, 11)]


def criterion_1(seed: int = fam.DEFAULT_SEED) -> CriterionResult:
    def run():
        instances = fam.oracle_family(seed, 200)
        worst_char = 0.0
        worst_mass = 0.0
        for inst in instances:
            for xi in inst["xis"]:
                fast = char_fn(inst["chain"], inst["signs"], inst["weights"], xi)
                slow = brute_force_char_fn(inst["chain"], inst["signs"],
                                           inst["weights"], xi)
                dev = abs(complex(fast.re, fast.im) - complex(slow.re, slow.im))
                worst_char = max(worst_char, dev)
            dist = exact_sum_distribution(inst["chain"], inst["signs"], inst["weights"])
            law = brute_force_distribution(inst["chain"], inst["signs"], inst["weights"])
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
        prob = zero_masses(0.0, [n])[0]  # lambda = 0: independent uniform signs
        expect = math.comb(n, n // 2) / 2**n
        dev = abs(prob - expect)
        return dev <= 1e-12, {"prob": prob, "expected": expect, "deviation": dev}, []

    return _timed(2, "extremal equal-weights point mass is binom(n,n/2)/2^n", run)


def criterion_3(constants, seed: int = fam.DEFAULT_SEED) -> CriterionResult:
    def run():
        c_equal = constants["C_equal"]
        reports = []
        for inst in fam.half_unit_family(seed):
            n = inst.signs.n_steps
            reports.append(BoundReport(
                instance_id=inst.instance_id, n=n, d=1, lam=inst.lam,
                radius=inst.radius, prob=window_probability(inst),
                bound=theorem_bound("scalar-half-unit", {"n": n, "lam": inst.lam},
                                    constants)))
        all_bounded = all(r.passed for r in reports)
        refit = fit_c_equal(seed, [r.prob for r in reports])
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
        for n in range(1, 51):
            for d in (1, 2, 3):
                for p10 in range(1, 11):
                    exact, bound = binomial_negative_moment(n, p10 / 10.0, d)
                    worst = max(worst, exact - bound * (1.0 + 1e-12))
                    count += 1
        return worst <= 0.0, {"grid_points": count, "worst_excess": worst}, []

    return _timed(5, "binomial negative moment bound is exact on the whole grid", run)


def criterion_6(constants) -> CriterionResult:
    def run():
        c_cos = constants["C_cos"]
        worst_ratio = 0.0
        for k in range(1, fam.COS_K_MAX + 1):
            val = cosine_product_integral(np.ones(k)) * math.sqrt(k)
            worst_ratio = max(worst_ratio, val / c_cos.value)
        return worst_ratio <= 1.0, {"k_max": fam.COS_K_MAX,
                                    "worst_ratio": worst_ratio,
                                    "committed": c_cos.value}, []

    return _timed(6, "cosine-product integral decays like 1/sqrt(k)", run)


def criterion_7(seed: int = fam.DEFAULT_SEED) -> CriterionResult:
    def run():
        worst_split = splitting_worst(seed)
        worst = identity_worsts(seed + 1)
        ok = worst_split <= SPLITTING_TOL and max(worst.values()) <= IDENTITY_TOL
        return ok, {
            "holder_instances": 500, "worst_lhs_minus_rhs": worst_split,
            "identity_instances": 1000, "worst_violations": worst}, []

    return _timed(7, "alternating-product splitting and averaging identities hold", run)


def criterion_8() -> CriterionResult:
    def run():
        reps = switching_grid(SWITCHING_N_BUDGET)
        for rep in reps:
            if not (rep.dominates and rep.moment_chain_holds):
                return False, {"n": rep.n, "lam": rep.lam,
                               "worst_margin": rep.worst_margin}, []
        return True, {"grid_points": len(reps),
                      "worst_margin": min(rep.worst_margin for rep in reps)}, []

    return _timed(8, "switching count dominates its binomial minorant", run)


def criterion_9(constants) -> CriterionResult:
    def run():
        c_size = constants["C_size"]
        graphs = {k: build_mgg_expander(k) for k in fam.PRG_K_GRID}
        lam4 = certify_lambda(graphs[4])
        spectral_ok = lam4 < MGG_SPECTRAL_CEILING

        reports = [r for k in fam.PRG_K_GRID
                   for r in walk_reports(constants, graphs[k], fam.PRG_N_GRID)]
        bounds_ok = all(r.passed for r in reports)

        worst_size = 0.0
        for n in fam.SIZE_N_RANGE:
            worst_size = max(worst_size,
                             size_bound_exponent(n) / (c_size.value * math.sqrt(n)))
        size_ok = worst_size <= 1.0
        ok = spectral_ok and bounds_ok and size_ok
        return ok, {"mgg_k4_lambda": lam4, "ceiling": MGG_SPECTRAL_CEILING,
                    "bounds_ok": bounds_ok, "worst_size_ratio": worst_size}, reports

    return _timed(9, "expander walks: spectrum, window bound, and set size", run)


def criterion_10() -> CriterionResult:
    def run():
        normalized = {}
        slopes = {}
        ns = fam.TIGHTNESS_N_GRID
        for lam in fam.TIGHTNESS_LAMBDAS:
            probs = zero_masses(lam, ns)
            slopes[str(lam)] = loglog_slope(ns, probs)
            normalized[str(lam)] = max(gap_normalized(p, lam, n)
                                       for n, p in zip(ns, probs))
        slopes_ok = all(-0.55 <= s <= -0.45 for s in slopes.values())
        ratio_ok = max(normalized.values()) <= 2.0 * normalized["0.0"]
        return slopes_ok and ratio_ok, {"slopes": slopes,
                                        "normalized_max": normalized}, []

    return _timed(10, "two-state tightness: sqrt scaling in the gap-adjusted n", run)


def criterion_11(constants) -> CriterionResult:
    def run():
        c_coord = constants["C_coord"]
        worst_tail = 1.0
        for d in fam.COORD_D_RANGE:
            tail = first_coord_tail(d, 1.0 / (c_coord.value * math.sqrt(d)))
            worst_tail = min(worst_tail, tail)
        t3 = 1.0 / (c_coord.value * math.sqrt(3))
        d3_dev = abs(first_coord_tail(3, t3) - (1.0 - t3))
        ok = worst_tail >= 0.5 and d3_dev <= 1e-10
        return ok, {"worst_tail": worst_tail, "d3_deviation": d3_dev,
                    "committed": c_coord.value}, []

    return _timed(11, "random unit vector coordinate tail clears one half", run)


def criterion_12(constants) -> CriterionResult:
    def run():
        c_esseen = constants["C_esseen"]
        reports = []
        mod_ok = True
        fourier_worst = 0.0
        for inst in fam.esseen_family(fam.ESSEEN_SEED, fam.ESSEEN_COUNT):
            dist = exact_sum_distribution(inst.chain, inst.signs, inst.weights)
            prob = smallball_exact(dist, inst.x0, inst.radius)
            bound = c_esseen.value * esseen_formula(inst.chain, inst.signs, inst.weights,
                                                    dist, inst.radius)
            reports.append(BoundReport(
                instance_id=inst.instance_id, n=inst.signs.n_steps, d=1,
                lam=inst.lam, radius=inst.radius, prob=prob, bound=bound))

            p = next_prime_above(2 * int(np.abs(inst.weights.scalars).max()))
            x0 = int(inst.x0)
            point = dist.probability_at(x0)
            residue = float(fold_mod(dist, p)[x0 % p])
            mod_ok = mod_ok and point <= residue
            inverted = mod_p_point_probability(inst.chain, inst.signs,
                                               inst.weights, p, x0)
            fourier_worst = max(fourier_worst, abs(inverted - residue))
        bounds_ok = all(r.passed for r in reports)
        ok = bounds_ok and mod_ok and fourier_worst <= 1e-10
        return ok, {"instances": len(reports), "bounds_ok": bounds_ok,
                    "mod_p_dominates": mod_ok,
                    "max_fourier_inversion_deviation": fourier_worst}, reports

    return _timed(12, "Fourier bounds dominate: Esseen window and mod-p point", run)


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
        criterion_6(cc),
        criterion_7(seed),
        criterion_8(),
        criterion_9(cc),
        criterion_10(),
        criterion_11(cc),
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
