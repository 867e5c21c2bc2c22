"""The acceptance suite: every criterion as a callable, reportable check.

Each criterion returns a CriterionResult with JSON-able details; the CLI's
verify-all renders them to report files and runs the whole battery twice to
certify byte-identical output, which tests/test_acceptance.py asserts per
criterion as well.
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
)
from .chains import make_independent_chain, make_weight_system, parity_labels, repeated_signs
from .fitting import esseen_formula, fit_c_equal, window_probability
from .oracles import (
    brute_force_char_fn,
    brute_force_distribution,
    check_averaging_identities,
    holder_lhs_rhs,
    switching_stats,
)
from .prg import (
    PrgSpec,
    build_mgg_expander,
    certify_lambda,
    prg_smallball,
    size_bound_exponent,
)
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
        chain = make_independent_chain([0.5, 0.5])
        signs = repeated_signs(parity_labels(2), n, chain.stationary, balanced=True)
        dist = exact_sum_distribution(chain, signs, make_weight_system(np.ones(n)))
        prob = dist.probability_at(0)
        expect = math.comb(n, n // 2) / 2**n
        dev = abs(prob - expect)
        return dev <= 1e-12, {"prob": prob, "expected": expect, "deviation": dev}, []

    return _timed(2, "extremal equal-weights point mass is binom(n,n/2)/2^n", run)


def criterion_3(constants, seed: int = fam.DEFAULT_SEED) -> CriterionResult:
    def run():
        c_equal = constants["C_equal"]
        reports = []
        for inst in fam.half_unit_family(seed):
            prob = window_probability(inst)
            bound = c_equal.value / ((1.0 - inst.lam) * math.sqrt(inst.signs.n_steps))
            reports.append(BoundReport(
                instance_id=inst.instance_id, n=inst.signs.n_steps, d=1,
                lam=inst.lam, radius=inst.radius, prob=prob, bound=bound))
        all_bounded = all(r.passed for r in reports)
        refit = fit_c_equal(seed)
        drift = abs(refit.value - c_equal.value) / c_equal.value
        ok = all_bounded and drift < 0.05
        return ok, {"instances": len(reports), "all_bounded": all_bounded,
                    "committed": c_equal.value, "refit": refit.value,
                    "refit_drift": drift}, reports

    return _timed(3, "half-unit window bound holds with committed constant", run)


def criterion_4(constants) -> CriterionResult:
    def run():
        c_diff = constants["C_diff"]
        reports = []
        log_n, log_p = [], []
        for inst in fam.diff_instances():
            if inst["lam"] != 0.0:
                continue
            dist = exact_sum_distribution(inst["chain"], inst["signs"], inst["weights"])
            _, prob = dist.max_point_mass()
            n = inst["n"]
            reports.append(BoundReport(
                instance_id=inst["instance_id"], n=n, d=1, lam=0.0, radius=0.0,
                prob=prob, bound=c_diff.value / n**1.5))
            log_n.append(math.log(n))
            log_p.append(math.log(prob))
        slope = float(np.polyfit(log_n, log_p, 1)[0])
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
        worst_split = -math.inf
        for inst in fam.holder_family(seed, 500):
            lhs, rhs = holder_lhs_rhs(inst)
            worst_split = max(worst_split, lhs - rhs)
        splits_ok = worst_split <= 1e-9

        worst = {"averaging_sandwich": 0.0, "l1_product": 0.0,
                 "diagonal_contraction": 0.0}
        for inputs in fam.identity_inputs(seed + 1, 1000):
            rep = check_averaging_identities(inputs["mu"], inputs["us"],
                                             inputs["r_mats"], inputs["t_mats"])
            worst["averaging_sandwich"] = max(worst["averaging_sandwich"],
                                              rep.averaging_sandwich)
            worst["l1_product"] = max(worst["l1_product"], rep.l1_product)
            worst["diagonal_contraction"] = max(worst["diagonal_contraction"],
                                                rep.diagonal_contraction)
        identities_ok = max(worst.values()) <= 1e-10
        return splits_ok and identities_ok, {
            "holder_instances": 500, "worst_lhs_minus_rhs": worst_split,
            "identity_instances": 1000, "worst_violations": worst}, []

    return _timed(7, "alternating-product splitting and averaging identities hold", run)


def criterion_8() -> CriterionResult:
    def run():
        worst = math.inf
        checks = 0
        for n in range(2, 14):
            for lam10 in range(0, 11):
                rep = switching_stats(n, lam10 / 10.0)
                worst = min(worst, rep.worst_margin)
                checks += 1
                if not (rep.dominates and rep.moment_chain_holds):
                    return False, {"n": n, "lam": lam10 / 10.0,
                                   "worst_margin": rep.worst_margin}, []
        return True, {"grid_points": checks, "worst_margin": worst}, []

    return _timed(8, "switching count dominates its binomial minorant", run)


def criterion_9(constants) -> CriterionResult:
    def run():
        c_prg = constants["C_prg"]
        c_size = constants["C_size"]
        graphs = {k: build_mgg_expander(k) for k in fam.PRG_K_GRID}
        lam4 = certify_lambda(graphs[4])
        spectral_ok = lam4 < MGG_SPECTRAL_CEILING

        reports = []
        for inst in fam.prg_instances():
            spec = PrgSpec(graph=graphs[inst["k"]], n=inst["n"])
            prob = prg_smallball(spec, np.ones(inst["n"]), 0.0, 1.0)
            reports.append(BoundReport(
                instance_id=inst["instance_id"], n=inst["n"], d=1,
                lam=graphs[inst["k"]].certified_lambda or 0.0, radius=1.0,
                prob=prob, bound=c_prg.value / math.sqrt(inst["n"])))
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
        for lam in fam.TIGHTNESS_LAMBDAS:
            probs = []
            for inst in fam.tightness_instances():
                if inst["lam"] != lam:
                    continue
                n = inst["n"]
                chain = inst["chain"]
                signs = repeated_signs(parity_labels(2), n, chain.stationary,
                                       balanced=True)
                dist = exact_sum_distribution(chain, signs,
                                              make_weight_system(np.ones(n)))
                p0 = dist.probability_at(0)
                probs.append((n, p0))
            slope = float(np.polyfit([math.log(n) for n, _ in probs],
                                     [math.log(p) for _, p in probs], 1)[0])
            slopes[str(lam)] = slope
            normalized[str(lam)] = max(
                p * math.sqrt((1.0 - lam) * n / (1.0 + lam)) for n, p in probs)
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
    """Criteria 1..12; determinism (13) is run by the caller over this output."""
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
