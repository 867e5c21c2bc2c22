"""The benchmark's workloads: inputs from a seed, timed operations, oracles.

A workload is a list of queries.  Each query is an operation on smallball's
public API (timed) and a check of its output against an independent oracle
(not timed).  A check returns (label, ok, detail) triples; an exception in an
operation or a check counts as a failed check of that query.

- battery-refit: the battery, acceptance.run_criteria (criteria 1-12) once
  then render_report, one of the two passes ``smallball verify-all`` makes;
  then the refit, every fitter in smallball.fitting.FITTERS, checked bit for
  bit (its families are fixed by definition, so it ignores the seed).  Both
  run thousands of tiny instances (quadrature, char_fn_values, brute-force
  oracles).  They share one workload because the host's speed wanders over
  tens of seconds: two workloads rather than three leave each run twice the
  time to average that out within the benchmark's total time.
- large-n: long chains and many samples (lattice DP, rational DP, Monte Carlo,
  expander walks, spectral certification, one long Esseen integral).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from smallball import acceptance, bounds, chains, fitting, prg, quadrature, sampling, transfer
from smallball import families as fam

# MC and walk checks allow this many binomial standard errors: no seed
# plausibly breaks it, so the seed cannot change the failure count
MC_SE_LIMIT = 5.0
DFT_TOL = 1e-10
RATIONAL_TOL = 1e-12
# certify_lambda(build_mgg_expander(14)); a recorded reference value
MGG_K14_LAMBDA = 0.8196
MGG_K14_TOL = 5e-4


@dataclass
class Query:
    name: str
    op: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    queries: list
    observations: dict = field(default_factory=dict)


def make(name: str, seed: int, root) -> Workload:
    constants = bounds.load_constants()
    if name == "battery-refit":
        work = _battery(seed, constants)
        work.queries += _refit(root)
        return work
    if name == "large-n":
        return _large_n(seed, constants)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def _battery(seed: int, constants) -> Workload:
    """run_criteria once, then the report over its results.  The report's
    sha256 goes to the observations, so runs in separate processes can be
    compared byte for byte (selftest.py does)."""
    work = Workload("battery-refit", [])
    results: list = []

    def verdict(r):
        """Criterion 3 compares C_equal, the supremum over the family drawn at
        the default seed, with the family drawn at this seed; elsewhere the
        bound can be exceeded by ~1e-4 (seeds 6, 12, 18 and 27 of 0..39).
        Off the default seed that part is recorded as an observation and only
        the refit drift is checked."""
        if r.cid != 3 or seed == fam.DEFAULT_SEED:
            return bool(r.passed)
        worst = max(rep.ratio for rep in r.bound_reports)
        work.observations["criterion_03_worst_ratio_off_default_seed"] = worst
        return r.details["refit_drift"] < 0.05

    def criteria():
        results.clear()
        results.extend(acceptance.run_criteria(seed, constants))
        return results

    def criteria_check(out):
        checks = [(f"criterion_{cid:02d}", r.cid == cid and verdict(r), r.title)
                  for cid, r in enumerate(out, start=1)]
        if len(out) != 12:
            checks.append(("criteria_count", False, f"{len(out)} results, not 12"))
        return checks

    def report_check(text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = work.observations.setdefault("report_sha256", digest)
        ids = [c["id"] for c in json.loads(text)["criteria"]]
        return [("report_lists_criteria_1_12", ids == list(range(1, 13)), f"ids {ids}"),
                ("report_bytes_repeat", digest == first,
                 f"sha256 {digest} vs {first} in the first pass")]

    work.queries.append(Query("run_criteria", criteria, criteria_check))
    work.queries.append(Query("render_report",
                              lambda: acceptance.render_report(results, seed), report_check))
    return work


# ---------------------------------------------------------------------------
# refit
# ---------------------------------------------------------------------------


def _refit(root) -> list:
    path = root / "src" / "smallball" / "data" / "fitted_constants.json"
    committed = json.loads(path.read_text())
    # a committed constant without a fitter fails with KeyError
    names = list(fitting.FITTERS) + [n for n in committed if n not in fitting.FITTERS]
    return [Query(name, (lambda n=name: fitting.FITTERS[n]()),
                  _constant_check(name, committed.get(name)))
            for name in names]


def _constant_check(name, doc):
    def check(fitted):
        if doc is None:
            return [(name, False, "not in the committed file")]
        got = fitted.to_doc()
        same = (float(got["value"]).hex() == float(doc["value"]).hex()
                and got["family"] == doc["family"]
                and json.dumps(got["grid"], sort_keys=True)
                == json.dumps(doc["grid"], sort_keys=True))
        return [(name, same, f"{got['value']!r} vs committed {doc['value']!r}")]

    return check


# ---------------------------------------------------------------------------
# large-n
# ---------------------------------------------------------------------------


def _dft(dist, xis):
    """Characteristic function of a lattice law, straight from its masses."""
    s = dist.support().astype(float)
    return np.array([np.sum(dist.masses * np.exp(2j * np.pi * x * s)) for x in xis])


def _dft_check(label, chain, contribs, xis):
    def check(dist):
        want = _dft(dist, xis)
        got = transfer.char_fn_values(chain, contribs, xis)
        dev = float(np.max(np.abs(got - want)))
        return [(label, dev <= DFT_TOL, f"max |char_fn - DFT| = {dev:.3e}")]

    return check


def _window_check(label, exact_prob):
    def check(est):
        p = exact_prob()
        se = math.sqrt(p * (1.0 - p) / est.samples)
        z = (est.estimate - p) / se
        return [(label, abs(z) <= MC_SE_LIMIT,
                 f"estimate {est.estimate!r} vs exact {p!r}: {z:+.2f} SE")]

    return check


def _random_instance(rng, n_states, n, weights):
    chain = fam.random_reversible_chain(rng, n_states)
    signs = chains.make_sign_system(rng.choice([-1, 1], size=(n, n_states)),
                                    chain.stationary)
    return chain, signs, chains.make_weight_system(weights)


def _large_n(seed: int, constants) -> Workload:
    rng = np.random.default_rng(seed)
    work = Workload("large-n", [])
    q = work.queries

    # exact law: N = 16 states, n = 3000 unit weights, ~2.9e8 DP cells
    c16, s16, w16 = _random_instance(rng, 16, 3000, np.ones(3000))
    q.append(Query("exact_law_n3000_N16",
                   lambda: transfer.exact_sum_distribution(c16, s16, w16),
                   _dft_check("exact_law_dft", c16, transfer.sign_contributions(s16, w16),
                              rng.uniform(0.0, 0.5, 4))))

    # two-state laws at n = 8192
    n2 = 8192
    for lam in (0.0, 0.3, 0.6):
        c2 = chains.make_two_state_chain(lam)
        s2 = chains.repeated_signs(chains.parity_labels(2), n2, c2.stationary,
                                   balanced=True)
        w2 = chains.make_weight_system(np.ones(n2))
        if lam == 0.0:
            point = float(Fraction(math.comb(n2, n2 // 2), 2**n2))

            def check(dist, point=point):
                dev = abs(dist.probability_at(0) - point)
                return [("two_state_0.0_point_mass", dev <= RATIONAL_TOL,
                         f"|P(S=0) - C(n,n/2)/2^n| = {dev:.3e}")]
        else:
            check = _dft_check(f"two_state_{lam}_dft", c2, transfer.sign_contributions(s2, w2),
                               rng.uniform(0.0, 0.5, 3))
        q.append(Query(f"two_state_n{n2}_lam{lam}",
                       (lambda c2=c2, s2=s2, w2=w2:
                        transfer.exact_sum_distribution(c2, s2, w2)), check))

    # rational DP: lambda = 0.3, n = 120 (cost grows fast with n through the
    # denominators; n = 200 takes several times longer)
    c3 = chains.make_two_state_chain(0.3)
    s3 = chains.make_sign_system(rng.choice([-1, 1], size=(120, 2)), c3.stationary)
    w3 = chains.make_weight_system(np.ones(120))

    def rational_check(dist):
        floats = transfer.exact_sum_distribution(c3, s3, w3)
        points = set(dist.rational) | set(floats.support().tolist())
        dev = max(abs(floats.probability_at(s) - float(dist.rational.get(s, 0)))
                  for s in points)
        return [("rational_dp_vs_float", dev <= RATIONAL_TOL,
                 f"max |float - rational| = {dev:.3e}")]

    q.append(Query("rational_dp_n120",
                   lambda: transfer.exact_sum_distribution(c3, s3, w3, exact=True),
                   rational_check))

    # Monte Carlo: 1e5 samples of n = 256 steps on N = 4 states
    c4, s4, w4 = _random_instance(rng, 4, 256, np.ones(256))
    x4, r4 = float(2 * rng.integers(-2, 3)), float(rng.integers(2, 6))
    q.append(Query("smallball_mc_1e5_n256",
                   lambda: sampling.smallball_mc(c4, s4, w4, x4, r4, 100_000, seed),
                   _window_check("mc_within_5se", lambda: transfer.smallball_exact(
                       transfer.exact_sum_distribution(c4, s4, w4), x4, r4))))

    # sampled expander walks: 1e6 walks, k = 8, n = 256, weights in {1, 2}
    scalars = rng.integers(1, 3, 256).astype(float)
    r5 = 8.0

    def walks():
        spec = prg.PrgSpec(graph=prg.build_mgg_expander(8), n=256)
        return spec, prg.prg_smallball(spec, scalars, 0.0, r5, mode="sampled",
                                       samples=1_000_000, seed=seed)

    def walk_exact(spec):
        law = transfer.distribution_from_contributions(
            prg.induced_chain(spec), prg.block_contributions(spec, scalars))
        return transfer.smallball_exact(law, 0.0, r5)

    def walk_check(out):
        spec, est = out
        return _window_check("walks_within_5se", lambda: walk_exact(spec))(est)

    q.append(Query("sampled_walks_1e6_k8", walks, walk_check))

    # spectral certification of the k = 14 expander (16384 vertices, Lanczos)
    def certify_check(lam):
        ok = lam < acceptance.MGG_SPECTRAL_CEILING and abs(lam - MGG_K14_LAMBDA) <= MGG_K14_TOL
        return [("certify_k14", ok, f"lambda {lam!r}, ceiling "
                 f"{acceptance.MGG_SPECTRAL_CEILING}, reference {MGG_K14_LAMBDA}")]

    q.append(Query("certify_lambda_k14",
                   lambda: prg.certify_lambda(prg.build_mgg_expander(14)), certify_check))

    # one long Esseen integral: n = 1000, N = 4, integer weights 1..8
    c6, s6, w6 = _random_instance(rng, 4, 1000, rng.integers(1, 9, 1000).astype(float))
    x6, r6, eps = 0.0, 1.0, 1.0
    c_esseen = constants["C_esseen"]
    probe = rng.uniform(0.0, 0.5, 3)

    def esseen():
        depth = quadrature.alias_safe_depth(2.0 * eps, float(np.abs(w6.scalars).max()))
        return bounds.esseen_bound(fitting.abs_charfn(c6, s6, w6), 1, r6, eps,
                                   c_esseen, min_depth=depth)

    def esseen_check(bound):
        law = transfer.exact_sum_distribution(c6, s6, w6)
        dev = float(np.max(np.abs(fitting.abs_charfn(c6, s6, w6)(probe)
                                  - np.abs(_dft(law, probe)))))
        integral = bound / (c_esseen.value * (r6 + 1.0 / eps))
        # over [-1, 1] the integral of |phi| is at least twice any point mass
        # of an integer-valued sum, up to the quadrature tolerance
        floor = 2.0 * law.max_point_mass()[1]
        prob = transfer.smallball_exact(law, x6, r6)
        work.observations["esseen_n1000_prob_over_bound"] = prob / bound
        return [("esseen_integrand_dft", dev <= DFT_TOL, f"max ||phi| - |DFT|| = {dev:.3e}"),
                ("esseen_integral_floor", integral >= floor - bounds.QUAD_TOL,
                 f"integral {integral!r} vs 2 max P {floor!r}")]

    q.append(Query("esseen_integral_n1000", esseen, esseen_check))
    return work
