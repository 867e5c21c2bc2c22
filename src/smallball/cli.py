"""Command-line entry point wiring all modules together.

Subcommands cover the individual computations (spectral-gap, exact-dist,
smallball, esseen, zp-average, prg-build, prg-test), experiment sweeps
(tightness, run --config), constant fitting, and the verification suites
(verify-claims, verify-all).  Exit codes: 0 pass, 1 bound or claim violation,
2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import acceptance
from . import families as fam
from .bounds import (
    REPORT_FIELDS,
    BoundReport,
    load_constants,
    save_constants,
    write_bound_reports,
)
from .chains import (
    load_chain_file,
    load_weights_file,
    make_weight_system,
    parity_labels,
    read_json_file,
    repeated_signs,
    spectral_lambda,
)
from .errors import ConfigError, SmallballError
from .fitting import FITTERS, esseen_formula, point_mass_reports, walk_reports
from .oracles import SWITCHING_N_BUDGET, lp_norm
from .prg import (
    PrgSpec,
    build_mgg_expander,
    certify_lambda,
    load_graph,
    prg_smallball,
    save_graph,
)
from .sampling import McEstimate, smallball_mc
from .transfer import (
    exact_sum_distribution,
    find_prime,
    mod_p_point_probability,
    next_prime_above,
    smallball_exact,
    zp_fourier_average,
)

EXPERIMENT_KINDS = ("smallball-exact", "smallball-mc", "diff-scaling", "prg",
                    "tightness", "verify-claims", "fit-constants")
GENERATORS = ("all-ones", "arange", "random-unit")


@dataclass
class ExperimentConfig:
    kind: str
    chain: str | None = None
    weights: str | None = None
    generator: str | None = None
    n: int | None = None
    dim: int = 1
    x0: float = 0.0
    radius: float = 1.0
    n_list: list = field(default_factory=list)
    lambda_list: list = field(default_factory=list)
    seed: int = fam.DEFAULT_SEED
    samples: int = 100_000
    k: int | None = None
    constants: str | None = None
    out: str | None = None
    budget: int = 10**6


CONFIG_FIELDS = set(ExperimentConfig.__dataclass_fields__)


def load_config(path) -> ExperimentConfig:
    doc = read_json_file(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    if "kind" not in doc:
        raise ConfigError(f"{path}: missing field 'kind'")
    if doc["kind"] not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"{path}: 'kind' must be one of {EXPERIMENT_KINDS}, got {doc['kind']!r}")
    unknown = set(doc) - CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"{path}: unknown fields {sorted(unknown)}")
    return ExperimentConfig(**doc)


def _validate_config(config: ExperimentConfig) -> None:
    for name, low in (("samples", 1), ("seed", None)):
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int) or (
                low is not None and value < low):
            need = "an integer" if low is None else f"an integer >= {low}"
            raise ConfigError(f"'{name}' must be {need}, got {value!r}")
    if config.kind in ("smallball-exact", "smallball-mc"):
        if config.chain is None:
            raise ConfigError(f"kind {config.kind}: field 'chain' is required")
        if config.weights is None and config.generator is None:
            raise ConfigError(
                f"kind {config.kind}: one of 'weights' or 'generator' is required")
    if config.generator is not None and config.generator not in GENERATORS:
        raise ConfigError(f"'generator': must be one of {GENERATORS}")
    if config.kind == "prg" and config.k is None and not config.n_list:
        raise ConfigError("kind prg: field 'k' (with 'n') or 'n_list' is required")


def _resolve_weights(config: ExperimentConfig):
    n = config.n
    if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 1):
        raise ConfigError(f"'n' must be an integer >= 1, got {n!r}")
    if config.weights is not None:
        return load_weights_file(config.weights)
    if n is None:
        raise ConfigError("weight generator needs 'n'")
    if config.generator in (None, "all-ones"):
        return make_weight_system(np.ones(n))
    if config.generator == "arange":
        return make_weight_system(np.arange(1.0, n + 1.0),
                                  "distinct-positive-integers")
    rng = np.random.default_rng(config.seed)
    v = rng.normal(size=(n, config.dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return make_weight_system(v)


def _load_instance(config: ExperimentConfig):
    """(chain, signs, weights) from the config's chain file and weights."""
    weights = _resolve_weights(config)
    n = weights.n_weights
    chain, signs = load_chain_file(config.chain)
    if signs is None:
        signs = repeated_signs(parity_labels(chain.n_states), n, chain.stationary)
    elif signs.n_steps < n:
        raise ConfigError(
            f"chain file provides {signs.n_steps} sign rows but n = {n} are needed")
    return chain, signs, weights


def _instance_from_args(args):
    if args.chain is None:
        raise ConfigError(f"{args.command}: --chain is required")
    return _load_instance(ExperimentConfig(
        kind="smallball-exact", chain=args.chain, weights=args.weights,
        generator=args.generator, n=args.n))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_distribution_csv(path, dist):
    _write_csv(path, ["sum", "probability"],
               ([s, repr(p)] for s, p in zip(dist.support().tolist(),
                                             dist.masses.tolist())))


# ---------------------------------------------------------------------------
# experiment dispatch
# ---------------------------------------------------------------------------


def run(config: ExperimentConfig) -> int:
    """Execute one experiment config; returns the process exit code."""
    _validate_config(config)
    handler = {
        "smallball-exact": _run_smallball_exact,
        "smallball-mc": _run_smallball_mc,
        "diff-scaling": _run_diff_scaling,
        "prg": _run_prg,
        "tightness": _run_tightness,
        "verify-claims": _run_verify_claims,
        "fit-constants": _run_fit_constants,
    }[config.kind]
    return handler(config)


def _run_smallball_exact(config: ExperimentConfig) -> int:
    chain, signs, weights = _load_instance(config)
    dist = exact_sum_distribution(chain, signs, weights)
    prob = smallball_exact(dist, config.x0, config.radius)
    print(f"P[|sum - {config.x0}| <= {config.radius}] = {prob!r}")
    if config.out:
        _write_distribution_csv(config.out, dist)
        print(f"distribution written to {config.out}")
    return 0


def _run_smallball_mc(config: ExperimentConfig) -> int:
    chain, signs, weights = _load_instance(config)
    est = smallball_mc(chain, signs, weights, config.x0, config.radius,
                       config.samples, config.seed)
    print(f"estimate {est.estimate!r}  99% CI [{est.ci_low!r}, {est.ci_high!r}]  "
          f"samples {est.samples}  seed {est.seed}")
    if config.out:
        rep = BoundReport(instance_id=f"mc-seed{config.seed}", n=weights.n_weights,
                          d=weights.dimension, lam=spectral_lambda(chain),
                          radius=config.radius, prob=est.estimate, bound=est.ci_high)
        write_bound_reports(config.out, [rep])
        print(f"estimate written to {config.out}")
    return 0


def _run_diff_scaling(config: ExperimentConfig) -> int:
    constants = load_constants(config.constants)
    n_list = config.n_list or fam.DIFF_N_GRID
    rows = []
    for lam in config.lambda_list or fam.DIFF_LAMBDAS:
        reports = point_mass_reports(constants, [lam], n_list)
        slope = acceptance.loglog_slope([r.n for r in reports],
                                        [r.prob for r in reports])
        rows += [(r, repr(slope)) for r in reports]
    all_pass = all(r.passed for r, _ in rows)
    out = config.out or "diff_scaling.csv"
    _write_csv(out, list(REPORT_FIELDS) + ["slope"],
               (r.row() + [slope] for r, slope in rows))
    print(f"{'all bounds hold' if all_pass else 'BOUND VIOLATION'}; report: {out}")
    return 0 if all_pass else 1


def _run_prg(config: ExperimentConfig) -> int:
    constants = load_constants(config.constants)
    graph = build_mgg_expander(config.k or 4)
    certify_lambda(graph)
    n_list = [int(x) for x in (config.n_list or fam.PRG_N_GRID)]
    rows = walk_reports(constants, graph, n_list, config.x0, config.radius)
    out = config.out or "prg_bounds.csv"
    all_pass = write_bound_reports(out, rows)
    print(f"certified lambda {graph.certified_lambda!r}; "
          f"{'all bounds hold' if all_pass else 'BOUND VIOLATION'}; report: {out}")
    return 0 if all_pass else 1


def _run_tightness(config: ExperimentConfig) -> int:
    n_list = [int(x) for x in (config.n_list or fam.TIGHTNESS_N_GRID)]
    rows = []
    for lam in map(float, config.lambda_list or fam.TIGHTNESS_LAMBDAS):
        probs = acceptance.zero_masses(lam, n_list)
        slope = acceptance.loglog_slope(n_list, probs)
        rows += [[f"tight-l{lam}-n{n}", lam, n, repr(p0),
                  repr(acceptance.gap_normalized(p0, lam, n)), repr(slope)]
                 for n, p0 in zip(n_list, probs)]
    out = config.out or "tightness.csv"
    _write_csv(out, ["instance_id", "lambda", "n", "prob_zero", "normalized", "slope"],
               rows)
    print(f"tightness sweep written to {out}")
    return 0


def _claim(instances: int, violation: float, passed: bool) -> dict:
    return {"instances": instances, "max_violation": violation, "pass": passed}


def _run_verify_claims(config: ExperimentConfig) -> int:
    seed = config.seed
    worst = acceptance.splitting_worst(seed)
    report = {"splitting-inequality": _claim(500, worst,
                                             worst <= acceptance.SPLITTING_TOL)}
    for name, value in acceptance.identity_worsts(seed + 1).items():
        report[name.replace("_", "-")] = _claim(1000, value,
                                                value <= acceptance.IDENTITY_TOL)

    switching_cap = min(SWITCHING_N_BUDGET,
                        max(4, int(math.log2(max(config.budget, 16))) + 1))
    reps = acceptance.switching_grid(switching_cap)
    margin = min(rep.worst_margin for rep in reps)
    report["switching-domination"] = _claim(len(reps), max(0.0, -margin),
                                            margin >= -1e-12)

    rng = np.random.default_rng(seed + 2)
    worst_chain = 0.0
    for _ in range(1000):
        n_states = int(rng.integers(2, 9))
        mu = rng.dirichlet(np.ones(n_states))
        v = rng.normal(size=n_states)
        l1, l2, linf = (lp_norm(v, mu, 1), lp_norm(v, mu, 2),
                        lp_norm(v, mu, np.inf))
        worst_chain = max(worst_chain, l1 - l2, l2 - linf)
    report["norm-chain"] = _claim(1000, worst_chain, worst_chain <= 1e-10)

    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if config.out:
        Path(config.out).write_text(text)
        print(f"claim report written to {config.out}")
    else:
        print(text, end="")
    return 0 if all(sub["pass"] for sub in report.values()) else 1


def _run_fit_constants(config: ExperimentConfig) -> int:
    committed = load_constants(config.constants)
    fitted = {}
    for name, fitter in FITTERS.items():
        t0 = time.perf_counter()
        fitted[name] = fitter()
        drift = ""
        if name in committed:
            rel = abs(fitted[name].value - committed[name].value) / committed[name].value
            drift = f"  (drift vs committed: {rel:.2e})"
        print(f"{name:10s} = {fitted[name].value!r}"
              f"  [{time.perf_counter() - t0:.1f}s]{drift}")
    out = config.out or "fitted_constants.json"
    save_constants(fitted, out)
    print(f"constants written to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _config_from_args(args, kind: str) -> ExperimentConfig:
    config = load_config(args.config) if getattr(args, "config", None) else \
        ExperimentConfig(kind=kind)
    if config.kind != kind:
        raise ConfigError(
            f"config kind {config.kind!r} does not match subcommand {kind!r}")
    for name in CONFIG_FIELDS:
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None:
            setattr(config, name, value)
    return config


def _add_common(sub, *names):
    if "config" in names:
        sub.add_argument("--config", help="experiment config JSON; flags override")
    if "chain" in names:
        sub.add_argument("--chain", help="chain JSON file")
    if "weights" in names:
        sub.add_argument("--weights", help="weights JSON file")
        sub.add_argument("--generator", choices=GENERATORS,
                         help="generate weights instead of reading a file")
        sub.add_argument("--n", type=int, help="weight count for a generator")
    if "window" in names:
        sub.add_argument("--x0", "--center", dest="x0", type=float,
                         help="window center")
        sub.add_argument("--radius", type=float, help="window radius")
    if "seed" in names:
        sub.add_argument("--seed", type=int, help="random seed")
    if "out" in names:
        sub.add_argument("--out", help="output file")
    if "constants" in names:
        sub.add_argument("--constants", help="fitted constants JSON to use")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallball",
        description="Small-ball probabilities of Markov-driven signed sums: "
                    "exact computation, bounds, and expander-walk sign sets.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("spectral-gap", help="validate a chain and print lambda")
    sub.add_argument("--chain", required=True)

    sub = subs.add_parser("exact-dist", help="exact lattice law of the signed sum")
    _add_common(sub, "chain", "weights", "out")

    sub = subs.add_parser("smallball", help="window probability, exact or MC")
    _add_common(sub, "config", "chain", "weights", "window", "seed", "out")
    sub.add_argument("--mode", choices=("exact", "mc"), default="exact")
    sub.add_argument("--samples", type=int)

    sub = subs.add_parser("esseen", help="window probability vs its Fourier bound")
    _add_common(sub, "chain", "weights", "window", "constants")
    sub.add_argument("--eps", type=float, default=1.0)

    sub = subs.add_parser("zp-average", help="averaged |char fn| over Z_p")
    _add_common(sub, "chain", "weights")
    sub.add_argument("--prime", type=int, help="modulus; default from the weights")
    sub.add_argument("--x0", type=float, default=0.0)

    sub = subs.add_parser("verify-claims", help="run the proof-oracle suite")
    _add_common(sub, "config", "seed", "out")
    sub.add_argument("--budget", type=int)

    sub = subs.add_parser("fit-constants", help="re-derive every fitted constant")
    _add_common(sub, "config", "out")

    sub = subs.add_parser("prg-build", help="build an expander graph file")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--out", required=True)

    sub = subs.add_parser("prg-test", help="small-ball probability over walk signs")
    _add_common(sub, "weights", "window", "seed")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--graph", help="graph JSON; default builds MGG for k")
    sub.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    sub.add_argument("--samples", type=int, default=100_000)
    sub.add_argument("--pad-to-multiple", action="store_true",
                     help="append zero weights until k divides n")

    sub = subs.add_parser("tightness", help="two-state P(sum=0) scaling sweep")
    _add_common(sub, "config", "out")
    sub.add_argument("--n-list", dest="n_list",
                     type=lambda s: [int(x) for x in s.split(",")])
    sub.add_argument("--lambdas", dest="lambda_list",
                     type=lambda s: [float(x) for x in s.split(",")])

    sub = subs.add_parser("run", help="run an experiment config file")
    sub.add_argument("--config", required=True)

    sub = subs.add_parser("verify-all", help="run the full acceptance battery")
    _add_common(sub, "seed", "constants")
    sub.add_argument("--out", help="report directory", default="verify_reports")

    return parser


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_spectral_gap(args) -> int:
    chain, _ = load_chain_file(args.chain)
    print(repr(spectral_lambda(chain)))
    return 0


def _cmd_exact_dist(args) -> int:
    chain, signs, weights = _instance_from_args(args)
    dist = exact_sum_distribution(chain, signs, weights)
    out = args.out or "distribution.csv"
    _write_distribution_csv(out, dist)
    print(f"{dist.masses.size} lattice points written to {out}")
    return 0


def _cmd_smallball(args) -> int:
    kind = "smallball-mc" if args.mode == "mc" else "smallball-exact"
    config = _config_from_args(args, kind)
    return run(config)


def _cmd_esseen(args) -> int:
    constants = load_constants(args.constants)
    chain, signs, weights = _instance_from_args(args)
    radius = args.radius if args.radius is not None else 1.0
    x0 = args.x0 if args.x0 is not None else 0.0
    dist = exact_sum_distribution(chain, signs, weights)
    prob = smallball_exact(dist, x0, radius)
    bound = constants["C_esseen"].value * esseen_formula(chain, signs, weights, dist,
                                                         radius, args.eps)
    print(f"prob {prob!r}  bound {bound!r}  ratio {prob / bound!r}")
    return 0 if prob <= bound else 1


def _cmd_zp_average(args) -> int:
    chain, signs, weights = _instance_from_args(args)
    if args.prime is not None:
        p = args.prime
    elif weights.variant == "distinct-positive-integers":
        p = find_prime(weights)
    else:
        p = next_prime_above(2 * int(np.abs(weights.scalars).max()))
    avg = zp_fourier_average(chain, signs, weights, p)
    point = mod_p_point_probability(chain, signs, weights, p, int(args.x0))
    print(f"p {p}  average {avg!r}  P[sum = {int(args.x0)} mod p] <= {point!r}")
    return 0


def _cmd_prg_build(args) -> int:
    graph = build_mgg_expander(args.k)
    if graph.n_vertices <= 2**14:
        certify_lambda(graph)
    save_graph(graph, args.out)
    lam = graph.certified_lambda
    print(f"graph with {graph.n_vertices} vertices written to {args.out}; "
          f"lambda {'uncertified' if lam is None else repr(lam)}")
    return 0


def _cmd_prg_test(args) -> int:
    graph = load_graph(args.graph) if args.graph else build_mgg_expander(args.k)
    w = _resolve_weights(ExperimentConfig(
        kind="prg", weights=args.weights, generator=args.generator,
        n=args.n or 4 * args.k)).scalars
    if args.pad_to_multiple and len(w) % graph.k:
        if w.min() < 1.0 - 1e-12:
            raise ConfigError("--pad-to-multiple: original weights must be >= 1")
        pad = graph.k - len(w) % graph.k
        w = np.concatenate([w, np.zeros(pad)])
        print(f"padded with {pad} zero weights to n = {len(w)}")
    spec = PrgSpec(graph=graph, n=len(w))
    x0 = args.x0 if args.x0 is not None else 0.0
    radius = args.radius if args.radius is not None else 1.0
    allow_pad = bool(args.pad_to_multiple)
    result = prg_smallball(spec, w, x0, radius, mode=args.mode,
                           samples=args.samples, seed=args.seed or 0,
                           allow_zero_padding=allow_pad)
    if isinstance(result, McEstimate):
        print(f"estimate {result.estimate!r}  99% CI "
              f"[{result.ci_low!r}, {result.ci_high!r}]")
    else:
        print(f"P[|sum - {x0}| <= {radius}] = {result!r}  over |D| = {spec.size}")
    return 0


def _cmd_verify_all(args) -> int:
    constants = load_constants(args.constants)
    seed = args.seed if args.seed is not None else fam.DEFAULT_SEED
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = acceptance.run_criteria(seed, constants)
    results.append(acceptance.criterion_13(results, seed, constants))

    (out_dir / "acceptance.json").write_text(
        acceptance.render_report(results, seed))
    for r in results:
        if r.bound_reports:
            write_bound_reports(out_dir / f"criterion_{r.cid:02d}_bounds.csv",
                                r.bound_reports)
        print(r.line())
    ok = all(r.passed for r in results)
    print(f"{'ALL CRITERIA PASS' if ok else 'FAILURES PRESENT'}; "
          f"reports in {out_dir}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "spectral-gap": _cmd_spectral_gap,
        "exact-dist": _cmd_exact_dist,
        "smallball": _cmd_smallball,
        "esseen": _cmd_esseen,
        "zp-average": _cmd_zp_average,
        "verify-claims": lambda a: run(_config_from_args(a, "verify-claims")),
        "fit-constants": lambda a: run(_config_from_args(a, "fit-constants")),
        "prg-build": _cmd_prg_build,
        "prg-test": _cmd_prg_test,
        "tightness": lambda a: run(_config_from_args(a, "tightness")),
        "run": lambda a: run(load_config(a.config)),
        "verify-all": _cmd_verify_all,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SmallballError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
