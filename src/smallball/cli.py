"""Command-line entry point wiring all modules together.

Subcommands cover the individual computations (spectral-gap, exact-dist,
smallball, esseen, prg-build, prg-test), experiment sweeps
(tightness, run --config), constant fitting, and the acceptance battery
(verify-all).  Exit codes: 0 pass, 1 bound or criterion violation, 2
usage/config error.

SETTINGS gives each setting its flags, type and help; COMMANDS gives each
subcommand or config kind its handler, help, flags and required settings.
`main` overlays the given flags on the config file (or on ExperimentConfig's
defaults) and calls `run(config)`, which checks every setting by its type.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_origin

import numpy as np

from . import acceptance, prg
from . import families as fam
from .bounds import (
    REPORT_FIELDS,
    BoundReport,
    load_constants,
    save_constants,
    write_bound_reports,
    write_csv,
)
from .chains import (
    below_unit,
    is_number,
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
from .sampling import McEstimate, mc_steps, mc_tables, smallball_mc
from .transfer import dp_cells, exact_sum_distribution, smallball_exact

EXPERIMENT_KINDS = ("smallball-exact", "smallball-mc", "diff-scaling", "prg",
                    "tightness", "fit-constants")
GENERATORS = ("all-ones", "arange", "random-unit")


@dataclass
class ExperimentConfig:
    """One run of a config kind or subcommand; the only home of every default."""

    kind: str
    chain: str | None = None
    weights: str | None = None
    generator: str = "all-ones"
    n: int | None = None
    dim: int = 1
    x0: float = 0.0
    radius: float = 1.0
    n_list: list = field(default_factory=list)
    lambda_list: list = field(default_factory=list)
    seed: int = fam.DEFAULT_SEED
    samples: int = 100_000
    k: int = 4
    constants: str | None = None
    out: str | None = None
    eps: float = 1.0
    graph: str | None = None
    mode: str = "exact"
    pad_to_multiple: bool = False


COMMAND_LINE_ONLY = ("eps", "graph", "mode", "pad_to_multiple")
CONFIG_FIELDS = [f.name for f in fields(ExperimentConfig)
                 if f.name not in COMMAND_LINE_ONLY]
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


class Setting(NamedTuple):
    flags: tuple[str, ...]
    type: object  # int, float, str, bool, list[int], list[float] or choices (tuple/dict)
    help: str | None = None
    low: int | None = None  # least value of an int, or of each list entry


SETTINGS = {
    "config": Setting(("--config",), str, "experiment config JSON; flags override"),
    # smallball's --mode picks the config kind
    "kind": Setting(("--mode",), {"exact": "smallball-exact", "mc": "smallball-mc"}),
    "chain": Setting(("--chain",), str, "chain JSON file"),
    "weights": Setting(("--weights",), str, "weights JSON file"),
    "generator": Setting(("--generator",), GENERATORS,
                         "generate weights instead of reading a file"),
    "n": Setting(("--n",), int, "weight count for a generator", 1),
    "dim": Setting((), int, None, 1),  # random-unit dimension, file only
    "x0": Setting(("--x0", "--center"), float, "window center"),
    "radius": Setting(("--radius",), float, "window radius"),
    "n_list": Setting(("--n-list",), list[int], "comma-separated n values", 1),
    "lambda_list": Setting(("--lambdas",), list[float], "comma-separated lambdas"),
    "seed": Setting(("--seed",), int, "random seed", 0),
    "samples": Setting(("--samples",), int, "Monte Carlo samples", 1),
    "k": Setting(("--k",), int, "expander block size; 2^k vertices", 1),
    "constants": Setting(("--constants",), str, "fitted constants JSON to use"),
    "out": Setting(("--out",), str, "output file (verify-all: report directory)"),
    "eps": Setting(("--eps",), float, "Esseen smoothing width"),
    "graph": Setting(("--graph",), str, "graph JSON; default builds MGG for k"),
    "mode": Setting(("--mode",), ("exact", "sampled"), "count or sample walks"),
    "pad_to_multiple": Setting(("--pad-to-multiple",), bool,
                               "append zero weights until k divides n"),
}

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _fits(typ, value, low) -> bool:
    if isinstance(typ, tuple):
        return value in typ
    return ((is_number(value, typ) if typ in (int, float) else isinstance(value, typ))
            and (low is None or value >= low))


def _check(name: str, value) -> None:
    """Raise ConfigError unless `value` has the type and range of setting `name`."""
    typ, low = SETTINGS[name].type, SETTINGS[name].low
    if value is None and _DEFAULTS[name] is None:
        return
    if get_origin(typ) is list:
        item = get_args(typ)[0]
        ok = isinstance(value, list) and all(_fits(item, v, low) for v in value)
        need = f"a list whose entries are each {_TYPE_NAMES[item]}"
    else:
        ok = _fits(typ, value, low)
        need = f"one of {typ}" if isinstance(typ, tuple) else _TYPE_NAMES[typ]
    if not ok:
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"'{name}' must be {need}{bound}, got {value!r}")


def _parse_config(doc) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("expected a JSON object")
    if doc.get("kind") not in EXPERIMENT_KINDS:
        raise ConfigError(f"'kind' must be one of {EXPERIMENT_KINDS}, got {doc.get('kind')!r}")
    unknown = set(doc) - set(CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)}")
    return ExperimentConfig(**doc)


def load_config(path) -> ExperimentConfig:
    return read_json_file(path, _parse_config)


def _load_weights(config: ExperimentConfig):
    if config.weights is not None:
        return load_weights_file(config.weights)
    if config.n is None:
        raise ConfigError("weight generator needs 'n'")
    if config.generator == "all-ones":
        return make_weight_system(np.ones(config.n))
    if config.generator == "arange":
        return make_weight_system(np.arange(1.0, config.n + 1.0),
                                  "distinct-positive-integers")
    rng = np.random.default_rng(config.seed)
    v = rng.normal(size=(config.n, config.dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return make_weight_system(v)


def _load_instance(config: ExperimentConfig):
    """(chain, signs, weights) from the config's chain file and weights.

    Generated weights are counted from n before any O(n) array is built: the
    chain file's own sign rows, a Monte Carlo run's samples x steps and table
    bytes, or the DP's cells, where parity signs on weights of sum W span
    -W..W (0..W on one state)."""
    chain, signs = load_chain_file(config.chain)
    if config.weights is None and config.n is not None:
        n = config.n
        _check_sign_rows(signs, n)
        if config.kind == "smallball-mc":
            mc_steps(config.samples, n)
            mc_tables(n, chain.n_states,
                      config.dim if config.generator == "random-unit" else 1)
        elif signs is None:
            # random-unit weights are +-1 in dimension 1, never integers in higher ones
            total = {"all-ones": n, "arange": n * (n + 1) // 2,
                     "random-unit": n if config.dim == 1 else None}[config.generator]
            if total is not None:
                dp_cells(chain.n_states, n, min(chain.n_states, 2) * total + 1)
    weights = _load_weights(config)
    n = weights.n_weights
    if signs is None:
        signs = repeated_signs(parity_labels(chain.n_states), n, chain.stationary)
    _check_sign_rows(signs, n)
    return chain, signs, weights


def _check_sign_rows(signs, n: int) -> None:
    """A chain file's sign rows, if it has any, must cover n steps."""
    if signs is not None and signs.n_steps < n:
        raise ConfigError(
            f"chain file provides {signs.n_steps} sign rows but n = {n} are needed")


def _write_distribution_csv(path, dist) -> int:
    """Write a row for each point of positive mass; returns how many."""
    rows = [[s, repr(p)] for s, p in zip(dist.support().tolist(), dist.masses.tolist()) if p]
    write_csv(path, ["sum", "probability"], rows)
    return len(rows)


def _spectral_gap(config: ExperimentConfig) -> int:
    chain, _ = load_chain_file(config.chain)
    print(repr(spectral_lambda(chain)))
    return 0


def _exact_dist(config: ExperimentConfig) -> int:
    chain, signs, weights = _load_instance(config)
    dist = exact_sum_distribution(chain, signs, weights)
    out = config.out or "distribution.csv"
    points = _write_distribution_csv(out, dist)
    print(f"{points} support points written to {out}")
    return 0


def _smallball(config: ExperimentConfig) -> int:
    chain, signs, weights = _load_instance(config)
    if config.kind == "smallball-exact":
        dist = exact_sum_distribution(chain, signs, weights)
        prob = smallball_exact(dist, config.x0, config.radius)
        print(f"P[|sum - {config.x0}| <= {config.radius}] = {prob!r}")
        if config.out:
            _write_distribution_csv(config.out, dist)
            print(f"distribution written to {config.out}")
        return 0
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


def _esseen(config: ExperimentConfig) -> int:
    constants = load_constants(config.constants)
    chain, signs, weights = _load_instance(config)
    dist = exact_sum_distribution(chain, signs, weights)
    prob = smallball_exact(dist, config.x0, config.radius)
    bound = constants["C_esseen"].value * esseen_formula(
        chain, signs, weights, dist, config.radius, config.eps)
    print(f"prob {prob!r}  bound {bound!r}  ratio {prob / bound!r}")
    return 0 if prob <= bound else 1


def _prg_build(config: ExperimentConfig) -> int:
    graph = prg.build_mgg_expander(config.k)
    if graph.n_vertices <= prg.CERTIFY_BUDGET:
        prg.certify_lambda(graph)
    prg.save_graph(graph, config.out)
    lam = graph.certified_lambda
    print(f"graph with {graph.n_vertices} vertices written to {config.out}; "
          f"lambda {'uncertified' if lam is None else repr(lam)}")
    return 0


def _prg_test(config: ExperimentConfig) -> int:
    graph = prg.load_graph(config.graph) if config.graph else prg.build_mgg_expander(config.k)
    if graph.k != config.k:
        raise ConfigError(f"--k {config.k} differs from k = {graph.k} in {config.graph}")
    if config.weights is None and config.n is not None:
        blocks = -(-config.n // graph.k)  # after any padding
        if config.mode == "sampled":
            mc_steps(config.samples, blocks)
        else:
            prg.walk_count(graph.n_vertices, graph.degree, blocks)
    w = _load_weights(config).scalars
    if config.pad_to_multiple and len(w) % graph.k:
        if below_unit(w.min()):
            raise ConfigError("--pad-to-multiple: original weights must be >= 1")
        pad = graph.k - len(w) % graph.k
        w = np.concatenate([w, np.zeros(pad)])
        print(f"padded with {pad} zero weights to n = {len(w)}")
    spec = prg.PrgSpec(graph=graph, n=len(w))
    result = prg.prg_smallball(spec, w, config.x0, config.radius, mode=config.mode,
                               samples=config.samples, seed=config.seed,
                               allow_zero_padding=config.pad_to_multiple)
    if isinstance(result, McEstimate):
        print(f"estimate {result.estimate!r}  99% CI "
              f"[{result.ci_low!r}, {result.ci_high!r}]")
    else:
        print(f"P[|sum - {config.x0}| <= {config.radius}] = {result!r}  "
              f"over |D| = {spec.size}")
    return 0


def _diff_scaling(config: ExperimentConfig) -> int:
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
    write_csv(out, list(REPORT_FIELDS) + ["slope"], (r.row() + [slope] for r, slope in rows))
    print(f"{'all bounds hold' if all_pass else 'BOUND VIOLATION'}; report: {out}")
    return 0 if all_pass else 1


def _prg(config: ExperimentConfig) -> int:
    constants = load_constants(config.constants)
    graph = prg.build_mgg_expander(config.k)
    prg.certify_lambda(graph)
    rows = walk_reports(constants, graph, config.n_list or fam.PRG_N_GRID,
                        config.x0, config.radius)
    out = config.out or "prg_bounds.csv"
    all_pass = write_bound_reports(out, rows)
    print(f"certified lambda {graph.certified_lambda!r}; "
          f"{'all bounds hold' if all_pass else 'BOUND VIOLATION'}; report: {out}")
    return 0 if all_pass else 1


def _tightness(config: ExperimentConfig) -> int:
    ns = config.n_list or fam.TIGHTNESS_N_GRID
    sweep = acceptance.tightness_sweep(config.lambda_list or fam.TIGHTNESS_LAMBDAS, ns)
    rows = [[f"tight-l{lam}-n{n}", lam, n, repr(p0), repr(norm), repr(slope)]
            for lam, slope, probs, norms in sweep for n, p0, norm in zip(ns, probs, norms)]
    out = config.out or "tightness.csv"
    write_csv(out, ["instance_id", "lambda", "n", "prob_zero", "normalized", "slope"], rows)
    print(f"tightness sweep written to {out}")
    return 0


def _fit_constants(config: ExperimentConfig) -> int:
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


def _verify_all(config: ExperimentConfig) -> int:
    constants = load_constants(config.constants)
    out_dir = Path(config.out or "verify_reports")
    out_dir.mkdir(parents=True, exist_ok=True)

    results = acceptance.run_criteria(config.seed, constants)
    results.append(acceptance.criterion_13(results, config.seed, constants))

    (out_dir / "acceptance.json").write_text(
        acceptance.render_report(results, config.seed))
    for r in results:
        if r.bound_reports:
            write_bound_reports(out_dir / f"criterion_{r.cid:02d}_bounds.csv",
                                r.bound_reports)
        print(r.line())
    ok = all(r.passed for r in results)
    print(f"{'ALL CRITERIA PASS' if ok else 'FAILURES PRESENT'}; "
          f"reports in {out_dir}")
    return 0 if ok else 1


class Command(NamedTuple):
    handler: Callable[[ExperimentConfig], int] | None
    help: str | None  # None: a config kind with no subcommand of its own
    flags: tuple[str, ...] = ()
    required: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()  # config kinds it runs, if not just its name


_WEIGHTS = ("weights", "generator", "n")
_INSTANCE = ("chain",) + _WEIGHTS
_WINDOW = ("x0", "radius")

COMMANDS = {
    "spectral-gap": Command(_spectral_gap, "validate a chain and print lambda",
                            ("chain",), ("chain",)),
    "exact-dist": Command(_exact_dist, "exact lattice law of the signed sum",
                          _INSTANCE + ("out",), ("chain",)),
    "smallball": Command(_smallball, "window probability, exact or MC",
                         ("config",) + _INSTANCE + _WINDOW
                         + ("seed", "out", "kind", "samples"),
                         ("chain",), ("smallball-exact", "smallball-mc")),
    "esseen": Command(_esseen, "window probability vs its Fourier bound",
                      _INSTANCE + _WINDOW + ("constants", "eps"), ("chain",)),
    "fit-constants": Command(_fit_constants, "re-derive every fitted constant",
                             ("config", "out")),
    "prg-build": Command(_prg_build, "build an expander graph file",
                         ("k", "out"), ("k", "out")),
    "prg-test": Command(_prg_test, "small-ball probability over walk signs",
                        _WEIGHTS + _WINDOW
                        + ("seed", "k", "graph", "mode", "samples", "pad_to_multiple"),
                        ("k",)),
    "tightness": Command(_tightness, "two-state P(sum=0) scaling sweep",
                         ("config", "out", "n_list", "lambda_list")),
    "run": Command(None, "run an experiment config file", ("config",), ("config",),
                   EXPERIMENT_KINDS),
    "verify-all": Command(_verify_all, "run the full acceptance battery",
                          ("seed", "constants", "out")),
    "diff-scaling": Command(_diff_scaling, None),
    "prg": Command(_prg, None),
}


def run(config: ExperimentConfig) -> int:
    """Check every setting of `config`, then run its kind; returns the exit code."""
    name = next((name for name, row in COMMANDS.items()
                 if row.handler and config.kind in (row.kinds or (name,))), None)
    if name is None:
        raise ConfigError(f"unknown kind {config.kind!r}")
    for f in fields(config)[1:]:  # the kind was checked by the lookup
        _check(f.name, getattr(config, f.name))
    for setting in COMMANDS[name].required:
        if getattr(config, setting) is None:
            raise ConfigError(f"kind {config.kind}: field '{setting}' is required")
    return COMMANDS[name].handler(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallball",
        description="Small-ball probabilities of Markov-driven signed sums: "
                    "exact computation, bounds, and expander-walk sign sets.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, row in COMMANDS.items():
        if row.help is None:
            continue
        sub = subs.add_parser(command, help=row.help)
        for name in row.flags:
            setting = SETTINGS[name]
            kw = {"dest": name, "default": argparse.SUPPRESS, "help": setting.help,
                  # a setting a config file may supply is checked after the overlay
                  "required": name in row.required and not (
                      "config" in row.flags and name in CONFIG_FIELDS)}
            if setting.type is bool:
                kw["action"] = "store_true"
            elif isinstance(setting.type, (tuple, dict)):
                kw["choices"] = setting.type
            elif get_origin(setting.type) is list:
                item = get_args(setting.type)[0]
                kw["type"] = lambda text, item=item: [item(x) for x in text.split(",")]
            else:
                kw["type"] = setting.type
            sub.add_argument(*setting.flags, **kw)
    return parser


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command = flags.pop("command")
    kinds = COMMANDS[command].kinds or (command,)
    try:
        path = flags.pop("config", None)
        config = load_config(path) if path else ExperimentConfig(kind=kinds[0])
        if config.kind not in kinds:
            raise ConfigError(
                f"config kind {config.kind!r} does not match subcommand {command!r}")
        for name, value in flags.items():
            choices = SETTINGS[name].type
            setattr(config, name, choices[value] if isinstance(choices, dict) else value)
        return run(config)
    except SmallballError as exc:
        label = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
