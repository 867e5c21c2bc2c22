"""Span tracing of smallball's layers, installed from outside the package.

Every public function of each layer module is replaced, in the module that
defines it and in every module or dict that imported it by name, by a wrapper
that records a span (name, start, end, parent) and feeds a few argument-derived
counters.  The integrand handed to ``adaptive_simpson`` is wrapped as well, so
the quadrature engine's self time excludes the integrand it drives.  Spans stay
in memory; ``layer_metrics`` turns one pass of them into per-layer numbers.

A layer's self time is its spans' durations minus the time their direct child
spans cover, so the layer self times plus the time no span covers add up to the
traced pass's wall time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("transfer", "quadrature", "bounds", "fitting", "sampling",
          "rngstreams", "prg", "oracles", "chains", "families", "acceptance")
# private helpers traced because a per-layer metric names them
PRIVATE_TRACED = {"transfer": ("_rational_dp",)}
MIB = float(1 << 20)


def _dp_cells(table) -> int:
    """Cells of the lattice DP, sized the way the transfer layer sizes it."""
    table = np.asarray(table)
    pmin = np.cumsum(table.min(axis=1))
    pmax = np.cumsum(table.max(axis=1))
    size = int(max(pmax.max(), 0)) - int(min(pmin.min(), 0)) + 1
    return table.shape[1] * table.shape[0] * size


def _count_char_fn(tr, a):
    m = np.atleast_1d(np.asarray(a["xis"])).size
    n, n_states = np.shape(a["contribs"])
    tr.counts["char_fn.evals"] += m * n
    tr.maxima["char_fn.tensor_mb"] = max(tr.maxima["char_fn.tensor_mb"],
                                         16.0 * m * n * n_states / MIB)


def _count_dp(tr, a):
    tr.counts["dp.cells"] += _dp_cells(a["contribs"])


def _count_mc(tr, a):
    tr.counts["mc.steps"] += a["count"] * a["signs"].n_steps


def _count_uniform_block(tr, a):
    tr.counts["uniforms"] += np.size(a["streams"]) * a["n_per_stream"]


def _count_uniforms(tr, a):
    tr.counts["uniforms"] += a["count"]


def _count_walks(tr, a):
    if a.get("mode", "exact") == "sampled":
        tr.counts["walks_sampled"] += a.get("samples", 100_000)
    else:
        tr.counts["walks_enumerated"] += a["spec"].size


def _count_paths(tr, a):
    tr.counts["oracle_paths"] += a["chain"].n_states ** a["signs"].n_steps


COUNTERS = {
    "transfer.char_fn_values": _count_char_fn,
    "transfer.distribution_from_contributions": _count_dp,
    "sampling.smallball_mc": _count_mc,
    "rngstreams.uniform_block": _count_uniform_block,
    "rngstreams.uniforms": _count_uniforms,
    "prg.prg_smallball": _count_walks,
    "oracles.brute_force_char_fn": _count_paths,
    "oracles.brute_force_distribution": _count_paths,
}


class Tracer:
    """Holds the spans and counters of the current pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self.active = False
        self._patches: list = []

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.maxima.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, count=None, wrap_integrand=False):
        """fn with a span named `name` around every call made while active."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn) if count else None
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                count(tracer, bound.arguments)
            if wrap_integrand:
                args = (tracer.wrap_integrand(args[0]),) + args[1:]
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, t0, clock(), parent)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_integrand(self, f):
        layer = getattr(f, "__module__", "") or ""
        layer = layer.rsplit(".", 1)[-1] if layer.startswith("smallball.") else "bench"

        def count(tr, a):
            tr.counts["quadrature.evals"] += np.size(a["x"])

        def integrand(x):
            return f(x)

        return self.wrap(integrand, f"{layer}.integrand", count=count)

    def install(self, package: str = "smallball"):
        """Trace every layer's public functions wherever they are bound."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            private = PRIVATE_TRACED.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and attr not in private:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # a span would close before the generator runs
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self.wrap(
                    obj, name, count=COUNTERS.get(name),
                    wrap_integrand=name == "quadrature.adaptive_simpson"))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patches.append((vars(mod), attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped and wrapped[id(val)][0] is val:
                            self._patches.append((obj, key, val))
                            obj[key] = wrapped[id(val)][1]

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def dump(self, path, wall: float):
        """Write the current pass's spans as gzipped JSON columns."""
        doc = {"names": self.names, "wall_s": wall,
               "columns": ["name", "start", "end", "parent"],
               "spans": [list(s) for s in self.spans]}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer seconds and counts of one traced pass of `wall` seconds."""
    spans = np.array(tracer.spans, dtype=float).reshape(-1, 4)
    nid = spans[:, 0].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(int)
    child = np.zeros(len(spans))
    np.add.at(child, parent[parent >= 0], dur[parent >= 0])
    own = dur - child
    n_names = len(tracer.names)
    self_by = np.bincount(nid, weights=own, minlength=n_names)
    incl_by = np.bincount(nid, weights=dur, minlength=n_names)
    calls_by = np.bincount(nid, minlength=n_names)

    def name_sum(arr, *names):
        return sum(arr[tracer._name_ids[n]].item() for n in names
                   if n in tracer._name_ids)

    layer_self = defaultdict(float)
    for i, name in enumerate(tracer.names):
        layer_self[name.split(".", 1)[0]] += float(self_by[i])
    covered = float(dur[parent < 0].sum())
    c = tracer.counts

    def rate(num, secs):
        return num / secs if secs > 0 else 0.0

    out = {
        "trace.wall_s": wall,
        "trace.uncovered_share": (wall - covered) / wall,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]

    dp_self = name_sum(self_by, "transfer.distribution_from_contributions")
    out.update({
        "transfer.char_fn.evals": c["char_fn.evals"],
        "transfer.char_fn.self_s": name_sum(self_by, "transfer.char_fn_values"),
        "transfer.char_fn.tensor_mb": tracer.maxima["char_fn.tensor_mb"],
        "transfer.dp.cells": c["dp.cells"],
        "transfer.dp.self_s": dp_self,
        "transfer.dp.mcells_per_s": rate(c["dp.cells"] / 1e6, dp_self),
        "transfer.rational_dp.self_s": name_sum(self_by, "transfer._rational_dp"),
        "transfer.zp.self_s": name_sum(self_by, "transfer.zp_fourier_average",
                                       "transfer.mod_p_point_probability"),
    })
    integrals = name_sum(calls_by, "quadrature.adaptive_simpson")
    waves = sum(calls_by[i].item() for i, n in enumerate(tracer.names)
                if n.endswith(".integrand"))
    out.update({
        "quadrature.integrals": integrals,
        "quadrature.waves": waves,
        "quadrature.evals": c["quadrature.evals"],
        "quadrature.evals_per_integral": rate(c["quadrature.evals"], integrals),
        "bounds.cosine_integral.self_s": name_sum(self_by, "bounds.cosine_product_integral"),
        "bounds.cosine_integral.s": name_sum(incl_by, "bounds.cosine_product_integral"),
    })
    for fitter in ("C_equal", "C_diff", "C_zp", "C_prg", "C_esseen", "C_cos",
                   "C_coord", "C_size"):
        out[f"fitting.{fitter}.s"] = name_sum(incl_by, f"fitting.fit_{fitter.lower()}")
    out["fitting.esseen_formula.self_s"] = name_sum(self_by, "fitting.esseen_formula")
    mc_incl = name_sum(incl_by, "sampling.smallball_mc")
    out.update({
        "sampling.mc.steps": c["mc.steps"],
        "sampling.mc.msteps_per_s": rate(c["mc.steps"] / 1e6, mc_incl),
        "sampling.mc.self_s": name_sum(self_by, "sampling.smallball_mc"),
        "sampling.coord_tail.calls": name_sum(calls_by, "sampling.first_coord_tail"),
        "sampling.coord_tail.self_s": name_sum(self_by, "sampling.first_coord_tail"),
        "rngstreams.uniforms": c["uniforms"],
    })
    sampled_s = _sampled_walk_seconds(tracer, dur)
    out.update({
        "prg.walks_sampled": c["walks_sampled"],
        "prg.walks_per_s": rate(c["walks_sampled"], sampled_s),
        "prg.walks_enumerated": c["walks_enumerated"],
        "prg.certify.self_s": name_sum(self_by, "prg.certify_lambda"),
        "prg.build.self_s": name_sum(self_by, "prg.build_mgg_expander"),
        "oracles.paths": c["oracle_paths"],
        "chains.validate.calls": name_sum(calls_by, "chains.validate_chain"),
        "chains.validate.self_s": name_sum(self_by, "chains.validate_chain"),
        "chains.spectral_lambda.self_s": name_sum(self_by, "chains.spectral_lambda"),
    })
    for cid in range(1, 13):
        out[f"acceptance.criterion_{cid:02d}.s"] = name_sum(
            incl_by, f"acceptance.criterion_{cid}")
    return out


def _sampled_walk_seconds(tracer: Tracer, dur) -> float:
    """Inclusive time of prg_smallball spans that sampled (those with a
    uniform_block child); exact enumeration draws no uniforms."""
    ids = tracer._name_ids
    if "prg.prg_smallball" not in ids or "rngstreams.uniform_block" not in ids:
        return 0.0
    spans = tracer.spans
    walk_id, draw_id = ids["prg.prg_smallball"], ids["rngstreams.uniform_block"]
    sampled = {int(s[3]) for s in spans if s[0] == draw_id and s[3] >= 0
               and spans[int(s[3])][0] == walk_id}
    return float(sum(dur[i] for i in sampled))


# machine-independent counts; two traced passes at one seed must agree on all
COUNT_METRICS = (
    "trace.spans", "transfer.char_fn.evals", "transfer.char_fn.tensor_mb",
    "transfer.dp.cells", "quadrature.integrals", "quadrature.waves",
    "quadrature.evals", "sampling.mc.steps", "sampling.coord_tail.calls",
    "rngstreams.uniforms", "prg.walks_sampled", "prg.walks_enumerated",
    "oracles.paths", "chains.validate.calls",
)
