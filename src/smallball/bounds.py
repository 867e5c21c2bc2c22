"""Numeric evaluation of the analytic bounds and their fitted constants.

Every "universal constant" in a bound formula is realized as a FittedConstant:
the recorded supremum of probability/formula over a named, seeded instance
family.  The committed values live in data/fitted_constants.json and are
re-derivable with the fit-constants CLI command.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
from scipy.special import gammaln, xlogy

from .chains import read_json_file
from .errors import (
    DegenerateGap,
    EmptyFamily,
    HypothesisViolated,
    OutOfRange,
    PreconditionViolated,
    UnsupportedDimension,
)
from .quadrature import DEFAULT_MIN_DEPTH, adaptive_simpson

QUAD_TOL = 1e-10
# fitted suprema carry one ulp-scale headroom so that ratio <= 1 survives the
# round trip through bound = C * formula
FIT_HEADROOM = 1e-12


@dataclass(frozen=True)
class FittedConstant:
    """A numeric stand-in for an unspecified universal constant."""

    name: str
    value: float
    family: str
    grid: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.value > 0:
            raise OutOfRange(f"fitted constant {self.name} must be positive")

    def to_doc(self) -> dict:
        return {"name": self.name, "value": self.value, "family": self.family,
                "grid": self.grid}

    @classmethod
    def from_doc(cls, doc: dict) -> "FittedConstant":
        return cls(name=doc["name"], value=float(doc["value"]),
                   family=doc["family"], grid=doc.get("grid", {}))


def fit_constant(instances, name: str, family: str, grid: dict | None = None) -> FittedConstant:
    """Supremum of probability/formula over (probability, formula) pairs.

    Deterministic for a fixed family, hence idempotent to refit.
    """
    pairs = list(instances)
    if not pairs:
        raise EmptyFamily(f"no instances supplied for {name}")
    ratios = []
    for prob, formula in pairs:
        if not formula > 0:
            raise PreconditionViolated(f"formula value {formula!r} must be positive")
        ratios.append(prob / formula)
    return FittedConstant(name=name, value=max(ratios) * (1.0 + FIT_HEADROOM),
                          family=family, grid=grid or {})


def save_constants(constants: dict[str, FittedConstant], path) -> None:
    doc = {name: c.to_doc() for name, c in sorted(constants.items())}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_constants(path=None) -> dict[str, FittedConstant]:
    """Load fitted constants from a JSON file (default: the committed copy)."""
    if path is None:
        doc = json.loads(resources.files("smallball.data").joinpath(
            "fitted_constants.json").read_text())
    else:
        doc = read_json_file(path)
    return {name: FittedConstant.from_doc(sub) for name, sub in doc.items()}


def _constant_value(c) -> float:
    return c.value if isinstance(c, FittedConstant) else float(c)


# ---------------------------------------------------------------------------
# quadrature-backed bounds
# ---------------------------------------------------------------------------


def esseen_bound(charfn_modulus, d: int, radius: float, eps: float,
                 prefactor, min_depth: int = DEFAULT_MIN_DEPTH) -> float:
    """prefactor * (R/sqrt(d) + sqrt(d)/eps)^d * integral of |phi| over [-eps, eps].

    charfn_modulus must map an ndarray of frequencies to moduli.  Only d = 1
    is integrated exactly; higher d would need a ball quadrature.  Pass
    min_depth = alias_safe_depth(2 eps, max |v|) when the modulus oscillates.
    """
    if d != 1:
        raise UnsupportedDimension(f"esseen_bound integrates d = 1 only, got d = {d}")
    if eps <= 0 or radius < 0:
        raise OutOfRange(f"need eps > 0 and R >= 0, got eps = {eps!r}, R = {radius!r}")
    integral = adaptive_simpson(charfn_modulus, -eps, eps, tol=QUAD_TOL, min_depth=min_depth)
    return _constant_value(prefactor) * (radius / math.sqrt(d) + math.sqrt(d) / eps) ** d * integral


def _cos_product(vs):
    """prod_j |cos(2 pi xi v_j)| as one power per distinct |v_j|."""
    freqs, mults = np.unique(np.abs(np.asarray(vs, dtype=float)), return_counts=True)

    def f(xi):
        out = np.ones_like(xi)
        for v, m in zip(freqs.tolist(), mults.tolist()):
            out = out * np.abs(np.cos(2.0 * np.pi * xi * v)) ** m
        return out

    return f


def cosine_product_integral(vs, tol: float = QUAD_TOL) -> float:
    """Integral over [-1,1] of prod_j |cos(2 pi xi v_j)| for |v_j| >= 1.

    The integrand's kinks sit at the cosine zeros (2m+1)/(4 v_j).  One run
    cuts the domain there, so no piece holds a full oscillation of any factor
    and a shallow forced depth suffices.
    """
    vs = np.asarray(vs, dtype=float)
    if vs.size and np.min(np.abs(vs)) < 1.0 - 1e-12:
        raise PreconditionViolated(
            f"|v_{int(np.argmin(np.abs(vs)))}| = {np.min(np.abs(vs))!r} < 1"
        )
    if vs.size == 0:
        return 2.0
    zeros = []
    for v in np.unique(np.abs(vs)).tolist():
        m = np.arange(math.floor(-2.0 * v - 0.5), math.ceil(2.0 * v + 0.5) + 1)
        zeros.append((2 * m + 1) / (4.0 * v))
    return adaptive_simpson(_cos_product(vs), -1.0, 1.0, tol=tol, min_depth=2,
                            cuts=np.concatenate(zeros))


def binomial_negative_moment(n: int, p: float, d: int) -> tuple[float, float]:
    """(exact E[1/(X+1)^d] for X ~ Binomial(n, p), closed-form bound d^d/(np)^d)."""
    if n < 1 or d < 1:
        raise OutOfRange(f"need n >= 1 and d >= 1, got n = {n}, d = {d}")
    if not 0.0 < p <= 1.0:
        raise OutOfRange(f"success probability must lie in (0, 1], got {p!r}")
    i = np.arange(n + 1)
    log_terms = (gammaln(n + 1) - gammaln(i + 1) - gammaln(n - i + 1)
                 + xlogy(i, p) + xlogy(n - i, 1.0 - p))
    exact = math.fsum((np.exp(log_terms) / (i + 1.0) ** d).tolist())
    bound = d**d / (n**d * p**d)
    return exact, bound


# ---------------------------------------------------------------------------
# theorem-level bound formulas
# ---------------------------------------------------------------------------

BOUND_KINDS = ("highdim", "scalar-half-unit", "distinct-int", "prg")


def theorem_bound(kind: str, params: dict, constants: dict) -> float:
    """Evaluate a theorem bound formula with its fitted constant.

    params carries n and, per kind, lam / d / R.  constants maps constant
    names to FittedConstant (or plain floats); highdim checks its hypothesis
    R >= 1/(C_coord sqrt(d)) against the coordinate-tail constant.
    """
    if kind not in BOUND_KINDS:
        raise PreconditionViolated(f"unknown bound kind {kind!r}")
    n = params["n"]
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    lam = params.get("lam", 0.0)
    if kind != "prg":
        if not 0.0 <= lam <= 1.0:
            raise OutOfRange(f"lambda must lie in [0,1], got {lam!r}")
        if lam == 1.0:
            raise DegenerateGap("bound formulas degenerate at lambda = 1")

    if kind == "highdim":
        d = params["d"]
        radius = params["R"]
        hyp = _constant_value(constants["C_coord"])
        if radius < 1.0 / (hyp * math.sqrt(d)):
            raise HypothesisViolated(
                f"R = {radius!r} is below the hypothesis floor 1/(C sqrt(d)) = "
                f"{1.0 / (hyp * math.sqrt(d))!r}"
            )
        return _constant_value(constants["C_equal"]) * radius * math.sqrt(d) / (
            (1.0 - lam) * math.sqrt(n))
    if kind == "scalar-half-unit":
        return _constant_value(constants["C_equal"]) / ((1.0 - lam) * math.sqrt(n))
    if kind == "distinct-int":
        return _constant_value(constants["C_diff"]) / ((1.0 - lam) ** 3 * n**1.5)
    return _constant_value(constants["C_prg"]) / math.sqrt(n)


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------

REPORT_FIELDS = ("instance_id", "n", "d", "lambda", "R", "prob", "bound", "ratio", "pass")


@dataclass(frozen=True)
class BoundReport:
    """One probability-versus-bound comparison."""

    instance_id: str
    n: int
    d: int
    lam: float
    radius: float
    prob: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.prob / self.bound

    @property
    def passed(self) -> bool:
        return self.ratio <= 1.0

    def row(self) -> list:
        return [self.instance_id, self.n, self.d, repr(self.lam), repr(self.radius),
                repr(self.prob), repr(self.bound), repr(self.ratio),
                "true" if self.passed else "false"]


def write_bound_reports(path, reports) -> bool:
    """Write the CSV report; returns True when every row passed."""
    all_pass = True
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_FIELDS)
        for rep in reports:
            writer.writerow(rep.row())
            all_pass = all_pass and rep.passed
    return all_pass


def read_bound_reports(path) -> list[BoundReport]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            out.append(BoundReport(
                instance_id=row["instance_id"], n=int(row["n"]), d=int(row["d"]),
                lam=float(row["lambda"]), radius=float(row["R"]),
                prob=float(row["prob"]), bound=float(row["bound"]),
            ))
    return out
