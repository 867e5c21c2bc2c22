"""Numeric evaluation of the analytic bounds and their constants.

A universal constant with a closed-form supremum is one expression here
(C_COS, C_COORD, C_SIZE).  Every other one is realized as a FittedConstant:
the recorded supremum of probability/formula over a named, seeded instance
family.  The committed values live in data/fitted_constants.json and are
re-derivable with the fit-constants CLI command.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .chains import below_unit, check_lambda, read_field, read_json_file
from .errors import (
    ConfigError,
    DegenerateGap,
    EmptyFamily,
    HypothesisViolated,
    OutOfRange,
    PreconditionViolated,
    QuadratureNonConvergence,
    UnsupportedDimension,
)
from .quadrature import (
    DEFAULT_MIN_DEPTH,
    KRONROD_NODES,
    adaptive_simpson,
    integrate_family,
    scalar_powers,
)

QUAD_TOL = 1e-10
# fitted suprema carry one ulp-scale headroom so that ratio <= 1 survives the
# round trip through bound = C * formula
FIT_HEADROOM = 1e-12

# sqrt(k) times the integral of |cos(2 pi xi)|^k over [-1, 1], which is
# cosine_power_integral(k): Wendel's G(x+1/2) < sqrt(x) G(x) at x = k/2 gives
# G((k+1)/2) < sqrt(2/k) G(k/2+1), so it is < 2 sqrt(2/pi) for every k >= 1
C_COS = 2.0 * math.sqrt(2.0 / math.pi)
# 1 / (median |v_1| sqrt(d)) for a uniform unit vector in R^d rises with d
# (scanned to d = 10^6) toward its limit 1/median|Z| = 1/Phi^-1(3/4), Z
# standard normal
C_COORD = 1.0 / statistics.NormalDist().inv_cdf(0.75)
# log2 |D| / sqrt(n) with k = prg.even_rounded_sqrt(n): sqrt(n) <= k < sqrt(n) + 2
# <= sqrt(3n) for n >= 8, so log2 |D| = k + 3 (ceil(n/k) - 1) < k + 3n/k, whose
# largest value on [sqrt(n), sqrt(3n)] is 4 sqrt(n) at k = sqrt(n); n < 8 by
# direct check
C_SIZE = 4.0


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
        """A file entry: a str name, a finite value, a str family and an object grid."""
        value = float(read_field(doc, "value", (), float))
        for key, typ in (("name", str), ("family", str), ("grid", dict)):
            if not isinstance(doc.get(key), typ):
                raise ConfigError(f"'{key}': expected a {typ.__name__}, got {doc.get(key)!r}")
        return cls(name=doc["name"], value=value, family=doc["family"], grid=doc["grid"])


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
    """Load fitted constants from a JSON file (default: the committed copy),
    an object that names each constant the committed copy names."""
    committed = json.loads(resources.files("smallball.data").joinpath(
        "fitted_constants.json").read_text())

    def parse(doc):
        if not (isinstance(doc, dict) and set(committed) <= set(doc)):
            raise ConfigError(f"expected an object naming each of {sorted(committed)}")
        out = {}
        for name, sub in doc.items():
            try:
                out[name] = FittedConstant.from_doc(sub)
            except ConfigError as exc:
                raise ConfigError(f"'{name}': {exc}") from None
        return out

    return parse(committed) if path is None else read_json_file(path, parse)


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
    if not (0.0 < eps < math.inf and 0.0 <= radius < math.inf):
        raise OutOfRange(f"need finite eps > 0 and R >= 0, got eps = {eps!r}, R = {radius!r}")
    integral = adaptive_simpson(charfn_modulus, -eps, eps, tol=QUAD_TOL, min_depth=min_depth)
    return _constant_value(prefactor) * (radius / math.sqrt(d) + math.sqrt(d) / eps) ** d * integral


def _cos_products(vss):
    """The integrand of integrate_family whose run i is prod_j |cos(2 pi xi v_j)|
    over vss[i]: one power per distinct |v_j|, in increasing |v_j|, with its
    multiplicity as exponent.  Slots past a run's last |v_j| multiply by
    |cos 0|^0 = 1, which moves no bit."""
    tables = [np.unique(np.abs(vs), return_counts=True) for vs in vss]
    width = max((freqs.size for freqs, _ in tables), default=0)
    freqs = np.zeros((width, len(vss)))
    mults = np.zeros((width, len(vss)))
    for i, (f, m) in enumerate(tables):
        freqs[:f.size, i] = f
        mults[:m.size, i] = m

    def f(xi, owner):
        run = np.repeat(owner, KRONROD_NODES.size)
        out = np.ones_like(xi)
        for v, m in zip(freqs, mults):
            out = out * scalar_powers(np.abs(np.cos(2.0 * np.pi * xi * v[run])), m[run])
        return out

    return f


def cosine_product_integrals(vss) -> list[float]:
    """Integral over [-1,1] of prod_j |cos(2 pi xi v_j)| for |v_j| >= 1, for
    each vs in vss, in order.

    The integrand's kinks sit at the cosine zeros (2m+1)/(4 v_j).  Each run
    cuts the domain there, so no piece holds a full oscillation of any factor
    and a shallow forced depth suffices.  The runs are those of one
    integrate_family call, so each value is bit for bit that of vs alone.
    Every vs is checked for |v_j| >= 1 before any work.
    """
    vss = [np.asarray(vs, dtype=float) for vs in vss]
    for vs in vss:
        if vs.size and below_unit(np.min(np.abs(vs))):
            raise PreconditionViolated(
                f"|v_{int(np.argmin(np.abs(vs)))}| = {np.min(np.abs(vs)).item()!r} < 1"
            )
    values: list = [2.0] * len(vss)  # the empty product is 1 on [-1, 1]
    members = [i for i, vs in enumerate(vss) if vs.size]
    runs = []
    for i in members:
        zeros = []
        for v in np.unique(np.abs(vss[i])).tolist():
            m = np.arange(math.floor(-2.0 * v - 0.5), math.ceil(2.0 * v + 0.5) + 1)
            zeros.append((2 * m + 1) / (4.0 * v))
        runs.append((-1.0, 1.0, QUAD_TOL, 2, np.concatenate(zeros)))
    for i, value in zip(members, integrate_family(
            _cos_products([vss[i] for i in members]), runs)):
        if isinstance(value, QuadratureNonConvergence):
            raise value
        values[i] = value
    return values


def cosine_power_integral(k: int) -> float:
    """Integral of |cos(2 pi xi)|^k over [-1, 1] in closed form,
    (2/sqrt(pi)) G((k+1)/2) / G(k/2+1).  The lgamma difference loses digits
    as k grows: 8.8e-13 relative error at most for k <= 1000 against 40-digit
    arithmetic, 6e-10 at k = 10^6."""
    return 2.0 * math.exp(math.lgamma((k + 1) / 2) - math.lgamma(k / 2 + 1)
                          ) / math.sqrt(math.pi)


def binomial_negative_moments(n: int, ps, ds) -> list[list[tuple[float, float]]]:
    """(exact E[1/(X+1)^d] for X ~ Binomial(n, p), closed-form bound
    d^d/(np)^d) for each d in ds (one list each) and each p in ps (one pair
    each), every value bit for bit that of a call with p and d alone.

    The masses comb(n, i) p^i (1-p)^(n-i) of every p are one array (n <= 1029:
    float(comb(1030, 515)) overflows).  Each d divides it by (i+1)^d at its
    own scalar exponent (scalar_powers says why), and each (p, d) sums in one
    math.fsum.  Every d, then every p, is checked before any work.
    """
    ps, ds = list(ps), list(ds)
    for d in ds:
        if not (1 <= n <= 1029 and d >= 1):
            raise OutOfRange(f"need 1 <= n <= 1029 and d >= 1, got n = {n}, d = {d}")
    for p in ps:
        if not 0.0 < p <= 1.0:
            raise OutOfRange(f"success probability must lie in (0, 1], got {p!r}")
    i = np.arange(n + 1)
    p_col = np.array(ps, dtype=float)[:, None]
    combs = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    masses = combs * p_col**i * (1.0 - p_col) ** (n - i)
    return [[(math.fsum(row), d**d / (n**d * p**d))
             for row, p in zip((masses / (i + 1.0) ** d).tolist(), ps)] for d in ds]


# ---------------------------------------------------------------------------
# theorem-level bound formulas
# ---------------------------------------------------------------------------

BOUND_KINDS = ("highdim", "scalar-half-unit", "distinct-int", "prg")


def theorem_bound(kind: str, params: dict, constants: dict) -> float:
    """Evaluate a theorem bound formula with its fitted constant.

    params carries n and, per kind, lam / d / R.  constants maps constant
    names to FittedConstant (or plain floats); highdim checks its hypothesis
    R >= 1/(C_COORD sqrt(d)) against the coordinate-tail constant.
    """
    if kind not in BOUND_KINDS:
        raise PreconditionViolated(f"unknown bound kind {kind!r}")
    n = params["n"]
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    lam = params.get("lam", 0.0)
    if kind != "prg":
        check_lambda(lam)
        if lam == 1.0:
            raise DegenerateGap("bound formulas degenerate at lambda = 1")

    if kind == "highdim":
        d = params["d"]
        radius = params["R"]
        if radius < 1.0 / (C_COORD * math.sqrt(d)):
            raise HypothesisViolated(
                f"R = {radius!r} is below the hypothesis floor 1/(C sqrt(d)) = "
                f"{1.0 / (C_COORD * math.sqrt(d))!r}"
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


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_bound_reports(path, reports) -> bool:
    """Write the CSV report; returns True when every row passed."""
    write_csv(path, REPORT_FIELDS, (rep.row() for rep in reports))
    return all(rep.passed for rep in reports)
