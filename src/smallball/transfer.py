"""Exact transfer-matrix computations over a chain.

The signed sum S = f_1(Y_1)v_1 + ... + f_n(Y_n)v_n has characteristic function
<mu, U_1 A U_2 A ... A U_n 1> with U_j = diag(exp(2 pi i xi f_j(y) v_j)); its
lattice law (integer weights) comes from a forward dynamic program over
(step, state, partial sum).  Both are phrased over a per-step per-state
contribution table c[j, y], which also serves walk-generated sign sets whose
blocks contribute state-dependent integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chains import MarkovChain, SignSystem, WeightSystem
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidDistribution,
    NonIntegerWeights,
    NotPrime,
    OutOfRange,
    PreconditionViolated,
    SmallballError,
)

DP_BUDGET = 10**9  # cells = n_states * n_steps * lattice size
# the exact DP's cost grows like cells * n_states * n_steps (n_states^2
# products per band column, numerators of ~55 n_steps bits), about 2 ns each
# on a 2-core Xeon: random chains with 4 states at n = 430 (2.5e9) take 3-4.5 s,
# with 16 states at n = 180 (3.0e9) 6.3 s and at n = 216 (5.2e9) 6-9 s
RATIONAL_BUDGET = 3 * 10**9
PHASE_TABLE_BUDGET = 4 * 2**20  # bytes of the (xi, distinct value) phase table
PHASE_TABLE_MIN = 512  # (xi, step, state) phases of a sweep worth a table
MODULUS_SLACK = 1e-12


@dataclass(frozen=True)
class CharFnValue:
    """One evaluation of the sum's characteristic function."""

    re: float
    im: float

    def __post_init__(self):
        if self.modulus > 1.0 + MODULUS_SLACK:
            raise OutOfRange(
                f"characteristic function has modulus {self.modulus!r} > 1"
            )

    @property
    def modulus(self) -> float:
        return math.hypot(self.re, self.im)


@dataclass(frozen=True)
class SumDistribution:
    """Lattice law of the signed sum; masses[i] sits at lattice point offset+i."""

    offset: int
    masses: np.ndarray
    span: tuple[int, int]
    rational: dict[int, Fraction] | None = None

    def __post_init__(self):
        total = math.fsum(self.masses.tolist())
        if abs(total - 1.0) > 1e-12:
            raise InvalidDistribution(f"masses sum to {total!r}, expected 1")
        if self.masses.min() < 0:
            raise InvalidDistribution(f"negative mass {self.masses.min()!r}")
        if self.offset < self.span[0] or self.offset + self.masses.size - 1 > self.span[1]:
            raise InvalidDistribution("support exceeds the declared span")

    def support(self) -> np.ndarray:
        return self.offset + np.arange(self.masses.size)

    def probability_at(self, s: int) -> float:
        i = int(s) - self.offset
        if 0 <= i < self.masses.size:
            return float(self.masses[i])
        return 0.0

    def max_point_mass(self) -> tuple[int, float]:
        i = int(np.argmax(self.masses))
        return self.offset + i, float(self.masses[i])

    def char_fn_modulus(self, xis) -> np.ndarray:
        """|phi(xi)| = |sum_i masses[i] z^i| with z = exp(2 pi i xi), by Horner.

        The offset contributes a unimodular factor z^offset, which drops out.
        """
        z = np.exp(2j * np.pi * np.asarray(xis, dtype=float))
        acc = np.full(z.shape, self.masses[-1], dtype=complex)
        for m in self.masses[-2::-1].tolist():
            acc *= z
            acc += m
        return np.abs(acc)


def sign_contributions(signs: SignSystem, weights: WeightSystem) -> np.ndarray:
    """c[j, y] = f_j(y) * v_j for scalar weight systems."""
    if weights.dimension != 1:
        raise DimensionMismatch(
            f"transfer computations need scalar weights, got dimension {weights.dimension}"
        )
    if signs.n_steps != weights.n_weights:
        raise DimensionMismatch(
            f"{signs.n_steps} sign functions vs {weights.n_weights} weights"
        )
    if signs.n_steps == 0:
        return np.zeros((0, 1))
    return signs.functions.astype(float) * weights.scalars[:, None]


def char_fn_values(chain: MarkovChain, contribs: np.ndarray, xis) -> np.ndarray:
    """Characteristic function at each xi, vectorized: one matrix sweep per step."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    n = contribs.shape[0]
    if n == 0:
        return np.ones(xis.size, dtype=complex)
    if contribs.shape[1] != chain.n_states:
        raise DimensionMismatch(
            f"contribution table covers {contribs.shape[1]} states, chain has {chain.n_states}"
        )
    # one step's (xi, state) phases at a time: O(m N) memory for m points,
    # gathered from a table of exp(angular c) over the distinct values c when
    # that is worth it.  phase stays a named array: numpy then reuses a large
    # temporary w @ at in place as (w @ at) * phase, and that operand order
    # fixes the last bit
    angular = 2j * np.pi * xis[:, None]
    distinct = _distinct_contributions(contribs, xis.size)
    if distinct is None:
        def phases(j):
            return np.exp(angular * contribs[j])
    else:
        table = np.exp(angular * distinct[0])

        def phases(j):
            return table[:, distinct[1][j]]
    w = phases(n - 1)
    at = chain.transition.T
    for j in range(n - 2, -1, -1):
        phase = phases(j)
        w = phase * (w @ at)
    return w @ chain.stationary


def _distinct_contributions(contribs: np.ndarray, m: int):
    """(values, index) with contribs == values[index], or None.

    The values are the integer range of an integer table; None unless that
    range has fewer than half as many values as the table has cells, a phase
    table of it at m points fits PHASE_TABLE_BUDGET bytes, and the sweep
    needs at least PHASE_TABLE_MIN phases (below that the table's setup
    costs what the per-step exps do).
    """
    if m * contribs.size < PHASE_TABLE_MIN:
        return None
    lo = contribs.min()
    span = contribs.max() - lo + 1
    if not (2 * span < contribs.size and 16 * m * span <= PHASE_TABLE_BUDGET):
        return None
    offsets = contribs - lo
    index = offsets.astype(np.intp)
    if not (index == offsets).all():
        return None
    return np.arange(int(span)) + lo, index


def char_fn(chain: MarkovChain, signs: SignSystem, weights: WeightSystem,
            xi: float) -> CharFnValue:
    """E[exp(2 pi i xi S)] computed exactly with n-1 matrix-vector products."""
    val = char_fn_values(chain, sign_contributions(signs, weights), xi)[0]
    return CharFnValue(re=float(val.real), im=float(val.imag))


def _integer_table(contribs: np.ndarray) -> np.ndarray:
    table = np.asarray(contribs)
    rounded = np.round(table)
    if not np.all(table == rounded):
        bad = np.argwhere(table != rounded)[0]
        raise NonIntegerWeights(
            f"contribution at step {bad[0]}, state {bad[1]} is {table[tuple(bad)]!r}"
        )
    return rounded.astype(np.int64)


def distribution_from_contributions(chain: MarkovChain, contribs,
                                    budget: int = DP_BUDGET,
                                    exact: bool = False) -> SumDistribution:
    """Forward DP over (step, state, partial sum) for integer contributions.

    Float masses by default; exact=True runs the DP in integers over the
    dyadic values of the inputs instead (exact in their binary values) and
    attaches the rational law, whose rounding gives the float masses.
    """
    table = _integer_table(contribs)
    n, n_states = table.shape
    if n_states != chain.n_states:
        raise DimensionMismatch(
            f"contribution table covers {n_states} states, chain has {chain.n_states}"
        )
    if n == 0:
        raise PreconditionViolated("cannot build a distribution from zero steps")
    # budgets count the global lattice, which holds every intermediate partial sum
    pmin = np.cumsum(table.min(axis=1))
    pmax = np.cumsum(table.max(axis=1))
    glo = int(min(pmin.min(), 0))
    ghi = int(max(pmax.max(), 0))
    lo, hi = int(pmin[-1]), int(pmax[-1])
    cells = n_states * n * (ghi - glo + 1)
    if cells > budget:
        raise BudgetExceeded(f"DP needs {cells} cells, budget is {budget}")
    if exact and cells * n_states * n > RATIONAL_BUDGET:
        raise BudgetExceeded(
            f"rational DP needs {cells} cells x {n_states} states x {n} steps "
            f"= {cells * n_states * n}, budget is {RATIONAL_BUDGET}"
        )
    # after step j mass sits only on pmin[j] + g k: each step adds its row
    # minimum plus a multiple of g
    g = max(int(np.gcd.reduce((table - table.min(axis=1)[:, None]).ravel())), 1)

    rational = None
    if exact:
        rational = _rational_dp(chain, table, pmin, pmax, g)
        band = np.zeros((hi - lo) // g + 1)
        for s, frac in rational.items():
            band[(s - lo) // g] = float(frac)
    else:
        band = _banded_dp(chain.transition.T, chain.stationary, table, pmin, pmax, g)
    masses = np.zeros(hi - lo + 1)
    masses[::g] = band

    first = int(np.argmax(masses > 0))
    last = masses.size - 1 - int(np.argmax(masses[::-1] > 0))
    trimmed = masses[first:last + 1].copy()
    trimmed.setflags(write=False)
    return SumDistribution(offset=lo + first, masses=trimmed, span=(lo, hi),
                           rational=rational)


def _banded_dp(a_t, mu, table, pmin, pmax, g):
    """Masses after the last step on pmin[-1] + g k, k = 0..(pmax[-1] - pmin[-1])/g.

    Sweeps only the strided band of each step.  The dtype of mu sets the
    arithmetic: float64, or object arrays of Python ints for the exact DP.
    """
    n, n_states = table.shape
    shifts = (table - np.diff(pmin, prepend=0)[:, None]) // g
    # pad zero columns on both sides: a row shifted by at most pad carries its
    # zeros along, so no cell needs clearing, and a_t @ band stays a matrix
    # product, rounded like the full lattice's (BLAS rounds a matrix-vector
    # product differently; only an all-zero table has a one-point lattice)
    pad = int(shifts.max()) or int(table.any())
    widths = ((pmax - pmin) // g + 1 + 2 * pad).tolist()
    shifts = shifts.tolist()
    cur = np.zeros((n_states, widths[-1]), dtype=mu.dtype)
    nxt, products = np.zeros_like(cur), np.zeros_like(cur)
    # numpy's object matmul overwrites out= without releasing what it held,
    # so only the float sweep keeps one buffer for the products
    reuse = mu.dtype != object
    for y, s in enumerate(shifts[0]):
        cur[y, pad + s] = mu[y]
    for j in range(1, n):
        w = widths[j - 1]
        mixed = np.matmul(a_t, cur[:, :w], out=products[:, :w] if reuse else None)
        for y, s in enumerate(shifts[j]):
            nxt[y, s:s + w] = mixed[y]
        cur, nxt = nxt, cur
    return cur[:, pad:widths[-1] - pad].sum(axis=0)


def _dyadic(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Python ints m (object array) and one exponent e with values == m / 2**e."""
    ratios = [x.as_integer_ratio() for x in values.ravel().tolist()]
    e = max(q.bit_length() - 1 for _, q in ratios)
    ints = [p << (e - q.bit_length() + 1) for p, q in ratios]
    return np.array(ints, dtype=object).reshape(values.shape), e


def _rational_dp(chain, table, pmin, pmax, g):
    """Exact law as {partial sum: Fraction}, zero masses dropped.

    Every float is m 2^e, so the DP runs on integer numerators over the common
    denominator 2^(e_mu + (n - 1) e_a); no Fraction exists until the one
    division per support point at the end.
    """
    a, e_a = _dyadic(chain.transition)
    mu, e_mu = _dyadic(chain.stationary)
    band = _banded_dp(a.T, mu, table, pmin, pmax, g)
    denom = 1 << (e_mu + (table.shape[0] - 1) * e_a)
    lo = int(pmin[-1])
    return {lo + g * k: Fraction(m, denom) for k, m in enumerate(band.tolist()) if m}


def exact_sum_distribution(chain: MarkovChain, signs: SignSystem,
                           weights: WeightSystem, budget: int = DP_BUDGET,
                           exact: bool = False) -> SumDistribution:
    """Exact lattice law of f_1(Y_1)v_1 + ... + f_n(Y_n)v_n, integer scalar v."""
    contribs = sign_contributions(signs, weights)
    return distribution_from_contributions(chain, contribs, budget=budget, exact=exact)


def smallball_exact(dist: SumDistribution, x0: float, radius: float) -> float:
    """Mass of the closed window |s - x0| <= radius over the lattice law."""
    if radius < 0:
        raise OutOfRange(f"radius must be nonnegative, got {radius!r}")
    lo = math.ceil(x0 - radius)
    hi = math.floor(x0 + radius)
    i0 = max(lo - dist.offset, 0)
    i1 = min(hi - dist.offset, dist.masses.size - 1)
    if i1 < i0:
        return 0.0
    return math.fsum(dist.masses[i0:i1 + 1].tolist())


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def next_prime_above(bound: int) -> int:
    candidate = max(2, int(bound) + 1)
    while not _is_prime(candidate):
        candidate += 1
    return candidate


def find_prime(weights: WeightSystem) -> int:
    """Smallest prime strictly greater than twice the largest weight.

    Fixing this choice makes the Z_p averages reproducible and keeps any
    single weight from wrapping around the modulus.
    """
    if weights.variant != "distinct-positive-integers":
        raise PreconditionViolated(
            f"find_prime needs distinct positive integers, got variant {weights.variant!r}"
        )
    return next_prime_above(2 * int(weights.scalars.max()))


def zp_fourier_average(chain: MarkovChain, signs: SignSystem,
                       weights: WeightSystem, p: int) -> float:
    """(1/p) sum over xi in Z_p of |E[exp(2 pi i xi S / p)]|."""
    _check_prime_for(weights, p)
    contribs = sign_contributions(signs, weights)
    vals = char_fn_values(chain, contribs, np.arange(p) / p)
    return math.fsum(np.abs(vals).tolist()) / p


def mod_p_point_probability(chain: MarkovChain, signs: SignSystem,
                            weights: WeightSystem, p: int, x0: int) -> float:
    """Pr[S = x0 mod p] by exact Fourier inversion over Z_p."""
    _check_prime_for(weights, p)
    contribs = sign_contributions(signs, weights)
    vals = char_fn_values(chain, contribs, np.arange(p) / p)
    twist = np.exp(-2j * np.pi * np.arange(p) * (int(x0) % p) / p)
    terms = twist * vals
    prob = math.fsum(terms.real.tolist()) / p
    drift = abs(math.fsum(terms.imag.tolist()) / p)
    if drift > 1e-10:
        raise SmallballError(f"inversion left imaginary residue {drift!r}")
    return max(prob, 0.0)


def fold_mod(dist: SumDistribution, p: int) -> np.ndarray:
    """Exact residue-class masses of a lattice law; independent inversion oracle."""
    buckets = [[] for _ in range(p)]
    for i, m in enumerate(dist.masses.tolist()):
        buckets[(dist.offset + i) % p].append(m)
    return np.array([math.fsum(b) for b in buckets])


def _check_prime_for(weights: WeightSystem, p: int):
    if not _is_prime(int(p)):
        raise NotPrime(f"{p} is not prime")
    if weights.n_weights and p < np.abs(weights.scalars).max():
        raise PreconditionViolated(
            f"prime {p} is smaller than the largest weight magnitude "
            f"{np.abs(weights.scalars).max()!r}"
        )
