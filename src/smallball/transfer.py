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

from .chains import MarkovChain, SignSystem, WeightSystem, check_window
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
# the float DP zeroes every (step, state) mass below FLOOR once every
# FLUSH_EVERY steps and after the last: at most cells swept * FLOOR <=
# DP_BUDGET * FLOOR ~ 1.0e-283 of mass goes.  FLOOR sits 52 binades above the
# least normal double, so a mass that shrinks by less than 2^52 between two
# flushes stays normal: subnormal operands made the full-band sweep of a
# 16-state n = 3000 law take 0.105 s where it takes 0.063 s without them
FLOOR = 2.0**-970
FLUSH_EVERY = 16
PHASE_TABLE_BUDGET = 4 * 2**20  # bytes of the (xi, distinct value) phase table
PHASE_TABLE_MIN = 512  # (xi, step, state) phases of a sweep worth a table
MODULUS_SLACK = 1e-12
# integer contributions are exact floats and int64s up to this magnitude; a
# lattice that needs more exceeds DP_BUDGET by far
EXACT_INT = 2**53


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
            raise InvalidDistribution(f"negative mass {self.masses.min().item()!r}")
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


@dataclass(frozen=True)
class LawBlock:
    """The masses of several lattice laws, for one Horner sweep over all of
    their evaluation points; masses[k, i] is law i's mass at its offset + k
    (0 past its last)."""

    masses: np.ndarray
    lengths: np.ndarray
    # degrees at which some law of the block has a nonzero mass
    nonzero: list

    @classmethod
    def of(cls, laws) -> "LawBlock":
        lengths = np.array([law.masses.size for law in laws])
        masses = np.zeros((int(lengths.max()), lengths.size))
        for i, law in enumerate(laws):
            masses[:law.masses.size, i] = law.masses
        return cls(masses=masses, lengths=lengths, nonzero=masses.any(axis=1).tolist())

    def char_fn_modulus(self, xis: np.ndarray, law: np.ndarray) -> np.ndarray:
        """|phi| of law[k] at xis[k] (both 1-d): |phi(xi)| = |sum_i masses[i] z^i|
        with z = exp(2 pi i xi), each point bit for bit its own Horner sweep.
        The offset contributes a unimodular factor z^offset, which drops out.

        The points are sorted by the length of their law, longest first, so
        the laws still in their sweep at degree k are a prefix that grows as k
        falls; each point starts at its law's top mass.  Adding +0.0 moves no
        bit of |acc| (parity lattices are half zeros), so a degree is skipped
        only where every law of the block has a zero, and each mass is added
        to the real parts alone (adding 0.0 to an imaginary part could change
        only the sign of a zero).
        """
        order = np.argsort(-self.lengths[law], kind="stable")
        law = law[order]
        z = np.exp(2j * np.pi * xis[order])
        # active[k]: points whose law has a mass at degree k or above
        active = np.searchsorted(-self.lengths[law], -np.arange(self.masses.shape[0]),
                                 side="left").tolist()
        acc = np.zeros(z.shape, dtype=complex)
        live = 0
        for k in range(self.masses.shape[0] - 1, -1, -1):
            if live:
                acc[:live] *= z[:live]
            live = active[k]
            if self.nonzero[k]:
                acc.real[:live] += self.masses[k].take(law[:live])
        out = np.empty(xis.shape)
        out[order] = np.abs(acc)
        return out


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
    return signs.functions.astype(float) * weights.scalars[:, None]


def char_fn_values(chain: MarkovChain, contribs: np.ndarray, xis) -> np.ndarray:
    """Characteristic function at each xi, vectorized: one matrix sweep per step."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    n = contribs.shape[0]
    if n == 0:
        return np.ones(xis.size, dtype=complex)
    chain.check_states(contribs.shape[1])
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


def _table_errors(tables: np.ndarray, rounded: np.ndarray) -> dict:
    """{member: error} for a stack of contribution tables and their
    np.round: the first cell of each member, in row-major order, that is
    not an integer or, failing that, is beyond +-2^53."""
    errors = {}
    if (tables == rounded).all() and (np.abs(tables) <= EXACT_INT).all():
        return errors
    for b in np.flatnonzero((tables != rounded).reshape(len(tables), -1).any(axis=1)).tolist():
        bad = np.argwhere(tables[b] != rounded[b])[0]
        errors[b] = NonIntegerWeights(
            f"contribution at step {bad[0]}, state {bad[1]} is "
            f"{tables[b][tuple(bad)].item()!r}, not an integer")
    big = ~(np.abs(tables) <= EXACT_INT)
    for b in np.flatnonzero(big.reshape(len(tables), -1).any(axis=1)).tolist():
        bad = np.argwhere(big[b])[0]
        errors.setdefault(b, OutOfRange(
            f"contribution at step {bad[0]}, state {bad[1]} is "
            f"{tables[b][tuple(bad)].item()!r}, beyond +-2^53"))
    return errors


def _integer_table(contribs: np.ndarray) -> np.ndarray:
    """contribs as int64, each an integer of magnitude at most EXACT_INT."""
    table = np.asarray(contribs)
    rounded = np.round(table)
    errors = _table_errors(table[None], rounded[None])
    if errors:
        raise errors[0]
    return rounded.astype(np.int64)


def distribution_from_contributions(chain: MarkovChain, contribs,
                                    exact: bool = False) -> SumDistribution:
    """Forward DP over (step, state, partial sum) for integer contributions.

    Float masses by default, each 0 or at least FLOOR: the float DP drops
    masses below FLOOR as it goes, at most cells swept * FLOOR in all.
    exact=True runs the DP in integers over the dyadic values of the inputs
    instead (exact in their binary values), with no floor, and attaches the
    rational law, whose rounding gives the float masses.  This is the
    one-member case of distributions_from_contributions.
    """
    return distributions_from_contributions([(chain, contribs)], exact)[0]


def distributions_from_contributions(members, exact: bool = False) -> list[SumDistribution]:
    """distribution_from_contributions of each member (chain, contribs), each
    bit for bit its own.

    The float laws of members with the same numbers of steps and states, and
    alike in whether any contribution is nonzero, come from one stacked
    banded sweep; each exact law has a sweep of its own.  Every member is
    checked before any sweep: the first member, in order, that its lone call
    would refuse raises that call's error.
    """
    tables = [np.asarray(contribs) for _, contribs in members]
    # tables are stacked by dtype too: an error message prints the bad
    # entry as its own table holds it
    by_shape: dict = {}
    for i, table in enumerate(tables):
        by_shape.setdefault((table.shape, table.dtype.str), []).append(i)
    errors, sweeps, out = {}, {}, [None] * len(members)
    for (shape, _), idx in by_shape.items():
        stack = np.stack([tables[i] for i in idx])
        rounded = np.round(stack)
        found = _table_errors(stack, rounded)
        n, n_states = shape
        for b, i in enumerate(idx):
            if b not in found:
                try:
                    members[i][0].check_states(n_states)
                except DimensionMismatch as exc:
                    found[b] = exc
        errors.update((idx[b], exc) for b, exc in found.items())
        keep = [b for b in range(len(idx)) if b not in found]
        if not keep:
            continue
        if n == 0:
            for b in keep:
                # the empty sum is 0 on every path
                point = np.ones(1)
                point.setflags(write=False)
                out[idx[b]] = SumDistribution(offset=0, masses=point, span=(0, 0),
                                              rational={0: Fraction(1)} if exact else None)
            continue
        table = (rounded[keep] if found else rounded).astype(np.int64)
        # budgets count the global lattice, which holds every intermediate partial sum
        low = table.min(axis=2)
        pmin = np.cumsum(low, axis=1)
        pmax = np.cumsum(table.max(axis=2), axis=1)
        glo = np.minimum(pmin.min(axis=1), 0).tolist()
        ghi = np.maximum(pmax.max(axis=1), 0).tolist()
        # after step j mass sits only on pmin[j] + g k: each step adds its row
        # minimum plus a multiple of g
        rise = table - low[:, :, None]
        g = np.maximum(np.gcd.reduce(rise.reshape(len(keep), -1), axis=1), 1)
        shifts = rise // g[:, None, None]
        moving = table.reshape(len(keep), -1).any(axis=1).tolist()
        for k, b in enumerate(keep):
            i = idx[b]
            cells = n_states * n * (ghi[k] - glo[k] + 1)
            if cells > DP_BUDGET:
                errors[i] = BudgetExceeded(f"DP needs {cells} cells, budget is {DP_BUDGET}")
            elif exact and cells * n_states * n > RATIONAL_BUDGET:
                errors[i] = BudgetExceeded(
                    f"rational DP needs {cells} cells x {n_states} states x {n} steps "
                    f"= {cells * n_states * n}, budget is {RATIONAL_BUDGET}")
            else:
                sweeps.setdefault(i if exact else (shape, moving[k]), []).append(
                    (i, shifts[k], int(pmin[k, -1]), int(pmax[k, -1]), int(g[k]), moving[k]))
    if errors:
        raise errors[min(errors)]
    for sweep in sweeps.values():
        i, shifts, lo, hi, g, moving = sweep[0]
        if exact:
            rational = _rational_dp(members[i][0], shifts, moving, lo, g)
            bands = [np.zeros((hi - lo) // g + 1)]
            for s, frac in rational.items():
                bands[0][(s - lo) // g] = float(frac)
        else:
            rational = None
            group = [members[m][0] for m, *_ in sweep]
            bands = _banded_dp(
                np.stack([c.transition for c in group]).transpose(0, 2, 1),
                np.stack([c.stationary for c in group]),
                np.stack([m[1] for m in sweep]), moving)
        for (i, _, lo, hi, g, _), band in zip(sweep, bands):
            kept = np.flatnonzero(band)
            first, last = int(kept[0]), int(kept[-1])
            masses = np.zeros(g * (last - first) + 1)
            masses[::g] = band[first:last + 1]
            masses.setflags(write=False)
            out[i] = SumDistribution(offset=lo + g * first, masses=masses, span=(lo, hi),
                                     rational=rational)
    return out


def _banded_dp(a_t, mu, shifts, moving):
    """For each member b, its masses after the last step on pmin_b[-1] + g_b
    k, k = 0..sum of the row maxima of shifts[b], where step j moves state
    y's mass by shifts[b, j, y] (the contribution's rise over its row minimum,
    in units of g_b); a_t is the (B, N, N) stack of transposed transition
    matrices and mu the (B, N) stack of stationary laws.

    Sweeps only the columns of the band that can hold mass: one band for the
    whole stack, each step as wide as its widest member and its live columns
    the union of theirs.  A member's columns outside its own band hold exact
    zeros, which stay exact zeros, so each member keeps the bits of its own
    sweep.  The dtype of mu sets the arithmetic: object arrays of Python ints
    for the exact DP, or float64, which every FLUSH_EVERY steps and after the
    last zeroes each (state, partial sum) mass below FLOOR and trims the live
    columns to the first and last that keep mass.  moving is False only for a
    stack of all-zero tables, whose lattice is one point.
    """
    n_members, n, n_states = shifts.shape
    row_max = shifts.max(axis=2)
    reach = row_max.max(axis=0)
    # pad zero columns on both sides, so that a row shifted by at most pad
    # stays in the buffer and every product takes at least two columns: a
    # matrix product, rounded like the full lattice's (BLAS rounds a
    # matrix-vector product differently; only an all-zero table has a
    # one-point lattice)
    pad = int(reach.max()) or int(moving)
    least = 2 if pad else 1
    width = int(reach.sum()) + 1 + 2 * pad
    lengths = (row_max.sum(axis=1) + 1).tolist()
    reach = reach.tolist()
    # row b N + y of each buffer holds member b's state y; step j shifts it by
    # row_shifts[j][b N + y]
    row_shifts = shifts.transpose(1, 0, 2).reshape(n, -1).tolist()
    cur = np.zeros((n_members * n_states, width), dtype=mu.dtype)
    nxt, products = np.zeros_like(cur), np.zeros_like(cur)
    # numpy's object matmul overwrites out= without releasing what it held,
    # so only the float sweep keeps one buffer for the products
    floats = mu.dtype != object
    # a lone member multiplies its 2-d rows, a stack 3-d views of them
    stack = (n_members, n_states, width) if n_members > 1 else None
    if stack is None:
        a_t = a_t[0]
    for r, (s, m) in enumerate(zip(row_shifts[0], mu.ravel().tolist())):
        cur[r, pad + s] = m
    # cur is zero outside columns [live, end), and nxt, the law one step
    # older, outside [stale, stale_end): the columns multiplied cover both,
    # so the shifted rows overwrite every stale mass
    live, end = pad, pad + reach[0] + 1
    stale, stale_end = width, 0
    for j in range(1, n):
        r = reach[j]
        lo = min(live, stale - r)
        hi = max(end, stale_end, lo + least)
        if stack is None:
            mixed = np.matmul(a_t, cur[:, lo:hi], out=products[:, :hi - lo] if floats else None)
        else:
            mixed = np.matmul(a_t, cur.reshape(stack)[..., lo:hi],
                              out=products.reshape(stack)[..., :hi - lo] if floats else None
                              ).reshape(-1, hi - lo)
        for y, s in enumerate(row_shifts[j]):
            nxt[y, lo + s:hi + s] = mixed[y]
        cur, nxt = nxt, cur
        stale, stale_end = live, end
        end += r
        if floats and j % FLUSH_EVERY == 0:
            live, end = _flush(cur, live, end)
    if floats:
        _flush(cur, live, end)
    return [cur[b * n_states:(b + 1) * n_states, pad:pad + size].sum(axis=0)
            for b, size in enumerate(lengths)]


def _flush(cur, live, end):
    """Zero the masses of cur[:, live:end] below FLOOR; return the range
    (first, last + 1) of the columns that keep mass."""
    band = cur[:, live:end]
    kept = band >= FLOOR
    np.multiply(band, kept, out=band)
    cols = np.flatnonzero(kept.any(axis=0))
    return live + int(cols[0]), live + int(cols[-1]) + 1


def _dyadic(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Python ints m (object array) and one exponent e with values == m / 2**e."""
    ratios = [x.as_integer_ratio() for x in values.ravel().tolist()]
    e = max(q.bit_length() - 1 for _, q in ratios)
    ints = [p << (e - q.bit_length() + 1) for p, q in ratios]
    return np.array(ints, dtype=object).reshape(values.shape), e


def _rational_dp(chain, shifts, moving, lo, g):
    """Exact law as {partial sum: Fraction}, zero masses dropped; the band of
    _banded_dp starts at partial sum lo with stride g.

    Every float is m 2^e, so the DP runs on integer numerators over the common
    denominator 2^(e_mu + (n - 1) e_a); no Fraction exists until the one
    division per support point at the end.
    """
    a, e_a = _dyadic(chain.transition)
    mu, e_mu = _dyadic(chain.stationary)
    band = _banded_dp(a.T[None], mu[None], shifts[None], moving)[0]
    denom = 1 << (e_mu + (shifts.shape[0] - 1) * e_a)
    return {lo + g * k: Fraction(m, denom) for k, m in enumerate(band.tolist()) if m}


def exact_sum_distribution(chain: MarkovChain, signs: SignSystem,
                           weights: WeightSystem, exact: bool = False) -> SumDistribution:
    """Exact lattice law of f_1(Y_1)v_1 + ... + f_n(Y_n)v_n, integer scalar v."""
    return distribution_from_contributions(chain, sign_contributions(signs, weights),
                                           exact=exact)


def smallball_exact(dist: SumDistribution, x0: float, radius: float) -> float:
    """Mass of the closed window x0 - radius <= s <= x0 + radius over the
    lattice law.  The ends are Python floats, clipped to the law's support
    before they are rounded, so an end that overflows to +-inf still counts."""
    check_window(x0, radius)
    lo, hi = float(x0) - float(radius), float(x0) + float(radius)
    last = dist.offset + dist.masses.size - 1
    if lo > last or hi < dist.offset:
        return 0.0
    i0 = math.ceil(max(lo, dist.offset)) - dist.offset
    i1 = math.floor(min(hi, last)) - dist.offset
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


def find_prime(weights: WeightSystem) -> int:
    """Smallest prime strictly greater than 2 int(max |v|), for any scalar weights.

    Fixing this choice makes the Z_p averages reproducible and keeps any
    single weight from wrapping around the modulus.  A start above DP_BUDGET
    is refused before any trial division: the Z_p functions would need at
    least that many (point, step, state) cells at the prime.
    """
    candidate = max(2, 2 * int(np.abs(weights.scalars).max()) + 1)
    if candidate > DP_BUDGET:
        raise BudgetExceeded(
            f"the prime search starts at {candidate}, beyond the budget {DP_BUDGET}")
    while not _is_prime(candidate):
        candidate += 1
    return candidate


def zp_fourier_average(chain: MarkovChain, signs: SignSystem,
                       weights: WeightSystem, p: int) -> float:
    """(1/p) sum over xi in Z_p of |E[exp(2 pi i xi S / p)]|."""
    vals = _zp_char_fn(chain, signs, weights, p)
    return math.fsum(np.abs(vals).tolist()) / p


def mod_p_point_probability(chain: MarkovChain, signs: SignSystem,
                            weights: WeightSystem, p: int, x0: int) -> float:
    """Pr[S = x0 mod p] by exact Fourier inversion over Z_p; x0 must be integral."""
    if not (math.isfinite(x0) and x0 == int(x0)):
        raise OutOfRange(f"x0 must be a finite integer, got {x0!r}")
    vals = _zp_char_fn(chain, signs, weights, p)
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


def _zp_char_fn(chain: MarkovChain, signs: SignSystem, weights: WeightSystem,
                p: int) -> np.ndarray:
    """E[exp(2 pi i xi S / p)] for xi = 0..p-1: p a prime no smaller than any
    |v_j|, and every contribution an integer, as in the DP.  The p n N
    (point, step, state) cells count against DP_BUDGET before p is tested."""
    cells = int(p) * signs.n_steps * chain.n_states
    if cells > DP_BUDGET:
        raise BudgetExceeded(f"Z_p sweep needs {cells} cells, budget is {DP_BUDGET}")
    if not _is_prime(int(p)):
        raise NotPrime(f"{p} is not prime")
    contribs = sign_contributions(signs, weights)
    largest = np.abs(_integer_table(contribs)).max(initial=0)
    if p < largest:
        raise PreconditionViolated(
            f"prime {p} is smaller than the largest weight magnitude {largest}")
    return char_fn_values(chain, contribs, np.arange(p) / p)
