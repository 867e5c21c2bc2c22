"""Brute-force and algebraic oracles for the inequalities used in the proofs.

Everything here is deliberately independent of the transfer engine: the
characteristic function and the sum's law are recomputed by exhaustive path
enumeration, and the splitting/averaging inequalities are evaluated on both
sides directly from their definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .chains import MarkovChain, SignSystem, WeightSystem, check_lambda
from .errors import (
    BudgetExceeded,
    HypothesisViolated,
    NonIntegerWeights,
    PreconditionViolated,
)
from .transfer import CharFnValue, sign_contributions

PATH_BUDGET = 10**7
HOLDER_K_BUDGET = 16
SWITCHING_N_BUDGET = 13
IDENTITY_TOL = 1e-10  # largest violation an averaging-operator identity may show


# ---------------------------------------------------------------------------
# L_p(mu) norm utilities
# ---------------------------------------------------------------------------


def lp_norm(v, mu, p):
    """||v||_{L_p(mu)} over the last axis of v and mu, which broadcast: a float
    for one vector, an array of norms for a stack.  p = inf is the essential
    sup over the support of mu.  Each root is a float64 scalar power, as one
    vector's norm takes it; an array ** 0.5 would take square roots, which
    round some sums the other way."""
    v = np.asarray(v)
    mu = np.asarray(mu, dtype=float)
    if p == np.inf:
        norms = np.max(np.where(mu > 0, np.abs(v), 0.0), axis=-1, initial=0.0)
    else:
        sums = np.sum(np.abs(v) ** p * mu, axis=-1)
        norms = np.reshape([s ** (1.0 / p) for s in np.ravel(sums)], sums.shape)
    return float(norms) if norms.ndim == 0 else norms


def operator_norm_l2mu(m, mu):
    """||M||_{L2(mu)->L2(mu)} = largest singular value of D^1/2 M D^-1/2.

    m may be a stack (..., N, N), and mu a stack (..., N) that broadcasts
    against m's leading axes; the norms then come back as an array, one
    batched SVD for the whole stack, each norm bit for bit the single
    matrix's.
    """
    mu = np.asarray(mu, dtype=float)
    root = np.sqrt(mu)
    scaled = np.asarray(m) * (root[..., :, None] / root[..., None, :])
    norms = np.linalg.svd(scaled, compute_uv=False).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def averaging_operator(mu) -> np.ndarray:
    """Rank-one stochastic matrix E_mu whose every row is mu; a stack (..., N)
    of laws gives a stack (..., N, N)."""
    mu = np.asarray(mu, dtype=float)
    return np.repeat(mu[..., None, :], mu.shape[-1], axis=-2)


def _shape_groups(keys) -> list[list[int]]:
    """The indices of equal keys, one list per distinct key in order of first
    appearance, each list in increasing order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


# ---------------------------------------------------------------------------
# exactly rounded array sums
# ---------------------------------------------------------------------------


HALF_BITS = 26  # fewer than 2^26 halves below 2^27 sum exactly in a float
# below this many values a list for math.fsum costs less than the array passes
FSUM_MAX_SIZE = 1024


def exact_sums(x, groups=None, n_groups: int = 1) -> list[float]:
    """math.fsum of x over each group g in 0..n_groups-1, without a list.

    groups (broadcast against x) gives each value's group; None puts all of
    them in group 0.  frexp writes every finite x as M 2^(e-53) with an
    integer |M| < 2^53, and M = hi 2^26 + lo with |hi| < 2^27, |lo| < 2^26.
    Per-(exponent, group) bincounts of fewer than 2^26 halves stay below
    2^53, so they are exact; Python ints add the buckets, and one
    int-to-float division rounds the total correctly.  Non-finite input, 2^26
    or more values, sums that might overflow (fsum decides whether it
    raises) and exact zeros (fsum decides their sign) go to math.fsum, as do
    arrays too small to gain from the passes.
    """
    x = np.asarray(x, dtype=float)
    groups = np.zeros((), dtype=np.int64) if groups is None else np.asarray(groups)
    if (x.size <= FSUM_MAX_SIZE or x.size >= 1 << HALF_BITS
            or not np.isfinite(x).all()):
        return _fsums(x, groups, n_groups)
    mant, e = np.frexp(x)
    low, high = int(e.min()), int(e.max())
    if high + x.size.bit_length() > 1023:
        return _fsums(x, groups, n_groups)
    lo, hi = np.modf(mant * 2.0**(53 - HALF_BITS))  # lo: a multiple of 2^-26
    keys = e.astype(np.intp)
    keys -= low
    keys *= n_groups
    keys += groups
    keys = keys.ravel()
    size = (high - low + 1) * n_groups
    his = np.bincount(keys, weights=hi.ravel(), minlength=size)
    los = np.bincount(keys, weights=lo.ravel(), minlength=size) * 2.0**HALF_BITS
    his = his.astype(np.int64).reshape(-1, n_groups).T.tolist()
    los = los.astype(np.int64).reshape(-1, n_groups).T.tolist()
    scale = low - 53
    out = []
    for g in range(n_groups):
        acc = 0
        for h, l in zip(reversed(his[g]), reversed(los[g])):
            acc = (acc << 1) + (h << HALF_BITS) + l
        if acc == 0:
            out.append(_fsums(x, groups, n_groups, only=g)[0])
        elif scale >= 0:
            out.append(float(acc << scale))
        else:
            out.append(acc / (1 << -scale))
    return out


def _fsums(x, groups, n_groups, only=None) -> list[float]:
    x, groups = np.broadcast_arrays(x, groups)
    picks = range(n_groups) if only is None else (only,)
    return [math.fsum(x[groups == g].tolist()) for g in picks]


# ---------------------------------------------------------------------------
# exhaustive path enumeration
# ---------------------------------------------------------------------------


# the group of each float in a complex array viewed as (re, im) pairs
RE_IM = np.arange(2)


@dataclass(frozen=True)
class PathEnumeration:
    """Every state path of one instance, in lexicographic order, with its own
    measure and its own sum; nothing is aggregated across paths until a
    characteristic function or the law sums them."""

    measure: np.ndarray  # mu(y_1) A(y_1, y_2) ... A(y_{n-1}, y_n)
    sums: np.ndarray     # c_1(y_1) + ... + c_n(y_n) in floats

    @cached_property
    def _distinct_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, inverse) with sums == values[inverse]."""
        return np.unique(self.sums, return_inverse=True)

    def char_fn(self, xi: float) -> CharFnValue:
        """phi(xi) = sum over paths of measure * exp(2 pi i xi sum); exp is
        taken once per distinct sum, which equal sums share bit for bit."""
        values, inverse = self._distinct_sums
        vals = self.measure * np.exp(2j * np.pi * xi * values)[inverse]
        re, im = exact_sums(vals.view(float).reshape(-1, 2), RE_IM, 2)
        return CharFnValue(re=re, im=im)

    def law(self) -> dict[int, float]:
        """Lattice law {sum value: probability}, each mass one exact sum;
        every path sum must be an integer, as in the transfer DP."""
        values, groups = self._distinct_sums
        off = values[~(np.isfinite(values) & (np.rint(values) == values))]
        if off.size:
            raise NonIntegerWeights(f"a path sums to {off[0].item()!r}, not an integer")
        return dict(zip(map(int, values.tolist()),
                        exact_sums(self.measure, groups, values.size)))


def enumerate_paths(chain: MarkovChain, signs: SignSystem,
                    weights: WeightSystem) -> PathEnumeration:
    """All n_states^n paths, each weighted and summed step by step on its own.

    Step j extends every path of length j by every state, multiplying its
    measure by one transition probability and adding one contribution, in
    the order a single path's loop would.  n = 0 has one empty path.
    """
    contribs = sign_contributions(signs, weights)
    n, n_states = contribs.shape
    chain.check_states(n_states)
    count = n_states**n
    if count > PATH_BUDGET:
        raise BudgetExceeded(f"{count} paths exceed the budget of {PATH_BUDGET}")
    if n == 0:
        return PathEnumeration(measure=np.ones(1), sums=np.zeros(1))
    measure = chain.stationary.copy()
    sums = np.zeros(n_states) + contribs[0]
    for j in range(1, n):
        # the last axis of each path-prefix block is its current state
        measure = (measure.reshape(-1, n_states, 1) * chain.transition).ravel()
        sums = (sums[:, None] + contribs[j]).ravel()
    return PathEnumeration(measure=measure, sums=sums)


# ---------------------------------------------------------------------------
# the alternating-product splitting inequality and its supporting identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolderInstance:
    """One instance of the alternating-product splitting inequality."""

    mu: np.ndarray
    lam: float
    ts: tuple  # k matrices, real or complex
    us: tuple  # k+1 vectors with L_inf(mu) norm <= 1

    def __post_init__(self):
        if len(self.us) != len(self.ts) + 1:
            raise PreconditionViolated(
                f"need k+1 diagonal vectors for k = {len(self.ts)} matrices"
            )
        breach = _first_sup_norm_breach(np.asarray(self.us)[None], np.asarray(self.mu)[None])
        if breach is not None:
            raise PreconditionViolated(breach[1])

    @property
    def k(self) -> int:
        return len(self.ts)


def _first_sup_norm_breach(us, mu):
    """(b, message) for the first member b of a stack, us (B, k+1, N) over mu
    (B, N), whose hypothesis ||u_i||_inf(mu) <= 1 (to 1e-12) fails for some
    u_i, the first such i; None when every member's holds."""
    norms = np.abs(us).max(axis=-1, initial=0.0, where=mu[:, None, :] > 0)
    over = norms > 1.0 + 1e-12
    if not over.any():
        return None
    b, i = np.argwhere(over)[0].tolist()
    return b, f"||u_{i}||_inf(mu) = {float(norms[b, i])!r} > 1"


def t_indices(s) -> list[int]:
    """Indices i in 1..k+1 with padded (0,s,0) zero at both i-1 and i."""
    padded = [0] + list(s) + [0]
    return [i for i in range(1, len(s) + 2) if padded[i] == 0 and padded[i - 1] == 0]


def extraction_indices(s) -> list[int]:
    """The provably extractable subset: t_indices with the left edge dropped.

    A diagonal factor turns into its mean only when averaging operators flank
    it on both sides; the leftmost diagonal is applied last, so even when
    s_1 = 0 it contributes its L1(mu) norm (at most 1 here), not its mean.
    Counterexample to the full t_indices set: k=1, T=0, lam=0, mu uniform,
    u_1 = (1,-1), u_2 = 1 gives lhs 1 but a mean factor of 0.
    """
    padded = [1] + list(s) + [0]
    return [i for i in range(1, len(s) + 2) if padded[i] == 0 and padded[i - 1] == 0]


def holder_sides(instances) -> list[tuple[float, float]]:
    """(lhs, rhs) of the splitting inequality for each instance, in order,
    each side evaluated from scratch.

    The right-hand side extracts mean factors over extraction_indices; the
    interior indices it shares with t_indices are the only ones the switching
    arguments downstream rely on.

    The instances that share N states, k matrices and the matrices' dtype run
    as one stack, so each side is bit for bit that of the instance alone:
    stacked matrix products and SVDs round as single ones do, and each u.mu
    stays one np.dot (a stacked product rounds some of them differently).
    Every k is checked against HOLDER_K_BUDGET before any work.
    """
    instances = list(instances)
    for inst in instances:
        if inst.k > HOLDER_K_BUDGET:
            raise BudgetExceeded(f"k = {inst.k} exceeds the enumeration budget")
    # the dtype of D^1/2 T D^-1/2, whose SVD is real or complex with it
    keys = [(inst.mu.size, inst.k, np.result_type(float, *inst.ts)) for inst in instances]
    sides: list = [None] * len(instances)
    for idx in _shape_groups(keys):
        n, k, dtype = keys[idx[0]]
        group = [instances[i] for i in idx]
        mu = np.array([inst.mu for inst in group], dtype=float)
        gaps = 1.0 - np.array([inst.lam for inst in group], dtype=float)
        ts = np.array([inst.ts for inst in group], dtype=dtype).reshape(len(idx), k, n, n)
        us = np.array([inst.us for inst in group], dtype=complex)
        averaged = gaps[:, None, None] * averaging_operator(mu)
        w = us[:, k]
        for j in range(k - 1, -1, -1):
            block = ts[:, j].astype(complex) + averaged
            w = us[:, j] * (block @ w[..., None])[..., 0]
        lhs = lp_norm(w, mu, 1)

        t_norms = operator_norm_l2mu(ts, mu[:, None, :])
        u_dots = np.array([[abs(np.dot(u, m)) for u in row] for row, m in zip(us, mu)])
        picks = np.where(_switching_picks(k),
                         np.concatenate([np.repeat(gaps[:, None], k, axis=1),
                                         u_dots[:, 1:]], axis=1)[:, None, :],
                         np.concatenate([t_norms, np.ones((len(idx), k))], axis=1)[:, None, :])
        terms = np.multiply.reduce(picks, axis=-1)
        for i, left, row in zip(idx, lhs.tolist(), terms.tolist()):
            sides[i] = (left, math.fsum(row))
    return sides


@cache
def _switching_picks(k: int) -> np.ndarray:
    """Row s (bit j of s is s_j, j = 0..k-1) names the factors of the
    switching term of s, in the order they multiply: column j picks 1 - lam
    where s_j = 0 (t_norms[j] where not), and column k + i - 2 picks
    u_dots[i - 1] for each i in extraction_indices(s), that is i in 2..k+1
    with s_{i-2} = 0 and, for i <= k, s_{i-1} = 0 (1.0 where not: a factor
    1.0 moves no bit)."""
    # bit k of every row number is 0
    zero = (np.arange(2**k)[:, None] >> np.arange(k + 1)) & 1 == 0
    picks = np.concatenate([zero[:, :-1], zero[:, :-1] & zero[:, 1:]], axis=1)
    picks.setflags(write=False)  # every caller shares the cached table
    return picks


@dataclass(frozen=True)
class IdentityReport:
    """Max violations of the three averaging-operator facts on one input set."""

    averaging_sandwich: float   # E_mu diag(u) E_mu = <u, mu> E_mu, entrywise
    l1_product: float           # ||R_1 E_mu ... R_k 1||_1 <= prod ||R_i 1||_1
    diagonal_contraction: float  # ||(prod U_j T_j) U_{k+1} 1||_1 <= prod ||T_j||_2

    @property
    def passed(self) -> bool:
        return max(self.averaging_sandwich, self.l1_product,
                   self.diagonal_contraction) <= IDENTITY_TOL


def averaging_identity_reports(members) -> list[IdentityReport]:
    """The three identities/inequalities evaluated directly on each member
    (mu, us, r_mats, t_mats), in order.

    us: k+1 vectors (entries of modulus <= 1; us[0] also drives the sandwich
    identity), r_mats: matrices for the L1 product bound, t_mats: k matrices
    for the diagonal contraction.

    The members that share N and their numbers of us, r_mats and t_mats run
    as one stack, so each report is bit for bit that of the member alone (as
    in holder_sides).  Every member's hypothesis ||u_i||_inf(mu) <= 1 is
    checked before any work; the first member that breaks it raises.
    """
    members = list(members)
    keys = [(np.size(mu), len(us), len(r_mats), len(t_mats))
            for mu, us, r_mats, t_mats in members]
    stacks, breaches = [], []
    for idx in _shape_groups(keys):
        mu = np.array([members[i][0] for i in idx], dtype=float)
        us = np.array([members[i][1] for i in idx], dtype=complex)
        breach = _first_sup_norm_breach(us, mu)
        if breach is not None:
            breaches.append((idx[breach[0]], breach[1]))
        stacks.append((idx, mu, us))
    if breaches:
        raise PreconditionViolated(min(breaches)[1])

    reports: list = [None] * len(members)
    for idx, mu, us in stacks:
        n, _, n_r, n_t = keys[idx[0]]
        r = np.array([members[i][2] for i in idx], dtype=float).reshape(len(idx), n_r, n, n)
        t = np.array([members[i][3] for i in idx], dtype=complex).reshape(len(idx), n_t, n, n)
        e_mu = averaging_operator(mu)
        diag = np.zeros((len(idx), n, n), dtype=complex)
        diag[:, np.arange(n), np.arange(n)] = us[:, 0]
        dots = np.array([np.dot(u, m) for u, m in zip(us[:, 0], mu)])
        sandwich = np.abs(e_mu @ diag @ e_mu - dots[:, None, None] * e_mu).max(axis=(1, 2))

        ones = np.ones(n)
        w = r[:, -1] @ ones
        bound = lp_norm(w, mu, 1)
        for j in range(r.shape[1] - 2, -1, -1):
            w = (r[:, j] @ (e_mu @ w[..., None]))[..., 0]
            bound = bound * lp_norm(r[:, j] @ ones, mu, 1)
        l1_product = lp_norm(w, mu, 1) - bound

        t_norms = operator_norm_l2mu(t, mu[:, None, :])
        w = us[:, t.shape[1]]
        bound = np.ones(len(idx))
        for j in range(t.shape[1] - 1, -1, -1):
            w = us[:, j] * (t[:, j] @ w[..., None])[..., 0]
            bound = bound * t_norms[:, j]
        contraction = lp_norm(w, mu, 1) - bound

        for i, s, l1, c in zip(idx, sandwich.tolist(), l1_product.tolist(),
                               contraction.tolist()):
            reports[i] = IdentityReport(averaging_sandwich=s, l1_product=max(0.0, l1),
                                        diagonal_contraction=max(0.0, c))
    return reports


# ---------------------------------------------------------------------------
# switching-sequence domination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwitchingReport:
    """Exact switching-count law versus its binomial minorant."""

    n: int
    lam: float
    r_plus_one_pmf: np.ndarray     # index t-1 holds P[r(s)+1 = t]
    minorant_pmf: np.ndarray       # law of B(floor(n/4)-1, (1-lam)^2) + 1
    dominates: bool
    worst_margin: float            # min over t of P[r+1 >= t] - P[r' >= t]
    inv_sqrt_moment: float         # E[(r(s)+1)^(-1/2)]
    jensen_bound: float            # sqrt(E[1/r'])
    negative_moment_bound: float | None  # 1/(m p) when m >= 1, else None

    @property
    def moment_chain_holds(self) -> bool:
        ok = self.inv_sqrt_moment <= self.jensen_bound + 1e-12
        if self.negative_moment_bound is not None:
            ok = ok and self.jensen_bound <= math.sqrt(self.negative_moment_bound) + 1e-12
        return ok


def _survival(pmf: np.ndarray) -> np.ndarray:
    return np.concatenate([np.cumsum(pmf[::-1])[::-1], [0.0]])


def switching_stats(n: int, lam: float, unit_mask=None) -> SwitchingReport:
    """Exhaustive law of r(s)+1 over s in {0,1}^(n-1) and its binomial minorant.

    r(s) counts adjacent zero pairs s_j = s_{j+1} = 0 at positions whose weight
    has length >= 1 (unit_mask, default all); the minorant adds 1 to a binomial
    with floor(n/4)-1 trials and success probability (1-lam)^2.
    """
    if n < 2:
        raise PreconditionViolated(f"need n >= 2 switching positions, got n = {n}")
    if n > SWITCHING_N_BUDGET:
        raise BudgetExceeded(f"n = {n} exceeds the exhaustive budget {SWITCHING_N_BUDGET}")
    check_lambda(lam)
    if unit_mask is None:
        mask = np.ones(n, dtype=bool)
    else:
        mask = np.asarray(unit_mask, dtype=bool)
        if mask.shape != (n,):
            raise PreconditionViolated(f"unit_mask must have length {n}")
    if np.count_nonzero(mask) < n / 2:
        raise HypothesisViolated(
            f"only {np.count_nonzero(mask)} of {n} weights have length >= 1"
        )

    m = n - 1
    codes = np.arange(2**m, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(m)) & 1  # (2^m, m)
    ones = bits.sum(axis=1)
    probs = np.power(lam, ones) * np.power(1.0 - lam, m - ones)
    zero_pairs = (bits[:, :-1] == 0) & (bits[:, 1:] == 0)  # positions j = 0..n-3
    r = (zero_pairs & mask[: n - 2][None, :]).sum(axis=1)
    pmf = np.bincount(r + 1, weights=probs, minlength=n)[1:]

    trials = max(0, n // 4 - 1)
    p2 = (1.0 - lam) ** 2
    minorant = np.zeros(trials + 1)
    for i in range(trials + 1):
        minorant[i] = math.comb(trials, i) * p2**i * (1.0 - p2) ** (trials - i)
    # minorant[i] is P[r' = i+1]

    surv_r = _survival(pmf)
    surv_m = _survival(minorant)
    width = max(surv_r.size, surv_m.size)
    surv_r = np.pad(surv_r, (0, width - surv_r.size))
    surv_m = np.pad(surv_m, (0, width - surv_m.size))
    margins = surv_r - surv_m
    worst = float(margins.min())

    values = np.arange(1, pmf.size + 1, dtype=float)
    inv_sqrt = float(np.dot(pmf, values**-0.5))
    mvals = np.arange(1, minorant.size + 1, dtype=float)
    jensen = math.sqrt(float(np.dot(minorant, 1.0 / mvals)))
    neg_bound = 1.0 / (trials * p2) if trials >= 1 and p2 > 0 else None

    return SwitchingReport(
        n=n, lam=lam, r_plus_one_pmf=pmf, minorant_pmf=minorant,
        dominates=bool(worst >= -1e-12), worst_margin=worst,
        inv_sqrt_moment=inv_sqrt, jensen_bound=jensen,
        negative_moment_bound=neg_bound,
    )
