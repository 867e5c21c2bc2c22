"""Seeded, versioned instance families.

Fitted constants record the family they were fitted over; the generators here
are deterministic in their seed so failures replay and refits are idempotent,
and the version tag changes whenever one's output would.  All random families
but half_unit_family draw each quantity in one call, sliced per instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import (
    MarkovChain,
    SignSystem,
    WeightSystem,
    make_sign_system,
    make_two_state_chain,
    make_weight_system,
    parity_labels,
    repeated_signs,
    spectral_lambdas,
    validate_chain,
    validate_chains,
)
from .oracles import HolderInstance

FAMILY_VERSION = "v2"
DEFAULT_SEED = 20240513

HALF_UNIT_BUCKETS = (0.0, 0.2, 0.5, 0.8)
HALF_UNIT_N_RANGE = tuple(range(8, 17))
DIFF_N_GRID = (9, 16, 25, 36, 49)
DIFF_LAMBDAS = (0.0, 0.3, 0.6)
PRG_K_GRID = (2, 4)
PRG_N_GRID = (8, 12, 16)
# grids on which criteria 6, 11 and 9 check the proved C_COS, C_COORD, C_SIZE
COS_K_MAX = 100
COORD_D_RANGE = tuple(range(2, 65))
SIZE_N_RANGE = tuple(range(4, 4097))
TIGHTNESS_N_GRID = (64, 128, 256, 512, 1024)
TIGHTNESS_LAMBDAS = (0.0, 0.3, 0.6)


@dataclass(frozen=True)
class BoundInstance:
    """A chain + signs + weights + window, ready for a bound comparison."""

    instance_id: str
    chain: MarkovChain
    signs: SignSystem
    weights: WeightSystem
    lam: float
    x0: float
    radius: float


def reversible_draws(rng, n_states) -> list[tuple[np.ndarray, np.ndarray]]:
    """(transition, stationary), not yet validated and reversible by design,
    of a random walk on a random symmetric weight matrix per entry of
    n_states: one uniform (members, N, N) draw per state count N, increasing."""
    n_states, draws = np.asarray(n_states), {}
    for n in sorted(set(n_states.tolist())):
        members = np.flatnonzero(n_states == n).tolist()
        s = rng.uniform(0.05, 1.0, size=(len(members), n, n))
        s = 0.5 * (s + s.transpose(0, 2, 1))
        rowsums = s.sum(axis=2)
        draws_n = zip(s / rowsums[:, :, None], rowsums / rowsums.sum(axis=1, keepdims=True))
        draws.update(zip(members, draws_n))
    return [draws[i] for i in range(n_states.size)]


def random_reversible_chain(rng, n_states: int) -> MarkovChain:
    """The validated chain of a one-member reversible_draws: its (1, N, N)
    draw takes the doubles an (N, N) one does."""
    return validate_chain(*reversible_draws(rng, [n_states])[0])


def paired_reversible_draw(rng, n_pairs: int, lam_target: float, wobble: float = 0.049):
    """(transition, stationary), not yet validated, of a reversible chain whose
    lambda lies within `wobble` of lam_target and whose stationary law gives
    equal mass to paired states, so that pair-antisymmetric sign functions
    are balanced to machine precision.

    Blend of the averaging operator (lambda 0), the pair-swap permutation
    (lambda 1) and a random pair-symmetric chain (norm <= 1 perturbation).
    """
    n = 2 * n_pairs
    perm = np.arange(n).reshape(-1, 2)[:, ::-1].ravel()  # swap within pairs
    s = rng.uniform(0.1, 1.0, size=(n, n))
    s = 0.5 * (s + s.T)
    s = 0.5 * (s + s[perm][:, perm])
    rowsums = s.sum(axis=1)
    rowsums = 0.5 * (rowsums + rowsums[perm])  # exact pair equality
    a0 = s / rowsums[:, None]
    mu = rowsums / rowsums.sum()
    mu = 0.5 * (mu + mu[perm])

    rho = rng.uniform(0.0, min(wobble, 1.0 - lam_target))
    p = np.zeros((n, n))
    p[np.arange(n), perm] = 1.0
    return (1.0 - lam_target - rho) * mu + lam_target * p + rho * a0, mu  # E_mu: rows mu


def pair_antisymmetric_functions(rng, n_pairs: int, n_steps: int) -> np.ndarray:
    """Random sign functions flipping across each state pair; balanced
    exactly under a paired_reversible_draw's stationary law."""
    r = rng.choice([-1, 1], size=(n_steps, n_pairs))
    functions = np.repeat(r, 2, axis=1)
    functions[:, 1::2] *= -1
    return functions


# ---------------------------------------------------------------------------
# constant-fitting / acceptance families
# ---------------------------------------------------------------------------


def half_unit_family(seed: int = DEFAULT_SEED) -> list[BoundInstance]:
    """Window probabilities vs C/((1-lambda) sqrt(n)): paired reversible chains
    with lambda near each bucket, all-ones weights, closed window of radius 1.
    The x0 rows of one draw share its chain, signs and weights."""
    rng = np.random.default_rng(seed)
    draws, rows = [], []
    for bucket in HALF_UNIT_BUCKETS:
        for n in HALF_UNIT_N_RANGE:
            for n_pairs in (1, 2):
                draws.append(paired_reversible_draw(rng, n_pairs, bucket))
                rows.append((bucket, n, pair_antisymmetric_functions(rng, n_pairs, n)))
    chains = validate_chains(draws)
    out = []
    for chain, lam, (bucket, n, functions) in zip(chains, spectral_lambdas(chains), rows):
        signs = make_sign_system(functions, chain.stationary, balanced=True)
        weights = make_weight_system(np.ones(n), "at-least-unit")
        for x0 in (0.0, 1.0):
            out.append(BoundInstance(
                instance_id=f"halfunit-b{bucket}-n{n}-N{chain.n_states}-x{int(x0)}",
                chain=chain, signs=signs, weights=weights,
                lam=lam, x0=x0, radius=1.0))
    return out


HALF_UNIT_FAMILY_DESC = (
    f"half-unit-{FAMILY_VERSION}: paired reversible chains N in (2,4), lambda buckets "
    f"{HALF_UNIT_BUCKETS} within 0.05, n in 8..16, all-ones weights, closed window "
    f"R=1 at x0 in (0,1), seed {DEFAULT_SEED}"
)


def diff_instances(lams=DIFF_LAMBDAS, ns=DIFF_N_GRID) -> list[BoundInstance]:
    """Distinct-integer instances v = (1..n) on two-state chains; deterministic.

    lam is the chain's nominal lambda, which the reports write.  The bounded
    quantity is the largest point mass, so the window is the point x0 = 0."""
    out = []
    for lam in map(float, lams):
        chain = make_two_state_chain(lam)
        for n in map(int, ns):
            signs = repeated_signs(parity_labels(2), n, chain.stationary,
                                   balanced=True)
            weights = make_weight_system(np.arange(1, n + 1),
                                         "distinct-positive-integers")
            out.append(BoundInstance(
                instance_id=f"diff-l{lam}-n{n}", chain=chain, signs=signs,
                weights=weights, lam=lam, x0=0.0, radius=0.0))
    return out


DIFF_FAMILY_DESC = (
    f"diff-{FAMILY_VERSION}: two-state chains lambda in {DIFF_LAMBDAS}, "
    f"weights 1..n for n in {DIFF_N_GRID}, max point probability"
)


def esseen_family(seed: int, count: int) -> list[BoundInstance]:
    """Random desk-scale integer instances for Esseen window checks, with the
    ranges of ESSEEN_FAMILY_DESC."""
    rng = np.random.default_rng(seed)
    n_states = rng.integers(2, 5, size=count)
    steps = rng.integers(4, 11, size=count)
    functions = rng.choice([-1, 1], size=(count, 10, 4))
    weights = rng.integers(1, 9, size=(count, 10)).astype(float)
    x0s = rng.integers(-3, 4, size=count).astype(float)
    radii = rng.integers(0, 3, size=count).astype(float)
    chains = validate_chains(reversible_draws(rng, n_states))
    rows = zip(chains, spectral_lambdas(chains), steps.tolist(), x0s.tolist(), radii.tolist())
    return [BoundInstance(
                instance_id=f"esseen-{i:03d}", chain=chain, lam=lam, x0=x0, radius=radius,
                signs=make_sign_system(functions[i, :n, :chain.n_states], chain.stationary),
                weights=make_weight_system(weights[i, :n]))
            for i, (chain, lam, n, x0, radius) in enumerate(rows)]


ESSEEN_SEED = 20240701
ESSEEN_EXTRA_SEED = 20240702
ESSEEN_COUNT = 200
ESSEEN_FAMILY_DESC = (
    f"esseen-{FAMILY_VERSION}: random reversible chains N in 2..4, n in 4..10, "
    f"integer weights 1..8, x0 in -3..3, R in (0,1,2); "
    f"{ESSEEN_COUNT} instances each from seeds {ESSEEN_SEED} and {ESSEEN_EXTRA_SEED}"
)


def oracle_family(seed: int, count: int) -> list[dict]:
    """Small instances where full path enumeration is affordable: N in 2..4
    states, n in 2..8 steps, weights 1..5, two frequencies in [-2, 2)."""
    rng = np.random.default_rng(seed)
    n_states = rng.integers(2, 5, size=count)
    steps = rng.integers(2, 9, size=count)
    functions = rng.choice([-1, 1], size=(count, 8, 4))
    weights = rng.integers(1, 6, size=(count, 8)).astype(float)
    xis = rng.uniform(-2.0, 2.0, size=(count, 2))
    chains = validate_chains(reversible_draws(rng, n_states))
    return [{"instance_id": f"oracle-{i:03d}", "chain": chain,
             "signs": make_sign_system(functions[i, :n, :chain.n_states], chain.stationary),
             "weights": make_weight_system(weights[i, :n]), "xis": xis[i]}
            for i, (chain, n) in enumerate(zip(chains, steps.tolist()))]


def holder_family(seed: int, count: int) -> list[HolderInstance]:
    """Splitting-inequality instances on N in 2..6 states, k in 1..6: T_j =
    A - (1 - lambda) E_mu and k + 1 random diagonals of unit phases, scaled by
    a uniform [0.5, 1) factor with probability 0.3."""
    rng = np.random.default_rng(seed)
    n_states = rng.integers(2, 7, size=count)
    ks = rng.integers(1, 7, size=count)
    scales = np.where(rng.random((count, 7)) < 0.3, rng.uniform(0.5, 1.0, size=(count, 7)), 1.0)
    us = scales[:, :, None] * np.exp(2j * np.pi * rng.random((count, 7, 6)))
    chains = validate_chains(reversible_draws(rng, n_states))
    return [HolderInstance(mu=chain.stationary, lam=lam,
                           ts=(chain.transition - (1.0 - lam) * chain.stationary,) * k,
                           us=tuple(us[i, :k + 1, :chain.n_states]))
            for i, (chain, lam, k) in enumerate(zip(chains, spectral_lambdas(chains), ks.tolist()))]


def identity_inputs(seed: int, count: int) -> list[dict]:
    """Random (mu, u, R, T) tuples for the averaging-operator identities, N in
    2..8 and k in 1..5: us a (k+1, N) array of unit phases times moduli
    uniform on [0.5, 1), r_mats and t_mats (k, N, N) normal arrays.  Laws,
    us and matrices are one stack per state count N, increasing."""
    rng = np.random.default_rng(seed)
    n_states = rng.integers(2, 9, size=count)
    ks = rng.integers(1, 6, size=count).tolist()
    out = [None] * count
    for n in sorted(set(n_states.tolist())):
        members = np.flatnonzero(n_states == n).tolist()
        mus = rng.dirichlet(np.ones(n), size=len(members))
        x = rng.random((len(members), 6, 2, n))
        us = np.exp(2j * np.pi * x[:, :, 0]) * (0.5 + 0.5 * x[:, :, 1])
        mats = rng.normal(size=(len(members), 2, 5, n, n))
        for i, mu, u, (r, t) in zip(members, mus, us, mats):
            out[i] = {"mu": mu, "us": u[:ks[i] + 1], "r_mats": r[:ks[i]], "t_mats": t[:ks[i]]}
    return out


PRG_FAMILY_DESC = (
    f"prg-{FAMILY_VERSION}: MGG degree-8 walks, k in {PRG_K_GRID}, "
    f"n in {PRG_N_GRID}, all-ones weights, x0=0, R=1, exact enumeration"
)
