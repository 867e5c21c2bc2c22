"""Seeded, versioned instance families.

Fitted constants record the family they were fitted over; the generators here
are deterministic in their seed so failures replay and refits are idempotent.
The version tag changes whenever a generator's output would change.
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

FAMILY_VERSION = "v1"
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


def reversible_draw(rng, n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """(transition, stationary) of a random walk on a random symmetric weight
    matrix, not yet validated; reversible by design."""
    s = rng.uniform(0.05, 1.0, size=(n_states, n_states))
    s = 0.5 * (s + s.T)
    rowsums = s.sum(axis=1)
    return s / rowsums[:, None], rowsums / rowsums.sum()


def random_reversible_chain(rng, n_states: int) -> MarkovChain:
    """The validated chain of one reversible_draw."""
    return validate_chain(*reversible_draw(rng, n_states))


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
    e_mu = np.tile(mu, (n, 1))
    p = np.zeros((n, n))
    p[np.arange(n), perm] = 1.0
    return (1.0 - lam_target - rho) * e_mu + lam_target * p + rho * a0, mu


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
    """Random desk-scale integer instances for Esseen / Z_p domination checks."""
    rng = np.random.default_rng(seed)
    draws, rows = [], []
    for _ in range(count):
        n_states = int(rng.integers(2, 5))
        draws.append(reversible_draw(rng, n_states))
        n = int(rng.integers(4, 11))
        functions = rng.choice([-1, 1], size=(n, n_states))
        weights = make_weight_system(rng.integers(1, 9, size=n).astype(float))
        rows.append((functions, weights, float(rng.integers(-3, 4)),
                     float(rng.choice([0.0, 1.0, 2.0]))))
    chains = validate_chains(draws)
    return [BoundInstance(instance_id=f"esseen-{i:03d}", chain=chain,
                          signs=make_sign_system(functions, chain.stationary),
                          weights=weights, lam=lam, x0=x0, radius=radius)
            for i, (chain, lam, (functions, weights, x0, radius))
            in enumerate(zip(chains, spectral_lambdas(chains), rows))]


ESSEEN_SEED = 20240701
ESSEEN_EXTRA_SEED = 20240702
ESSEEN_COUNT = 200
ESSEEN_FAMILY_DESC = (
    f"esseen-{FAMILY_VERSION}: random reversible chains N in 2..4, n in 4..10, "
    f"integer weights 1..8, x0 in -3..3, R in (0,1,2); "
    f"{ESSEEN_COUNT} instances each from seeds {ESSEEN_SEED} and {ESSEEN_EXTRA_SEED}"
)


def oracle_family(seed: int, count: int) -> list[dict]:
    """Small instances where full path enumeration is affordable."""
    rng = np.random.default_rng(seed)
    draws, rows = [], []
    for _ in range(count):
        n_states = int(rng.integers(2, 5))
        draws.append(reversible_draw(rng, n_states))
        n = int(rng.integers(2, 9))
        functions = rng.choice([-1, 1], size=(n, n_states))
        weights = make_weight_system(rng.integers(1, 6, size=n).astype(float))
        rows.append((functions, weights, rng.uniform(-2.0, 2.0, size=2)))
    return [{"instance_id": f"oracle-{i:03d}", "chain": chain,
             "signs": make_sign_system(functions, chain.stationary),
             "weights": weights, "xis": xis}
            for i, (chain, (functions, weights, xis))
            in enumerate(zip(validate_chains(draws), rows))]


def holder_family(seed: int, count: int) -> list[HolderInstance]:
    """Splitting-inequality instances: chain-derived T_j and random bounded diagonals."""
    rng = np.random.default_rng(seed)
    draws, rows = [], []
    for _ in range(count):
        n_states = int(rng.integers(2, 7))
        draws.append(reversible_draw(rng, n_states))
        k = int(rng.integers(1, 7))
        us = []
        for _ in range(k + 1):
            scale = rng.uniform(0.5, 1.0) if rng.random() < 0.3 else 1.0
            us.append(scale * np.exp(2j * np.pi * rng.uniform(size=n_states)))
        rows.append((k, tuple(us)))
    chains = validate_chains(draws)
    out = []
    for chain, lam, (k, us) in zip(chains, spectral_lambdas(chains), rows):
        t = chain.transition - (1.0 - lam) * np.tile(chain.stationary, (chain.n_states, 1))
        out.append(HolderInstance(mu=chain.stationary, lam=lam, ts=(t,) * k, us=us))
    return out


def identity_inputs(seed: int, count: int) -> list[dict]:
    """Random (mu, u, R, T) tuples for the averaging-operator identities: us a
    (k+1, N) array, r_mats and t_mats (k, N, N) arrays."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n_states = int(rng.integers(2, 9))
        mu = rng.dirichlet(np.ones(n_states))
        k = int(rng.integers(1, 6))
        # each u's phases, then its moduli: uniform(0.5, 1) is 0.5 + 0.5 x
        # for the same draw x, so the stream is the per-vector draws'
        x = rng.random((k + 1, 2, n_states))
        us = np.exp(2j * np.pi * x[:, 0]) * (0.5 + 0.5 * x[:, 1])
        r_mats, t_mats = rng.normal(size=(2, k, n_states, n_states))
        out.append({"mu": mu, "us": us, "r_mats": r_mats, "t_mats": t_mats})
    return out


PRG_FAMILY_DESC = (
    f"prg-{FAMILY_VERSION}: MGG degree-8 walks, k in {PRG_K_GRID}, "
    f"n in {PRG_N_GRID}, all-ones weights, x0=0, R=1, exact enumeration"
)
