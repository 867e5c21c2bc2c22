"""Finite reversible Markov chains that drive the random signs.

A chain is a row-stochastic matrix together with its stationary law.  The
spectral parameter lambda is the operator norm of A - E_mu acting on L2(mu),
where E_mu is the rank-one averaging operator; lambda = 0 means the steps are
independent and 1 - lambda is the spectral gap.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    HypothesisViolated,
    InvalidDistribution,
    NoUniqueStationary,
    NotReversible,
    NotStationary,
    NotStochastic,
    OutOfRange,
    PreconditionViolated,
    ZeroStationaryMass,
)

# Structural checks tolerate decimal-rounded user input; identities that we
# compute ourselves are held to the tighter tolerance.
STRUCTURAL_TOL = 1e-9
DERIVED_TOL = 1e-12


@dataclass(frozen=True)
class MarkovChain:
    """A validated stationary reversible chain on states 0..n_states-1."""

    n_states: int
    transition: np.ndarray
    stationary: np.ndarray

    def check_states(self, n_states: int) -> None:
        """Sign functions (or contributions made of them) must cover the chain's states."""
        _check_state_count(n_states, self.n_states)


def _check_state_count(n_states: int, chain_states: int) -> None:
    """Sign functions on n_states states need a chain on as many."""
    if n_states != chain_states:
        raise DimensionMismatch(
            f"sign functions cover {n_states} states, chain has {chain_states}")


@dataclass(frozen=True)
class SignSystem:
    """Per-step sign functions f_j: states -> {-1,+1}."""

    n_steps: int
    functions: np.ndarray  # (n_steps, n_states), entries exactly +-1


@dataclass(frozen=True)
class WeightSystem:
    """The fixed vectors v_1..v_n."""

    dimension: int
    weights: np.ndarray  # (n, dimension)

    @property
    def n_weights(self) -> int:
        return self.weights.shape[0]

    @property
    def scalars(self) -> np.ndarray:
        if self.dimension != 1:
            raise PreconditionViolated(
                f"scalar weights requested but dimension is {self.dimension}"
            )
        return self.weights[:, 0]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _solve_stationary(a: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eig(a.T)
    close = np.where(np.abs(evals - 1.0) <= STRUCTURAL_TOL)[0]
    if close.size == 0:
        raise NoUniqueStationary("no eigenvalue of A^T within 1e-9 of 1")
    if close.size > 1:
        raise NoUniqueStationary(
            f"fixed space has dimension {close.size}; the stationary law is not unique"
        )
    v = evecs[:, close[0]]
    # rotate away a possible complex phase, then normalize to total mass 1
    v = np.real(v * np.exp(-1j * np.angle(v[np.argmax(np.abs(v))])))
    total = v.sum()
    if abs(total) < 1e-12:
        raise NoUniqueStationary("fixed vector of A^T has vanishing total mass")
    mu = v / total
    if mu.min() < -STRUCTURAL_TOL:
        raise NoUniqueStationary(
            f"fixed vector has negative mass {mu.min():.3e} at state {int(np.argmin(mu))}"
        )
    mu = np.clip(mu, 0.0, None)
    return mu / mu.sum()


def validate_chain(transition, stationary=None) -> MarkovChain:
    """Validate a raw transition matrix (and optional stationary vector).

    Checks row-stochasticity, stationarity and detailed balance.  When no
    stationary vector is supplied it is computed as the unique left fixed
    probability vector; a fixed space of dimension > 1 is an error rather
    than an arbitrary tie-break.  This is the one-member case of
    validate_chains.
    """
    return validate_chains([(transition, stationary)])[0]


def validate_chains(members) -> list[MarkovChain]:
    """validate_chain of each member (transition, stationary or None).

    Members with the same number of states, alike in whether they supply a
    stationary vector, are checked as one stack.  Every member is checked
    before any chain is built: the first member, in order, that its lone
    call would refuse raises that call's error.
    """
    errors, groups, passed = {}, {}, {}
    for i, (transition, stationary) in enumerate(members):
        a = np.asarray(transition, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            errors[i] = NotStochastic(f"transition matrix must be square, got shape {a.shape}")
            continue
        n = a.shape[0]
        if n == 0:
            errors[i] = NotStochastic("transition matrix is empty")
            continue
        mu = None
        if stationary is not None:
            mu = np.asarray(stationary, dtype=float)
            if mu.shape != (n,):
                errors[i] = InvalidDistribution(
                    f"stationary vector has shape {mu.shape}, expected ({n},)")
                continue
        groups.setdefault((n, mu is None), []).append((i, a, mu))
    for (n, solve), group in groups.items():
        a = np.stack([a for _, a, _ in group])
        mu = None if solve else np.stack([mu for *_, mu in group])
        found = _structure_errors(a, mu)
        keep = [b for b in range(len(group)) if b not in found]
        if solve:
            mu = np.zeros((len(group), n))
            for b in keep:
                try:
                    mu[b] = _solve_stationary(a[b])
                except NoUniqueStationary as exc:
                    found[b] = exc
            keep = [b for b in keep if b not in found]
        if found:  # the balance checks see only the members that passed so far
            a, mu = a[keep], mu[keep]
        if keep:
            for k, exc in _balance_errors(a, mu, not solve).items():
                found[keep[k]] = exc
        errors.update((group[b][0], exc) for b, exc in found.items())
        passed.update((group[b][0], (a[k], mu[k])) for k, b in enumerate(keep) if b not in found)
    if errors:
        raise errors[min(errors)]
    return [MarkovChain(n_states=len(mu), transition=_freeze(a), stationary=_freeze(mu))
            for a, mu in map(passed.get, range(len(members)))]


def _first_errors(checks) -> dict:
    """{member: error} of the first failing check of each member; checks are
    (failing mask, member -> error) pairs in order."""
    errors = {}
    for failing, error in checks:
        if failing.any():
            for b in np.flatnonzero(failing).tolist():
                errors.setdefault(b, error(b))
    return errors


def _structure_errors(a: np.ndarray, mu) -> dict:
    """The stationary vectors mu (None: to be solved for) of the (B, N, N)
    stack a, then a's entries and row sums.  Each verdict is the lone
    check's: a maximum picks the value its argmax does."""
    n = a.shape[1]
    checks = []
    if mu is not None:
        def mass(b):
            return InvalidDistribution(
                f"stationary mass mu[{int(np.argmin(mu[b]))}] = {mu[b].min().item()!r} is "
                "not a probability")

        # NaN fails here, +inf the sum
        checks += [(~(mu.min(axis=1) >= 0), mass),
                   (np.abs(mu.sum(axis=1) - 1.0) > DERIVED_TOL, lambda b: InvalidDistribution(
                       f"stationary masses sum to {mu[b].sum().item()!r}, expected 1"))]

    def negative(b):
        i, j = divmod(int(np.argmin(a[b])), n)
        return NotStochastic(f"entry A[{i},{j}] = {a[b, i, j].item()!r} is not a probability")

    def row_sum(b):
        rowsum = a[b].sum(axis=1)
        worst = int(np.argmax(np.abs(rowsum - 1.0)))
        return NotStochastic(f"row {worst} sums to {rowsum[worst].item()!r}, expected 1")

    # min is NaN when any entry is, so NaN fails here; +inf fails the row sum
    checks += [(~(a.min(axis=(1, 2)) >= 0), negative),
               (np.abs(a.sum(axis=2) - 1.0).max(axis=1) > STRUCTURAL_TOL, row_sum)]
    return _first_errors(checks)


def _balance_errors(a: np.ndarray, mu: np.ndarray, given: bool) -> dict:
    """Detailed balance of each chain of the stack, then, for given
    stationary vectors, their fixed-point residue."""
    n = a.shape[1]
    balance = mu[:, :, None] * a
    gap = balance - balance.transpose(0, 2, 1)  # mu_i A_ij - mu_j A_ji

    def unbalanced(b):
        i, j = divmod(int(np.argmax(np.abs(gap[b]))), n)
        return NotReversible(
            f"detailed balance fails at ({i},{j}): "
            f"mu_i A_ij = {balance[b, i, j].item()!r} vs mu_j A_ji = {balance[b, j, i].item()!r}")

    checks = [(np.abs(gap).max(axis=(1, 2)) > STRUCTURAL_TOL, unbalanced)]
    if given:
        # detailed balance plus stochasticity already imply stationarity up to
        # accumulated tolerance; this catches gross fixed-point violations
        resid = np.matmul(mu[:, None, :], a)[:, 0] - mu

        def moving(b):
            worst = int(np.argmax(np.abs(resid[b])))
            return NotStationary(
                f"mu is not a fixed point: (mu A - mu)[{worst}] = {resid[b, worst]:.3e}")

        checks.append((np.abs(resid).max(axis=1) > n * STRUCTURAL_TOL, moving))
    return _first_errors(checks)


def spectral_lambda(chain: MarkovChain) -> float:
    """Operator norm of A - E_mu on L2(mu).

    Computed as the largest absolute eigenvalue of the symmetrized matrix
    D^1/2 (A - E_mu) D^-1/2 with D = diag(mu); reversibility makes this the
    L2(mu) operator norm exactly.  This is the one-member case of
    spectral_lambdas.
    """
    return spectral_lambdas([chain])[0]


def spectral_lambdas(chains) -> list[float]:
    """spectral_lambda of each chain, bit for bit: chains with the same number
    of states share one stacked eigvalsh call (LAPACK solves each matrix on
    its own).  Each chain's stationary law is checked first; the first chain,
    in order, with a zero mass raises."""
    for chain in chains:
        mu = chain.stationary
        if mu.min() <= 0.0:
            raise ZeroStationaryMass(
                f"state {int(np.argmin(mu))} has zero stationary mass; "
                "restrict the chain to its support first"
            )
    groups, out = {}, [None] * len(chains)
    for i, chain in enumerate(chains):
        groups.setdefault(chain.n_states, []).append(i)
    for idx in groups.values():
        root = np.sqrt(np.stack([chains[i].stationary for i in idx]))
        a = np.stack([chains[i].transition for i in idx])
        sym = a * (root[:, :, None] / root[:, None, :]) - root[:, :, None] * root[:, None, :]
        sym = 0.5 * (sym + sym.transpose(0, 2, 1))  # kill the <=1e-9 asymmetry allowed in inputs
        lams = np.max(np.abs(np.linalg.eigvalsh(sym)), axis=1).tolist()
        for i, lam in zip(idx, lams):
            out[i] = min(1.0, max(0.0, lam))
    return out


def make_two_state_chain(lam: float) -> MarkovChain:
    """The two-state chain with off-diagonal (1+lam)/2; its spectral parameter is lam."""
    check_lambda(lam)
    stay = (1.0 - lam) / 2.0
    switch = (1.0 + lam) / 2.0
    a = np.array([[stay, switch], [switch, stay]])
    return validate_chain(a, np.array([0.5, 0.5]))


def make_independent_chain(mu) -> MarkovChain:
    """Chain whose every row equals mu, i.e. A = E_mu and lambda = 0."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size == 0:
        raise InvalidDistribution(f"mu must be a nonempty vector, got shape {mu.shape}")
    return validate_chain(np.tile(mu, (mu.size, 1)), mu)  # mu is checked first


def make_sign_system(functions, mu, balanced: bool = False) -> SignSystem:
    """Build a SignSystem for a chain with stationary law mu.

    With balanced=True every stationary mean E_mu[f_j] must vanish to 1e-12
    (the hypothesis the theorem bounds need); otherwise imbalance is allowed,
    since exact probability computations are well defined either way.
    """
    f = np.asarray(functions)
    if f.ndim != 2:
        raise PreconditionViolated(f"sign functions must be 2-d, got shape {f.shape}")
    if f.size and not np.all(np.abs(f) == 1):
        bad = np.argwhere(np.abs(f) != 1)[0]
        raise PreconditionViolated(
            f"sign function entry f[{bad[0]},{bad[1]}] = {f[tuple(bad)].item()!r} is not +-1"
        )
    mu = np.asarray(mu, dtype=float)
    if f.size:
        _check_state_count(f.shape[1], mu.size)
        balances = f.astype(float) @ mu
        if balanced and np.max(np.abs(balances)) > DERIVED_TOL:
            j = int(np.argmax(np.abs(balances)))
            raise HypothesisViolated(
                f"sign system flagged balanced but E_mu[f_{j}] = {balances[j]:.3e}"
            )
    return SignSystem(n_steps=f.shape[0], functions=_freeze(f.astype(np.int8)))


def parity_labels(n_states: int) -> np.ndarray:
    """+1 on even states, -1 on odd states; the identity labeling when N = 2."""
    return np.where(np.arange(n_states) % 2 == 0, 1, -1).astype(np.int8)


def repeated_signs(label_row, n_steps: int, mu, balanced: bool = False) -> SignSystem:
    """Sign system using the same labeling at every step."""
    row = np.asarray(label_row)
    return make_sign_system(np.tile(row, (n_steps, 1)), mu, balanced=balanced)


def make_weight_system(weights, variant: str = "general") -> WeightSystem:
    """Validate weights against the hypothesis `variant` names ("general": none,
    "at-least-unit", "distinct-positive-integers")."""
    w = np.asarray(weights, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if w.ndim != 2:
        raise PreconditionViolated(f"weights must be 1-d or 2-d, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise PreconditionViolated("weights must be finite numbers")
    with np.errstate(over="ignore"):
        if not np.isfinite(np.abs(w).sum()):
            raise PreconditionViolated("the weights' absolute values sum past the largest float")
    n, d = w.shape
    if variant == "at-least-unit":
        norms = np.linalg.norm(w, axis=1)
        if n and below_unit(norms.min()):
            raise PreconditionViolated(
                f"|v_{int(np.argmin(norms))}| = {norms.min().item()!r} < 1"
            )
    elif variant == "distinct-positive-integers":
        if d != 1:
            raise PreconditionViolated("distinct-positive-integers requires dimension 1")
        vals = w[:, 0]
        if not np.all(vals == np.round(vals)):
            raise PreconditionViolated("weights are not exactly integers")
        if n and vals.min() < 1:
            raise PreconditionViolated(
                f"weight {vals.min().item()!r} is not a positive integer")
        if len(set(vals.tolist())) != n:
            raise PreconditionViolated("weights are not distinct")
    elif variant != "general":
        raise PreconditionViolated(f"unknown weight variant {variant!r}")
    return WeightSystem(dimension=d, weights=_freeze(w))


def below_unit(x):
    """x < 1 up to DERIVED_TOL: the one test of the hypotheses |v_i| >= 1 (x a
    length) and v_i >= 1 (x a value)."""
    return np.asarray(x) < 1.0 - DERIVED_TOL


def check_lambda(lam) -> None:
    """A spectral parameter lambda lies in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise OutOfRange(f"lambda must lie in [0,1], got {lam!r}")


def check_window(x0, radius) -> None:
    """A window |s - x0| <= radius needs a finite center and a finite radius >= 0."""
    if not (math.isfinite(radius) and radius >= 0 and np.isfinite(x0).all()):
        raise OutOfRange(
            f"need a finite center and a finite radius >= 0, got x0 = {x0!r}, "
            f"radius = {radius!r}")


# ---------------------------------------------------------------------------
# JSON input files
# ---------------------------------------------------------------------------


def is_number(x, kind) -> bool:
    """The entry rule of every input file and setting, never true/false: for
    kind float an int or a finite float, for int an int that fits int64, for
    a tuple of ints one of them."""
    if kind is float:
        return type(x) in (int, float) and abs(x) <= sys.float_info.max
    return type(x) is int and (x in kind if type(kind) is tuple else -2**63 <= x < 2**63)


def read_field(doc: dict, key: str, shape: tuple, kind) -> np.ndarray:
    """doc[key], a nested JSON list of the given shape, as an array.

    shape gives each level's list length (None: any, set by the level's first
    list) and kind the entry rule of is_number.  Lengths are checked level by
    level, then one pass over the entry types and one conversion take the
    entries in; only when those fail is the bad entry searched for, so the
    ConfigError names it, e.g. 'transition[1][1]'.
    """
    def entry(index):  # the path of entry `index` of the levels read so far
        return key + "".join(f"[{i}]" for i in np.unravel_index(index, dims)) if dims else key

    if not isinstance(doc, dict) or key not in doc:
        raise ConfigError(f"expected a JSON object with the field '{key}'")
    level, dims = [doc[key]], []
    for want in shape:
        if want is None and level and type(level[0]) is list:
            want = len(level[0])
        bad = next((i for i, x in enumerate(level)
                    if type(x) is not list or len(x) != want), None)
        if bad is not None:
            need = "a list" if want is None else f"a list of {want} entries"
            got = level[bad]
            got = f"a list of length {len(got)}" if type(got) is list else repr(got)
            raise ConfigError(f"'{entry(bad)}': expected {need}, got {got}")
        dims.append(want or 0)
        level = [x for row in level for x in row]
    if {type(x) for x in level} <= ({int, float} if kind is float else {int}):
        try:
            arr = np.array(level, dtype=float if kind is float else np.int64)
        except OverflowError:  # an int beyond the dtype's range
            arr = None
        if arr is not None and (np.isfinite(arr).all() if kind is float else
                                kind is int or np.isin(arr, kind).all()):
            return arr.reshape(dims)
    bad = next(i for i, x in enumerate(level) if not is_number(x, kind))
    need = ("a number" if kind is float else "an integer" if kind is int
            else " or ".join(map(str, kind)))
    raise ConfigError(f"'{entry(bad)}': expected {need}, got {level[bad]!r}")


def read_json_file(path, parse):
    """parse(the JSON document in the file at path).  An unreadable or
    malformed file is a ConfigError, and so is a ConfigError of parse; each
    cites the path."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return parse(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# chain file: {"n_states": N, "transition": [[..]..], "stationary": [..]?,
#              "signs": [[+-1,..] x n]?}
def parse_chain_document(doc) -> tuple[MarkovChain, SignSystem | None]:
    n = int(read_field(doc, "n_states", (), int))
    if n < 1:
        raise ConfigError(f"'n_states': expected a positive integer, got {n}")
    a = read_field(doc, "transition", (n, n), float)
    mu = None if doc.get("stationary") is None else read_field(doc, "stationary", (n,), float)
    chain = validate_chain(a, mu)
    if doc.get("signs") is None:
        return chain, None
    return chain, make_sign_system(read_field(doc, "signs", (None, n), (-1, 1)),
                                   chain.stationary)


def load_chain_file(path) -> tuple[MarkovChain, SignSystem | None]:
    return read_json_file(path, parse_chain_document)


def _parse_weights(doc) -> WeightSystem:
    if not isinstance(doc, list) or not doc:
        raise ConfigError("expected a nonempty JSON array of weights")
    shape = (None, None) if isinstance(doc[0], list) else (None,)
    return make_weight_system(read_field({"weights": doc}, "weights", shape, float))


def load_weights_file(path) -> WeightSystem:
    """Weights file: JSON array of numbers (d=1) or of equal-length arrays."""
    return read_json_file(path, _parse_weights)
