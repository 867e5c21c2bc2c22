import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallball.chains import (
    load_chain_file,
    make_independent_chain,
    make_sign_system,
    make_two_state_chain,
    make_weight_system,
    parity_labels,
    spectral_lambda,
    spectral_lambdas,
    validate_chain,
    validate_chains,
)
from smallball.errors import (
    ConfigError,
    HypothesisViolated,
    InvalidDistribution,
    NoUniqueStationary,
    NotReversible,
    NotStochastic,
    OutOfRange,
    PreconditionViolated,
    ZeroStationaryMass,
)
from smallball import chains as chains_module
from smallball import families as fam
from smallball.families import random_reversible_chain
from smallball.oracles import averaging_operator, operator_norm_l2mu


def random_stochastic_matrix(rng, n_states: int) -> np.ndarray:
    """Generic row-stochastic matrix, almost surely not reversible."""
    a = rng.uniform(0.05, 1.0, size=(n_states, n_states))
    return a / a.sum(axis=1, keepdims=True)


class TestValidateChain:
    def test_symmetric_doubly_stochastic(self):
        chain = validate_chain([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(chain.stationary, [0.5, 0.5])

    def test_periodic_permutation_is_reversible(self):
        chain = validate_chain([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(chain.stationary, [0.5, 0.5])

    def test_detailed_balance_violation(self):
        with pytest.raises(NotReversible, match=r"0.05"):
            validate_chain([[0.9, 0.1], [0.5, 0.5]], [0.5, 0.5])

    def test_row_sum_violation_names_row(self):
        with pytest.raises(NotStochastic, match="row 1"):
            validate_chain([[0.5, 0.5], [0.7, 0.6]])

    def test_negative_entry(self):
        with pytest.raises(NotStochastic, match=r"A\[0,1\]"):
            validate_chain([[1.2, -0.2], [0.5, 0.5]])

    def test_disconnected_chain_has_no_unique_stationary(self):
        with pytest.raises(NoUniqueStationary):
            validate_chain(np.eye(2))

    def test_bad_given_stationary(self):
        with pytest.raises(InvalidDistribution):
            validate_chain([[0.5, 0.5], [0.5, 0.5]], [0.7, 0.7])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(NotStochastic):
            validate_chain([[0.5, 0.5], [0.5, bad]])
        with pytest.raises(InvalidDistribution):
            validate_chain([[0.5, 0.5], [0.5, 0.5]], [bad, 0.5])

    def test_transition_matrix_is_immutable(self):
        chain = validate_chain([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            chain.transition[0, 0] = 1.0


class TestSpectralLambda:
    def test_averaging_operator_has_lambda_zero(self):
        chain = make_independent_chain([0.2, 0.3, 0.5])
        assert spectral_lambda(chain) <= 1e-12
        # independent route: the operator norm of A - E_mu via singular values
        gap = chain.transition - averaging_operator(chain.stationary)
        assert operator_norm_l2mu(gap, chain.stationary) <= 1e-12

    def test_two_state_chain_recovers_parameter(self):
        for lam in np.linspace(0.0, 1.0, 50):
            chain = make_two_state_chain(lam)
            assert abs(spectral_lambda(chain) - lam) <= 1e-12

    def test_permutation_chain_has_lambda_one(self):
        chain = validate_chain([[0.0, 1.0], [1.0, 0.0]])
        assert abs(spectral_lambda(chain) - 1.0) <= 1e-12

    def test_zero_mass_state_rejected(self):
        chain = make_independent_chain([1.0, 0.0])
        with pytest.raises(ZeroStationaryMass):
            spectral_lambda(chain)

    def test_independent_chain_lambda_zero_for_random_mu(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            mu = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
            assert spectral_lambda(make_independent_chain(mu)) <= 1e-12

    def test_lambda_in_unit_interval_for_random_chains(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            chain = random_reversible_chain(rng, int(rng.integers(2, 7)))
            assert 0.0 <= spectral_lambda(chain) <= 1.0


class TestConstructions:
    def test_two_state_endpoints(self):
        np.testing.assert_allclose(make_two_state_chain(0.0).transition,
                                   [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(make_two_state_chain(1.0).transition,
                                   [[0.0, 1.0], [1.0, 0.0]])

    def test_two_state_remark_matrix(self):
        np.testing.assert_allclose(make_two_state_chain(0.3).transition,
                                   [[0.35, 0.65], [0.65, 0.35]])

    def test_two_state_out_of_range(self):
        with pytest.raises(OutOfRange):
            make_two_state_chain(1.5)

    def test_independent_rows_equal_mu(self):
        chain = make_independent_chain([0.5, 0.5])
        np.testing.assert_array_equal(chain.transition, [[0.5, 0.5], [0.5, 0.5]])

    def test_independent_degenerate_mu_is_valid(self):
        chain = make_independent_chain([1.0, 0.0])
        np.testing.assert_array_equal(chain.transition, [[1.0, 0.0], [1.0, 0.0]])

    def test_independent_rejects_non_distribution(self):
        with pytest.raises(InvalidDistribution):
            make_independent_chain([0.5, 0.6])


def test_reversibility_agrees_with_symmetrized_matrix():
    # the detailed-balance check and symmetry of D^1/2 A D^-1/2 must give the
    # same verdict on a mixed population of reversible and generic chains
    rng = np.random.default_rng(99)
    verdicts = {True: 0, False: 0}
    for i in range(1000):
        n = int(rng.integers(2, 6))
        if i % 2 == 0:
            chain = random_reversible_chain(rng, n)
            a, mu = chain.transition, chain.stationary
        else:
            a = random_stochastic_matrix(rng, n)
            evals, evecs = np.linalg.eig(a.T)
            v = np.real(evecs[:, np.argmin(np.abs(evals - 1.0))])
            mu = np.abs(v) / np.abs(v).sum()
        balance = mu[:, None] * a
        balance_ok = np.max(np.abs(balance - balance.T)) <= 1e-9
        root = np.sqrt(mu)
        sym = a * (root[:, None] / root[None, :])
        sym_ok = np.max(np.abs(sym - sym.T)) <= 1e-9
        assert balance_ok == sym_ok, (i, balance_ok, sym_ok)
        verdicts[balance_ok] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


class TestSignSystem:
    def test_entries_must_be_signs(self):
        with pytest.raises(PreconditionViolated):
            make_sign_system([[1, 0]], [0.5, 0.5])

    def test_balanced_flag_enforced(self):
        with pytest.raises(HypothesisViolated):
            make_sign_system([[1, 1]], [0.5, 0.5], balanced=True)
        make_sign_system([[1, -1]], [0.5, 0.5], balanced=True)  # accepted

    def test_parity_labels(self):
        np.testing.assert_array_equal(parity_labels(4), [1, -1, 1, -1])


class TestWeightSystem:
    def test_scalar_weights_reshape(self):
        w = make_weight_system([1.0, 2.0])
        assert w.dimension == 1 and w.n_weights == 2
        np.testing.assert_array_equal(w.scalars, [1.0, 2.0])

    def test_at_least_unit_enforced(self):
        with pytest.raises(PreconditionViolated):
            make_weight_system([1.0, 0.5], "at-least-unit")

    @pytest.mark.parametrize("variant", ["general", "at-least-unit"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, variant, bad):
        with pytest.raises(PreconditionViolated):
            make_weight_system([1.0, bad, 1.0], variant)
        with pytest.raises(PreconditionViolated):
            make_weight_system([[1.0, 0.0], [0.0, bad]], variant)

    @pytest.mark.parametrize("variant", ["general", "at-least-unit"])
    def test_overflowing_absolute_sum_rejected(self, variant):
        # each weight is finite; their sum, and the norm of the 2-d row, are not
        with pytest.raises(PreconditionViolated, match="largest float"):
            make_weight_system([1e308, 1e308, 1e308, 1.0], variant)
        with pytest.raises(PreconditionViolated, match="largest float"):
            make_weight_system([[1e308, 1e308], [1.0, 0.0]], variant)

    def test_norms_only_for_variants_that_read_them(self):
        # |(1e200, 1e200)| overflows a float's square, but "general" reads no norm
        w = make_weight_system([[1e200, 1e200], [1.0, 0.0]])
        assert w.dimension == 2

    def test_unknown_variant_rejected(self):
        with pytest.raises(PreconditionViolated, match="unknown weight variant"):
            make_weight_system([1.0, 2.0], "integers")

    def test_distinct_positive_integers(self):
        make_weight_system([3.0, 1.0, 2.0], "distinct-positive-integers")
        for bad in ([1.0, 1.0], [0.0, 1.0], [1.5, 2.0]):
            with pytest.raises(PreconditionViolated):
                make_weight_system(bad, "distinct-positive-integers")

    def test_scalars_require_dimension_one(self):
        w = make_weight_system([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(PreconditionViolated):
            w.scalars


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_random_reversible_chains_validate(seed, n_states):
    chain = random_reversible_chain(np.random.default_rng(seed), n_states)
    assert 0.0 <= spectral_lambda(chain) <= 1.0
    # recomputing the stationary law from scratch agrees with the stored one
    rebuilt = validate_chain(chain.transition)
    np.testing.assert_allclose(rebuilt.stationary, chain.stationary, atol=1e-9)


# sha256 of random_reversible_chain(default_rng(20240513), N) for N = 16 and 4,
# each chain's transition and stationary bytes followed by the next four
# doubles of its generator, recorded when the chain drew its (N, N) weights
# alone; the large-n benchmark draws its instances through it
REVERSIBLE_CHAIN_STREAM_DIGEST = "950792d19d35dcd97c7f56751aeba7846079bd6856a1111f0421f33adca762dd"


def test_random_reversible_chain_keeps_its_stream():
    h = hashlib.sha256()
    for n_states in (16, 4):
        rng = np.random.default_rng(20240513)
        chain = random_reversible_chain(rng, n_states)
        h.update(chain.transition.tobytes())
        h.update(chain.stationary.tobytes())
        h.update(rng.random(4).tobytes())
    assert h.hexdigest() == REVERSIBLE_CHAIN_STREAM_DIGEST


class TestChainFile:
    def test_round_trip(self, tmp_path):
        doc = ('{"n_states": 2, "transition": [[0.35, 0.65], [0.65, 0.35]], '
               '"stationary": [0.5, 0.5], "signs": [[1, -1], [-1, 1]]}')
        path = tmp_path / "chain.json"
        path.write_text(doc)
        chain, signs = load_chain_file(path)
        assert chain.n_states == 2
        assert signs.n_steps == 2
        np.testing.assert_array_equal(signs.functions, [[1, -1], [-1, 1]])

    @pytest.mark.parametrize("doc,needle", [
        ('{"transition": [[1.0]]}', "n_states"),
        ('{"n_states": 2, "transition": [[0.5, 0.5]]}', "transition"),
        ('{"n_states": 2, "transition": [[0.5, 0.5], [0.5]]}', r"transition\[1\]"),
        ('{"n_states": 2, "transition": [[0.5, 0.5], [0.5, "x"]]}',
         r"transition\[1\]\[1\]"),
        ('{"n_states": 2, "transition": [[0.5, 0.5], [0.5, 0.5]], '
         '"signs": [[1, 2]]}', r"signs\[0\]\[1\]"),
        ('{"n_states": 2, "transition": [[0.5, 0.5], [0.5, 0.5]], '
         '"stationary": [1.0]}', "stationary"),
        ('{"n_states": true, "transition": [[1.0]]}', "n_states"),
        ('{"n_states": 2, "transition": [[0.5, 0.5], [0.5, 0.5]], '
         '"stationary": [NaN, 0.5]}', r"stationary\[0\]"),
        ('{"n_states": 2, "transition": [[0.5, 0.5], [0.5, 0.5]], '
         '"signs": [[true, 1]]}', r"signs\[0\]\[0\]"),
        ('{"n_states": 2, "transition": [[0.5, 0.5], [0.5, 0.5]], '
         '"stationary": ["a", "b"]}', r"stationary\[0\]"),
        ('{"n_states": 2, "transition": [[0.5, 0.5], [0.5, NaN]]}',
         r"transition\[1\]\[1\]"),
    ])
    def test_parse_errors_cite_path(self, tmp_path, doc, needle):
        path = tmp_path / "chain.json"
        path.write_text(doc)
        with pytest.raises(ConfigError, match=needle):
            load_chain_file(path)


@pytest.mark.parametrize("lam", [-0.1, 1.5, float("nan")])
def test_one_lambda_range_rule(lam, constants):
    from smallball.bounds import theorem_bound
    from smallball.oracles import switching_stats

    for call in (make_two_state_chain,
                 lambda x: theorem_bound("scalar-half-unit", {"n": 4, "lam": x}, constants),
                 lambda x: switching_stats(8, x)):
        with pytest.raises(OutOfRange, match=r"lambda must lie in \[0,1\]"):
            call(lam)


# ---------------------------------------------------------------------------
# stacked chain checks against lone calls, on the members each family passes
# ---------------------------------------------------------------------------


def lambda_loop(chain):
    """spectral_lambda of one chain by 2-d arrays, as it was before stacks."""
    root = np.sqrt(chain.stationary)
    sym = chain.transition * (root[:, None] / root[None, :]) - np.outer(root, root)
    sym = 0.5 * (sym + sym.T)
    return min(1.0, max(0.0, float(np.max(np.abs(np.linalg.eigvalsh(sym))))))


STACKED_CHAIN_FAMILIES = {
    "esseen": lambda: fam.esseen_family(fam.ESSEEN_SEED, fam.ESSEEN_COUNT),
    "oracle": lambda: fam.oracle_family(fam.DEFAULT_SEED, 200),
    "half_unit": fam.half_unit_family,
    "holder": lambda: fam.holder_family(fam.DEFAULT_SEED, 500),
}


@pytest.mark.parametrize("family", sorted(STACKED_CHAIN_FAMILIES))
def test_stacked_chain_checks_equal_lone_calls(family, monkeypatch):
    seen = {}

    def recorded(name, fn):
        def wrapper(arg):
            seen[name] = (arg, fn(arg))
            return seen[name][1]
        return wrapper

    monkeypatch.setattr(fam, "validate_chains", recorded("validate", validate_chains))
    monkeypatch.setattr(fam, "spectral_lambdas", recorded("lambda", spectral_lambdas))
    STACKED_CHAIN_FAMILIES[family]()
    members, got = seen["validate"]
    assert len({a.shape for a, _ in members}) > 1
    for (a, mu), chain in zip(members, got):
        lone = validate_chain(a, mu)
        assert chain.transition.tobytes() == lone.transition.tobytes()
        assert chain.stationary.tobytes() == lone.stationary.tobytes()
    if family != "oracle":  # path enumeration needs no lambda
        chains, lams = seen["lambda"]
        assert chains == got
        assert [lam.hex() for lam in lams] == [spectral_lambda(c).hex() for c in chains]
        assert [lam.hex() for lam in lams] == [lambda_loop(c).hex() for c in chains]


def _values(arrays):
    return set(np.concatenate([np.ravel(a) for a in arrays]).tolist())


@pytest.mark.parametrize("seed", [fam.ESSEEN_SEED, fam.ESSEEN_EXTRA_SEED])
def test_esseen_family_covers_its_ranges(seed):
    instances = fam.esseen_family(seed, fam.ESSEEN_COUNT)
    assert {inst.chain.n_states for inst in instances} == {2, 3, 4}
    assert {inst.signs.n_steps for inst in instances} == set(range(4, 11))
    assert all(inst.weights.n_weights == inst.signs.n_steps for inst in instances)
    assert _values(inst.weights.scalars for inst in instances) == set(map(float, range(1, 9)))
    assert {inst.x0 for inst in instances} == set(map(float, range(-3, 4)))
    assert {inst.radius for inst in instances} == {0.0, 1.0, 2.0}
    assert _values(inst.signs.functions for inst in instances) == {-1, 1}


def test_oracle_family_covers_its_ranges():
    instances = fam.oracle_family(fam.DEFAULT_SEED, 200)
    assert {inst["chain"].n_states for inst in instances} == {2, 3, 4}
    assert {inst["signs"].n_steps for inst in instances} == set(range(2, 9))
    assert all(inst["weights"].n_weights == inst["signs"].n_steps for inst in instances)
    assert _values(inst["weights"].scalars for inst in instances) == set(map(float, range(1, 6)))
    xis = np.array([inst["xis"] for inst in instances])
    assert xis.shape == (200, 2) and -2.0 <= xis.min() and xis.max() < 2.0


def test_holder_family_covers_its_ranges():
    instances = fam.holder_family(fam.DEFAULT_SEED, 500)
    assert {inst.mu.size for inst in instances} == set(range(2, 7))
    assert {inst.k for inst in instances} == set(range(1, 7))
    moduli = np.concatenate([np.abs(np.ravel(inst.us)) for inst in instances])
    # |exp(2 pi i theta)| is 1 up to rounding
    scaled = moduli[np.abs(moduli - 1.0) > 1e-15]
    assert scaled.size and 0.5 <= scaled.min() and scaled.max() < 1.0
    assert all(u.size == inst.mu.size for inst in instances for u in inst.us)


def test_identity_inputs_cover_their_ranges():
    inputs = fam.identity_inputs(fam.DEFAULT_SEED + 1, 1000)
    assert {d["mu"].size for d in inputs} == set(range(2, 9))
    assert {len(d["t_mats"]) for d in inputs} == set(range(1, 6))
    for d in inputs:
        n, k = d["mu"].size, len(d["t_mats"])
        assert d["us"].shape == (k + 1, n)
        assert d["r_mats"].shape == d["t_mats"].shape == (k, n, n)
    moduli = np.concatenate([np.abs(d["us"]).ravel() for d in inputs])
    assert 0.5 <= moduli.min() and moduli.max() < 1.0


def test_stacked_chains_may_leave_their_stationary_law_to_be_solved():
    rng = np.random.default_rng(24)
    members = []
    for n in (2, 3, 5, 3, 2, 5):
        chain = random_reversible_chain(rng, n)
        members += [(chain.transition, chain.stationary), (chain.transition, None)]
    for (a, mu), chain in zip(members, validate_chains(members)):
        lone = validate_chain(a, mu)
        assert chain.transition.tobytes() == lone.transition.tobytes()
        assert chain.stationary.tobytes() == lone.stationary.tobytes()


@pytest.mark.parametrize("bad, error", [
    # a doubly stochastic 3-cycle with drift: uniform mu, no detailed balance
    ([[0.1, 0.6, 0.3], [0.3, 0.1, 0.6], [0.6, 0.3, 0.1]], NotReversible),
    ([[0.5, 0.6, -0.1], [0.3, 0.1, 0.6], [0.6, 0.3, 0.1]], NotStochastic),
    ([[0.5, 0.6, 0.1], [0.3, 0.1, 0.6], [0.6, 0.3, 0.1]], NotStochastic),
])
def test_a_bad_chain_inside_a_batch_raises_the_lone_message(bad, error, monkeypatch):
    rng = np.random.default_rng(25)
    members = [(c.transition, c.stationary)
               for c in (random_reversible_chain(rng, n) for n in (3, 2, 4, 3, 2))]
    members.insert(3, (bad, np.full(3, 1.0 / 3.0)))
    # a later member failing an earlier check, in a group checked first
    members.append((members[0][0], np.array([0.5, 0.5, -0.0001])))
    with pytest.raises(error) as lone:
        validate_chain(bad, np.full(3, 1.0 / 3.0))

    def forbidden(**fields):
        raise AssertionError("a chain was built before every member was checked")

    monkeypatch.setattr(chains_module, "MarkovChain", forbidden)
    with pytest.raises(error) as batch:
        validate_chains(members)
    assert str(batch.value) == str(lone.value)


def test_a_zero_mass_state_inside_a_batch_raises_the_lone_message():
    rng = np.random.default_rng(26)
    good = [random_reversible_chain(rng, n) for n in (2, 3, 4)]
    zero = make_independent_chain([0.5, 0.0, 0.5])
    with pytest.raises(ZeroStationaryMass) as lone:
        spectral_lambda(zero)
    with pytest.raises(ZeroStationaryMass) as batch:
        spectral_lambdas(good + [zero] + good)
    assert str(batch.value) == str(lone.value)
