import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import serialize
from smallball import prg
from smallball.bounds import C_SIZE
from smallball.chains import spectral_lambda
from smallball.errors import (
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    HypothesisViolated,
    NotReversible,
    OddK,
    OutOfRange,
    PreconditionViolated,
    TooLarge,
)
from smallball.prg import (
    ExpanderGraph,
    PrgSpec,
    block_contributions,
    build_mgg_expander,
    certify_lambda,
    enumerate_walks,
    even_rounded_sqrt,
    induced_chain,
    load_graph,
    prg_smallball,
    save_graph,
    size_bound_exponent,
    validate_expander,
)
from smallball.rngstreams import uniforms
from smallball.sampling import CHUNK
from smallball.transfer import distribution_from_contributions, smallball_exact


class TestBuild:
    def test_k2_structure(self):
        g = build_mgg_expander(2)
        assert g.n_vertices == 4 and g.degree == 8
        assert g.neighbors.size == 32  # 16 undirected multi-edges
        pairs = Counter()
        for v in range(4):
            for e in range(8):
                pairs[frozenset((v, g.neighbor(v, e)))] += 1
        assert sum(pairs.values()) == 32

    def test_odd_k_rejected(self):
        with pytest.raises(OddK):
            build_mgg_expander(3)
        with pytest.raises(OddK):
            build_mgg_expander(0)

    def test_size_bound_before_allocation(self):
        # 2^40 vertices would need terabytes; the bound refuses at once
        with pytest.raises(TooLarge, match="2\\^40"):
            build_mgg_expander(40)

    def test_labels_are_big_endian(self):
        g = build_mgg_expander(4)
        labels = g.labels()
        assert labels.shape == (16, 4)
        np.testing.assert_array_equal(labels[0], [-1, -1, -1, -1])
        np.testing.assert_array_equal(labels[9], [1, -1, -1, 1])  # 0b1001

    def test_edge_multiset_is_symmetric(self):
        for k in (2, 4, 6):
            g = build_mgg_expander(k)
            fwd = Counter(zip(np.repeat(np.arange(g.n_vertices), g.degree),
                              g.neighbors.ravel()))
            bwd = Counter((b, a) for (a, b), c in fwd.items() for _ in range(c))
            assert fwd == bwd


def dense_symmetric(nbrs):
    nv, degree = nbrs.shape
    counts = np.zeros((nv, nv), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(nv), degree), nbrs.ravel()), 1)
    return bool((counts == counts.T).all())


def random_regular_table(rng, k, degree, directed):
    """A degree-regular neighbour table on 2^k vertices: degree / 2 random
    permutations and their inverses (undirected), or, when directed, that
    table with the targets of two slots swapped (every in- and out-degree
    kept), redrawn until the count matrix is not symmetric."""
    nv = 1 << k
    perms = [rng.permutation(nv) for _ in range(degree // 2)]
    table = np.stack([q for p in perms for q in (p, np.argsort(p))], axis=1)
    nbrs = table
    while directed and dense_symmetric(nbrs):
        nbrs = table.copy()
        flat = nbrs.reshape(-1)
        a, b = rng.choice(nv * degree, size=2, replace=False)
        flat[a], flat[b] = flat[b], flat[a]
    return nbrs


class TestValidate:
    def test_agrees_with_dense_count_matrix(self):
        rng = np.random.default_rng(7)
        for trial in range(400):
            # at 2 vertices every regular count matrix is symmetric
            k, degree = int(rng.integers(2, 6)), 2 * int(rng.integers(1, 5))
            directed = trial % 2 == 1
            nbrs = random_regular_table(rng, k, degree, directed)
            assert dense_symmetric(nbrs) != directed
            g = ExpanderGraph(k=k, degree=degree, neighbors=nbrs)
            if directed:
                with pytest.raises(NotReversible):
                    validate_expander(g)
            else:
                validate_expander(g)

    @pytest.mark.parametrize("k", range(2, 15, 2))
    def test_accepts_every_mgg_graph(self, k):
        validate_expander(build_mgg_expander(k))


class TestCertify:
    def test_complete_graph_spectrum(self):
        # K4 as a 3-regular neighbor table: second eigenvalue 1/3
        nbrs = np.array([[v for v in range(4) if v != u] for u in range(4)])
        g = ExpanderGraph(k=2, degree=3, neighbors=nbrs)
        assert certify_lambda(g) == pytest.approx(1 / 3, abs=1e-12)

    def test_disconnected_graph_fails_expansion(self):
        # two disjoint 2-cycles, 2-regular
        nbrs = np.array([[1, 1], [0, 0], [3, 3], [2, 2]])
        g = ExpanderGraph(k=2, degree=2, neighbors=nbrs)
        assert certify_lambda(g) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 14])
    def test_mgg_certifies_below_construction_bound(self, k):
        g = build_mgg_expander(k)
        lam = certify_lambda(g)
        assert 0.0 < lam < 0.884
        assert g.certified_lambda == lam

    def test_k2_value_is_half(self):
        assert certify_lambda(build_mgg_expander(2)) == pytest.approx(0.5,
                                                                      abs=1e-12)

    def test_certification_budget(self, monkeypatch):
        # read at call time: 2^4 = 16 vertices
        g = build_mgg_expander(4)
        monkeypatch.setattr(prg, "CERTIFY_BUDGET", 15)
        with pytest.raises(TooLarge):
            certify_lambda(g)
        monkeypatch.setattr(prg, "CERTIFY_BUDGET", 16)
        assert certify_lambda(g) < 0.884

    def test_directed_multigraph_rejected(self):
        nbrs = np.array([[1, 1], [0, 2], [3, 3], [2, 0]])
        g = ExpanderGraph(k=2, degree=2, neighbors=nbrs)
        with pytest.raises(NotReversible):
            certify_lambda(g)


class TestWalks:
    def test_spec_requires_divisibility(self):
        g = build_mgg_expander(2)
        with pytest.raises(DimensionMismatch):
            PrgSpec(graph=g, n=5)

    def test_walk_count_and_weights(self):
        spec = PrgSpec(graph=build_mgg_expander(2), n=4)
        walks = list(enumerate_walks(spec))
        assert len(walks) == 32
        assert spec.size == 32
        assert math.fsum(w for _, w in walks) == pytest.approx(1.0, abs=1e-12)
        assert all(s.shape == (4,) for s, _ in walks)

    def test_single_block_is_the_full_cube(self):
        g = build_mgg_expander(2)
        spec = PrgSpec(graph=g, n=2)
        walks = list(enumerate_walks(spec))
        seen = Counter(tuple(s.tolist()) for s, _ in walks)
        assert len(seen) == 4 and set(seen.values()) == {1}

    def test_enumeration_budget(self, monkeypatch):
        # read at call time, by the walk list and by exact windows: |D| = 4 * 8^3
        spec = PrgSpec(graph=build_mgg_expander(2), n=8)
        monkeypatch.setattr(prg, "ENUM_BUDGET", 2047)
        with pytest.raises(BudgetExceeded, match="2048"):
            list(enumerate_walks(spec))
        with pytest.raises(BudgetExceeded, match="2048"):
            prg_smallball(spec, np.ones(8), 0.0, 1.0)
        monkeypatch.setattr(prg, "ENUM_BUDGET", 2048)
        assert len(list(enumerate_walks(spec))) == 2048
        assert prg_smallball(spec, np.ones(8), 0.0, 1.0) > 0.0


class TestPrgSmallball:
    def test_single_block_equals_binomial_window(self):
        # with no steps taken, D is the uniform cube: P(|sum| <= 1) over 4 signs
        spec = PrgSpec(graph=build_mgg_expander(4), n=4)
        prob = prg_smallball(spec, np.ones(4), 0.0, 1.0)
        assert prob == pytest.approx(6 / 16, abs=1e-12)

    def test_exact_agrees_with_generator_enumeration(self):
        spec = PrgSpec(graph=build_mgg_expander(2), n=6)
        w = np.array([1.0, 2.0, 1.0, 1.0, 3.0, 1.0])
        fast = prg_smallball(spec, w, 1.0, 1.5)
        slow = math.fsum(weight for signs, weight in enumerate_walks(spec)
                         if abs(float(signs @ w) - 1.0) <= 1.5)
        assert fast == slow  # |D| is a power of two: both are hits * 2^-log2|D|

    @pytest.mark.parametrize("k,blocks", [(2, 4), (4, 4), (6, 3)])
    @pytest.mark.parametrize("kind", ["integer", "float", "zero-padded"])
    def test_exact_equals_hits_over_enumerated_walks(self, k, blocks, kind):
        # each walk from the generator is summed on its own, block by block in
        # the order the exact sweep adds (contrib[vertex, j] onto the partial
        # sum), so float weights must give the same hits too; window edges are
        # put exactly on walk sums
        graph = build_mgg_expander(k)
        spec = PrgSpec(graph=graph, n=k * blocks)
        rng = np.random.default_rng(k * 10 + blocks)
        if kind == "float":
            w = rng.uniform(1.0, 3.0, spec.n)
        else:
            w = rng.integers(1, 4, spec.n).astype(float)
            if kind == "zero-padded":
                w[rng.permutation(spec.n)[:k]] = 0.0
        contrib = graph.labels().astype(float) @ w.reshape(blocks, k).T
        powers = 1 << np.arange(k - 1, -1, -1)
        sums = []
        for signs, _ in enumerate_walks(spec):
            vertices = ((signs.reshape(blocks, k) > 0) @ powers).tolist()
            total = contrib[vertices[0], 0]
            for j in range(1, blocks):
                total = total + contrib[vertices[j], j]
            sums.append(float(total))
        sums = np.array(sums)
        a, b = sums[0], sums[sums.size // 2]
        for x0, radius in ((0.0, 1.0), (a, 0.0), (a, abs(b - a)), (b, abs(sums[-1] - b))):
            hits = int(np.count_nonzero(np.abs(sums - x0) <= radius))
            assert hits > 0
            assert prg_smallball(spec, w, x0, radius,
                                 allow_zero_padding=kind == "zero-padded") == hits / spec.size

    def test_walk_counts_stop_short_of_int64_overflow(self, monkeypatch):
        # |D| = 4 * 8^(n/2 - 1) at k = 2; whatever the budget, exact mode
        # refuses |D| >= 2^63, where its int64 walk counts wrap (n = 48 gave
        # 0.0036 and n = 64 a negative probability)
        monkeypatch.setattr(prg, "ENUM_BUDGET", 10**30)
        g = build_mgg_expander(2)
        for n in (44, 48, 64):  # |D| = 2^65, 2^71, 2^95
            with pytest.raises(BudgetExceeded, match=r"2\^63"):
                prg_smallball(PrgSpec(graph=g, n=n), np.ones(n), 0.0, 1.0)
        # the largest |D| accepted, 2^62: hits / |D| is the rational law of
        # the induced chain, whose dyadic entries make it exact
        spec = PrgSpec(graph=g, n=42)
        assert spec.size == 2**62
        law = distribution_from_contributions(
            induced_chain(spec), block_contributions(spec, np.ones(42)), exact=True)
        want = sum(f for s, f in law.rational.items() if abs(s) <= 1)
        assert prg_smallball(spec, np.ones(42), 0.0, 1.0) == float(want)

    def test_exact_memory_does_not_grow_with_walk_count(self):
        # 8,388,608 walks; one float per walk alone would be 64 MiB
        spec = PrgSpec(graph=build_mgg_expander(2), n=16)
        tracemalloc.start()
        try:
            prob = prg_smallball(spec, np.ones(16), 0.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < prob < 1.0
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("x0, radius", [(np.nan, 1.0), (0.0, np.nan), (np.inf, 1.0),
                                            (0.0, np.inf), (0.0, -1.0)])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_bad_window_rejected(self, x0, radius, mode):
        spec = PrgSpec(graph=build_mgg_expander(2), n=4)
        with pytest.raises(OutOfRange):
            prg_smallball(spec, np.ones(4), x0, radius, mode=mode, samples=10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        spec = PrgSpec(graph=build_mgg_expander(2), n=4)
        with pytest.raises(PreconditionViolated):
            prg_smallball(spec, [1.0, bad, 1.0, 1.0], 0.0, 1.0)

    def test_is_bounded_by_committed_constant(self, constants):
        spec = PrgSpec(graph=build_mgg_expander(2), n=4)
        prob = prg_smallball(spec, np.ones(4), 0.0, 1.0)
        assert prob <= constants["C_prg"].value / 2.0

    def test_sampled_mode_covers_exact(self):
        spec = PrgSpec(graph=build_mgg_expander(2), n=4)
        exact = prg_smallball(spec, np.ones(4), 0.0, 1.0)
        est = prg_smallball(spec, np.ones(4), 0.0, 1.0, mode="sampled",
                            samples=100_000, seed=6)
        assert est.covers(exact)

    @pytest.mark.parametrize("k,digest", [
        (4, "8f5b8e05e3c982ba7b628c077dd122ed63549776460d10693c65690515a15bff"),
        (8, "a0c60b842363aba4d9155a266624e5e3b3b9172aff5ec10162f780e8017fc2c1"),
    ])
    def test_sampled_estimates_are_pinned(self, k, digest):
        # serialize digests recorded before the step-major walk sampler;
        # CHUNK + 3 walks cross one chunk edge
        spec = PrgSpec(graph=build_mgg_expander(k), n=4 * k)
        scalars = np.random.default_rng(k).integers(1, 3, 4 * k).astype(float)
        est = prg_smallball(spec, scalars, 1.0, 3.0, mode="sampled",
                            samples=CHUNK + 3, seed=k)
        assert hashlib.sha256(serialize(est).encode()).hexdigest() == digest

    @pytest.mark.parametrize("graph", [
        build_mgg_expander(4),
        # K4 without self-loops: degree 3 takes the float edge rule
        ExpanderGraph(k=2, degree=3, neighbors=np.array(
            [[w for w in range(4) if w != v] for v in range(4)])),
    ])
    def test_sampled_hits_follow_a_pure_python_walk(self, graph):
        # integer weights keep every sum exact, so the hit count must agree
        # to the walk; CHUNK + 3 walks cross one chunk edge
        k, seed, x0, radius = graph.k, 5, 1.0, 3.0
        spec = PrgSpec(graph=graph, n=4 * k)
        scalars = np.random.default_rng(9).integers(1, 3, spec.n).astype(float)
        labels = graph.labels().astype(int).tolist()
        weights = scalars.astype(int).tolist()
        hits = 0
        for stream in range(CHUNK + 3):
            u = uniforms(seed, stream, 0, spec.blocks).tolist()
            vertex = min(int(u[0] * graph.n_vertices), graph.n_vertices - 1)
            total = 0
            for j in range(spec.blocks):
                if j:
                    edge = min(int(u[j] * graph.degree), graph.degree - 1)
                    vertex = graph.neighbor(vertex, edge)
                total += sum(a * b for a, b in zip(labels[vertex],
                                                   weights[j * k:(j + 1) * k]))
            hits += abs(total - x0) <= radius
        est = prg_smallball(spec, scalars, x0, radius, mode="sampled",
                            samples=CHUNK + 3, seed=seed)
        assert 0 < hits < CHUNK + 3
        assert est.estimate == hits / (CHUNK + 3)

    def test_hypothesis_guard(self):
        spec = PrgSpec(graph=build_mgg_expander(2), n=4)
        with pytest.raises(HypothesisViolated):
            prg_smallball(spec, [1.0, 0.5, 1.0, 1.0], 0.0, 1.0)

    def test_zero_padding_opt_in(self):
        spec = PrgSpec(graph=build_mgg_expander(2), n=4)
        w = [1.0, 2.0, 1.0, 0.0]
        with pytest.raises(HypothesisViolated):
            prg_smallball(spec, w, 0.0, 1.0)
        prob = prg_smallball(spec, w, 0.0, 1.0, allow_zero_padding=True)
        assert 0.0 <= prob <= 1.0


class TestChainEquivalence:
    @pytest.mark.parametrize("k,blocks", [(2, 2), (2, 3), (2, 4), (4, 2), (4, 4)])
    def test_walk_measure_equals_induced_chain_dp(self, k, blocks):
        graph = build_mgg_expander(k)
        spec = PrgSpec(graph=graph, n=k * blocks)
        chain = induced_chain(spec)
        assert chain.n_states == graph.n_vertices
        weights = np.ones(spec.n)
        contribs = block_contributions(spec, weights)
        dist = distribution_from_contributions(chain, contribs)
        for x0, radius in ((0.0, 1.0), (2.0, 0.0), (0.0, 3.0)):
            enum = prg_smallball(spec, weights, x0, radius)
            dp = smallball_exact(dist, x0, radius)
            assert abs(enum - dp) <= 1e-10

    def test_induced_chain_lambda_matches_certificate(self):
        graph = build_mgg_expander(4)
        lam = certify_lambda(graph)
        chain = induced_chain(PrgSpec(graph=graph, n=8))
        assert spectral_lambda(chain) == pytest.approx(lam, abs=1e-10)


class TestSizeBound:
    def test_even_rounding(self):
        assert even_rounded_sqrt(4) == 2
        assert even_rounded_sqrt(9) == 4
        assert even_rounded_sqrt(16) == 4
        assert even_rounded_sqrt(17) == 6

    def test_log_size_formula(self):
        spec = PrgSpec(graph=build_mgg_expander(2), n=4)
        assert spec.size == 2**2 * 8 ** (2 - 1)
        assert math.log2(spec.size) == size_bound_exponent(4)

    def test_committed_constant_covers_grid(self):
        for n in range(4, 4097):
            assert size_bound_exponent(n) < C_SIZE * math.sqrt(n)

    def test_proved_constant_covers_every_n(self):
        # the constant fitted on n = 4..4096, 3.9838814840156673, is exceeded
        # at n = 4291; at n = 188^2, k = 188 and 188 blocks give 749 < 752
        assert size_bound_exponent(4291) > 3.9838814840156673 * math.sqrt(4291)
        assert size_bound_exponent(188**2) == 188 + 3 * 187
        for n in range(1, 10**5 + 1):
            assert size_bound_exponent(n) < C_SIZE * math.sqrt(n), n


def test_graph_json_round_trip(tmp_path):
    g = build_mgg_expander(4)
    certify_lambda(g)
    path = tmp_path / "graph.json"
    save_graph(g, path)
    back = load_graph(path)
    assert back.k == 4 and back.degree == 8
    np.testing.assert_array_equal(back.neighbors, g.neighbors)
    assert back.certified_lambda == g.certified_lambda


def test_graph_file_certified_lambda_must_be_a_number(tmp_path):
    path = tmp_path / "graph.json"
    save_graph(build_mgg_expander(2), path)
    doc = json.loads(path.read_text())
    for bad in ("abc", [0.5], True, None, 7.5, -1):
        doc["certified_lambda"] = bad
        path.write_text(json.dumps(doc))
        if bad is None:  # null stands for uncertified, as an absent field does
            assert load_graph(path).certified_lambda is None
            continue
        want = r"lambda must lie in \[0,1\]" if bad in (7.5, -1) else "expected a number"
        with pytest.raises(ConfigError, match="'certified_lambda': " + want):
            load_graph(path)
    for good in (0, 0.25, 1.0):
        doc["certified_lambda"] = good
        path.write_text(json.dumps(doc))
        assert load_graph(path).certified_lambda == good
