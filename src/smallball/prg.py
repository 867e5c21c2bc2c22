"""Explicit pseudorandom sign sets from expander walks.

The sign set D collects the concatenated +-1 vertex labels along every walk of
n/k steps on a degree-8 expander over {-1,1}^k; sampling a walk uniformly
(uniform start, uniform edge at each step) uses about k + 3 n/k random bits.
The expander is the Margulis-Gabber-Galil construction on Z_m x Z_m with
m = 2^(k/2): its vertex count is exactly a power of two and its spectral bound
is re-certified numerically instead of trusted.

The uniform walk measure is the walk as a Markov chain, so exact window
probabilities come from a sweep over distinct (vertex, partial sum) states
with integer walk counts, not from a list of the |D| walks; enumerate_walks
lists them one by one as an independent oracle.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .chains import (
    MarkovChain,
    below_unit,
    check_lambda,
    check_window,
    read_field,
    read_json_file,
    validate_chain,
)
from .errors import (
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
from .rngstreams import step_words, to_unit
from .sampling import CHUNK, from_hits

MGG_DEGREE = 8
CERTIFY_BUDGET = 2**14
MAX_VERTICES = 2**20  # build_mgg_expander's cap: k = 20 peaks at ~475 MiB, 4x per k + 2
DENSE_CERTIFY = 2**10
# |D| bound of exact mode and of enumerate_walks
ENUM_BUDGET = 10**8


@dataclass
class ExpanderGraph:
    """A d-regular multigraph on 2^k vertices identified with {-1,1}^k.

    Vertex v's label is its big-endian bit pattern mapped 1 -> +1, 0 -> -1;
    the high k/2 bits are the first grid coordinate for MGG graphs.
    """

    k: int
    degree: int
    neighbors: np.ndarray  # (2^k, degree), self-loops and parallel edges kept
    certified_lambda: float | None = None

    @property
    def n_vertices(self) -> int:
        return 1 << self.k

    def neighbor(self, vertex: int, edge: int) -> int:
        return int(self.neighbors[vertex, edge])

    def labels(self) -> np.ndarray:
        """(2^k, k) matrix of +-1 labels, row v = label of vertex v."""
        v = np.arange(self.n_vertices)
        bits = (v[:, None] >> np.arange(self.k - 1, -1, -1)[None, :]) & 1
        return (2 * bits - 1).astype(np.int8)

    def normalized_adjacency(self) -> np.ndarray:
        m = np.zeros((self.n_vertices, self.n_vertices))
        rows = np.repeat(np.arange(self.n_vertices), self.degree)
        np.add.at(m, (rows, self.neighbors.ravel()), 1.0 / self.degree)
        return m


def validate_expander(graph: ExpanderGraph) -> None:
    """Regularity and undirectedness: the directed slot multiset is symmetric."""
    nv = graph.n_vertices
    if graph.neighbors.shape != (nv, graph.degree):
        raise DimensionMismatch(
            f"neighbor table has shape {graph.neighbors.shape}, "
            f"expected ({nv}, {graph.degree})"
        )
    if graph.neighbors.min() < 0 or graph.neighbors.max() >= nv:
        raise ConfigError("neighbor table references a vertex out of range")
    # symmetric iff the multiset of u * nv + v slot keys equals that of
    # v * nv + u; keys stay below nv^2, far inside int64 for any table in memory
    src = np.repeat(np.arange(nv, dtype=np.int64), graph.degree)
    dst = graph.neighbors.ravel().astype(np.int64)
    if not np.array_equal(np.sort(src * nv + dst), np.sort(dst * nv + src)):
        raise NotReversible("edge multiset is not symmetric; multigraph is directed")


def build_mgg_expander(k: int) -> ExpanderGraph:
    """Degree-8 Margulis-Gabber-Galil multigraph on Z_m x Z_m, m = 2^(k/2).

    The eight neighbor maps come in inverse pairs, so the multigraph is
    undirected; self-loops and parallel edges are kept to preserve regularity.
    """
    if k < 2 or k % 2 != 0:
        raise OddK(f"k must be an even integer >= 2, got {k}")
    if 2**k > MAX_VERTICES:
        raise TooLarge(f"2^{k} vertices exceed the limit of {MAX_VERTICES}")
    m = 1 << (k // 2)
    x, y = np.divmod(np.arange(m * m), m)
    maps = [
        ((x + 2 * y) % m, y), ((x - 2 * y) % m, y),
        ((x + 2 * y + 1) % m, y), ((x - 2 * y - 1) % m, y),
        (x, (y + 2 * x) % m), (x, (y - 2 * x) % m),
        (x, (y + 2 * x + 1) % m), (x, (y - 2 * x - 1) % m),
    ]
    neighbors = np.stack([cx * m + cy for cx, cy in maps], axis=1)
    graph = ExpanderGraph(k=k, degree=MGG_DEGREE, neighbors=neighbors)
    validate_expander(graph)
    return graph


def certify_lambda(graph: ExpanderGraph) -> float:
    """Second-largest absolute eigenvalue of the normalized adjacency matrix.

    Dense eigendecomposition for small graphs, deflated Lanczos above; stores
    the value on the graph.  Graphs beyond the budget must keep a literature
    bound flagged uncertified.
    """
    nv = graph.n_vertices
    if nv > CERTIFY_BUDGET:
        raise TooLarge(f"{nv} vertices exceed the certification budget {CERTIFY_BUDGET}")
    validate_expander(graph)
    if nv <= DENSE_CERTIFY:
        m = graph.normalized_adjacency()
        lam = float(np.max(np.abs(np.linalg.eigvalsh(m - 1.0 / nv))))
    else:
        import scipy.sparse
        import scipy.sparse.linalg

        counts = scipy.sparse.coo_matrix(
            (np.full(nv * graph.degree, 1.0 / graph.degree),
             (np.repeat(np.arange(nv), graph.degree), graph.neighbors.ravel())),
            shape=(nv, nv)).tocsr()

        def matvec(v):
            return counts @ v - np.mean(v)

        op = scipy.sparse.linalg.LinearOperator((nv, nv), matvec=matvec,
                                                rmatvec=matvec, dtype=float)
        v0 = np.sin(1.0 + np.arange(nv))  # deterministic start vector
        vals = scipy.sparse.linalg.eigsh(op, k=1, which="LM", v0=v0,
                                         return_eigenvectors=False)
        lam = float(np.abs(vals[0]))
    graph.certified_lambda = lam
    return lam


@dataclass(frozen=True)
class PrgSpec:
    """Walk parameters defining the sign multiset D."""

    graph: ExpanderGraph
    n: int

    def __post_init__(self):
        if self.n < 1 or self.n % self.graph.k != 0:
            raise DimensionMismatch(
                f"block length k = {self.graph.k} must divide n = {self.n}; "
                "pad with zero-weight coordinates to the next multiple if needed"
            )

    @property
    def blocks(self) -> int:
        return self.n // self.graph.k

    @property
    def size(self) -> int:
        """|D| counted with walk multiplicity."""
        return self.graph.n_vertices * self.graph.degree ** (self.blocks - 1)


def enumerate_walks(spec: PrgSpec):
    """Yield (sign vector in {-1,1}^n, weight) for every walk; weights sum to 1."""
    if spec.size > ENUM_BUDGET:
        raise BudgetExceeded(f"|D| = {spec.size} exceeds the budget {ENUM_BUDGET}")
    labels = spec.graph.labels()
    weight = 1.0 / spec.size
    for start in range(spec.graph.n_vertices):
        for edges in itertools.product(range(spec.graph.degree),
                                       repeat=spec.blocks - 1):
            vertex = start
            parts = [labels[vertex]]
            for e in edges:
                vertex = spec.graph.neighbor(vertex, e)
                parts.append(labels[vertex])
            yield np.concatenate(parts), weight


def block_contributions(spec: PrgSpec, scalars: np.ndarray) -> np.ndarray:
    """(blocks, vertices) table of label(vertex) . (block j's weights): the
    walk's contribution when block j sits at the vertex."""
    labels = spec.graph.labels().astype(float)
    block_w = np.asarray(scalars, dtype=float).reshape(spec.blocks, spec.graph.k)
    return (labels @ block_w.T).T.copy()


def _window_hits(spec: PrgSpec, scalars: np.ndarray, x0: float,
                 radius: float) -> int:
    """Number of walks in D whose signed sum lies in |sum - x0| <= radius.

    Sweeps the distinct (vertex, partial sum) states block by block, each
    carrying the number of walks that reach it.  Every walk's sum is the same
    float addition chain `sum + contrib[j, vertex]` as when each walk is summed
    on its own, so walks that share a state share their future sums bit for
    bit and the count is that of per-walk enumeration.
    """
    degree, neighbors = spec.graph.degree, spec.graph.neighbors
    contrib = block_contributions(spec, scalars)
    vertices = np.arange(spec.graph.n_vertices)
    sums = contrib[0, :, None].copy()  # (states, successors): each successor's sum
    counts = np.ones(vertices.size, dtype=np.int64)  # walks per state
    for j in range(1, spec.blocks):
        if j > 1:
            vertices = neighbors[vertices].ravel()
            sums = sums.ravel()
            counts = np.repeat(counts, degree)
            order = np.lexsort((sums, vertices))
            vertices, sums, counts = vertices[order], sums[order], counts[order]
            starts = np.flatnonzero(np.concatenate(
                ([True], (vertices[1:] != vertices[:-1]) | (sums[1:] != sums[:-1]))))
            vertices, sums = vertices[starts], sums[starts]
            counts = np.add.reduceat(counts, starts)
        # row i: state i's successors in edge order; float addition commutes,
        # so contrib += sum is sum + contrib bit for bit
        successors = contrib[j][neighbors[vertices]]
        successors += sums.reshape(-1, 1)
        sums = successors
    sums -= x0
    np.abs(sums, out=sums)
    return int(counts @ np.count_nonzero(sums <= radius, axis=1))


def induced_chain(spec: PrgSpec) -> MarkovChain:
    """The walk as a Markov chain: normalized adjacency, uniform stationary law."""
    nv = spec.graph.n_vertices
    return validate_chain(spec.graph.normalized_adjacency(), np.full(nv, 1.0 / nv))


def _check_unit_weights(scalars: np.ndarray, n: int,
                        allow_zero_padding: bool) -> np.ndarray:
    w = np.asarray(scalars, dtype=float)
    if w.shape != (n,):
        raise DimensionMismatch(f"need {n} scalar weights, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise PreconditionViolated("weights must be finite numbers")
    checked = w[w != 0.0] if allow_zero_padding else w
    if checked.size and below_unit(checked.min()):
        raise HypothesisViolated(
            f"weight {checked.min().item()!r} violates the hypothesis v_i >= 1"
        )
    return w


def prg_smallball(spec: PrgSpec, scalars, x0: float, radius: float,
                  mode: str = "exact", samples: int = 100_000, seed: int = 0,
                  allow_zero_padding: bool = False):
    """P[|sum - x0| <= radius] under the uniform walk measure on D.

    Exact mode counts the walks of D (with multiplicity) in the window by a
    sweep over distinct (vertex, partial sum) states, without listing walks;
    sampled mode draws walks from counter streams and returns an McEstimate.
    x0, radius and the weights must be finite.  Zero weights are rejected
    unless allow_zero_padding is set (the CLI's pad-to-multiple convenience);
    the v_i >= 1 hypothesis then applies to the nonzero entries.
    """
    w = _check_unit_weights(scalars, spec.n, allow_zero_padding)
    check_window(x0, radius)
    if mode == "exact":
        if spec.size > ENUM_BUDGET:
            raise BudgetExceeded(f"|D| = {spec.size} exceeds the budget {ENUM_BUDGET}")
        if spec.size.bit_length() > 63:
            # int64 walk counts wrap at 2^63, whatever ENUM_BUDGET is
            raise BudgetExceeded(
                f"|D| = {spec.size} reaches 2^63, where int64 walk counts wrap")
        return _window_hits(spec, w, x0, radius) / spec.size
    if mode != "sampled":
        raise OutOfRange(f"mode must be 'exact' or 'sampled', got {mode!r}")

    contrib = block_contributions(spec, w)
    k, degree = spec.graph.k, spec.graph.degree
    flat_neighbors = spec.graph.neighbors.ravel().astype(np.intp, copy=False)
    # the top b <= 31 bits of a word are floor(u * 2^b) for its uniform u, so
    # the start vertex (k <= 20) and a power-of-two degree's edge (a table in
    # memory has degree < 2^31) need no float; any other degree keeps the
    # float rule
    power_of_two = degree > 1 and degree & (degree - 1) == 0
    edge_bits = degree.bit_length() - 1 if power_of_two else 0
    hits = 0
    for start in range(0, samples, CHUNK):
        streams = np.arange(start, min(start + CHUNK, samples))
        words = step_words(seed, streams, spec.blocks)  # word j drives block j
        vertex = np.right_shift(next(words), np.uint64(64 - k)).view(np.intp)
        sums = contrib[0][vertex]
        cell = np.empty(streams.size, dtype=np.uint64)
        edge = cell.view(np.intp)
        step = np.empty_like(sums)
        for j, word in enumerate(words, start=1):
            if edge_bits:
                np.right_shift(word, np.uint64(64 - edge_bits), out=cell)
            else:
                np.minimum((to_unit(word) * degree).astype(np.intp), degree - 1, out=edge)
            # edge becomes the slot vertex * degree + edge of flat_neighbors;
            # every index is in range, so "clip" only skips the bounds check
            np.multiply(vertex, degree, out=vertex)
            edge += vertex
            np.take(flat_neighbors, edge, out=vertex, mode="clip")
            np.take(contrib[j], vertex, out=step, mode="clip")
            sums += step
        hits += int(np.count_nonzero(np.abs(sums - x0) <= radius))
    return from_hits(hits, samples, seed)


def even_rounded_sqrt(n: int) -> int:
    """ceil(sqrt(n)) rounded up to the nearest even integer, at least 2."""
    k = math.isqrt(n)
    if k * k < n:
        k += 1
    if k % 2:
        k += 1
    return max(k, 2)


def size_bound_exponent(n: int) -> float:
    """log2 |D| with k = even_rounded_sqrt(n) and padded block count."""
    k = even_rounded_sqrt(n)
    blocks = -(-n // k)
    return k + (blocks - 1) * math.log2(MGG_DEGREE)


# ---------------------------------------------------------------------------
# graph JSON: {"k": .., "degree": .., "neighbors": [[..] x 2^k]}
# ---------------------------------------------------------------------------


def save_graph(graph: ExpanderGraph, path) -> None:
    doc = {"k": graph.k, "degree": graph.degree,
           "neighbors": graph.neighbors.tolist()}
    if graph.certified_lambda is not None:
        doc["certified_lambda"] = graph.certified_lambda
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _parse_graph(doc) -> ExpanderGraph:
    k = int(read_field(doc, "k", (), int))
    max_k = MAX_VERTICES.bit_length() - 1  # the largest k with 2^k <= MAX_VERTICES
    if not 1 <= k <= max_k:
        raise ConfigError(f"'k': expected an integer in 1..{max_k}, got {k}")
    degree = int(read_field(doc, "degree", (), int))
    if degree < 1:
        raise ConfigError(f"'degree': expected a positive integer, got {degree}")
    lam = doc.get("certified_lambda")
    if lam is not None:
        lam = float(read_field(doc, "certified_lambda", (), float))
        try:
            check_lambda(lam)
        except OutOfRange as exc:
            raise ConfigError(f"'certified_lambda': {exc}") from None
    graph = ExpanderGraph(k=k, degree=degree,
                          neighbors=read_field(doc, "neighbors", (1 << k, degree), int),
                          certified_lambda=lam)
    validate_expander(graph)
    return graph


def load_graph(path) -> ExpanderGraph:
    """A graph file, checked field by field: a ConfigError names the bad field."""
    return read_json_file(path, _parse_graph)
