"""Property-based tests (hypothesis) on the library's core invariants.

Strategy: generate random time-consistent citation networks (a DAG whose
edges always point backwards in time) and random method configurations,
then assert the structural invariants of the paper:

* the stochastic matrix S is exactly column-stochastic (Theorem 1's
  premise),
* attention / recency / AttRank vectors are probability vectors,
* AttRank's fixed point is independent of the starting vector,
* AttRank, PageRank, CiteRank, ECM and Katz match a dense closed-form
  solve built by hand from the citation lists, scalar and stacked,
* FutureRank matches a dense iteration of its update, written from its
  definition with the author incidence built by hand,
* metric ranges and identities (Spearman symmetry, nDCG bounds),
* split ground truth is consistent under every ratio,
* stream-replay equivalence: a finalized micro-batched replay of any
  network's event log is bit-identical to the cold batch compute, at
  any batch size, shard count, and checkpoint/resume point,
* shard partitioners assign each paper independently of corpus order,
* the ranking comparator ``(-score, index)`` is a total order, and
  the top-k selection is exactly the head of the full ranking.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.attention import attention_vector
from repro.baselines.centrality import KatzCentrality
from repro.baselines.citerank import CiteRank
from repro.baselines.ecm import EffectiveContagion
from repro.baselines.futurerank import FutureRank
from repro.baselines.pagerank import PageRank
from repro.core.attrank import AttRank, attrank_matrix
from repro.core.fused import FUSE_MIN_COLUMNS, solve_methods
from repro.core.power_iteration import power_iterate
from repro.core.recency import recency_vector
from repro.errors import ConfigurationError
from repro.eval.metrics import dcg_at_k, ndcg_at_k, spearman_rho
from repro.eval.metrics_extra import average_precision_at_k, overlap_at_k
from repro.eval.split import split_by_ratio
from repro.graph.citation_network import CitationNetwork
from repro.graph.matrix import StochasticOperator
from repro.ranking import ranking_from_scores, top_k_indices

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def citation_networks(draw, min_papers: int = 3, max_papers: int = 40):
    """A random time-consistent citation network."""
    n = draw(st.integers(min_papers, max_papers))
    base_year = draw(st.integers(1950, 2010))
    # Non-decreasing publication times with random gaps.
    gaps = draw(
        st.lists(
            st.floats(0.0, 2.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    times = base_year + np.cumsum(np.asarray(gaps))
    citing: list[int] = []
    cited: list[int] = []
    edge_flags = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n)
    )
    for source in range(1, n):
        # Cite up to edge_flags[source] strictly older papers.
        older = [
            t for t in range(source) if times[t] < times[source]
        ]
        for target in older[: edge_flags[source]]:
            citing.append(source)
            cited.append(target)
    return CitationNetwork(
        [f"p{i}" for i in range(n)], times, citing, cited
    )


coefficients = st.tuples(
    st.floats(0.0, 0.5), st.floats(0.05, 0.9)
).map(
    lambda ab: (
        round(ab[0], 3),
        round(min(ab[1], 1.0 - ab[0]) * 0.9, 3),
    )
)


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------


@given(citation_networks())
@settings(max_examples=40, deadline=None)
def test_stochastic_operator_columns_sum_to_one(network):
    dense = StochasticOperator(network).dense()
    assert np.allclose(dense.sum(axis=0), 1.0, atol=1e-9)
    assert dense.min() >= 0.0


@given(citation_networks())
@settings(max_examples=40, deadline=None)
def test_degree_conservation(network):
    assert network.in_degree.sum() == network.out_degree.sum()


@given(citation_networks(), st.floats(0.5, 8.0))
@settings(max_examples=40, deadline=None)
def test_attention_is_probability_vector(network, window):
    vector = attention_vector(network, window)
    assert vector.min() >= 0.0
    assert abs(vector.sum() - 1.0) < 1e-9


@given(citation_networks(), st.floats(-3.0, 0.0))
@settings(max_examples=40, deadline=None)
def test_recency_is_probability_vector(network, decay):
    vector = recency_vector(network, decay)
    assert vector.min() >= 0.0
    assert abs(vector.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# AttRank invariants (Theorem 1)
# ---------------------------------------------------------------------------


@given(citation_networks(), coefficients)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_attrank_fixed_point_properties(network, alpha_beta):
    alpha, beta = alpha_beta
    gamma = round(1.0 - alpha - beta, 10)
    method = AttRank(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        attention_window=2.0,
        decay_rate=-0.5,
        max_iterations=3000,
    )
    scores = method.scores(network)
    # Probability vector.
    assert scores.min() >= -1e-12
    assert abs(scores.sum() - 1.0) < 1e-9
    # Fixed point of Eq. 4.
    attention, recency = method.jump_vectors(network)
    rhs = (
        alpha * StochasticOperator(network).apply(scores)
        + beta * attention
        + gamma * recency
    )
    assert np.allclose(scores, rhs, atol=1e-8)


@given(citation_networks(min_papers=4, max_papers=20), coefficients)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_attrank_matrix_is_stochastic(network, alpha_beta):
    alpha, beta = alpha_beta
    gamma = round(1.0 - alpha - beta, 10)
    matrix = attrank_matrix(
        network, alpha=alpha, beta=beta, gamma=gamma, decay_rate=-0.4
    )
    assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-9)
    if gamma > 0:
        assert matrix.min() > 0.0  # irreducible + aperiodic


@given(citation_networks(min_papers=4, max_papers=20))
@settings(max_examples=20, deadline=None)
def test_attrank_start_independence(network):
    method = AttRank(
        alpha=0.4, beta=0.3, gamma=0.3, attention_window=2.0,
        decay_rate=-0.5, max_iterations=3000,
    )
    # Solve once via the method, once via raw power iteration from a
    # deliberately skewed start.
    reference = method.scores(network)
    attention, recency = method.jump_vectors(network)
    jump = 0.3 * attention + 0.3 * recency
    operator = StochasticOperator(network)
    skewed = np.zeros(network.n_papers)
    skewed[0] = 1.0
    result, _ = power_iterate(
        lambda x: 0.4 * operator.apply(x) + jump,
        network.n_papers,
        start=skewed,
        max_iterations=3000,
    )
    assert np.allclose(reference, result, atol=1e-8)


@st.composite
def tied_dags(draw, max_papers: int = 25):
    """A random citation DAG with same-year ties and dangling papers.

    Publication years come from a narrow integer range, so ties are the
    rule; each paper cites a random subset of earlier papers published
    no later than itself, so papers without references (dangling
    columns of ``S``) are common too.
    """
    n = draw(st.integers(2, max_papers))
    years = sorted(draw(st.lists(st.integers(2000, 2004), min_size=n, max_size=n)))
    citing: list[int] = []
    cited: list[int] = []
    for source in range(1, n):
        for target in draw(st.sets(st.integers(0, source - 1), max_size=3)):
            citing.append(source)
            cited.append(target)
    return CitationNetwork(
        [f"p{i}" for i in range(n)], [float(y) for y in years], citing, cited
    )


@given(tied_dags(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_theorem1_fixed_point_is_start_independent(network, seed):
    """Theorem 1: every start vector reaches the same fixed point.

    Warm-started re-solves after each stream version rely on this.  The
    L1 map ``x -> alpha * S x + jump`` contracts by ``alpha``, so a solve
    that stops once an iteration moves less than ``tol`` lies within
    ``alpha / (1 - alpha) * tol`` of the fixed point, and two such solves
    within twice that.
    """
    rng = np.random.default_rng(seed)
    for make in (
        lambda: AttRank(
            alpha=0.4, beta=0.3, gamma=0.3, attention_window=2.0,
            decay_rate=-0.5, max_iterations=3000,
        ),
        lambda: PageRank(alpha=0.5, max_iterations=3000),
    ):
        method = make()
        reference = method.scores(network)
        bound = 2 * method.alpha / (1 - method.alpha) * method.tol + 1e-15
        for _ in range(3):
            method = make()
            method.start_vector = rng.dirichlet(np.ones(network.n_papers))
            result = method.scores(network)
            assert np.abs(result - reference).sum() <= bound


def paper_s(network: CitationNetwork) -> np.ndarray:
    """Dense ``S`` from the paper's definition, not from the library.

    Column ``j`` spreads ``1/k_j`` over the ``k_j`` papers ``j`` cites;
    a paper citing nothing (a dangling column) spreads ``1/n`` over all.
    """
    n = network.n_papers
    dense = np.zeros((n, n))
    references = np.zeros(n)
    for source in network.citing:
        references[source] += 1
    for source, target in zip(network.citing, network.cited):
        dense[target, source] += 1.0 / references[source]
    dense[:, references == 0] = 1.0 / n
    return dense


def closed_form(dense_s: np.ndarray, alpha: float, jump: np.ndarray) -> np.ndarray:
    """The fixed point of ``x <- (alpha S x + j) / |alpha S x + j|_1``.

    With ``x`` a probability vector the normaliser is
    ``c = alpha + |j|_1``, so the fixed point solves
    ``(cI - alpha S) x = j``.  The all-zero attention vector that
    ``jump_vectors`` returns at ``beta = 0`` needs no special case.
    """
    c = alpha + np.abs(jump).sum()
    return np.linalg.solve(c * np.eye(len(jump)) - alpha * dense_s, jump)


def attrank_closed_form(network, dense_s, method: AttRank) -> np.ndarray:
    attention, recency = method.jump_vectors(network)
    jump = method.beta * attention + method.gamma * recency
    return closed_form(dense_s, method.alpha, jump)


#: AttRank settings with alpha > 0 (alpha = 0 is a closed form already).
attrank_settings = st.tuples(
    st.integers(1, 5), st.integers(0, 9), st.sampled_from((1.0, 2.0, 3.0))
).filter(lambda s: s[0] + s[1] <= 10).map(
    lambda s: (s[0] / 10, s[1] / 10, round(1.0 - s[0] / 10 - s[1] / 10, 10), s[2])
)


@given(tied_dags(), attrank_settings, st.sampled_from((0.3, 0.5, 0.85)))
@settings(max_examples=40, deadline=None)
def test_power_iteration_matches_closed_form(network, setting, pr_alpha):
    """AttRank's and PageRank's ``scores()`` reach the dense solve."""
    alpha, beta, gamma, window = setting
    dense_s = paper_s(network)
    method = AttRank(
        alpha=alpha, beta=beta, gamma=gamma, attention_window=window,
        decay_rate=-0.5,
    )
    np.testing.assert_allclose(
        method.scores(network),
        attrank_closed_form(network, dense_s, method),
        rtol=0, atol=1e-9,
    )
    n = network.n_papers
    np.testing.assert_allclose(
        PageRank(alpha=pr_alpha).scores(network),
        closed_form(dense_s, pr_alpha, np.full(n, (1.0 - pr_alpha) / n)),
        rtol=0, atol=1e-9,
    )


@given(tied_dags(), st.lists(attrank_settings, min_size=FUSE_MIN_COLUMNS, max_size=12))
@settings(max_examples=20, deadline=None)
def test_fused_stack_matches_closed_form(network, settings_):
    """A stacked ``solve_methods`` pass reaches the dense solve per column."""
    dense_s = paper_s(network)
    methods = [
        AttRank(
            alpha=alpha, beta=beta, gamma=gamma, attention_window=window,
            decay_rate=-0.5,
        )
        for alpha, beta, gamma, window in settings_
    ]
    for method, (scores, _info) in zip(methods, solve_methods(network, methods)):
        np.testing.assert_allclose(
            scores,
            attrank_closed_form(network, dense_s, method),
            rtol=0, atol=1e-9,
        )


def citerank_closed_form(network, alpha: float, tau_dir: float) -> np.ndarray:
    """CiteRank's traffic ``x = rho + alpha T x``: ``(I - alpha T) x = rho``.

    ``T`` is ``paper_s`` with its dangling columns left at zero: a
    reader who reaches a paper without references stops, so CiteRank
    recycles no dangling mass.  ``rho`` decays with paper age at time
    ``tN``, the latest publication.
    """
    transfer = paper_s(network)
    cites_something = np.zeros(network.n_papers, dtype=bool)
    cites_something[network.citing] = True
    transfer[:, ~cites_something] = 0.0
    times = np.asarray(network.publication_times, dtype=np.float64)
    rho = np.exp(-(times.max() - times) / tau_dir)
    rho /= rho.sum()
    return np.linalg.solve(np.eye(network.n_papers) - alpha * transfer, rho)


def citation_chains(network, weight) -> np.ndarray:
    """Dense ``W[i, j] = weight(j)`` for every citation of ``i`` by ``j``."""
    dense = np.zeros((network.n_papers, network.n_papers))
    for source, target in zip(network.citing, network.cited):
        dense[target, source] += weight(source)
    return dense


def katz_closed_form(dense: np.ndarray, alpha: float) -> np.ndarray:
    """The chain series ``x = W 1 + alpha W x``: ``(I - alpha W) x = W 1``."""
    return np.linalg.solve(
        np.eye(len(dense)) - alpha * dense, dense.sum(axis=1)
    )


def ecm_closed_form(network, alpha: float, gamma: float) -> np.ndarray:
    """ECM is Katz over the retained matrix ``R``: a citation made by
    paper ``j`` keeps ``gamma ** (tN - t_j)`` of its weight."""
    times = np.asarray(network.publication_times, dtype=np.float64)
    latest = times.max()
    retained = citation_chains(
        network, lambda source: gamma ** (latest - times[source])
    )
    return katz_closed_form(retained, alpha)


def assert_near(scores, reference) -> None:
    """Within 1e-9, relative to the largest entry where it exceeds 1
    (CiteRank, ECM and Katz scores are not probability vectors)."""
    scale = max(1.0, float(np.abs(reference).max()))
    np.testing.assert_allclose(scores, reference, rtol=0, atol=1e-9 * scale)


tenths = st.integers(1, 9).map(lambda step: step / 10)
citerank_settings = st.tuples(tenths, st.sampled_from((0.5, 2.0, 6.0, 10.0)))


@given(
    tied_dags(),
    citerank_settings,
    tenths,
    st.integers(1, 10).map(lambda step: step / 10),
    tenths,
)
@settings(max_examples=40, deadline=None)
def test_citerank_ecm_katz_match_closed_form(
    network, citerank, ecm_alpha, ecm_gamma, katz_alpha
):
    """CiteRank's, ECM's and Katz's ``scores()`` reach the dense solve."""
    alpha, tau_dir = citerank
    assert_near(
        CiteRank(alpha=alpha, tau_dir=tau_dir).scores(network),
        citerank_closed_form(network, alpha, tau_dir),
    )
    assert_near(
        EffectiveContagion(alpha=ecm_alpha, gamma=ecm_gamma).scores(network),
        ecm_closed_form(network, ecm_alpha, ecm_gamma),
    )
    assert_near(
        KatzCentrality(alpha=katz_alpha).scores(network),
        katz_closed_form(citation_chains(network, lambda _: 1.0), katz_alpha),
    )


@given(
    tied_dags(),
    st.lists(citerank_settings, min_size=FUSE_MIN_COLUMNS, max_size=12),
    st.lists(tenths, min_size=FUSE_MIN_COLUMNS, max_size=12),
    st.integers(1, 10).map(lambda step: step / 10),
    st.lists(tenths, min_size=FUSE_MIN_COLUMNS, max_size=12),
)
@settings(max_examples=20, deadline=None)
def test_fused_citerank_and_ecm_match_closed_form(
    network, citerank, ecm_alphas, gamma, katz_alphas
):
    """One ``solve_methods`` pass stacks CiteRank's columns on one
    operator, ECM's (one ``gamma``) on another and Katz's on the
    citation matrix; each column reaches the dense solve."""
    citeranks = [
        CiteRank(alpha=alpha, tau_dir=tau_dir) for alpha, tau_dir in citerank
    ]
    ecms = [EffectiveContagion(alpha=alpha, gamma=gamma) for alpha in ecm_alphas]
    katzes = [KatzCentrality(alpha=alpha) for alpha in katz_alphas]
    for family in (citeranks, ecms, katzes):
        operators = {id(m.fused_column(network).matrix) for m in family}
        assert len(operators) == 1
    solved = solve_methods(network, citeranks + ecms + katzes)
    for method, (scores, _info) in zip(citeranks, solved):
        assert_near(
            scores, citerank_closed_form(network, method.alpha, method.tau_dir)
        )
    for method, (scores, _info) in zip(ecms, solved[len(citeranks):]):
        assert_near(scores, ecm_closed_form(network, method.alpha, gamma))
    citations = citation_chains(network, lambda _: 1.0)
    for method, (scores, _info) in zip(
        katzes, solved[len(citeranks) + len(ecms):]
    ):
        assert_near(scores, katz_closed_form(citations, method.alpha))


@st.composite
def authored_dags(draw):
    """A :func:`tied_dags` network with drawn author lists: each paper
    has up to three authors out of five, and may have none."""
    network = draw(tied_dags())
    authors = draw(
        st.lists(
            st.lists(st.integers(0, 4), max_size=3),
            min_size=network.n_papers,
            max_size=network.n_papers,
        )
    )
    return CitationNetwork(
        network.paper_ids,
        network.publication_times,
        network.citing,
        network.cited,
        paper_authors=authors,
    )


def futurerank_steps(network, alpha, beta, gamma, rho, steps, tol=None):
    """FutureRank's update iterated densely from its definition:

        x <- alpha S x + beta norm(B' norm(B x)) + gamma R + (1 - alpha
             - beta - gamma) / n,

    renormalised to sum 1 after each step, from the uniform vector.
    ``B[a, p] = 1`` when ``a`` wrote ``p``, ``R`` decays as
    ``exp(rho * age)`` at ``tN``, and ``norm`` divides a vector by its
    sum (the uniform vector when the sum is 0).  Stops after ``steps``
    steps, or once a step moves less than ``tol`` in L1.
    """
    n = network.n_papers
    dense_s = paper_s(network)
    incidence = np.zeros((5, n))
    for paper, authors in enumerate(network.paper_authors):
        incidence[list(authors), paper] = 1.0
    times = np.asarray(network.publication_times, dtype=np.float64)
    recency = np.exp(rho * (times.max() - times))
    recency /= recency.sum()

    def norm(vector):
        total = vector.sum()
        if total > 0:
            return vector / total
        return np.full(len(vector), 1 / len(vector))

    x = np.full(n, 1.0 / n)
    for _ in range(steps):
        updated = (
            alpha * dense_s @ x
            + beta * norm(incidence.T @ norm(incidence @ x))
            + gamma * recency
            + (1.0 - alpha - beta - gamma) / n
        )
        updated /= updated.sum()
        moved = np.abs(updated - x).sum()
        x = updated
        if tol is not None and moved <= tol:
            break
    return x


#: FutureRank settings in tenths with alpha + beta + gamma <= 1.
futurerank_settings = st.tuples(
    st.integers(0, 9), st.integers(0, 10), st.integers(0, 10)
).filter(lambda s: sum(s) <= 10).map(lambda s: tuple(v / 10 for v in s))


@given(
    authored_dags(),
    futurerank_settings,
    st.sampled_from((-0.3, -0.62, -1.5)),
    st.integers(1, 30),
)
@settings(max_examples=40, deadline=None)
def test_futurerank_matches_its_definition(network, setting, rho, steps):
    """FutureRank's author term is not linear, so it has no closed form:
    ``k`` library iterations match ``k`` dense steps of the update, and
    a converged solve matches the dense iteration run to the library's
    tolerance."""
    alpha, beta, gamma = setting
    method = FutureRank(
        alpha=alpha, beta=beta, gamma=gamma, rho=rho, max_iterations=steps
    )
    scores = method.scores(network)
    # The solve stops early when a step moves less than its tolerance.
    steps = method.last_convergence.iterations
    np.testing.assert_allclose(
        scores,
        futurerank_steps(network, alpha, beta, gamma, rho, steps),
        rtol=0, atol=1e-12,
    )
    converging = FutureRank(rho=rho, max_iterations=1000)
    scores = converging.scores(network)
    assert converging.last_convergence.converged
    np.testing.assert_allclose(
        scores,
        futurerank_steps(
            network, converging.alpha, converging.beta, converging.gamma,
            rho, 1000, tol=converging.tol,
        ),
        rtol=0, atol=1e-9,
    )


# ---------------------------------------------------------------------------
# Metric invariants
# ---------------------------------------------------------------------------


score_vectors = st.lists(
    st.floats(0.0, 100.0, allow_nan=False), min_size=3, max_size=60
)


@given(score_vectors, st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_spearman_symmetry_and_range(values, rand):
    a = np.asarray(values)
    b = np.asarray(values.copy())
    rand.shuffle(values)
    c = np.asarray(values)
    if np.unique(a).size < 2 or np.unique(c).size < 2:
        return  # undefined correlation
    forward = spearman_rho(a, c)
    backward = spearman_rho(c, a)
    assert forward == backward
    assert -1.0 - 1e-9 <= forward <= 1.0 + 1e-9
    assert spearman_rho(a, b) == 1.0


@given(score_vectors, st.integers(1, 100))
@settings(max_examples=50, deadline=None)
def test_ndcg_bounds_and_oracle(values, k):
    gains = np.asarray(values)
    rng = np.random.default_rng(0)
    noise = rng.random(gains.size)
    value = ndcg_at_k(noise, gains, k)
    assert 0.0 <= value <= 1.0 + 1e-12
    if gains.sum() > 0:
        assert ndcg_at_k(gains, gains, k) == 1.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_ndcg_monotone_under_improvement(seed):
    """Moving a high-gain paper up the ranking cannot lower nDCG."""
    rng = np.random.default_rng(seed)
    gains = rng.integers(0, 20, size=30).astype(float)
    scores = rng.random(30)
    best = int(np.argmax(gains))
    improved = scores.copy()
    improved[best] = scores.max() + 1.0
    assert ndcg_at_k(improved, gains, 10) >= ndcg_at_k(scores, gains, 10) - 1e-12


# ---------------------------------------------------------------------------
# Stream-replay invariants
# ---------------------------------------------------------------------------


#: AttRank with a pinned decay rate: random tiny bootstrap snapshots
#: cannot support the citation-age fit the default configuration runs.
_STREAM_PARAMS = {"AR": {"decay_rate": -0.6}}
_STREAM_METHODS = ("AR", "PR", "CC")


@given(
    citation_networks(min_papers=4, max_papers=25),
    st.integers(1, 24),
    st.integers(1, 4),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_replay_equals_batch_compute(network, batch_size, shards):
    """Finalized replay == cold batch compute, bit for bit."""
    from repro.stream import EventLog, StreamIngestor, batch_compute

    log = EventLog.from_network(network)
    cold = batch_compute(log, _STREAM_METHODS, method_params=_STREAM_PARAMS)
    ingestor = StreamIngestor(
        log,
        _STREAM_METHODS,
        batch_size=batch_size,
        shards=shards,
        method_params=_STREAM_PARAMS,
    )
    report = ingestor.replay()
    assert report.exhausted
    ingestor.finalize()
    assert ingestor.index.network.paper_ids == cold.network.paper_ids
    for label in _STREAM_METHODS:
        assert np.array_equal(
            ingestor.index.scores(label), cold.scores(label)
        ), label


@given(citation_networks(min_papers=6, max_papers=25), st.integers(1, 8))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_resumed_replay_is_bit_identical(network, batch_size):
    """Checkpoint/resume at an arbitrary point changes nothing."""
    import tempfile

    from repro.stream import EventLog, StreamIngestor

    log = EventLog.from_network(network)

    def build():
        return StreamIngestor(
            log,
            ("PR", "CC"),
            batch_size=batch_size,
            method_params=_STREAM_PARAMS,
        )

    uninterrupted = build()
    uninterrupted.replay()

    interrupted = build()
    interrupted.replay(max_batches=1)
    with tempfile.TemporaryDirectory() as scratch:
        interrupted.checkpoint(scratch)
        resumed = StreamIngestor.resume(scratch, log)
    resumed.replay()
    assert resumed.index.version == uninterrupted.index.version
    for label in ("PR", "CC"):
        assert np.array_equal(
            resumed.index.scores(label),
            uninterrupted.index.scores(label),
        ), label


# ---------------------------------------------------------------------------
# Partitioner invariants
# ---------------------------------------------------------------------------


_paper_populations = st.lists(
    st.tuples(
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=12,
        ),
        st.floats(1900.0, 2030.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
    unique_by=lambda pair: pair[0],
)


@given(
    _paper_populations,
    st.integers(1, 7),
    st.sampled_from(["hash", "year"]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_partitioner_stable_under_permutation(papers, n_shards, partitioner, rand):
    """A paper's shard depends on the paper, not on corpus order."""
    from repro.serve.shard import _assign, year_boundaries

    ids = [pid for pid, _ in papers]
    times = np.asarray([t for _, t in papers])
    boundaries = (
        year_boundaries(times, n_shards) if partitioner == "year" else None
    )
    original = dict(
        zip(ids, _assign(ids, times, n_shards, partitioner, boundaries))
    )
    shuffled = list(papers)
    rand.shuffle(shuffled)
    ids2 = [pid for pid, _ in shuffled]
    times2 = np.asarray([t for _, t in shuffled])
    boundaries2 = (
        year_boundaries(times2, n_shards) if partitioner == "year" else None
    )
    permuted = dict(
        zip(ids2, _assign(ids2, times2, n_shards, partitioner, boundaries2))
    )
    assert original == permuted
    assert all(0 <= shard < n_shards for shard in original.values())


@given(_paper_populations, st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_hash_partitioner_vectorised_matches_scalar(papers, n_shards):
    """The bulk byte-column FNV path equals the per-id scalar path."""
    from repro.serve.shard import _hash_assign, hash_shard_of

    ids = [pid for pid, _ in papers]
    bulk = _hash_assign(ids, n_shards)
    assert [int(s) for s in bulk] == [
        hash_shard_of(pid, n_shards) for pid in ids
    ]


# ---------------------------------------------------------------------------
# Ranking-comparator invariants
# ---------------------------------------------------------------------------


_tied_scores = st.lists(
    st.floats(0.0, 4.0, allow_nan=False).map(lambda x: round(x, 1)),
    min_size=1,
    max_size=60,
)


@given(_tied_scores)
@settings(max_examples=50, deadline=None)
def test_ranking_comparator_total_order(values):
    """ranking_from_scores realises the strict total order
    ``i < j  iff  (-score[i], i) < (-score[j], j)``."""
    from repro.ranking import ranking_from_scores

    scores = np.asarray(values)
    order = ranking_from_scores(scores)
    # A permutation of the population.
    assert sorted(order.tolist()) == list(range(scores.size))
    # Agrees with python's sort on the comparator key — which is
    # antisymmetric, transitive, and total by construction.
    expected = sorted(range(scores.size), key=lambda i: (-scores[i], i))
    assert order.tolist() == expected
    # Scores non-increasing along the ranking; ties by ascending index.
    ranked = scores[order]
    assert np.all(ranked[:-1] >= ranked[1:])
    for a, b in zip(order[:-1], order[1:]):
        if scores[a] == scores[b]:
            assert a < b


@given(_tied_scores, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_ranking_comparator_consistent_under_relabeling(values, rand):
    """Permuting the papers permutes the ranking consistently: the
    sequence of *scores* read along the ranking is invariant."""
    from repro.ranking import ranking_from_scores

    scores = np.asarray(values)
    permutation = list(range(scores.size))
    rand.shuffle(permutation)
    permutation = np.asarray(permutation)
    relabeled = scores[permutation]
    np.testing.assert_array_equal(
        scores[ranking_from_scores(scores)],
        relabeled[ranking_from_scores(relabeled)],
    )


# ---------------------------------------------------------------------------
# Top-k selection
# ---------------------------------------------------------------------------


#: Score vectors of every tie shape: a few values drawn with heavy
#: repetition (signed zeros among them), all-equal vectors, and
#: distinct floats.
_ranked_scores = st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), max_size=60),
    st.builds(
        lambda value, n: [value] * n,
        st.sampled_from([0.0, -0.0, 3.0, -2.0]),
        st.integers(0, 60),
    ),
    st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        max_size=60,
    ),
)


def _cut_offs(n: int):
    """k = 1, k at and past n, and anything in between."""
    return st.one_of(
        st.sampled_from([1, n, n + 1, n + 7]), st.integers(0, max(n, 1))
    )


@given(_ranked_scores, st.data())
@settings(max_examples=200, deadline=None)
def test_top_k_is_the_head_of_the_full_ranking(values, data):
    scores = np.asarray(values, dtype=np.float64)
    k = data.draw(_cut_offs(scores.size), label="k")
    head = top_k_indices(scores, k)
    full = ranking_from_scores(scores)[:k]
    assert head.dtype == full.dtype
    np.testing.assert_array_equal(head, full)


@given(st.integers(1, 60), st.data())
@settings(max_examples=150, deadline=None)
def test_top_k_metrics_equal_full_sort_references(n, data):
    """nDCG@k, overlap@k and AP@k computed from the top-k selection
    equal (``==``) the same formulas over the two full rankings."""
    tied = st.sampled_from([0.0, -0.0, 0.5, 1.0, 7.0])
    scores = np.asarray(
        data.draw(
            st.lists(tied, min_size=n, max_size=n)
            | st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n),
            label="scores",
        )
    )
    gains = np.asarray(
        data.draw(
            st.lists(
                st.sampled_from([0.0, -0.0, 1.0, 2.0, 5.0]),
                min_size=n,
                max_size=n,
            ),
            label="gains",
        )
    )
    k = data.draw(_cut_offs(n).filter(lambda k: k >= 1), label="k")
    method = ranking_from_scores(scores)
    ideal = ranking_from_scores(gains)
    ideal_dcg = dcg_at_k(gains[ideal], k)
    ndcg = 0.0 if ideal_dcg == 0 else dcg_at_k(gains[method], k) / ideal_dcg
    assert ndcg_at_k(scores, gains, k) == ndcg
    depth = min(k, n)
    assert overlap_at_k(scores, gains, k) == (
        float(np.intersect1d(method[:depth], ideal[:depth]).size) / depth
    )
    relevant = set(ideal[:depth].tolist())
    hits, precision = 0, 0.0
    for position, paper in enumerate(method[:depth].tolist(), start=1):
        if paper in relevant:
            hits += 1
            precision += hits / position
    assert average_precision_at_k(scores, gains, k) == precision / depth


@given(
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.integers(0, 39),
    st.integers(0, 45),
)
@settings(max_examples=60, deadline=None)
def test_non_finite_scores_or_gains_raise(values, bad, where, k):
    """NaN or an infinity anywhere — scores or gains, at any k — is a
    ConfigurationError, as the full ranking raises.  (A gain of -inf
    is refused earlier, as a negative gain.)"""
    clean = np.asarray(values)
    damaged = clean.copy()
    damaged[where % clean.size] = bad
    with pytest.raises(ConfigurationError, match="non-finite"):
        top_k_indices(damaged, k)
    with pytest.raises(ConfigurationError, match="non-finite"):
        ndcg_at_k(damaged, clean, max(k, 1))
    if bad != -np.inf:
        with pytest.raises(ConfigurationError, match="non-finite"):
            ndcg_at_k(clean, damaged, max(k, 1))


# ---------------------------------------------------------------------------
# Split invariants
# ---------------------------------------------------------------------------


@given(
    citation_networks(min_papers=8, max_papers=40),
    st.sampled_from([1.2, 1.4, 1.6, 1.8, 2.0]),
)
@settings(max_examples=30, deadline=None)
def test_split_ground_truth_consistency(network, ratio):
    split = split_by_ratio(network, ratio)
    # STI is non-negative and bounded by the future papers' references.
    assert split.sti.min() >= 0
    assert split.current.n_papers == network.n_papers // 2
    assert split.n_future_papers <= network.n_papers
    # Every citation in the current network is between current papers.
    assert split.current.citation_times().max(initial=-np.inf) <= split.t_current
    # Total STI equals the number of future->current edges.
    order = np.argsort(network.publication_times, kind="stable")
    n_current = network.n_papers // 2
    n_future = min(int(round(ratio * n_current)), network.n_papers)
    current_set = set(order[:n_current].tolist())
    future_only = set(order[n_current:n_future].tolist())
    expected = sum(
        1
        for s, t in zip(network.citing, network.cited)
        if int(s) in future_only and int(t) in current_set
    )
    assert int(split.sti.sum()) == expected
