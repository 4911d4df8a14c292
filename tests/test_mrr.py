"""mRR-set sampling (paper §3.3): root-size law, Theorem 3.3 sandwich,
RR-set truncation bias, the CSR pool ``sample_pool`` returns and its
input checks on either venue, and the distributed pairs path vs its
oracle. Coverage Λ_R(v) is read off the pool as ``np.bincount(members)``:
a set never holds a node twice."""
import numpy as np
import pandas as pd
import pytest

import repro.sampling.mrr as mrr
from repro.diffusion.propagate import (
    exact_expected_spread,
    spread_local,
    truncated,
)
from repro.diffusion.realization import IC, LT, sample_realization
from repro.graphs.csr import GraphCSR
from repro.oracle import assert_equivalent
from repro.sampling.mrr import (
    BLOCK,
    sample_pool,
    sample_root_size,
    sample_sets_pairs,
    substream,
)


@pytest.mark.parametrize("n_i,eta_i", [(10, 3), (100, 7), (4, 2), (1000, 999)])
def test_root_size_support(n_i, eta_i):
    rng = np.random.default_rng(0)
    k_low = int(n_i / eta_i)
    for _ in range(200):
        k = sample_root_size(n_i, eta_i, rng)
        assert k in (max(1, k_low), min(n_i, k_low + 1))


@pytest.mark.parametrize("n_i,eta_i", [(10, 3), (100, 7), (7, 2)])
def test_root_size_mean(n_i, eta_i):
    """Randomized rounding gives E[k] = n_i/η_i (Thm 3.3)."""
    rng = np.random.default_rng(1)
    ks = [sample_root_size(n_i, eta_i, rng) for _ in range(20000)]
    assert np.mean(ks) == pytest.approx(n_i / eta_i, rel=0.02)


def test_root_size_integer_ratio_is_deterministic():
    rng = np.random.default_rng(2)
    assert all(sample_root_size(8, 4, rng) == 2 for _ in range(100))


def test_members_are_active_and_contain_roots(small_cl_graph):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[:40] = False
    indptr, members = sample_pool(None, g, active, 20, IC, 50, 3, roots="mrr")
    assert (np.diff(indptr) > 0).all()
    assert active[members].all(), "inactive nodes never enter a set"


def test_local_deterministic(small_cl_graph):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    a = sample_pool(None, g, active, 20, IC, 10, 9, roots="mrr")
    b = sample_pool(None, g, active, 20, IC, 10, 9, roots="mrr")
    for xa, xb in zip(a, b):
        np.testing.assert_array_equal(xa, xb)


def test_sets_do_not_depend_on_the_pool_size(small_cl_graph):
    """Set j comes from block j // BLOCK, seeded by (seed, j // BLOCK)
    alone, so a smaller pool is a prefix of a larger one."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    big_indptr, big_members = sample_pool(None, g, active, 20, IC, BLOCK + 40, 9, roots="mrr")
    for n_sets in (7, BLOCK, BLOCK + 1):
        indptr, members = sample_pool(None, g, active, 20, IC, n_sets, 9, roots="mrr")
        np.testing.assert_array_equal(indptr, big_indptr[: n_sets + 1])
        np.testing.assert_array_equal(members, big_members[: indptr[-1]])


def test_old_additive_collision_now_distinct():
    """The retired scheme gave realization r, round i the seed
    seed + r + 7·i, so (r=7, i=1) and (r=0, i=2) shared a stream."""
    assert 0 + 7 + 7 * 1 == 0 + 0 + 7 * 2
    a = substream(substream(0, 7), 1)
    b = substream(substream(0, 0), 2)
    assert not np.array_equal(a.generate_state(4), b.generate_state(4))
    assert np.random.default_rng(a).random() != np.random.default_rng(b).random()


def test_streams_distinct_over_key_grid():
    """(run, round, iteration, block) paths, built the way the harness,
    ASTI, TRIM and the sampler nest them, never share a state."""
    states = set()
    for r in range(10):
        for i in range(1, 6):
            for t in range(1, 5):
                for j in range(4):
                    ss = substream(substream(substream(substream(3, r), i), t), j)
                    assert ss.spawn_key == (r, i, t, j)
                    states.add(ss.generate_state(4).tobytes())
    assert len(states) == 10 * 5 * 4 * 4


def test_key_length_matters():
    """Unlike an entropy list, a spawn key is not zero-padded."""
    a = substream(1, 1).generate_state(4)
    b = substream(1, 1, 0).generate_state(4)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("model", [IC, LT])
def test_rr_sets_single_root(small_cl_graph, model):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    indptr, _ = sample_pool(None, g, active, 1, model, 30, 4, roots="rr")
    assert len(indptr) == 30 + 1
    assert (np.diff(indptr) >= 1).all()


def test_theorem_3_3_sandwich_ex23(ex23_graph):
    """(1−1/e)·E[Γ(S)] ≤ E[Γ̃(S)] ≤ E[Γ(S)] on the Example 2.3 graph."""
    g = ex23_graph
    eta = 2
    active = np.ones(g.n, bool)
    n_sets = 20000
    _, members = sample_pool(None, g, active, eta, IC, n_sets, 5, roots="mrr")
    hits = np.bincount(members, minlength=g.n)
    for v in range(4):
        est = eta * hits[v] / n_sets  # E[Γ̃({v})]
        exact = exact_expected_spread(g, [v], eta=eta)
        assert est <= exact * 1.05
        assert est >= (1 - 1 / np.e) * exact * 0.95


def test_mrr_estimator_exact_values_ex23(ex23_graph):
    """Closed-form check: with η=2, k=2 roots without replacement,
    E[Γ̃(v)] = η·Pr[v ∈ R] works out to (1.75, 5/3, 5/3, 1) for v1..v4
    (e.g. v2 always reaches {v2, v4}, so Pr[hit] = 1 − C(2,2)/C(4,2) = 5/6).
    Note the estimator keeps every node inside the Theorem 3.3 band but
    does not preserve the exact Γ-ordering — that is precisely why TRIM's
    guarantee is (1−1/e)(1−ε) rather than exact greedy."""
    g = ex23_graph
    active = np.ones(g.n, bool)
    n_sets = 20000
    _, members = sample_pool(None, g, active, 2, IC, n_sets, 6, roots="mrr")
    est = 2 * np.bincount(members, minlength=g.n) / n_sets
    np.testing.assert_allclose(est, [1.75, 5 / 3, 5 / 3, 1.0], rtol=0.05)


def _mc_expected(g, seeds, model, eta, n_trials=3000, seed0=0):
    tot_i, tot_g = 0.0, 0.0
    for s in range(n_trials):
        real = sample_realization(g, model, seed0 + s)
        x = len(spread_local(real, seeds))
        tot_i += x
        tot_g += truncated(x, eta)
    return tot_i / n_trials, tot_g / n_trials


def test_rr_truncation_bias(small_cl_graph):
    """Paper §3.2: single-root RR sets estimate truncated spread as
    (η/n)·E[I(S)], badly biased when η ≪ n, while mRR stays in the
    Theorem 3.3 band."""
    g = small_cl_graph
    eta = 5
    v = int(np.argmax(g.outdeg))
    active = np.ones(g.n, bool)
    e_i, e_g = _mc_expected(g, [v], IC, eta)
    n_sets = 8000
    _, rr = sample_pool(None, g, active, 1, IC, n_sets, 7, roots="rr")
    rr_est = eta * np.bincount(rr, minlength=g.n)[v] / n_sets
    _, mrr_members = sample_pool(None, g, active, eta, IC, n_sets, 8, roots="mrr")
    mrr_est = eta * np.bincount(mrr_members, minlength=g.n)[v] / n_sets
    # RR underestimates by roughly η/n (here η/n = 1/30).
    assert rr_est == pytest.approx(eta / g.n * e_i, rel=0.3)
    assert rr_est < 0.5 * e_g
    # mRR lands inside the (1-1/e) sandwich of the truth.
    assert (1 - 1 / np.e) * e_g * 0.9 <= mrr_est <= e_g * 1.1


def test_rr_untruncated_unbiased(small_cl_graph):
    """E[I(S)] = n·Pr[R ∩ S ≠ ∅] for single-root RR sets (Borgs et al.)."""
    g = small_cl_graph
    v = int(np.argmax(g.outdeg))
    active = np.ones(g.n, bool)
    e_i, _ = _mc_expected(g, [v], IC, eta=g.n)
    n_sets = 8000
    _, rr = sample_pool(None, g, active, 1, IC, n_sets, 9, roots="rr")
    est = g.n * np.bincount(rr, minlength=g.n)[v] / n_sets
    assert est == pytest.approx(e_i, rel=0.15)


@pytest.mark.parametrize("model", [IC, LT])
def test_spark_pairs_shape(spark, small_cl_graph, model):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    pairs = sample_sets_pairs(spark, g, active, 20, model, 40, seed=10)
    pdf = pairs.toPandas()
    assert set(pdf.columns) == {"set_id", "node"}
    assert pdf["set_id"].nunique() == 40
    assert sorted(pdf["set_id"].unique()) == list(range(40))
    assert pdf["node"].isin(range(g.n)).all()
    # No duplicate membership rows within a set.
    assert not pdf.duplicated(["set_id", "node"]).any()


def test_spark_coverage_vs_duckdb_oracle(spark, small_cl_graph, monkeypatch):
    """Λ_R(v) from the Spark venue's CSR pool equals the SQL GROUP BY
    oracle over the same membership rows."""
    monkeypatch.setattr(mrr, "SPARK_MIN_SETS", 1)
    g = small_cl_graph
    active = np.ones(g.n, bool)
    pdf = sample_sets_pairs(spark, g, active, 20, IC, 100, seed=11).toPandas()
    indptr, members = sample_pool(spark, g, active, 20, IC, 100, 11, roots="mrr")
    np.testing.assert_array_equal(
        np.diff(indptr), np.bincount(pdf["set_id"], minlength=100)
    )
    cov = np.bincount(members, minlength=g.n)
    nodes = np.nonzero(cov)[0]
    got = spark.createDataFrame(pd.DataFrame({"node": nodes, "cov": cov[nodes]}))
    assert_equivalent(
        got, "SELECT node, count(*) AS cov FROM pairs GROUP BY node", pairs=pdf
    )


def test_spark_rejects_empty_active(spark, small_cl_graph):
    g = small_cl_graph
    with pytest.raises(ValueError):
        sample_sets_pairs(spark, g, np.zeros(g.n, bool), 5, IC, 10, seed=0)


@pytest.mark.parametrize(
    "case,match",
    [
        pytest.param("roots", "roots mode", id="roots"),
        pytest.param("empty", "no active", id="empty"),
        pytest.param("lt", "sum to", id="lt"),
    ],
)
@pytest.mark.parametrize("venue", ["local", "spark"])
def test_sample_pool_rejects_bad_input(spark, small_cl_graph, monkeypatch, venue, case, match):
    """Either venue raises ValueError on the driver, before any job: for
    an unknown roots mode, an all-false active mask, and LT in-weights
    above 1 even at a node outside ``active``, which no BFS would reach."""
    monkeypatch.setattr(mrr, "SPARK_MIN_SETS", 1)
    g, active, model, roots = small_cl_graph, np.ones(small_cl_graph.n, bool), IC, "mrr"
    if case == "roots":
        roots = "xyz"
    elif case == "empty":
        active[:] = False
    else:
        # 0.8 + 0.8 into node 0: valid IC probabilities, no LT distribution.
        edges = pd.DataFrame({"src": [1, 2], "dst": [0, 0]})
        g = GraphCSR.from_edges(edges, n=3, probs=np.array([0.8, 0.8]))
        active, model = np.array([False, True, True]), LT
    with pytest.raises(ValueError, match=match):
        sample_pool(spark if venue == "spark" else None, g, active, 1, model, 4, 0, roots=roots)
