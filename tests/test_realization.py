"""Live-edge realization sampling (paper §2.1) — IC and LT semantics."""
import numpy as np
import pandas as pd
import pytest

from repro.diffusion.realization import IC, LT, sample_realization
from repro.graphs.csr import GraphCSR
from repro.sampling.mrr import sample_pool


def live_in_count(g, real):
    """Live in-slots per node."""
    return np.bincount(g.fwd_indices[real.live_fwd], minlength=g.n)


@pytest.fixture(scope="module")
def tri():
    """1 and 2 both feed 0; 0 feeds 1. WC probabilities."""
    edges = pd.DataFrame({"src": [1, 2, 0], "dst": [0, 0, 1]})
    return GraphCSR.from_edges(edges, n=3)


def test_ic_shapes(tri):
    real = sample_realization(tri, IC, 0)
    assert real.model == IC
    assert real.live_fwd.shape == (tri.m,)
    assert real.live_fwd.dtype == bool


def test_lt_shapes(tri):
    real = sample_realization(tri, LT, 0)
    assert real.model == LT
    assert real.live_fwd.shape == (tri.m,)
    assert real.live_fwd.dtype == bool


def test_deterministic_in_seed(tri):
    a = sample_realization(tri, IC, 5)
    b = sample_realization(tri, IC, 5)
    np.testing.assert_array_equal(a.live_fwd, b.live_fwd)
    c = sample_realization(tri, LT, 5)
    d = sample_realization(tri, LT, 5)
    np.testing.assert_array_equal(c.live_fwd, d.live_fwd)


def test_ic_live_frequency_matches_p(tri):
    """Each edge is live with probability p(e) (statistical)."""
    n_trials = 4000
    live = np.zeros(tri.m)
    for s in range(n_trials):
        live += sample_realization(tri, IC, s).live_fwd
    freq = live / n_trials
    np.testing.assert_allclose(freq, tri.fwd_probs, atol=0.04)


def test_lt_exactly_one_in_edge_when_weights_sum_to_one(tri):
    """Under WC the in-weights of each non-source node sum to 1, so the
    LT live-edge process picks exactly one in-edge for it."""
    for s in range(50):
        real = sample_realization(tri, LT, s)
        np.testing.assert_array_equal(live_in_count(tri, real), tri.indeg > 0)


def test_lt_choice_distribution_uniform(tri):
    """WC in-weights are equal, so the chosen in-neighbor is uniform."""
    n_trials = 4000
    counts = {1: 0, 2: 0}
    for s in range(n_trials):
        real = sample_realization(tri, LT, s)
        (src,) = [u for u in (1, 2) if real.is_live(u, 0)]
        counts[src] += 1
    assert counts[1] / n_trials == pytest.approx(0.5, abs=0.04)


def test_live_edges_pdf_ic(tri):
    real = sample_realization(tri, IC, 3)
    pdf = real.live_edges_pdf()
    assert len(pdf) == int(real.live_fwd.sum())
    for row in pdf.itertuples():
        assert real.is_live(row.src, row.dst)


def test_live_edges_pdf_lt(tri):
    real = sample_realization(tri, LT, 3)
    pdf = real.live_edges_pdf()
    # One live in-edge per node with indeg > 0.
    assert len(pdf) == int((tri.indeg > 0).sum())
    for row in pdf.itertuples():
        assert real.is_live(row.src, row.dst)


def test_is_live_raises_for_missing_edge(tri):
    real = sample_realization(tri, IC, 0)
    with pytest.raises(KeyError):
        real.is_live(2, 1)


def test_unknown_model_rejected(tri):
    with pytest.raises(ValueError):
        sample_realization(tri, "SIR", 0)


def test_lt_pick_frequencies_match_weights():
    """Node 0's in-weights are 0.25 (from 1) and 0.75 (from 2). The forward
    realization and the reverse RR BFS both keep 1 → 0 a quarter of the
    time."""
    edges = pd.DataFrame({"src": [1, 2], "dst": [0, 0]})
    g = GraphCSR.from_edges(edges, n=3, probs=np.array([0.25, 0.75]))
    n_trials = 4000
    fwd = sum(sample_realization(g, LT, s).is_live(1, 0) for s in range(n_trials))
    assert fwd / n_trials == pytest.approx(0.25, abs=0.04)
    # Only sets rooted at 0 have two members: 0 and its chosen in-neighbour.
    indptr, members = sample_pool(g, np.ones(3, bool), 1, LT, 3 * n_trials, 0, roots="rr")
    sizes = np.diff(indptr)
    rev = members[np.repeat(sizes == 2, sizes)]
    assert (rev == 1).sum() / (sizes == 2).sum() == pytest.approx(0.25, abs=0.04)


def test_lt_respects_partial_weights():
    """With damped weights (sum < 1) some nodes legitimately pick no edge,
    and none keeps more than one."""
    edges = pd.DataFrame({"src": [1, 2], "dst": [0, 0]})
    g = GraphCSR.from_edges(edges, n=3, wc_scale=0.4)
    none = 0
    n_trials = 2000
    for s in range(n_trials):
        real = sample_realization(g, LT, s)
        live_in = live_in_count(g, real)
        assert live_in.max() <= 1
        if live_in[0] == 0:
            none += 1
    assert none / n_trials == pytest.approx(0.6, abs=0.05)


def test_lt_rejects_in_weights_above_one():
    """Explicit in-weights 0.8 + 0.8 into node 0 are valid IC
    probabilities but no LT distribution."""
    edges = pd.DataFrame({"src": [1, 2], "dst": [0, 0]})
    g = GraphCSR.from_edges(edges, n=3, probs=np.array([0.8, 0.8]))
    sample_realization(g, IC, 0)
    with pytest.raises(ValueError, match="sum to"):
        sample_realization(g, LT, 0)
