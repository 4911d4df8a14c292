"""ATEUC and ADAPTIM baselines (paper §6.1 comparators)."""
import numpy as np
import pytest

from repro.baselines.adaptim import adaptim
from repro.baselines.ateuc import SAFETY_MARGIN, ateuc
from repro.core.asti import asti
from repro.core.trim import greedy_max_coverage
from repro.diffusion.propagate import spread_local
from repro.diffusion.realization import IC, LT, sample_realization
from tests.pools import csr_pool


@pytest.mark.parametrize("model", [IC, LT])
def test_ateuc_returns_plausible_set(small_cl_graph, model):
    g = small_cl_graph
    res = ateuc(None, g, 30, model, seed=1)
    assert res.n_seeds >= 1
    assert len(set(res.seeds)) == res.n_seeds
    assert all(0 <= v < g.n for v in res.seeds)
    assert res.est_spread >= SAFETY_MARGIN * 30 * 0.9


def test_ateuc_deterministic(small_cl_graph):
    g = small_cl_graph
    a = ateuc(None, g, 25, IC, seed=2)
    b = ateuc(None, g, 25, IC, seed=2)
    assert a.seeds == b.seeds


def test_ateuc_seed_count_monotone_in_eta(small_cl_graph):
    g = small_cl_graph
    lo = ateuc(None, g, 15, IC, seed=3)
    hi = ateuc(None, g, 60, IC, seed=3)
    assert hi.n_seeds >= lo.n_seeds


def test_ateuc_nonadaptive_can_miss_threshold(small_cl_graph):
    """The paper's §6.4 point: a set with E[I(S)] ≥ η still misses η on
    some realizations — the source of Table 3's N/A entries."""
    g = small_cl_graph
    eta = 20
    res = ateuc(None, g, eta, IC, seed=4)
    spreads = [
        len(spread_local(sample_realization(g, IC, s), res.seeds))
        for s in range(40)
    ]
    assert np.mean(spreads) >= eta * 0.8, "expected spread near target"
    assert min(spreads) < eta, "some realization under-shoots"
    assert max(spreads) >= eta, "some realization qualifies"


def test_ateuc_candidate_invariant(small_cl_graph):
    g = small_cl_graph
    res = ateuc(None, g, 30, IC, seed=5)
    assert res.sl_size <= res.n_seeds


def test_ateuc_eta_validation(small_cl_graph):
    with pytest.raises(ValueError):
        ateuc(None, small_cl_graph, 0, IC)


def test_greedy_coverage_curve_monotone():
    sets = [np.array([0, 1]), np.array([1]), np.array([2]), np.array([3])]
    picks, curve = greedy_max_coverage(*csr_pool(sets), 5, 5)
    assert curve == sorted(curve)
    assert curve[-1] == 4
    assert picks[0] == 1  # covers two sets


@pytest.mark.parametrize("model", [IC, LT])
def test_adaptim_reaches_threshold(small_cl_graph, model):
    g = small_cl_graph
    res = adaptim(None, g, 25, model, 1, eps=0.5, seed=6)
    assert res.spread >= 25


def test_adaptim_uses_more_samples_than_asti(small_cl_graph):
    """The paper's efficiency argument: untruncated RR selection needs
    ~n_i/OPT′ samples vs TRIM's ~η_i/OPT — ADAPTIM generates more sets
    for the same run."""
    g = small_cl_graph
    eta = 30
    a = asti(None, g, eta, IC, 2, eps=0.5, seed=7)
    d = adaptim(None, g, eta, IC, 2, eps=0.5, seed=7)
    sets_asti = sum(r.n_sets for r in a.rounds) / len(a.rounds)
    sets_adaptim = sum(r.n_sets for r in d.rounds) / len(d.rounds)
    assert sets_adaptim > sets_asti


def test_adaptim_seed_count_comparable_to_asti(small_cl_graph):
    """Fig. 4/6: ADAPTIM's seed counts are close to ASTI's."""
    g = small_cl_graph
    eta = 30
    a = asti(None, g, eta, IC, 3, eps=0.5, seed=8)
    d = adaptim(None, g, eta, IC, 3, eps=0.5, seed=8)
    assert d.n_seeds <= 2 * a.n_seeds + 2
