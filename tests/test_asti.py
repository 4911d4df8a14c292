"""ASTI (paper Algorithm 1): the adaptive select-observe-update loop."""
import numpy as np
import pytest

from repro.core.asti import asti
from repro.diffusion.propagate import spread_local
from repro.diffusion.realization import IC, LT, sample_realization


@pytest.mark.parametrize("model", [IC, LT])
@pytest.mark.parametrize("rseed", [0, 1, 2])
def test_always_reaches_threshold(small_cl_graph, model, rseed):
    """The ASM contract: the returned seed set influences ≥ η nodes on
    the actual realization — the paper's core qualitative claim."""
    g = small_cl_graph
    eta = 30
    res = asti(None, g, eta, model, rseed, eps=0.5, seed=1)
    assert res.spread >= eta
    assert res.n_seeds >= 1


@pytest.mark.parametrize("model", [IC, LT])
def test_replay_matches_reported_spread(small_cl_graph, model):
    """Replaying the returned seeds on the same realization reproduces
    the reported spread exactly."""
    g = small_cl_graph
    res = asti(None, g, 25, model, 7, eps=0.5, seed=2)
    real = sample_realization(g, model, 7)
    assert len(spread_local(real, res.seeds)) == res.spread


def test_round_bookkeeping(small_cl_graph):
    g = small_cl_graph
    res = asti(None, g, 40, IC, 3, eps=0.5, seed=3)
    assert sum(r.observed_gain for r in res.rounds) == res.spread
    # η_i and n_i strictly decrease (every round activates ≥ 1 node).
    etas = [r.eta_i for r in res.rounds]
    nis = [r.n_i for r in res.rounds]
    assert all(x > y for x, y in zip(etas, etas[1:]))
    assert all(x > y for x, y in zip(nis, nis[1:]))
    assert etas[0] == 40 and nis[0] == g.n
    assert res.total_time_s >= sum(r.time_s for r in res.rounds) * 0.5


def test_seed_count_monotone_in_eta(small_cl_graph):
    g = small_cl_graph
    small = asti(None, g, 15, IC, 5, eps=0.5, seed=4)
    large = asti(None, g, 60, IC, 5, eps=0.5, seed=4)
    assert large.n_seeds >= small.n_seeds


@pytest.mark.parametrize("b", [2, 4])
def test_batched_runs_reach_threshold(small_cl_graph, b):
    g = small_cl_graph
    res = asti(None, g, 40, IC, 6, eps=0.5, b=b, seed=5)
    assert res.spread >= 40
    assert res.b == b
    # Every round placed exactly b seeds (fixed batch size, paper §4).
    for r in res.rounds:
        assert len(r.nodes) == min(b, r.n_i)
    assert res.n_seeds == sum(len(r.nodes) for r in res.rounds)


def test_batching_reduces_rounds(small_cl_graph):
    g = small_cl_graph
    r1 = asti(None, g, 50, IC, 8, eps=0.5, b=1, seed=6)
    r4 = asti(None, g, 50, IC, 8, eps=0.5, b=4, seed=6)
    assert len(r4.rounds) < len(r1.rounds)


def test_seeds_are_distinct_and_valid(small_cl_graph):
    g = small_cl_graph
    res = asti(None, g, 35, IC, 9, eps=0.5, seed=7)
    assert len(set(res.seeds)) == len(res.seeds)
    assert all(0 <= v < g.n for v in res.seeds)


def test_eta_validation(small_cl_graph):
    g = small_cl_graph
    with pytest.raises(ValueError):
        asti(None, g, 0, IC, 0)
    with pytest.raises(ValueError):
        asti(None, g, g.n + 1, IC, 0)


def test_eta_equals_n_terminates(line_graph):
    """η = n on a deterministic line: one seed (node 0) suffices."""
    res = asti(None, line_graph, 5, IC, 0, eps=0.5, seed=8)
    assert res.spread == 5
    assert res.n_seeds >= 1


def test_custom_selector_hook(small_cl_graph):
    """ASTI accepts a pluggable selector (how ADAPTIM is wired in)."""
    g = small_cl_graph
    calls = []

    def worst_selector(g_, active, eta_i, model, eps, seed):
        v = int(np.nonzero(active)[0][0])
        calls.append(v)
        return [v], 0

    res = asti(None, g, 10, IC, 1, selector=worst_selector, seed=9)
    assert res.spread >= 10
    assert res.seeds == calls


def test_realization_override(small_cl_graph):
    g = small_cl_graph
    real = sample_realization(g, IC, 123)
    res = asti(None, g, 20, IC, 999, realization=real, seed=10)
    assert len(spread_local(real, res.seeds)) == res.spread


def test_realization_model_mismatch_rejected(small_cl_graph):
    g = small_cl_graph
    real = sample_realization(g, IC, 1)
    with pytest.raises(ValueError):
        asti(None, g, 10, LT, 1, realization=real)


def test_adaptive_spread_stays_close_to_eta(small_cl_graph):
    """§6.4: adaptive runs rarely overshoot by much — the final spread is
    η plus at most the last batch's cascade."""
    g = small_cl_graph
    res = asti(None, g, 50, IC, 11, eps=0.5, seed=11)
    last_gain = res.rounds[-1].observed_gain
    assert res.spread - 50 < last_gain
