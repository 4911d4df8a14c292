"""Experiment harness: cell runner, realization protocol, record schema."""
import numpy as np
import pytest

from repro.experiments import harness
from repro.experiments.harness import (
    ALGOS,
    eta_fracs,
    realization_seed,
    run_cell,
)
from repro.graphs.csr import GraphCSR
from repro.graphs.generator import social_graph


@pytest.fixture(scope="module")
def g_small():
    edges = social_graph(n=150, avg_deg=5.0, directed=True, seed=11)
    return GraphCSR.from_edges(edges, n=150, wc_scale=0.6)


def test_realization_seed_stable_and_distinct():
    a = realization_seed("nethept_lite", "IC", 0)
    assert a == realization_seed("nethept_lite", "IC", 0)
    assert a != realization_seed("nethept_lite", "IC", 1)
    assert a != realization_seed("nethept_lite", "LT", 0)
    assert a != realization_seed("epinions_lite", "IC", 0)


def test_eta_fracs_grids():
    assert eta_fracs("nethept_lite") == [0.01, 0.05, 0.1, 0.15, 0.2]
    assert eta_fracs("livejournal_lite") == [0.01, 0.02, 0.03, 0.04, 0.05]


def test_unknown_algo_rejected(g_small):
    with pytest.raises(ValueError):
        run_cell("x", "IC", "magic", 0.1, g=g_small)


@pytest.mark.parametrize("algo", ["asti", "asti-2"])
def test_adaptive_cell_records(g_small, algo):
    recs = run_cell(
        "tiny", "IC", algo, 0.1, n_realizations=2, g=g_small
    )
    assert len(recs) == 2
    for i, r in enumerate(recs):
        assert r.realization == i
        assert r.algo == algo and r.model == "IC" and r.dataset == "tiny"
        assert r.eta == 15
        assert r.spread >= r.eta and r.meets_threshold
        assert r.n_seeds >= 1 and r.time_s > 0


def test_ateuc_cell_selects_once(g_small):
    recs = run_cell(
        "tiny", "IC", "ateuc", 0.1, n_realizations=3, g=g_small
    )
    assert len(recs) == 3
    # One non-adaptive selection: same seed count and selection time.
    assert len({r.n_seeds for r in recs}) == 1
    assert len({r.time_s for r in recs}) == 1
    # Spread varies by realization; meets_threshold reflects each one.
    for r in recs:
        assert r.meets_threshold == (r.spread >= r.eta)


def test_adaptive_meets_threshold_always(g_small):
    recs = run_cell(
        "tiny", "LT", "asti", 0.15, n_realizations=2, g=g_small
    )
    assert all(r.meets_threshold for r in recs)


def test_algos_registry():
    assert set(ALGOS) == {"asti", "asti-2", "asti-4", "asti-8", "adaptim", "ateuc"}


def test_adaptim_cell_runs(g_small):
    recs = run_cell("tiny", "IC", "adaptim", 0.1, n_realizations=1, g=g_small)
    assert recs[0].meets_threshold


def test_ateuc_thresholds_read_their_own_streams(g_small, monkeypatch):
    """Two thresholds pass ATEUC different seeds, each a one-key path
    (η), so its sets come from (η, block) paths, never from an adaptive
    run's (realization, round, block) paths."""
    seeds = {}
    ateuc = harness.ateuc

    def spy(spark, g, eta, model, *, seed):
        seeds[eta] = seed
        return ateuc(spark, g, eta, model, seed=seed)

    monkeypatch.setattr(harness, "ateuc", spy)
    for frac in (0.1, 0.2):
        run_cell("tiny", "IC", "ateuc", frac, n_realizations=1, g=g_small)
    assert [ss.spawn_key for ss in seeds.values()] == [(15,), (30,)]
    a, b = (ss.generate_state(4) for ss in seeds.values())
    assert not np.array_equal(a, b)
