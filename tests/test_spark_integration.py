"""Distributed-path integration: Spark fan-out inside TRIM (any b) and ASTI.

The production threshold (``repro.sampling.mrr.SPARK_MIN_MEMBERS``)
only engages executors for calls estimated at millions of members; here
we force the Spark venue (the threshold monkeypatched to 0) and assert
that ``sample_pool`` returns the local venue's CSR pool byte for byte,
so every selector picks the same seeds on either venue.
"""
import numpy as np
import pytest

import repro.sampling.mrr as mrr
from repro.baselines.adaptim import adaptim
from repro.baselines.ateuc import ateuc
from repro.core.asti import asti
from repro.core.trim import trim
from repro.diffusion.realization import IC, LT
from repro.sampling.mrr import BLOCK, sample_pool


@pytest.fixture()
def force_spark(monkeypatch):
    monkeypatch.setattr(mrr, "SPARK_MIN_MEMBERS", 0)


def test_trim_spark_branch(spark, small_cl_graph, force_spark):
    g = small_cl_graph
    res = trim(spark, g, np.ones(g.n, bool), 15, IC, eps=0.5, seed=1)
    assert 0 <= res.nodes[0] < g.n
    assert res.n_sets > 0


def test_trim_b_spark_branch(spark, small_cl_graph, force_spark):
    g = small_cl_graph
    res = trim(spark, g, np.ones(g.n, bool), 15, IC, eps=0.5, seed=2, b=3)
    assert len(res.nodes) == 3


def test_asti_with_spark_fanout(spark, small_cl_graph, force_spark):
    g = small_cl_graph
    res = asti(spark, g, 20, IC, 4, eps=0.5, seed=3)
    assert res.spread >= 20


@pytest.mark.parametrize("n_sets", [64, 513, 700])
@pytest.mark.parametrize("roots", ["mrr", "rr"])
@pytest.mark.parametrize("model", [IC, LT])
def test_spark_and_local_pools_identical(spark, small_cl_graph, force_spark, model, roots, n_sets):
    """Same seed, same sets: block j of the pool is seeded by (seed, j)
    alone, whichever venue samples it and however it is partitioned."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[::7] = False
    eta_i = 15 if roots == "mrr" else 1
    indptr_l, members_l = sample_pool(None, g, active, eta_i, model, n_sets, 21, roots=roots)
    indptr_s, members_s = sample_pool(spark, g, active, eta_i, model, n_sets, 21, roots=roots)
    np.testing.assert_array_equal(indptr_s, indptr_l)
    np.testing.assert_array_equal(members_s, members_l)


@pytest.mark.parametrize("n_sets,first_block", [(700, 1), (4 * BLOCK, 2), (3 * BLOCK + 1, 3)])
@pytest.mark.parametrize("roots", ["mrr", "rr"])
@pytest.mark.parametrize("model", [IC, LT])
def test_pools_from_a_later_block_identical(spark, small_cl_graph, force_spark, model, roots, n_sets, first_block):
    """A call that starts at block ``first_block`` gives, on either venue,
    sets ``first_block·BLOCK …`` of the whole call's pool."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[::7] = False
    eta_i = 15 if roots == "mrr" else 1
    indptr, members = sample_pool(None, g, active, eta_i, model, n_sets, 21, roots=roots)
    start = first_block * BLOCK
    want = (indptr[start:] - indptr[start], members[indptr[start] :])
    for venue in (None, spark):
        got = sample_pool(venue, g, active, eta_i, model, n_sets, 21, roots=roots, first_block=first_block)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda sp, g: trim(sp, g, np.ones(g.n, bool), 12, IC, 0.5, 5).nodes, id="trim"),
        pytest.param(lambda sp, g: trim(sp, g, np.ones(g.n, bool), 12, IC, 0.5, 5, b=3).nodes, id="trim-b3"),
        pytest.param(lambda sp, g: asti(sp, g, 25, IC, 4, seed=6).seeds, id="asti"),
        pytest.param(lambda sp, g: adaptim(sp, g, 20, LT, 4, seed=7).seeds, id="adaptim"),
        pytest.param(lambda sp, g: ateuc(sp, g, 60, LT, seed=8).seeds, id="ateuc"),
    ],
)
def test_spark_and_local_pick_identical_seeds(spark, small_cl_graph, force_spark, run):
    g = small_cl_graph
    assert run(spark, g) == run(None, g)
