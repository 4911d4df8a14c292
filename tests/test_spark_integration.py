"""The Spark venue, ``sample_sets_pairs``, draws ``sample_pool``'s sets.

On one host the driver is the sampling venue (``BENCH_venue.json``):
every selector reads ``sample_pool``, which never touches Spark. Its
membership rows, collected, come back in non-decreasing ``set_id``
order and are the driver's CSR pool byte for byte, for IC and LT, mRR
and RR sets, a partial last block and calls from a later block. The
policies keep ``spark`` as their first parameter, unused: a live session
gives the picks that ``None`` gives.
"""
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.adaptim import adaptim
from repro.baselines.ateuc import ateuc
from repro.core.asti import asti
from repro.diffusion.realization import IC, LT
from repro.sampling.mrr import BLOCK, SETS_PER_TASK, sample_pool, sample_sets_pairs
from tests.pools import spark_pool


@pytest.mark.parametrize("n_sets", [64, 513, 700])
@pytest.mark.parametrize("roots", ["mrr", "rr"])
@pytest.mark.parametrize("model", [IC, LT])
def test_spark_and_local_pools_identical(spark, small_cl_graph, model, roots, n_sets):
    """Same seed, same sets: block j of the pool is seeded by (seed, j)
    alone, whichever venue samples it and however it is partitioned."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[::7] = False
    eta_i = 15 if roots == "mrr" else 1
    indptr_l, members_l = sample_pool(g, active, eta_i, model, n_sets, 21, roots=roots)
    indptr_s, members_s = spark_pool(spark, g, active, eta_i, model, n_sets, 21, roots=roots)
    np.testing.assert_array_equal(indptr_s, indptr_l)
    np.testing.assert_array_equal(members_s, members_l)


def test_venue_sizes_its_tasks_by_sets(spark, small_cl_graph):
    """The Spark venue runs at most one task per ``SETS_PER_TASK`` sets
    the call draws, whatever the block size, and at most
    ``2·defaultParallelism``."""
    g = small_cl_graph
    active = np.ones(g.n, bool)

    def tasks(n_sets, first_block=0):
        pairs = sample_sets_pairs(spark, g, active, 1, IC, n_sets, 3, roots="rr", first_block=first_block)
        return pairs.rdd.getNumPartitions()

    assert tasks(64) == 1
    assert tasks(SETS_PER_TASK + 1) == 2
    assert tasks(SETS_PER_TASK + BLOCK, first_block=1) == 1
    assert tasks(100 * SETS_PER_TASK) == 2 * spark.sparkContext.defaultParallelism


# At any power-of-two BLOCK up to 256, 1024 sets fill whole blocks and
# 769 end in a block of one set.
@pytest.mark.parametrize("n_sets,first_block", [(700, 1), (1024, 2), (769, 3)])
@pytest.mark.parametrize("roots", ["mrr", "rr"])
@pytest.mark.parametrize("model", [IC, LT])
def test_pools_from_a_later_block_identical(spark, small_cl_graph, model, roots, n_sets, first_block):
    """A call that starts at block ``first_block`` gives, on either venue,
    sets ``first_block·BLOCK …`` of the whole call's pool."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[::7] = False
    eta_i = 15 if roots == "mrr" else 1
    indptr, members = sample_pool(g, active, eta_i, model, n_sets, 21, roots=roots)
    start = first_block * BLOCK
    want = (indptr[start:] - indptr[start], members[indptr[start] :])
    for got in (
        sample_pool(g, active, eta_i, model, n_sets, 21, roots=roots, first_block=first_block),
        spark_pool(spark, g, active, eta_i, model, n_sets, 21, roots=roots, first_block=first_block),
    ):
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda sp, g: asti(sp, g, 25, IC, 4, seed=6).seeds, id="asti"),
        pytest.param(lambda sp, g: adaptim(sp, g, 20, LT, 4, seed=7).seeds, id="adaptim"),
        pytest.param(lambda sp, g: ateuc(sp, g, 60, LT, seed=8).seeds, id="ateuc"),
    ],
)
def test_spark_and_local_pick_identical_seeds(spark, small_cl_graph, run):
    g = small_cl_graph
    assert run(spark, g) == run(None, g)


def test_venue_crossover_runs(spark, monkeypatch):
    """``benchmarks/venue_crossover.py``, cut down to one small cell, times
    both venues on the session and fits its document."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import venue_crossover as vc

    monkeypatch.setattr(vc, "DATASETS", ("nethept_lite",))
    monkeypatch.setattr(vc, "MODES", (("mrr", 0.1),))
    monkeypatch.setattr(vc, "SET_COUNTS", (BLOCK + 5,))
    monkeypatch.setattr(vc, "LARGE_CELLS", ())
    monkeypatch.setattr(vc, "RUNS", 1)
    [cell] = vc.measure(spark)
    assert (cell["dataset"], cell["roots"], cell["eta_i"], cell["n_sets"]) == ("nethept_lite", "mrr", 120, BLOCK + 5)
    assert cell["members"] > BLOCK + 5
    assert len(cell["local_runs_s"]) == len(cell["spark_runs_s"]) == 1
    assert vc.fit([cell]) == {"lines": None, "crossover_members": None, "spark_wins": int(cell["spark_s"] < cell["local_s"])}
