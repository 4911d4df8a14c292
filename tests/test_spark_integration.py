"""Distributed-path integration: Spark fan-out inside TRIM (any b) and ASTI.

The production threshold only engages executors for large batches; here
we force the Spark branch (monkeypatched threshold) and assert it makes
the same kind of decisions as the local branch.
"""
import importlib

import numpy as np
import pytest

# repro.core/__init__ re-exports functions named like the submodules, so
# plain attribute imports would resolve to the functions; go via
# importlib to get the modules for monkeypatching.
trim_mod = importlib.import_module("repro.core.trim")
from repro.core.asti import asti
from repro.core.trim import trim
from repro.diffusion.realization import IC
from repro.sampling.mrr import sample_sets_local, sample_sets_pairs


@pytest.fixture()
def force_spark(monkeypatch):
    monkeypatch.setattr(trim_mod, "SPARK_MIN_SETS", 1)


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


def test_spark_and_local_sampling_statistically_agree(spark, small_cl_graph):
    """Coverage frequencies from the executor path match the local path
    (same sampler, different venue)."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    n_sets = 1500
    local = sample_sets_local(g, active, 15, IC, n_sets, seed=20)
    cov_local = np.zeros(g.n)
    for _, m in local:
        cov_local[m] += 1
    pairs = sample_sets_pairs(spark, g, active, 15, IC, n_sets, seed=21).toPandas()
    cov_spark = np.zeros(g.n)
    np.add.at(cov_spark, pairs["node"].to_numpy(), 1)
    top_local = set(np.argsort(-cov_local)[:5].tolist())
    top_spark = set(np.argsort(-cov_spark)[:5].tolist())
    assert len(top_local & top_spark) >= 3
    # Overall hit mass within 15%.
    assert cov_spark.sum() == pytest.approx(cov_local.sum(), rel=0.15)


def test_trim_spark_decision_matches_local_quality(spark, small_cl_graph, force_spark):
    g = small_cl_graph
    res_spark = trim(spark, g, np.ones(g.n, bool), 12, IC, eps=0.5, seed=5)
    res_local = trim(None, g, np.ones(g.n, bool), 12, IC, eps=0.5, seed=5)
    # Both pick a top hub (same graph, same schedule); accept any node
    # whose out-degree is within the top decile to absorb sampling noise.
    cutoff = np.quantile(g.outdeg, 0.9)
    assert g.outdeg[res_spark.nodes[0]] >= cutoff
    assert g.outdeg[res_local.nodes[0]] >= cutoff
