"""Weakly-connected-components (LWCC, Table 2) vs local union-find oracle."""
import pandas as pd
import pytest

import repro.graphs.components as components
from repro.graphs.components import (
    components_local,
    components_spark,
    lwcc_size_local,
    lwcc_size_spark,
)
from repro.graphs.generator import dataset_graph, social_graph
from repro.oracle import assert_equivalent


def _edges(pairs):
    return pd.DataFrame({"src": [a for a, _ in pairs], "dst": [b for _, b in pairs]})


def test_two_components_local():
    comp = components_local(_edges([(0, 1), (1, 2), (3, 4)]), 5)
    assert comp.tolist() == [0, 0, 0, 3, 3]


def test_direction_ignored_local():
    comp = components_local(_edges([(2, 0), (1, 2)]), 3)
    assert comp.tolist() == [0, 0, 0]


def test_lwcc_local_counts_present_nodes_only():
    # Node 5 exists in the id space but has no edges.
    assert lwcc_size_local(_edges([(0, 1), (3, 4)]), 6) == 2


@pytest.mark.parametrize(
    "pairs,n,expected_lwcc",
    [
        ([(0, 1), (1, 2), (3, 4)], 5, 3),
        ([(0, 1), (2, 3), (3, 4), (4, 2)], 5, 3),
        ([(i, i + 1) for i in range(9)], 10, 10),
        ([(0, i) for i in range(1, 8)], 8, 8),  # star
    ],
)
def test_lwcc_spark_handcrafted(spark, pairs, n, expected_lwcc):
    df = spark.createDataFrame(_edges(pairs))
    assert lwcc_size_spark(df) == expected_lwcc
    assert lwcc_size_local(_edges(pairs), n) == expected_lwcc


def test_components_spark_raises_when_not_converged(spark, monkeypatch):
    """The 10-node path needs 10 rounds; stopping after 3 would leave
    labels that are not the component minimum."""
    monkeypatch.setattr(components, "MAX_ITER", 3)
    df = spark.createDataFrame(_edges([(i, i + 1) for i in range(9)]))
    with pytest.raises(RuntimeError, match="converge"):
        components_spark(df)


@pytest.mark.parametrize("seed", [0, 1])
def test_components_spark_vs_union_find(spark, seed):
    edges = social_graph(n=120, avg_deg=2.2, directed=True, seed=seed)
    comp = components_local(edges, 120)
    oracle = pd.DataFrame({"node": range(120), "component": comp})
    # Restrict the oracle to nodes that appear in the edge list (the
    # Spark version labels only those).
    present = sorted(set(edges["src"]) | set(edges["dst"]))
    oracle = oracle[oracle["node"].isin(present)]
    got = components_spark(spark.createDataFrame(edges))
    assert_equivalent(got, "SELECT node, component FROM oracle", oracle=oracle)


def test_lwcc_spark_vs_local_on_dataset(spark):
    edges = dataset_graph("nethept_lite")
    got = lwcc_size_spark(spark.createDataFrame(edges[["src", "dst"]]))
    assert got == lwcc_size_local(edges, 1200)
