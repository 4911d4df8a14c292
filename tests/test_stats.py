"""Graph statistics vs the DuckDB oracle (Table 2 inputs)."""
import pytest

from repro.graphs.generator import DATASETS, dataset_graph
from repro.graphs.stats import degree_stats, edges_df
from repro.oracle import assert_equivalent

# Smaller datasets only — oracle tests collect to the driver anyway.
NAMES = ["nethept_lite", "epinions_lite"]


@pytest.mark.parametrize("name", NAMES)
def test_degree_stats_oracle(spark, name):
    spec = DATASETS[name]
    edges = dataset_graph(name)
    div = 1 if spec.directed else 2
    got = degree_stats(edges_df(spark, edges), directed=spec.directed)
    sql = f"""
        WITH nodes AS (
            SELECT src AS node FROM edges UNION SELECT dst FROM edges
        )
        SELECT (SELECT count(*) FROM nodes) AS n,
               CAST((SELECT count(*) FROM edges) / {div} AS BIGINT) AS m,
               2.0 * ((SELECT count(*) FROM edges) / {div})
                   / (SELECT count(*) FROM nodes) AS avg_deg
    """
    assert_equivalent(got, sql, edges=edges)


@pytest.mark.parametrize("name", NAMES)
def test_degree_stats_values(spark, name):
    spec = DATASETS[name]
    row = degree_stats(
        edges_df(spark, dataset_graph(name)), directed=spec.directed
    ).collect()[0]
    assert row["n"] == spec.n
    assert float(row["avg_deg"]) == pytest.approx(spec.avg_deg, rel=0.15)
