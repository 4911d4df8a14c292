"""Graph statistics for Table 2 (n, m and average degree).

All statistics are computed with the DataFrame API so they are
oracle-checkable against DuckDB SQL over the same edge list.
"""
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession


def edges_df(spark: SparkSession, edges: pd.DataFrame) -> DataFrame:
    """Lift a pandas edge list into a Spark DataFrame."""
    return spark.createDataFrame(edges[["src", "dst"]])


def degree_stats(edges: DataFrame, *, directed: bool) -> DataFrame:
    """n, m and average degree as reported in paper Table 2.

    ``m`` counts undirected edges for undirected graphs (the edge list
    stores both directions, so we halve), and directed edges otherwise.
    Average degree is ``2m/n`` in both cases, matching the paper.
    """
    nodes = (
        edges.select(F.col("src").alias("node"))
        .union(edges.select(F.col("dst").alias("node")))
        .distinct()
    )
    div = 2 if not directed else 1
    return nodes.agg(F.count("*").alias("n")).crossJoin(
        edges.agg((F.count("*") / div).cast("long").alias("m"))
    ).select(
        "n",
        "m",
        (F.lit(2.0) * F.col("m") / F.col("n")).alias("avg_deg"),
    )
