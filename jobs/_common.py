"""Shared session/bootstrapping for spark-submit entrypoints.

Each job builds its own SparkSession (jobs are standalone processes;
tests instead use the session-scoped ``spark`` fixture) and writes its
result table under ``results/`` with ``repro.experiments.tables.save_table``.
"""
import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s

