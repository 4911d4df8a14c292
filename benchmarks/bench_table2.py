"""Benchmark + regeneration of paper Table 2 (dataset details)."""
from repro.experiments.tables import save_table, table2


def test_table2(benchmark, spark):
    result = {}

    def run():
        result["pdf"] = table2(spark)
        return result["pdf"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    pdf = result["pdf"]
    save_table("table2", pdf)
    assert len(pdf) == 4
    assert (pdf["lwcc_size"] <= pdf["n"]).all()
