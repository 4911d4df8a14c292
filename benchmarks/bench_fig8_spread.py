"""Benchmark + regeneration of the Figure 8 data (spread distribution).

ASTI vs ATEUC achieved spread over realizations on nethept_lite: the
adaptive runs always reach η and hug it; the non-adaptive set misses η
on some realizations and overshoots on others (paper §6.4).
"""
from repro.experiments.tables import fig8_spread, save_table

N_REALIZATIONS = 10


def test_fig8_spread(benchmark, spark):
    result = {}

    def run():
        result["pdf"] = fig8_spread(
            spark,
            dataset="nethept_lite",
            models=("IC", "LT"),
            eta_frac=0.1,
            n_realizations=N_REALIZATIONS,
        )
        return result["pdf"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    pdf = result["pdf"]
    save_table("fig8_spread", pdf)
    asti_rows = pdf[pdf.algo == "asti"]
    assert (asti_rows["spread"] >= asti_rows["eta"]).all()
