"""Benchmark + regeneration of the Figure 8 data (spread distribution).

ASTI vs ATEUC achieved spread over realizations on nethept_lite: the
adaptive runs always reach η and hug it; the non-adaptive set misses η
on some realizations and overshoots on others (paper §6.4).
"""
from repro.experiments.tables import runs, save_table

N_REALIZATIONS = 10


def test_fig8(benchmark):
    result = {}

    def run():
        result["pdf"] = runs(
            datasets=["nethept_lite"],
            models=("IC", "LT"),
            algos=("asti", "ateuc"),
            n_realizations=N_REALIZATIONS,
            fracs=[0.1],
        )
        return result["pdf"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    pdf = result["pdf"]
    save_table("fig8_spread", pdf)
    asti_rows = pdf[pdf.algo == "asti"]
    assert (asti_rows["spread"] >= asti_rows["eta"]).all()
