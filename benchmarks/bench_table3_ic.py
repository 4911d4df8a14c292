"""Benchmark + regeneration of paper Table 3, IC model (all datasets)."""
from repro.experiments.tables import runs, save_table, table3
from repro.graphs.generator import DATASETS

N_REALIZATIONS = 3


def test_table3_ic(benchmark, spark):
    result = {}

    def run():
        result["runs"] = runs(
            spark,
            datasets=list(DATASETS),
            models=("IC",),
            algos=("asti", "ateuc"),
            n_realizations=N_REALIZATIONS,
        )
        return result["runs"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    pdf = result["runs"]
    t3 = table3(pdf)
    save_table("table3_ic", t3)
    save_table("table3_ic_runs", pdf)
    assert len(t3) == 4  # one row per dataset
    # ASTI rows always meet the threshold (ASM contract).
    assert pdf[pdf.algo == "asti"]["meets_threshold"].all()
