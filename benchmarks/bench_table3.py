"""Benchmark + regeneration of paper Table 3, IC and LT (all datasets)."""
import pytest

from repro.experiments.tables import runs, save_table, table3
from repro.graphs.generator import DATASETS

N_REALIZATIONS = 3


@pytest.mark.parametrize("model", ["IC", "LT"])
def test_table3(benchmark, model):
    result = {}

    def run():
        result["runs"] = runs(
            datasets=list(DATASETS),
            models=(model,),
            algos=("asti", "ateuc"),
            n_realizations=N_REALIZATIONS,
        )
        return result["runs"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    pdf = result["runs"]
    t3 = table3(pdf)
    name = f"table3_{model.lower()}"
    save_table(name, t3)
    save_table(f"{name}_runs", pdf)
    assert len(t3) == 4  # one row per dataset
    # ASTI rows always meet the threshold (ASM contract).
    assert pdf[pdf.algo == "asti"]["meets_threshold"].all()
