"""Table builders (Table 2, the runs frame, Table 3 and sweep views).

The ``runs`` tests run the algorithms on nethept_lite; the ``table3``
and ``sweep`` view tests use hand-built runs frames, so they check the
arithmetic without running an algorithm or Spark.
"""
from dataclasses import asdict, fields

import pandas as pd
import pytest

from repro.experiments.harness import RunRecord
from repro.experiments.tables import runs, sweep, table2, table3
from repro.graphs.generator import DATASETS


@pytest.fixture(scope="module")
def t2(spark):
    return table2(spark, datasets=["nethept_lite", "epinions_lite"])


@pytest.fixture(scope="module")
def mini_runs():
    return runs(
        datasets=["nethept_lite"],
        models=("IC",),
        algos=("asti", "ateuc"),
        n_realizations=2,
        fracs=[0.05],
    )


def frame(*cells):
    """A runs frame: one row per realization of each cell.

    A cell is ``(model, dataset, algo, eta_frac, seeds, meets)``, with one
    seed count and one threshold flag per realization.
    """
    return pd.DataFrame(
        [
            asdict(
                RunRecord(
                    dataset=dataset,
                    model=model,
                    algo=algo,
                    eta_frac=frac,
                    eta=100,
                    realization=r,
                    n_seeds=k,
                    spread=100 + k if ok else 99,
                    time_s=0.5 * k,
                    meets_threshold=ok,
                )
            )
            for model, dataset, algo, frac, seeds, meets in cells
            for r, (k, ok) in enumerate(zip(seeds, meets))
        ]
    )


def test_table2_schema(t2):
    assert list(t2.columns) == ["dataset", "n", "m", "type", "avg_deg", "lwcc_size"]


def test_table2_values(t2):
    row = t2[t2.dataset == "nethept_lite"].iloc[0]
    assert row["n"] == 1200
    assert row["type"] == "undirected"
    assert row["avg_deg"] == pytest.approx(4.18, rel=0.15)
    assert 0 < row["lwcc_size"] <= row["n"]
    row = t2[t2.dataset == "epinions_lite"].iloc[0]
    assert row["type"] == "directed"
    assert row["avg_deg"] == pytest.approx(13.4, rel=0.15)


def test_runs_schema(mini_runs):
    assert list(mini_runs.columns) == [f.name for f in fields(RunRecord)]
    assert len(mini_runs) == 4  # 2 algos × 2 realizations
    assert list(mini_runs.algo) == ["asti", "asti", "ateuc", "ateuc"]
    assert list(mini_runs.realization) == [0, 1, 0, 1]


def test_table3_mini(mini_runs):
    pdf = table3(mini_runs)
    assert list(pdf.columns) == ["model", "dataset", "eta/n=0.05"]
    cell = pdf.iloc[0]["eta/n=0.05"]
    assert cell == "N/A" or cell.endswith("%")


def test_table3_ratio_arithmetic():
    pdf = table3(
        frame(
            ("IC", "a", "asti", 0.05, [10, 12], [True, True]),
            ("IC", "a", "ateuc", 0.05, [15, 15], [True, True]),
            ("IC", "a", "asti", 0.1, [20, 20], [True, True]),
            ("IC", "a", "ateuc", 0.1, [19, 19], [True, True]),
        )
    )
    # (15 − 11)/11 = 36.36…%, (19 − 20)/20 = −5%
    assert pdf.to_dict("records") == [
        {"model": "IC", "dataset": "a", "eta/n=0.05": "36.4%", "eta/n=0.1": "-5.0%"}
    ]


def test_table3_na_when_any_ateuc_realization_misses():
    pdf = table3(
        frame(
            ("IC", "a", "asti", 0.05, [10, 10, 10], [True, True, True]),
            ("IC", "a", "ateuc", 0.05, [30, 30, 30], [True, False, True]),
        )
    )
    assert pdf.iloc[0]["eta/n=0.05"] == "N/A"


def test_table3_first_seen_order():
    both = [True, True]
    pdf = table3(
        frame(
            ("IC", "a", "asti", 0.01, [4, 4], both),
            ("IC", "a", "ateuc", 0.01, [5, 5], both),
            ("IC", "a", "asti", 0.05, [8, 8], both),
            ("IC", "a", "ateuc", 0.05, [9, 9], both),
            ("IC", "b", "asti", 0.01, [2, 2], both),
            ("IC", "b", "ateuc", 0.01, [3, 3], both),
            ("IC", "b", "asti", 0.02, [2, 2], both),
            ("IC", "b", "ateuc", 0.02, [2, 2], both),
            ("LT", "a", "asti", 0.01, [4, 4], both),
            ("LT", "a", "ateuc", 0.01, [4, 4], both),
        )
    )
    assert list(pdf.columns) == [
        "model", "dataset", "eta/n=0.01", "eta/n=0.05", "eta/n=0.02",
    ]
    assert list(zip(pdf.model, pdf.dataset)) == [("IC", "a"), ("IC", "b"), ("LT", "a")]
    assert pdf.iloc[0]["eta/n=0.01"] == "25.0%"
    assert pd.isna(pdf.iloc[0]["eta/n=0.02"]) and pd.isna(pdf.iloc[1]["eta/n=0.05"])
    assert pdf.iloc[1]["eta/n=0.02"] == "0.0%"
    assert pdf.iloc[2]["eta/n=0.01"] == "0.0%"


def test_sweep_aggregates_per_model():
    pdf = sweep(
        frame(
            ("LT", "a", "asti", 0.05, [3, 5], [True, True]),
            ("IC", "a", "asti", 0.05, [10, 12], [True, True]),
            ("IC", "a", "ateuc", 0.05, [20, 20], [True, False]),
        )
    )
    assert list(pdf.columns) == [
        "model", "dataset", "algo", "eta_frac", "eta",
        "mean_seeds", "mean_spread", "mean_time_s", "meets_all",
    ]
    # IC and LT runs of the same (dataset, algo, η/n) stay apart.
    assert list(zip(pdf.model, pdf.algo)) == [
        ("IC", "asti"), ("IC", "ateuc"), ("LT", "asti"),
    ]
    assert list(pdf.mean_seeds) == [11.0, 20.0, 4.0]
    assert list(pdf.mean_spread) == [111.0, 109.5, 104.0]
    assert list(pdf.mean_time_s) == [5.5, 10.0, 2.0]
    assert list(pdf.meets_all) == [True, False, True]
    assert list(pdf.eta) == [100, 100, 100]


def test_sweep_mini():
    pdf = sweep(
        runs(
            datasets=["nethept_lite"],
            models=("IC",),
            algos=("asti", "asti-4"),
            n_realizations=1,
            fracs=[0.05],
        )
    )
    assert set(pdf.columns) == {
        "model",
        "dataset",
        "algo",
        "eta_frac",
        "eta",
        "mean_seeds",
        "mean_spread",
        "mean_time_s",
        "meets_all",
    }
    assert set(pdf["algo"]) == {"asti", "asti-4"}
    assert (pdf["mean_spread"] >= pdf["eta"]).all()
    assert pdf["meets_all"].all()


def test_fig8_mini(mini_runs):
    # Fig 8 is the runs frame at one η/n.
    assert set(mini_runs["algo"]) == {"asti", "ateuc"}
    asti_rows = mini_runs[mini_runs.algo == "asti"]
    assert (asti_rows["spread"] >= asti_rows["eta"]).all()


def test_dataset_registry_covers_paper():
    assert set(DATASETS) == {
        "nethept_lite",
        "epinions_lite",
        "youtube_lite",
        "livejournal_lite",
    }
