"""Builders for the paper's evaluation tables (and figure-shaped sweeps).

- ``table2``  — dataset details (paper Table 2): n, m, type, average
  degree and LWCC size, computed with the Spark DataFrame API.
- ``runs``    — the one loop over experiment cells: one row per
  ``RunRecord`` (model, dataset, η/n, algo, realization). Fig 8's
  per-realization spread is ``runs`` at one η/n.
- ``table3``  — a view of a runs frame: improvement ratio of ASTI over
  ATEUC in seed count per (model, dataset, η/n), with the paper's N/A
  rule: N/A whenever ATEUC's set misses η on at least one realization.
- ``sweep``   — a view of a runs frame: seeds & runtime vs threshold per
  (model, dataset, algo, η/n) (the data behind paper Figures 4–7).
- ``save_table``  — the one writer of ``results/<name>.csv``, called by
  the ``benchmarks/`` that regenerate each table.
"""
from dataclasses import asdict
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession

from repro.experiments.harness import eta_fracs, run_cell
from repro.graphs.components import lwcc_size_spark
from repro.graphs.generator import DATASETS, dataset_csr, dataset_graph
from repro.graphs.stats import degree_stats, edges_df


def table2(spark: SparkSession, datasets: list[str] | None = None) -> pd.DataFrame:
    """Dataset-details table computed via Spark (paper Table 2)."""
    rows = []
    for name in datasets or list(DATASETS):
        spec = DATASETS[name]
        edges = dataset_graph(name)
        e_df = edges_df(spark, edges)
        stats = degree_stats(e_df, directed=spec.directed).collect()[0]
        rows.append(
            {
                "dataset": name,
                "n": int(stats["n"]),
                "m": int(stats["m"]),
                "type": "directed" if spec.directed else "undirected",
                "avg_deg": round(float(stats["avg_deg"]), 2),
                "lwcc_size": lwcc_size_spark(e_df),
            }
        )
    return pd.DataFrame(rows)


def runs(
    *,
    datasets: list[str],
    models: tuple[str, ...],
    algos: tuple[str, ...],
    n_realizations: int,
    fracs: list[float] | None = None,
) -> pd.DataFrame:
    """One row per ``RunRecord`` over every (model, dataset, η/n, algo) cell.

    ``fracs=None`` runs each dataset's paper threshold grid. Each
    dataset's graph is built once; every table below is a view of this
    frame.
    """
    graphs = {name: dataset_csr(name) for name in datasets}
    records = []
    for model in models:
        for name in datasets:
            for frac in fracs or eta_fracs(name):
                for algo in algos:
                    records += run_cell(
                        name, model, algo, frac,
                        n_realizations=n_realizations, g=graphs[name],
                    )
    return pd.DataFrame([asdict(r) for r in records])


def table3(runs: pd.DataFrame) -> pd.DataFrame:
    """Improvement ratio of ASTI over ATEUC (paper Table 3).

    ratio = (mean ATEUC seeds − mean ASTI seeds) / mean ASTI seeds,
    reported as a percentage string; "N/A" when ATEUC misses η on some
    realization. One row per (model, dataset) and one column per η/n,
    both in the order the runs first show them.
    """
    rows: dict[tuple[str, str], dict] = {}
    for (model, name, frac), cell in runs.groupby(
        ["model", "dataset", "eta_frac"], sort=False
    ):
        asti_rec = cell[cell.algo == "asti"]
        ateuc_rec = cell[cell.algo == "ateuc"]
        mean_asti = asti_rec.n_seeds.mean()
        mean_ateuc = ateuc_rec.n_seeds.mean()
        row = rows.setdefault((model, name), {"model": model, "dataset": name})
        if not ateuc_rec.meets_threshold.all():
            row[f"eta/n={frac}"] = "N/A"
        else:
            ratio = 100.0 * (mean_ateuc - mean_asti) / mean_asti
            row[f"eta/n={frac}"] = f"{ratio:.1f}%"
    return pd.DataFrame(list(rows.values()))


def sweep(runs: pd.DataFrame) -> pd.DataFrame:
    """Seeds & runtime vs threshold (the data behind Figures 4–7).

    One row per (model, dataset, algo, η/n): IC and LT runs of the same
    cell never merge.
    """
    return runs.groupby(
        ["model", "dataset", "algo", "eta_frac"], as_index=False
    ).agg(
        eta=("eta", "first"),
        mean_seeds=("n_seeds", "mean"),
        mean_spread=("spread", "mean"),
        mean_time_s=("time_s", "mean"),
        meets_all=("meets_threshold", "all"),
    )


RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"


def save_table(name: str, pdf: pd.DataFrame) -> None:
    """Print ``pdf`` and write it to ``results/<name>.csv``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    pdf.to_csv(RESULTS_DIR / f"{name}.csv", index=False)
    print(f"[{name}]\n{pdf.to_string(index=False)}")
