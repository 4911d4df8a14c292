"""Builders for the paper's evaluation tables (and figure-shaped sweeps).

- ``table2``  — dataset details (paper Table 2): n, m, type, average
  degree and LWCC size, computed with the Spark DataFrame API.
- ``table3``  — improvement ratio of ASTI over ATEUC in seed count per
  (model, dataset, η/n), with the paper's N/A rule: N/A whenever
  ATEUC's set misses η on at least one realization.
- ``sweep``   — seeds & runtime vs threshold per algorithm (the data
  behind paper Figures 4–7).
- ``fig8_spread`` — per-realization achieved spread for ASTI vs ATEUC
  (paper Figure 8).
- ``save_table``  — the one writer of ``results/<name>.csv``, called by
  the ``benchmarks/`` that regenerate each table.
"""
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession

from repro.experiments.harness import (
    RunRecord,
    eta_fracs,
    records_to_pandas,
    run_cell,
)
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


def table3(
    spark: SparkSession | None,
    *,
    datasets: list[str] | None = None,
    models: tuple[str, ...] = ("IC", "LT"),
    n_realizations: int = 3,
    eps: float = 0.5,
    records_out: list[RunRecord] | None = None,
    fracs: list[float] | None = None,
) -> pd.DataFrame:
    """Improvement ratio of ASTI over ATEUC (paper Table 3).

    ratio = (mean ATEUC seeds − mean ASTI seeds) / mean ASTI seeds,
    reported as a percentage string; "N/A" when ATEUC misses η on some
    realization. ``records_out`` collects the raw per-run records so
    callers can derive the figure tables from the same runs.
    """
    rows = []
    for model in models:
        for name in datasets or list(DATASETS):
            g = dataset_csr(name)
            row = {"model": model, "dataset": name}
            for frac in fracs or eta_fracs(name):
                asti_rec = run_cell(
                    spark, name, model, "asti", frac,
                    n_realizations=n_realizations, eps=eps, g=g,
                )
                ateuc_rec = run_cell(
                    spark, name, model, "ateuc", frac,
                    n_realizations=n_realizations, eps=eps, g=g,
                )
                if records_out is not None:
                    records_out.extend(asti_rec + ateuc_rec)
                mean_asti = sum(r.n_seeds for r in asti_rec) / len(asti_rec)
                mean_ateuc = sum(r.n_seeds for r in ateuc_rec) / len(ateuc_rec)
                if not all(r.meets_threshold for r in ateuc_rec):
                    row[f"eta/n={frac}"] = "N/A"
                else:
                    ratio = 100.0 * (mean_ateuc - mean_asti) / mean_asti
                    row[f"eta/n={frac}"] = f"{ratio:.1f}%"
            rows.append(row)
    return pd.DataFrame(rows)


def sweep(
    spark: SparkSession | None,
    *,
    datasets: list[str],
    algos: list[str],
    model: str,
    n_realizations: int = 3,
    eps: float = 0.5,
    fracs: list[float] | None = None,
) -> pd.DataFrame:
    """Seeds & runtime vs threshold (the data behind Figures 4–7)."""
    records: list[RunRecord] = []
    for name in datasets:
        g = dataset_csr(name)
        for algo in algos:
            for frac in fracs or eta_fracs(name):
                records.extend(
                    run_cell(
                        spark, name, model, algo, frac,
                        n_realizations=n_realizations, eps=eps, g=g,
                    )
                )
    pdf = records_to_pandas(records)
    return (
        pdf.groupby(["dataset", "algo", "eta_frac"], as_index=False)
        .agg(
            eta=("eta", "first"),
            mean_seeds=("n_seeds", "mean"),
            mean_spread=("spread", "mean"),
            mean_time_s=("time_s", "mean"),
            meets_all=("meets_threshold", "all"),
        )
        .sort_values(["dataset", "algo", "eta_frac"])
        .reset_index(drop=True)
    )


def fig8_spread(
    spark: SparkSession | None,
    *,
    dataset: str = "nethept_lite",
    models: tuple[str, ...] = ("IC", "LT"),
    eta_frac: float = 0.1,
    n_realizations: int = 10,
    eps: float = 0.5,
) -> pd.DataFrame:
    """Per-realization spread for ASTI vs ATEUC (paper Figure 8)."""
    records: list[RunRecord] = []
    g = dataset_csr(dataset)
    for model in models:
        for algo in ("asti", "ateuc"):
            records.extend(
                run_cell(
                    spark, dataset, model, algo, eta_frac,
                    n_realizations=n_realizations, eps=eps, g=g,
                )
            )
    return records_to_pandas(records)


RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"


def save_table(name: str, pdf: pd.DataFrame) -> None:
    """Print ``pdf`` and write it to ``results/<name>.csv``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    pdf.to_csv(RESULTS_DIR / f"{name}.csv", index=False)
    print(f"[{name}]\n{pdf.to_string(index=False)}")
