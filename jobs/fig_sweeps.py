"""spark-submit entrypoint: Figures 4–7 as tables (seeds & time sweeps).

Runs ASTI, the batched variants and the baselines over the threshold
grid and emits mean seeds / runtime per cell. ADAPTIM is restricted to
the two smallest datasets (documented cost cap, DESIGN.md §5).

Usage: spark-submit jobs/fig_sweeps.py [IC|LT] [n_realizations]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import get_spark  # noqa: E402

import pandas as pd  # noqa: E402

from repro.experiments.tables import save_table, sweep  # noqa: E402


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "IC"
    n_real = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    spark = get_spark(f"fig-sweeps-{model}")
    try:
        main_part = sweep(
            spark,
            datasets=[
                "nethept_lite",
                "epinions_lite",
                "youtube_lite",
                "livejournal_lite",
            ],
            algos=["asti", "asti-2", "asti-4", "asti-8", "ateuc"],
            model=model,
            n_realizations=n_real,
        )
        adaptim_part = sweep(
            spark,
            datasets=["nethept_lite", "epinions_lite"],
            algos=["adaptim"],
            model=model,
            n_realizations=n_real,
        )
        save_table(
            f"fig_sweeps_{model.lower()}",
            pd.concat([main_part, adaptim_part], ignore_index=True),
        )
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
