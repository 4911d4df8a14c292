"""spark-submit entrypoint: Figure 8 as a table (spread distribution).

Per-realization achieved spread of ASTI vs ATEUC on nethept_lite under
IC and LT, against the threshold — reproduces the under-/over-shoot
counts the paper discusses in §6.4.

Usage: spark-submit jobs/fig8_spread_dist.py [n_realizations]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import get_spark  # noqa: E402

from repro.experiments.tables import fig8_spread, save_table  # noqa: E402


def main() -> None:
    n_real = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    spark = get_spark("fig8-spread-dist")
    try:
        save_table("fig8_spread", fig8_spread(spark, n_realizations=n_real))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
