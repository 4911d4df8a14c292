"""spark-submit entrypoint: reproduce paper Table 3 (ASTI vs ATEUC).

Usage: spark-submit jobs/table3_improvement.py [n_realizations]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import get_spark  # noqa: E402

from repro.experiments.harness import records_to_pandas  # noqa: E402
from repro.experiments.tables import save_table, table3  # noqa: E402


def main() -> None:
    n_real = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    spark = get_spark("table3-improvement")
    try:
        records = []
        pdf = table3(spark, n_realizations=n_real, records_out=records)
        save_table("table3", pdf)
        save_table("table3_runs", records_to_pandas(records))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
