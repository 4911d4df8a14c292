"""spark-submit entrypoint: reproduce paper Table 2 (dataset details).

Usage: spark-submit jobs/table2_datasets.py
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import get_spark  # noqa: E402

from repro.experiments.tables import save_table, table2  # noqa: E402


def main() -> None:
    spark = get_spark("table2-datasets")
    try:
        save_table("table2", table2(spark))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
