"""ASM benchmark: end-to-end and per-layer metrics for one workload.

Usage, from the repository root:

    python3 asmbench/run.py --workload asti-ic --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see asmbench/README.md). The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero when
a correctness check fails or the program cannot be found.

Everything runs in this one Python process with Spark ``local[k]``; Spark's
scratch files go under ``.bench_build/asmbench`` in the checkout.
"""
import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import workloads as wl
from hooks import UNMEASURED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "asmbench"

# Spark local[k]: the venue seeds each of its 2·defaultParallelism batches
# separately, so the sets it samples (and ATEUC's picks) depend on k.
SPARK_THREADS = min(4, os.cpu_count() or 1)
SETUPS = 3
WARMUP_SETS = 64
JOB_GROUP = "asmbench-traced"
CROSSOVER_DATASETS = ("nethept_lite", "livejournal_lite")
CROSSOVER_SETS = (4096, 32768)
CROSSOVER_ETA_FRAC = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s_mean": "s",
    "seeds": "count",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment():
    """Spark settings that must be fixed before the JVM is launched."""
    # Spark leaves its block-manager directories behind when a run is
    # killed; start each run from an empty scratch directory.
    shutil.rmtree(WORK, ignore_errors=True)
    tmp = str(WORK / "tmp")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # Python workers import repro from this checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    # JVMs write perf data to /tmp unless told not to; spark-submit's
    # launcher JVM takes its options from SPARK_LAUNCHER_OPTS.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_THREADS}] --driver-memory 2g "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "--conf spark.driver.host=127.0.0.1 pyspark-shell"
    )
    sys.path.insert(0, str(SRC))


def load_api():
    """The program's public functions the benchmark calls directly."""
    mod = importlib.import_module
    mrr = mod("repro.sampling.mrr")
    return SimpleNamespace(
        dataset_csr=mod("repro.graphs.generator").dataset_csr,
        sample_realization=mod("repro.diffusion.realization").sample_realization,
        spread_local=mod("repro.diffusion.propagate").spread_local,
        asti=mod("repro.core.asti").asti,
        adaptim=mod("repro.baselines.adaptim").adaptim,
        ateuc=mod("repro.baselines.ateuc").ateuc,
        sample_sets_local=getattr(mrr, "sample_sets_local", None),
        sample_sets_pairs=getattr(mrr, "sample_sets_pairs", None),
    )


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("asmbench")
        .master(f"local[{SPARK_THREADS}]")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", str(WORK / "spark"))
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark, *, jvm):
    """Stop the session; with ``jvm`` also end the JVM and wait for it."""
    from pyspark import SparkContext

    spark.stop()
    if not jvm:
        return
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def count_nodes_spark(pairs):
    return pairs.groupBy("node").count().collect()


def set_up(name, api, seed):
    """Start Spark, build graphs and realizations, run one warm-up job per graph."""
    workload = wl.WORKLOADS[name]
    t0 = time.perf_counter()
    spark = start_spark()
    t1 = time.perf_counter()
    graphs = {ds: api.dataset_csr(ds) for ds in workload.datasets()}
    t2 = time.perf_counter()
    reals = {
        key: api.sample_realization(graphs[key[0]], key[1], wl.realization_seed(*key))
        for key in workload.realization_keys()
    }
    t3 = time.perf_counter()
    # The first mapInPandas job starts the Python workers and ships each
    # graph's CSR broadcast; both belong to set-up, not to the campaigns.
    if api.sample_sets_pairs is not None:
        models = {}
        for ds, model, _ in workload.realization_keys():
            models.setdefault(ds, model)
        for ds, g in graphs.items():
            active = np.ones(g.n, dtype=bool)
            count_nodes_spark(
                api.sample_sets_pairs(
                    spark, g, active, max(1, g.n // 10), models[ds], WARMUP_SETS,
                    wl.derive_seed("asmbench-warmup", seed, ds),
                )
            )
    t4 = time.perf_counter()
    timings = {
        "setup_s": t4 - t0,
        "spark.start_s": t1 - t0,
        "graphs.build_s": t2 - t1,
        "realization.sample_s": t3 - t2,
        "spark.warmup_s": t4 - t3,
    }
    return spark, graphs, reals, timings


def measure(name, seed, seconds, spark, graphs, reals, api):
    """The first pass in full, then more campaigns while they fit in ``seconds``."""
    t0 = time.perf_counter()
    out = wl.run_first_pass(name, seed, spark, graphs, reals, api)
    first_pass_s = time.perf_counter() - t0
    first_pass_seeds = out.seeds
    c = wl.WORKLOADS[name].first_pass
    # Start another campaign only while a typical one still ends in the window.
    while out.run_s and time.perf_counter() - t0 + statistics.median(out.run_s) <= seconds:
        wl.run_campaign(name, seed, c, spark, graphs, reals, api, out)
        c += 1
    return out, first_pass_s, first_pass_seeds


def failed_runs(outcomes):
    return sum(len({label for label, _ in o.failures}) for o in outcomes)


def end_to_end(setups, out, first_pass_seeds):
    m = {"setup_s": statistics.median(s["setup_s"] for s in setups)}
    if out.round_s:  # absent only when every campaign failed
        m["round_s_mean"] = sum(out.run_s) / len(out.round_s)
    m["seeds"] = first_pass_seeds
    m["pass_frac"] = 1.0 - failed_runs([out]) / out.attempted
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def crossover(spark, api, seed):
    """Local vs Spark time to sample IC mRR sets and count them per node."""
    out = {}
    for ds in CROSSOVER_DATASETS:
        for n_sets in CROSSOVER_SETS:
            for venue in ("local", "spark"):
                out[f"venue.crossover.{ds}.{n_sets}.{venue}_s"] = UNMEASURED
    if api.sample_sets_local is None or api.sample_sets_pairs is None:
        return out
    for ds in CROSSOVER_DATASETS:
        g = api.dataset_csr(ds)
        active = np.ones(g.n, dtype=bool)
        eta = max(1, int(round(CROSSOVER_ETA_FRAC * g.n)))
        s = wl.derive_seed("asmbench-crossover", seed, ds)
        count_nodes_spark(api.sample_sets_pairs(spark, g, active, eta, "IC", WARMUP_SETS, s))
        for n_sets in CROSSOVER_SETS:
            t0 = time.perf_counter()
            sets = api.sample_sets_local(g, active, eta, "IC", n_sets, s)
            np.bincount(np.concatenate([m for _, m in sets]), minlength=g.n)
            t1 = time.perf_counter()
            count_nodes_spark(api.sample_sets_pairs(spark, g, active, eta, "IC", n_sets, s))
            t2 = time.perf_counter()
            out[f"venue.crossover.{ds}.{n_sets}.local_s"] = t1 - t0
            out[f"venue.crossover.{ds}.{n_sets}.spark_s"] = t2 - t1
    return out


def traced_metrics(name, seed, spark, graphs, reals, api, setups, first_pass_s):
    """Per-layer metrics: the first pass again with hooks installed, then the probe."""
    tracer = Tracer()
    tracer.install()
    sc = spark.sparkContext
    sc.setJobGroup(JOB_GROUP, "asmbench traced pass")
    t0 = time.perf_counter()
    try:
        traced = wl.run_first_pass(name, seed, spark, graphs, reals, api, tracer)
    finally:
        traced_s = time.perf_counter() - t0
        tracer.uninstall()
        sc.setLocalProperty("spark.jobGroup.id", None)
    jobs = len(sc.statusTracker().getJobIdsForGroup(JOB_GROUP))
    m = {k: statistics.median(s[k] for s in setups) for k in setups[0] if k != "setup_s"}
    m["spark.cold_start_s"] = setups[0]["spark.start_s"]
    m.update(tracer.layer_metrics(jobs))
    m["trace.pass_s"] = traced_s
    m["trace.overhead_s"] = traced_s - first_pass_s
    m.update(crossover(spark, api, seed))
    return m, traced, tracer.missing


PER_LAYER_UNITS_SUFFIX = (
    ("_per_s", "1/s"),
    ("_s", "s"),
    ("share", "ratio"),
    ("rework", "ratio"),
)


def unit_of(metric):
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    for suffix, unit in PER_LAYER_UNITS_SUFFIX:
        if metric.endswith(suffix):
            return unit
    return "count"


def environment(spark):
    import pyspark

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    trim = importlib.import_module("repro.core.trim")
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "spark_master": spark.sparkContext.master,
        "spark_threads": SPARK_THREADS,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "spark_min_sets": getattr(trim, "SPARK_MIN_SETS", None),
        "python": sys.version.split()[0],
        "pyspark": pyspark.__version__,
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"asmbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    pin_environment()
    api = load_api()

    setups = []
    spark = None
    try:
        for _ in range(SETUPS):
            if spark is not None:
                stop_spark(spark, jvm=False)
            spark, graphs, reals, timings = set_up(args.workload, api, args.seed)
            setups.append(timings)
        env = environment(spark)
        out, first_pass_s, first_pass_seeds = measure(
            args.workload, args.seed, args.seconds, spark, graphs, reals, api
        )
        outcomes = [out]
        missing = []
        if args.trace:
            metrics, traced, missing = traced_metrics(
                args.workload, args.seed, spark, graphs, reals, api, setups, first_pass_s
            )
            outcomes.append(traced)
            if traced.seeds != first_pass_seeds:
                traced.failures.append(
                    ("traced pass", "selected another number of seeds than the untraced pass")
                )
        else:
            metrics = end_to_end(setups, out, first_pass_seeds)
    finally:
        if spark is not None:
            stop_spark(spark, jvm=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = failed_runs(outcomes)
    failures = [f"{label}: {problem}" for o in outcomes for label, problem in o.failures]
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed}: {len(out.run_s)} campaign(s), "
          f"{len(out.round_s)} round(s), {attempted} run(s) attempted, {failed} failed, "
          f"{out.ateuc_misses} ATEUC miss(es)")
    print("# campaign seconds " + " ".join(f"{t:.3f}" for t in out.run_s))
    if len(out.round_s) > 1:
        p90 = statistics.quantiles(out.round_s, n=10)[8]
        print(f"# first pass {first_pass_s:.3f} s; campaign p50 {statistics.median(out.run_s):.4f} s; "
              f"round p50 {statistics.median(out.round_s):.4f} s, p90 {p90:.4f} s "
              f"over {len(out.round_s)} rounds")
    for f in failures:
        print(f"# FAILED {f}")
    if missing:
        print("# unmeasured (hook target gone): " + ", ".join(missing))
    for k, v in metrics.items():
        print(f"# {k} = {v:.6g} {unit_of(k)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
