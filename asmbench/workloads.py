"""Workload definitions, the campaigns each one runs, and its correctness gate.

A workload is a Table-3-style cell of the ASM evaluation: adaptive
campaigns (ASTI, ASTI-b or ADAPTIM) on one hidden ground-truth
realization, optionally with ATEUC's one-shot selections evaluated on
several realizations.

Campaign ``c`` of a run uses the workload's campaign setting
``c mod len(campaigns)`` and an algorithm seed derived from the workload
seed and ``c``. The first ``first_pass`` campaigns (plus the ATEUC grid)
form the run's *first pass*, which every run makes in full, so its seed
count is exact for a given workload seed.
"""
import time
import traceback
import zlib
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Campaign:
    """One adaptive algorithm setting."""

    algo: str  # "asti" or "adaptim"
    dataset: str
    model: str
    eta_frac: float
    b: int = 1


@dataclass(frozen=True)
class AteucGrid:
    """ATEUC selections over a threshold grid, each evaluated on every realization."""

    dataset: str
    model: str
    eta_fracs: tuple
    realizations: int


@dataclass(frozen=True)
class Workload:
    campaigns: tuple  # Campaign settings, used in turn
    first_pass: int  # campaigns every run makes in full
    ateuc: AteucGrid | None = None

    def datasets(self):
        names = [c.dataset for c in self.campaigns]
        if self.ateuc is not None:
            names.append(self.ateuc.dataset)
        return list(dict.fromkeys(names))

    def realization_keys(self):
        keys = [(c.dataset, c.model, 0) for c in self.campaigns]
        if self.ateuc is not None:
            a = self.ateuc
            keys += [(a.dataset, a.model, r) for r in range(a.realizations)]
        return list(dict.fromkeys(keys))


WORKLOADS = {
    # Sampler-bound, no Spark job: ASTI (argmax selection) and ASTI-4
    # (TRIM-B greedy max-coverage) in turn.
    "asti-ic": Workload(
        campaigns=(
            Campaign("asti", "nethept_lite", "IC", 0.1, b=1),
            Campaign("asti", "nethept_lite", "IC", 0.1, b=4),
        ),
        first_pass=10,
    ),
    # Single-root RR sets; the Spark venue carries most of ADAPTIM's sets.
    "baselines-rr": Workload(
        campaigns=(Campaign("adaptim", "nethept_lite", "IC", 0.07, b=1),),
        first_pass=2,
        ateuc=AteucGrid("livejournal_lite", "IC", (0.01, 0.02, 0.03, 0.04, 0.05), 2),
    ),
}


def derive_seed(*parts) -> int:
    """A stable 31-bit seed from its labelled parts."""
    return zlib.crc32("|".join(str(p) for p in parts).encode()) & 0x7FFFFFFF


def realization_seed(dataset, model, index) -> int:
    """Ground truths are fixed per (dataset, model, index), as in the harness.

    The workload seed does not pick them: the number of seeds ASTI needs
    varies by ±30% between realizations of these lite graphs, which would
    swamp every end-to-end metric across workload seeds.
    """
    return derive_seed("asmbench-realization", dataset, model, index)


def algo_seed(workload, seed, *parts) -> int:
    return derive_seed("asmbench-algo", workload, seed, *parts)


@dataclass
class Outcome:
    """What a run's campaigns produced, and what the checks found."""

    attempted: int = 0
    failures: list = field(default_factory=list)  # (run label, problem)
    run_s: list = field(default_factory=list)  # wall time per campaign
    round_s: list = field(default_factory=list)
    seeds: int = 0  # seeds selected, ATEUC's selections included
    ateuc_misses: int = 0


def check_adaptive(res, real, eta, n, spread_local):
    """Correctness gate for one adaptive run; returns a list of problems."""
    problems = []
    seeds = [int(v) for v in res.seeds]
    if res.spread < eta:
        problems.append(f"spread {res.spread} < eta {eta}")
    if len(set(seeds)) != len(seeds):
        problems.append("duplicate seeds")
    if any(not 0 <= v < n for v in seeds):
        problems.append("seed out of range")
        return problems
    full = len(spread_local(real, seeds))
    if full != res.spread:
        problems.append(f"independent spread {full} != reported {res.spread}")
    active = np.ones(n, dtype=bool)
    for info in res.rounds:
        batch = [int(v) for v in info.nodes]
        if not all(active[v] for v in batch):
            problems.append(f"round {info.round} picked an inactive node")
            break
        active[spread_local(real, batch, active)] = False
    return problems


def run_campaign(name, seed, c, spark, graphs, reals, api, out):
    """Campaign ``c`` of a run: one adaptive run, timed and checked."""
    campaigns = WORKLOADS[name].campaigns
    camp = campaigns[c % len(campaigns)]
    g = graphs[camp.dataset]
    eta = max(1, int(round(camp.eta_frac * g.n)))
    real = reals[(camp.dataset, camp.model, 0)]
    s = algo_seed(name, seed, c)
    label = f"{camp.algo} (b={camp.b}) campaign {c}"
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        if camp.algo == "adaptim":
            res = api.adaptim(spark, g, eta, camp.model, 0, seed=s, realization=real)
        else:
            res = api.asti(spark, g, eta, camp.model, 0, b=camp.b, seed=s, realization=real)
    except Exception as exc:  # a crashed run is a counted failure
        traceback.print_exc()
        out.failures.append((label, f"{type(exc).__name__}: {exc}"))
        return
    out.run_s.append(time.perf_counter() - t0)
    out.round_s.extend(info.time_s for info in res.rounds)
    out.seeds += len(res.seeds)
    for p in check_adaptive(res, real, eta, g.n, api.spread_local):
        out.failures.append((label, p))


def run_ateuc(name, seed, spark, graphs, reals, api, out, tracer=None):
    """ATEUC over its threshold grid, each selection evaluated on every realization."""
    grid = WORKLOADS[name].ateuc
    g = graphs[grid.dataset]
    for fi, frac in enumerate(grid.eta_fracs):
        eta = max(1, int(round(frac * g.n)))
        label = f"ateuc eta={eta}"
        out.attempted += 1
        args = (spark, g, eta, grid.model)
        kwargs = {"seed": algo_seed(name, seed, "ateuc", fi)}
        try:
            if tracer is None:
                sel = api.ateuc(*args, **kwargs)
            else:
                sel, _ = tracer.span("ateuc", api.ateuc, *args, **kwargs)
                tracer.count["ateuc.sets"] += sel.n_sets
                tracer.count["ateuc.iterations"] += sel.iterations
        except Exception as exc:
            traceback.print_exc()
            out.failures.append((label, f"{type(exc).__name__}: {exc}"))
            continue
        seeds = [int(v) for v in sel.seeds]
        out.seeds += len(seeds)
        if not seeds or len(set(seeds)) != len(seeds) or any(not 0 <= v < g.n for v in seeds):
            out.failures.append((label, "invalid seed set"))
            continue
        # A miss is ATEUC's documented Table-3 behaviour (non-adaptive
        # selection on expected spread), so it is recorded, not failed.
        for r in range(grid.realizations):
            if len(api.spread_local(reals[(grid.dataset, grid.model, r)], seeds)) < eta:
                out.ateuc_misses += 1
                if tracer is not None:
                    tracer.count["ateuc.misses"] += 1


def run_first_pass(name, seed, spark, graphs, reals, api, tracer=None):
    """The first-pass campaigns, plus the ATEUC grid."""
    out = Outcome()
    for c in range(WORKLOADS[name].first_pass):
        run_campaign(name, seed, c, spark, graphs, reals, api, out)
    if WORKLOADS[name].ateuc is not None:
        run_ateuc(name, seed, spark, graphs, reals, api, out, tracer)
    return out
