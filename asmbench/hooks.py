"""Per-layer tracing from outside the program.

The traced run wraps the program's public functions *where its consumer
modules bind them*: ``from x import f`` copies the name ``f`` into the
importing module, so patching ``x.f`` alone would miss every call. Each
wrapper times the call, keeps a span stack so a layer's self time
excludes the layers it calls, and counts the work the call did from its
arguments and result.

Modules are fetched with ``importlib.import_module``: ``repro.core``
re-exports functions named ``trim``, ``trim_b`` and ``asti`` that shadow
the submodules of the same names, so attribute access on the package
yields the function, not the module.

A hook whose module or attribute no longer exists is skipped and its
layer is reported as unmeasured, never as a failure: the program is
expected to be refactored under this benchmark.
"""
import importlib
import inspect
import time
from collections import defaultdict

# (module, attribute, layer). The local sampler and the Spark venue are
# hooked at every binding the selection code calls through.
HOOKS = (
    ("repro.core.trim", "sample_sets_local", "sampling"),
    ("repro.core.trim_b", "sample_sets_local", "sampling"),
    ("repro.sampling.rr", "sample_rr_local", "sampling"),
    ("repro.core.trim", "sample_sets_pairs", "venue"),
    ("repro.core.trim_b", "sample_sets_pairs", "venue"),
    ("repro.sampling.rr", "sample_rr_pairs", "venue"),
    ("repro.core.trim_b", "greedy_max_coverage", "greedy"),
    ("repro.core.asti", "spread_local", "observe"),
    ("repro.core.asti", "trim", "select"),
    ("repro.core.asti", "trim_b", "select"),
    ("repro.baselines.adaptim", "trim", "select"),
)

# Spark actions that move venue output into this Python process.
ACTIONS = ("collect", "toPandas")

UNMEASURED = -1


def _bound_arg(fn, args, kwargs, name):
    """The value passed for parameter ``name``, or None if it has none."""
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except (TypeError, ValueError):
        return None


def _member_count(sets):
    """Σ|R| over a list of ``(set_id, members)`` pairs or member arrays."""
    try:
        return sum(len(s[1]) if isinstance(s, tuple) else len(s) for s in sets)
    except TypeError:
        return None


class Tracer:
    """Counters and busy/self times per layer, filled by installed hooks."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(float)
        self.layers_hooked = set()
        self.missing = []
        self._stack = []  # child time accumulated by each open span
        self._undo = []
        self._in_action = False  # toPandas may call collect; count the outer call

    # -- spans ------------------------------------------------------------
    def span(self, layer, fn, *args, **kwargs):
        """Call ``fn`` as one span of ``layer``; returns (result, seconds)."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._stack.pop()
            self.busy[layer] += dt
            self.self_time[layer] += dt - child
            if self._stack:
                self._stack[-1] += dt
        return out, dt

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap every hook target that exists; remember how to undo it."""
        for mod_name, attr, layer in HOOKS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self._wrap(layer, attr, orig))
            self._undo.append((mod, attr, orig))
            self.layers_hooked.add(layer)
        self._install_actions()

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def _install_actions(self):
        try:
            cls = importlib.import_module("pyspark.sql.classic.dataframe").DataFrame
        except ImportError:
            cls = importlib.import_module("pyspark.sql").DataFrame
        for attr in ACTIONS:
            orig = getattr(cls, attr, None)
            if orig is None:
                self.missing.append(f"DataFrame.{attr}")
                continue
            setattr(cls, attr, self._wrap_action(orig))
            self._undo.append((cls, attr, orig))

    def _wrap_action(self, orig):
        tracer = self

        def action(df, *args, **kwargs):
            if tracer._in_action:
                return orig(df, *args, **kwargs)
            tracer._in_action = True
            try:
                out, dt = tracer.span("venue", orig, df, *args, **kwargs)
            finally:
                tracer._in_action = False
            tracer.count["venue.action_s"] += dt
            tracer.count["venue.rows"] += len(out)
            return out

        return action

    def _wrap(self, layer, name, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            out, _ = tracer.span(layer, orig, *args, **kwargs)
            tracer._record(layer, name, orig, args, kwargs, out)
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    def _record(self, layer, name, orig, args, kwargs, out):
        c = self.count
        c[f"{layer}.calls"] += 1
        if layer in ("sampling", "venue"):
            n_sets = _bound_arg(orig, args, kwargs, "n_sets")
            if n_sets is None:
                c[f"{layer}.sets_unknown"] += 1
            else:
                c[f"{layer}.sets"] += int(n_sets)
        if layer == "sampling":
            members = _member_count(out)
            if members is None:
                c["sampling.members_unknown"] += 1
            else:
                c["sampling.members"] += members
        elif layer == "greedy":
            sets = _bound_arg(orig, args, kwargs, "sets")
            c["greedy.pool_sets"] += len(sets) if sets is not None else 0
        elif layer == "observe":
            c["observe.reached"] += len(out)
        elif layer == "select":
            c["select.iterations"] += getattr(out, "iterations", 0)
            c["select.sets"] += getattr(out, "n_sets", 0)
            if name == "trim_b":
                c["select.trim_b_sets"] += getattr(out, "n_sets", 0)

    # -- report -----------------------------------------------------------
    def layer_metrics(self, spark_jobs):
        """Layer totals over the traced pass."""
        c, busy = self.count, self.busy
        hooked = self.layers_hooked

        def if_hooked(value, layer):
            return value if layer in hooked else UNMEASURED

        def ratio(num, den, layer):
            if layer not in hooked:
                return UNMEASURED
            return num / den if den else 0.0

        m = {}
        members_ok = "sampling" in hooked and not c["sampling.members_unknown"]
        sets_ok = "sampling" in hooked and not c["sampling.sets_unknown"]
        m["sampling.calls"] = if_hooked(c["sampling.calls"], "sampling")
        m["sampling.sets"] = c["sampling.sets"] if sets_ok else UNMEASURED
        m["sampling.members"] = c["sampling.members"] if members_ok else UNMEASURED
        m["sampling.busy_s"] = if_hooked(busy["sampling"], "sampling")
        m["sampling.sets_per_s"] = (
            ratio(c["sampling.sets"], busy["sampling"], "sampling") if sets_ok else UNMEASURED
        )
        m["sampling.members_per_s"] = (
            ratio(c["sampling.members"], busy["sampling"], "sampling")
            if members_ok
            else UNMEASURED
        )
        m["select.rounds"] = if_hooked(c["select.calls"], "select")
        m["select.iterations"] = if_hooked(c["select.iterations"], "select")
        m["select.sets_per_round"] = ratio(c["select.sets"], c["select.calls"], "select")
        m["select.self_s"] = if_hooked(self.self_time["select"], "select")
        m["greedy.calls"] = if_hooked(c["greedy.calls"], "greedy")
        m["greedy.busy_s"] = if_hooked(busy["greedy"], "greedy")
        m["greedy.pool_sets"] = if_hooked(c["greedy.pool_sets"], "greedy")
        m["greedy.rework"] = ratio(c["greedy.pool_sets"], c["select.trim_b_sets"], "greedy")
        m["observe.calls"] = if_hooked(c["observe.calls"], "observe")
        m["observe.busy_s"] = if_hooked(busy["observe"], "observe")
        m["observe.reached"] = if_hooked(c["observe.reached"], "observe")
        venue_sets = c["venue.sets"] if not c["venue.sets_unknown"] else None
        m["venue.spark_calls"] = if_hooked(c["venue.calls"], "venue")
        m["venue.spark_sets"] = (
            if_hooked(venue_sets, "venue") if venue_sets is not None else UNMEASURED
        )
        m["venue.spark_jobs"] = spark_jobs if spark_jobs is not None else UNMEASURED
        m["venue.spark_action_s"] = if_hooked(c["venue.action_s"], "venue")
        m["venue.spark_rows"] = if_hooked(c["venue.rows"], "venue")
        if venue_sets is None or not sets_ok:
            m["venue.spark_share"] = UNMEASURED
        else:
            m["venue.spark_share"] = ratio(venue_sets, venue_sets + c["sampling.sets"], "venue")
        m["ateuc.busy_s"] = busy["ateuc"]
        m["ateuc.sets"] = c["ateuc.sets"]
        m["ateuc.iterations"] = c["ateuc.iterations"]
        m["ateuc.misses"] = c["ateuc.misses"]
        return m
