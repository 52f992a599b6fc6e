"""Layer tracing from outside the package.

The tracer wraps the public functions and public methods of every
``adasplit`` layer module and swaps each wrapper in for every reference the
``adasplit.*`` modules hold: module attributes (including names imported
into other modules), class attributes (so bound methods pick it up) and
default arguments (``closed_testing(global_test=fisher_combine)``).
``uninstall`` puts every original back, so untraced ops run the package
unmodified.

Spans are kept in memory as ``[name, start, end, parent, op, attrs]`` and
turned into per-layer metrics, with self time computed from the span tree,
only after the run. A function a later version of the package removes is
simply never wrapped; the metrics that depend on it are reported as absent.
"""

import csv
import functools
import importlib
import inspect
import sys
import time
import tracemalloc

LAYERS = ("cli", "data", "simlab", "engine", "nuisance", "linmodel",
          "randtest", "multtest", "rng")

# Non-public methods worth a span of their own.
EXTRA_METHODS = {"nuisance.NeighborIndex.__init__"}

INDEX_BUILD = "nuisance.NeighborIndex.__init__"
ENGINE_RUN = "engine.run"
MC_PVALUE = "randtest.mc_pvalue"
CLOSED_TESTING = "multtest.closed_testing"
BAR_LEARNER = "nuisance.fit_bar_learner"
RUN_METHOD = "simlab.run_method"

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _bound_args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _hook_mc_pvalue(span, fn, args, kwargs):
    try:
        a = _bound_args(fn, args, kwargs)
        span[ATTRS] = {"draws": int(a["m_draws"]) * len(a["subgroup"])}
    except (TypeError, KeyError):
        pass
    return fn(*args, **kwargs)


def _hook_index_build(span, fn, args, kwargs):
    if tracemalloc.is_tracing():
        return fn(*args, **kwargs)
    tracemalloc.start()
    try:
        return fn(*args, **kwargs)
    finally:
        span[ATTRS] = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
        tracemalloc.stop()


def _hook_engine_run(span, fn, args, kwargs):
    report = fn(*args, **kwargs)
    try:
        span[ATTRS] = {"steps": int(report.iterations),
                       "converged": bool(report.diagnostics["converged"])}
    except (AttributeError, KeyError, TypeError):
        pass
    return report


def _hook_run_method(span, fn, args, kwargs):
    try:
        span[ATTRS] = {"method": str(_bound_args(fn, args, kwargs)["method"])}
    except (TypeError, KeyError):
        pass
    return fn(*args, **kwargs)


HOOKS = {
    MC_PVALUE: _hook_mc_pvalue,
    INDEX_BUILD: _hook_index_build,
    ENGINE_RUN: _hook_engine_run,
    RUN_METHOD: _hook_run_method,
}


class Tracer:
    """Wraps the layers of the ``adasplit`` package; see the module doc."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._restore = []
        self._targets = []  # (owner, attribute, original, wrapper)
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"adasplit.{layer}")
            except ImportError:
                continue
            self._collect(layer, module)
        self.names = {w.span_name for _, _, _, w in self._targets}

    def _collect(self, layer, module):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                self._targets.append(
                    (module, name, obj, self._wrap(f"{layer}.{name}", obj)))
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, fn in vars(obj).items():
                    qual = f"{layer}.{name}.{attr}"
                    if inspect.isfunction(fn) and (
                            not attr.startswith("_") or qual in EXTRA_METHODS):
                        self._targets.append((obj, attr, fn, self._wrap(qual, fn)))

    def _wrap(self, span_name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(span_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [span_name, clock(), 0.0, stack[-1] if stack else -1,
                    tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(span, fn, args, kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        wrapper.span_name = span_name
        return wrapper

    def install(self):
        """Swap every wrapper in for every reference the package holds."""
        if self._restore:
            return
        swap = {id(orig): wrapper for _, _, orig, wrapper in self._targets}
        functions = [orig for _, _, orig, _ in self._targets]
        for owner, attr, _, wrapper in self._targets:
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "adasplit" or name.startswith("adasplit.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in swap:
                    self._set(module, attr, swap[id(value)])
                elif inspect.isfunction(value):
                    functions.append(value)
                elif inspect.isclass(value) and value.__module__ == name:
                    functions.extend(v for v in vars(value).values()
                                     if inspect.isfunction(v)
                                     and not hasattr(v, "span_name"))
        for fn in {id(f): f for f in functions}.values():
            self._swap_defaults(fn, swap)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _swap_defaults(self, fn, swap):
        if fn.__defaults__ and any(id(v) in swap for v in fn.__defaults__):
            self._restore.append((fn, "__defaults__", fn.__defaults__))
            fn.__defaults__ = tuple(swap.get(id(v), v) for v in fn.__defaults__)
        kw = fn.__kwdefaults__
        if kw and any(id(v) in swap for v in kw.values()):
            self._restore.append((fn, "__kwdefaults__", dict(kw)))
            fn.__kwdefaults__ = {k: swap.get(id(v), v) for k, v in kw.items()}

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "op", "attrs"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s[NAME], repr(s[START]), repr(s[END]),
                                 s[PARENT], s[OP], s[ATTRS] or ""])


# Per-layer metrics -------------------------------------------------------------

# metric -> (unit, span names it needs; the metric is absent when none of
# them exists in the package).
PER_LAYER = {
    "nuisance.index_build_s": ("s", (INDEX_BUILD,)),
    "nuisance.index_build_calls": ("count", (INDEX_BUILD,)),
    "nuisance.index_build_peak_mb": ("MB", (INDEX_BUILD,)),
    "engine.run_s": ("s", (ENGINE_RUN,)),
    "engine.self_s": ("s", (ENGINE_RUN,)),
    "engine.steps": ("count", (ENGINE_RUN,)),
    "engine.refits": ("count", (ENGINE_RUN,)),
    "engine.loop_s": ("s", (ENGINE_RUN,)),
    "engine.loop_s_per_step": ("s", (ENGINE_RUN,)),
    "engine.converged_share": ("ratio", (ENGINE_RUN,)),
    "nuisance.bar_learner_s": ("s", (BAR_LEARNER,)),
    "nuisance.bar_learner_calls": ("count", (BAR_LEARNER,)),
    "nuisance.rlearner_s": ("s", ("nuisance.fit_rlearner_weighted",
                                  "nuisance.fit_rlearner_ols")),
    "nuisance.rlearner_calls": ("count", ("nuisance.fit_rlearner_weighted",
                                          "nuisance.fit_rlearner_ols")),
    "nuisance.vote_s": ("s", ("nuisance.NeighborIndex.vote",
                              "nuisance.NeighborIndex.vote_loo")),
    "nuisance.vote_calls": ("count", ("nuisance.NeighborIndex.vote",
                                      "nuisance.NeighborIndex.vote_loo")),
    "nuisance.posterior_s": ("s", ("nuisance.posterior_e",)),
    "nuisance.posterior_calls": ("count", ("nuisance.posterior_e",)),
    "linmodel.fit_wls_s": ("s", ("linmodel.fit_wls",)),
    "linmodel.fit_wls_calls": ("count", ("linmodel.fit_wls",)),
    "linmodel.predict_s": ("s", ("linmodel.predict",)),
    "linmodel.predict_calls": ("count", ("linmodel.predict",)),
    "linmodel.diversity_s": ("s", ("linmodel.diversity_scores",)),
    "multtest.closed_testing_s": ("s", (CLOSED_TESTING,)),
    "multtest.closed_testing_calls": ("count", (CLOSED_TESTING,)),
    "multtest.global_tests": ("count", ("multtest.fisher_combine",)),
    "multtest.global_test_s": ("s", ("multtest.fisher_combine",)),
    "randtest.mc_pvalue_s": ("s", (MC_PVALUE,)),
    "randtest.mc_pvalue_calls": ("count", (MC_PVALUE,)),
    "randtest.draws": ("count", (MC_PVALUE,)),
    "randtest.draws_per_s": ("1/s", (MC_PVALUE,)),
    "randtest.draw_bytes_max": ("B", (MC_PVALUE,)),
    "data.read_csv_s": ("s", ("data.read_dataset_csv",)),
    "data.partition_s": ("s", ("data.partition_by_quantiles",)),
    "data.report_json_s": ("s", ("data.AnalysisReport.to_json",)),
    "cli.self_s": ("s", ("cli.main",)),
    "simlab.generate_s": ("s", ("simlab.generate",)),
    "simlab.rt_s": ("s", (RUN_METHOD,)),
    "simlab.random_split_s": ("s", (RUN_METHOD,)),
    "simlab.adasplit_s": ("s", (RUN_METHOD,)),
    "rng.stream_s": ("s", ("rng.stream",)),
    "rng.stream_calls": ("count", ("rng.stream",)),
}


class SpanTable:
    """Inclusive and self times over a finished list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[END] - s[START] for s in spans]
        self.self_time = list(self.dur)
        self.by_name = {}
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.self_time[s[PARENT]] -= self.dur[i]
            self.by_name.setdefault(s[NAME], []).append(i)

    def _ancestor_names(self, i):
        names = set()
        p = self.spans[i][PARENT]
        while p >= 0:
            names.add(self.spans[p][NAME])
            p = self.spans[p][PARENT]
        return names

    def outermost(self, names, within=None):
        """Indices of spans named in ``names`` that have no ancestor also
        named there (so nested calls are not counted twice), optionally
        restricted to descendants of a span named ``within``."""
        names = set(names)
        out = []
        for i in sorted(j for n in names for j in self.by_name.get(n, ())):
            up = self._ancestor_names(i)
            if names.isdisjoint(up) and (within is None or within in up):
                out.append(i)
        return out

    def total(self, names, within=None):
        return sum(self.dur[i] for i in self.outermost(names, within))

    def count(self, names, within=None):
        return len(self.outermost(names, within))

    def self_total(self, name):
        return sum(self.self_time[i] for i in self.outermost([name]))

    def attrs(self, name):
        return [self.spans[i][ATTRS] or {} for i in self.outermost([name])]


def per_layer_metrics(tracer):
    """Per-layer metrics plus the names of those whose functions are absent.

    Metrics ending in ``_s`` and ``_calls`` without a rule of their own are
    the inclusive time and the call count of the spans ``PER_LAYER`` names.
    """
    t = SpanTable(tracer.spans)
    v = {}
    v["nuisance.index_build_peak_mb"] = max(
        [a.get("peak_bytes", 0) for a in t.attrs(INDEX_BUILD)], default=0) / 2**20

    runs = t.attrs(ENGINE_RUN)
    steps = sum(a.get("steps", 0) for a in runs)
    loop_s = t.total([ENGINE_RUN]) - sum(
        t.total([name], within=ENGINE_RUN)
        for name in (INDEX_BUILD, MC_PVALUE, CLOSED_TESTING))
    v["engine.self_s"] = t.self_total(ENGINE_RUN)
    v["engine.steps"] = steps
    v["engine.refits"] = t.count([BAR_LEARNER], within=ENGINE_RUN)
    v["engine.loop_s"] = loop_s
    v["engine.loop_s_per_step"] = loop_s / steps if steps else 0.0
    v["engine.converged_share"] = (
        sum(a.get("converged", False) for a in runs) / len(runs) if runs else 0.0)

    v["multtest.global_tests"] = t.count(["multtest.fisher_combine"])
    draws = [a.get("draws", 0) for a in t.attrs(MC_PVALUE)]
    mc_s = t.total([MC_PVALUE])
    v["randtest.draws"] = sum(draws)
    v["randtest.draws_per_s"] = sum(draws) / mc_s if mc_s > 0 else 0.0
    # Computed, not measured: the M x |J| float64 draw matrix plus its
    # stacked copy with the observed assignment.
    v["randtest.draw_bytes_max"] = 2 * 8 * max(draws, default=0)
    v["cli.self_s"] = t.self_total("cli.main")
    method_runs = t.outermost([RUN_METHOD])
    for method in ("rt", "random_split", "adasplit"):
        v[f"simlab.{method}_s"] = sum(
            t.dur[i] for i in method_runs
            if (tracer.spans[i][ATTRS] or {}).get("method") == method)

    absent = sorted(m for m, (_, names) in PER_LAYER.items()
                    if not any(n in tracer.names for n in names))
    for metric, (_, names) in PER_LAYER.items():
        if metric in absent:
            v[metric] = 0
        elif metric not in v:
            v[metric] = t.count(names) if metric.endswith("_calls") else t.total(names)
    return {m: v[m] for m in PER_LAYER}, absent
