"""Span tracing of the package from outside, by wrapping its public functions.

Each public function of a layer module is replaced, in every module that
binds it (``fracstab.simulator.ml_scalar``, ``fracstab.cli.simulate_mild``,
...), by a wrapper that records one span: name, start, end and parent span.
Coefficient callables are wrapped where the coefficient factories return
them.  Spans are kept in memory in flat arrays; ``Tracer.save`` writes them
out when the run ends.  ``installed`` removes every wrapper on exit, so
traced and untraced calls can alternate in one process.
"""

import contextlib
import dataclasses
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("fraccalc", "spectral", "coefficients", "criteria", "simulator", "moments", "cli")
# modules that import layer functions without being a layer themselves
_BINDERS = ("config",)
_FACTORIES = ("make_linear", "make_bounded_smooth", "make_additive_noise")
_SIMULATE = ("simulator.simulate_mild", "simulator.simulate_integral_form")


def ml_regime(alpha, z):
    """Argument regime of a scalar Mittag-Leffler call, by the branch
    boundaries the package documents (series radius 2, asymptotics from 25)."""
    if isinstance(z, complex) and z.imag != 0.0:
        return "complex"
    x = z.real if isinstance(z, complex) else float(z)
    if x < 0.0 and alpha < 1.0:
        if x <= -25.0:
            return "asymptotic"
        if x < -2.0:
            return "neg_real_integral"
    return "series"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.child = array("d")   # time covered by direct children
        self._stack = []
        self.counters = Counter()

    def _id(self, name):
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        par = self.parent[idx]
        if par >= 0:
            self.child[par] += t - self.start[idx]

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(self._id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, fn, on_result=None):
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def wrap_ml_scalar(self, fn):
        ids = {r: self._id(f"fraccalc.ml_scalar.{r}")
               for r in ("series", "neg_real_integral", "asymptotic", "complex")}

        @functools.wraps(fn)
        def traced(alpha, beta, z, *args, **kwargs):
            idx = self.open(ids[ml_regime(alpha, z)])
            try:
                return fn(alpha, beta, z, *args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def table(self):
        """Per-span arrays: name id, duration, self time, parent."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        dur = end - start
        return (np.frombuffer(self.name, dtype=np.int64), dur,
                dur - np.frombuffer(self.child, dtype=float),
                np.frombuffer(self.parent, dtype=np.int64))

    def save(self, path, env):
        names, _, _, parent = self.table()
        np.savez_compressed(
            path, names=np.array(self.names), name=names,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float), parent=parent,
            env=np.array(repr(env)))


def _ensemble_bytes(out):
    return sum(v.nbytes for v in vars(out).values() if isinstance(v, np.ndarray))


def _wrappers(tracer):
    """{original function: wrapper} for the public functions of every layer,
    plus the coefficient factories."""
    counters = tracer.counters

    def on_sim(out):
        counters["simulator.ensemble_bytes"] += _ensemble_bytes(out)
        counters["simulator.steps"] += out.grid.N

    def on_picard(out):
        counters["simulator.ensemble_bytes"] += _ensemble_bytes(out)
        counters["simulator.picard.iterations"] += out.iterations

    def on_brownian(out):
        counters["simulator.ensemble_bytes"] += out.increments.nbytes

    hooks = {"simulate_mild": on_sim, "simulate_integral_form": on_sim,
             "picard_path_solve": on_picard, "brownian_increments": on_brownian}

    def wrap_factory(name, fn):
        made = tracer.wrap(f"coefficients.{name}", fn)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            cs = made(*args, **kwargs)
            return dataclasses.replace(
                cs, g=tracer.wrap("coefficients.g", cs.g),
                b=tracer.wrap("coefficients.b", cs.b),
                sigma=tracer.wrap("coefficients.sigma", cs.sigma))

        return factory

    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"fracstab.{layer}")
        names = ["main"] if layer == "cli" else mod.__all__
        for name in names:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn):
                continue
            if layer == "fraccalc" and name == "ml_scalar":
                out[fn] = tracer.wrap_ml_scalar(fn)
            elif layer == "coefficients" and name in _FACTORIES:
                out[fn] = wrap_factory(name, fn)
            else:
                out[fn] = tracer.wrap(f"{layer}.{name}", fn, hooks.get(name))
    return out


@contextlib.contextmanager
def installed(tracer):
    """Bind the wrappers under every module-level name that refers to a
    wrapped function, and restore the originals on exit."""
    wrappers = _wrappers(tracer)
    patched = []
    for mod_name in LAYERS + _BINDERS:
        mod = importlib.import_module(f"fracstab.{mod_name}")
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                patched.append((mod, attr, val))
                setattr(mod, attr, wrappers[val])
    try:
        yield
    finally:
        for mod, attr, val in patched:
            setattr(mod, attr, val)


def layer_metrics(tracer, n_iter):
    """Per-iteration per-layer numbers from the spans and counters."""
    names, dur, self_t, parent = tracer.table()
    k = len(tracer.names)
    calls = np.bincount(names, minlength=k).astype(float)
    total = np.bincount(names, weights=dur, minlength=k)
    selfs = np.bincount(names, weights=self_t, minlength=k)
    by = {n: (calls[i], total[i], selfs[i]) for i, n in enumerate(tracer.names)}

    def get(name):
        return by.get(name, (0.0, 0.0, 0.0))

    per = 1.0 / n_iter
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value) * per, "unit": unit}

    for fn in ("simulator.simulate_mild", "simulator.simulate_integral_form",
               "spectral.kernel_bounds_profile", "criteria.certify", "cli.main",
               "simulator.picard_path_solve"):
        _, s, sf = get(fn)
        put(f"{fn}.s", s, "s")
        put(f"{fn}.self_s", sf, "s")
    for fn in ("simulator.picard_path_solve", "fraccalc.ml_matrix", "criteria.certify",
               "spectral.eigen_decomposition", "coefficients.g", "coefficients.b",
               "coefficients.sigma"):
        put(f"{fn}.calls", get(fn)[0], "count")
    for fn in ("fraccalc.ml_matrix", "spectral.ml_norm_sup", "simulator.brownian_increments",
               "moments.pth_moment_curve", "moments.stability_verdict"):
        put(f"{fn}.s", get(fn)[1], "s")
    ml_calls = ml_s = 0.0
    for regime in ("series", "neg_real_integral", "asymptotic", "complex"):
        c, s, _ = get(f"fraccalc.ml_scalar.{regime}")
        put(f"fraccalc.ml_scalar.{regime}.calls", c, "count")
        put(f"fraccalc.ml_scalar.{regime}.s", s, "s")
        ml_calls, ml_s = ml_calls + c, ml_s + s
    put("fraccalc.ml_scalar.calls", ml_calls, "count")
    put("fraccalc.ml_scalar.s", ml_s, "s")
    put("coefficients.s", sum(get(f"coefficients.{f}")[1] for f in ("g", "b", "sigma")), "s")

    # g calls made directly by a march (the neutral fixed point plus the
    # memory history), per marched step
    g_id = tracer._ids.get("coefficients.g")
    sim_ids = [tracer._ids[n] for n in _SIMULATE if n in tracer._ids]
    g_in_march = 0
    if g_id is not None and sim_ids:
        par = parent[names == g_id]
        par = par[par >= 0]
        g_in_march = int(np.isin(names[par], sim_ids).sum())
    steps = tracer.counters["simulator.steps"]
    m["coefficients.g.calls_per_step"] = {
        "value": g_in_march / steps if steps else 0.0, "unit": "count"}
    for key, unit in (("simulator.picard.iterations", "count"),
                      ("simulator.ensemble_bytes", "B"),
                      ("fraccalc.accuracy_warnings", "count"),
                      ("cli.bytes_written", "B")):
        put(key, tracer.counters[key], unit)
    root = tracer._ids.get("bench.iteration")
    wall = float(total[root]) if root is not None else 0.0
    m["trace.self_sum_over_wall"] = {"value": float(selfs.sum()) / wall if wall else 0.0,
                                     "unit": "ratio"}
    put("trace.spans", len(names), "count")
    return m
