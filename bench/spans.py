"""Span tracer that wraps bathprobe's public functions from outside.

``Tracer.install`` replaces every public module-level function of the seven
layers (cli, fisher, correlations, dynamics, spectral, quadrature, oracle)
with a wrapper that records one span: name, start, end, parent span and job
id.  A function is replaced under every name it is looked up by, in every
bathprobe module, because modules import each other's functions by name
(``spectral.bath_integral``, ``cli.dephasing_factors``); a wrapper missed
there would leave a layer silently empty.  ``uninstall`` restores the
originals.

Spans are kept in flat arrays and aggregated after the run.  A span's self
time is its duration minus the durations of its direct children; a layer's
``calls`` counts its entries, spans whose parent belongs to another layer.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "fisher", "correlations", "dynamics", "spectral",
          "quadrature", "oracle")

# the thermal exponent's production route inside spectral; every other
# spectral function (vacuum forms, phases, c_shift, d_*_dx, and gamma_th's
# analytic T = 0 return) counts as the closed-form group
_THERMAL = frozenset({"gamma_th", "d_gamma_th_d_temperature",
                      "quadrature_factor", "temperature_step"})
_FISHER = {"factor_bundle": "bundle", "optimize_qfi_over_time": "optimize"}
_ORACLE = {"prepare_correlated": "prepare", "evolve_factorized": "evolve",
           "evolve_correlated": "evolve"}

# span names of single functions whose calls are metrics of their own
GAMMA_TH = "spectral.gamma_th"
GAMMA_TH_ZERO = "spectral.gamma_th.zero"
BUNDLE = "fisher.factor_bundle"
OPTIMIZE = "fisher.optimize_qfi_over_time"


def group_of(span_name):
    """Metric group of a span: its layer, or a named part of one."""
    layer, func = span_name.split(".", 1)
    if layer == "spectral":
        return "spectral.gamma_th" if func in _THERMAL else "spectral.closed"
    if layer == "fisher":
        return "fisher." + _FISHER.get(func, "formulas")
    if layer == "oracle":
        return "oracle." + _ORACLE.get(func, "report")
    return layer


def _param_index(fn, name):
    """Position of parameter ``name`` of ``fn``, or None if it has none."""
    params = list(inspect.signature(fn).parameters)
    return params.index(name) if name in params else None


class Tracer:
    """Records spans of wrapped bathprobe calls, tagged with ``job_id``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.job_id = -1
        self.counts = {}          # (job id, counter) -> total
        self.maxima = {}          # (job id, gauge) -> largest value seen
        self._patches = []

    def _id(self, span_name):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._ids[span_name]

    def count(self, key, n=1):
        k = (self.job_id, key)
        self.counts[k] = self.counts.get(k, 0) + n

    def gauge(self, key, value):
        k = (self.job_id, key)
        self.maxima[k] = max(self.maxima.get(k, 0.0), value)

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [sys.modules["bathprobe"]] + [
            sys.modules[f"bathprobe.{layer}"] for layer in LAYERS]
        for layer in LAYERS:
            mod = sys.modules[f"bathprobe.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(layer, attr, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, key, fn))
                            setattr(m, key, wrapper)

    def uninstall(self):
        for m, key, fn in reversed(self._patches):
            setattr(m, key, fn)
        self._patches.clear()

    def _wrap(self, layer, func, fn):
        span = self._id(f"{layer}.{func}")
        pick = None     # (args, kwargs) -> (span id, args, kwargs)
        after = None    # result -> None
        if (layer, func) == ("spectral", "gamma_th"):
            zero = self._id(GAMMA_TH_ZERO)
            pos = _param_index(fn, "bath")

            def pick(args, kwargs):
                bath = args[pos] if pos is not None and len(args) > pos else kwargs.get("bath")
                return (zero if getattr(bath, "zero_temperature", False) else span), args, kwargs
        elif (layer, func) == ("quadrature", "adaptive_quadrature"):
            pos = _param_index(fn, "f")

            def counting(f):
                def counted(x):
                    self.count("quadrature.points", np.size(x))
                    return f(x)
                return counted

            def pick(args, kwargs):
                if pos is not None and len(args) > pos:
                    args = args[:pos] + (counting(args[pos]),) + args[pos + 1:]
                elif "f" in kwargs:
                    kwargs["f"] = counting(kwargs["f"])
                return span, args, kwargs
        elif (layer, func) == ("quadrature", "bath_integral"):
            def after(result):
                value, err = result
                if value != 0.0:
                    self.gauge("quadrature.max_rel_err", err / abs(value))
        elif (layer, func) == ("fisher", "optimize_qfi_over_time"):
            def after(result):
                self.count("fisher.boundary_hits", int(result.boundary_hit))
        elif (layer, func) == ("oracle", "truncation_info"):
            def after(result):
                self.count("oracle.truncation_ok", int(result.ok))

        names, parents, jobs = self.name, self.parent, self.job
        starts, ends = self.start, self.end
        perf = time.perf_counter

        def traced(*args, **kwargs):
            sid = span
            if pick is not None:
                sid, args, kwargs = pick(args, kwargs)
            idx = len(starts)
            names.append(sid)
            parents.append(self.current)
            jobs.append(self.job_id)
            ends.append(0.0)
            prev = self.current
            self.current = idx
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if prev < 0 or self.names[names[prev]].split(".")[0] != layer:
                    self.count(f"{layer}.errors")
                raise
            finally:
                ends[idx] = perf()
                self.current = prev
            if after is not None:
                after(result)
            return result

        return traced

    # -- aggregation -----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays (name id, parent index, job id, start, end)."""
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.job, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def summary(self, job_ids=None):
        """Per-layer metrics over all spans, or over the spans of ``job_ids``."""
        name, parent, job, start, end = self.arrays()
        n = name.size
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_t = dur - child
        layer_ids = {}
        group_ids = {}
        layer_of = np.array([layer_ids.setdefault(s.split(".")[0], len(layer_ids))
                             for s in self.names], dtype=np.int64)
        group_of_name = np.array([group_ids.setdefault(group_of(s), len(group_ids))
                                  for s in self.names], dtype=np.int64)
        span_layer = layer_of[name]
        span_group = group_of_name[name]
        safe_parent = np.where(has_parent, parent, 0)
        layer_entry = ~has_parent | (span_layer != span_layer[safe_parent])
        group_entry = ~has_parent | (span_group != span_group[safe_parent])
        sel = np.ones(n, dtype=bool) if job_ids is None else np.isin(job, list(job_ids))

        def by_layer(key):
            if key not in layer_ids:
                return 0.0, 0
            m = sel & (span_layer == layer_ids[key])
            return float(self_t[m].sum()), int((m & layer_entry).sum())

        def by_group(key):
            if key not in group_ids:
                return 0.0, 0
            m = sel & (span_group == group_ids[key])
            return float(self_t[m].sum()), int((m & group_entry).sum())

        def spans_of(span_name):
            if span_name not in self._ids:
                return np.zeros(n, dtype=bool)
            return sel & (name == self._ids[span_name])

        def counter(key):
            return sum(v for (j, k), v in self.counts.items()
                       if k == key and (job_ids is None or j in job_ids))

        def gauge(key):
            return max((v for (j, k), v in self.maxima.items()
                        if k == key and (job_ids is None or j in job_ids)),
                       default=0.0)

        bundles = spans_of(BUNDLE)
        optimizes = spans_of(OPTIMIZE)
        # bundles evaluated inside an optimization: walk each bundle's parents
        under_opt = np.zeros(n, dtype=bool)
        anc = np.where(bundles, parent, -1)
        opt_mask = name == self._ids.get(OPTIMIZE, -1)
        while np.any(anc >= 0):
            live = anc >= 0
            under_opt[live] |= opt_mask[anc[live]]
            anc = np.where(live, parent[np.where(live, anc, 0)], -1)
        n_bundles = int(bundles.sum())
        n_opt = int(optimizes.sum())
        n_gamma_th = int(spans_of(GAMMA_TH).sum())

        quad_s, quad_calls = by_layer("quadrature")
        th_s, _ = by_group("spectral.gamma_th")
        closed_s, closed_calls = by_group("spectral.closed")
        corr_s, corr_calls = by_layer("correlations")
        dyn_s, dyn_calls = by_layer("dynamics")
        bundle_s, _ = by_group("fisher.bundle")
        formulas_s, _ = by_group("fisher.formulas")
        oracle_s, oracle_calls = by_layer("oracle")
        prep_s, _ = by_group("oracle.prepare")
        evolve_s, _ = by_group("oracle.evolve")
        cli_s, _ = by_layer("cli")
        return {
            "quadrature.calls": quad_calls,
            "quadrature.points": counter("quadrature.points"),
            "quadrature.self_s": quad_s,
            "quadrature.max_rel_err": gauge("quadrature.max_rel_err"),
            "quadrature.errors": counter("quadrature.errors"),
            "spectral.gamma_th.calls": n_gamma_th,
            "spectral.gamma_th.self_s": th_s,
            "spectral.gamma_th_per_bundle": n_gamma_th / n_bundles if n_bundles else 0.0,
            "spectral.closed.calls": closed_calls,
            "spectral.closed.self_s": closed_s,
            "correlations.calls": corr_calls,
            "correlations.self_s": corr_s,
            "dynamics.calls": dyn_calls,
            "dynamics.self_s": dyn_s,
            "fisher.bundle.calls": n_bundles,
            "fisher.bundle.self_s": bundle_s,
            "fisher.optimize.calls": n_opt,
            "fisher.bundles_per_optimize": (int(under_opt.sum()) / n_opt
                                            if n_opt else 0.0),
            "fisher.boundary_hits": counter("fisher.boundary_hits"),
            "fisher.formulas.self_s": formulas_s,
            "oracle.calls": oracle_calls,
            "oracle.self_s": oracle_s,
            "oracle.prepare.self_s": prep_s,
            "oracle.evolve.self_s": evolve_s,
            "oracle.truncation_ok": counter("oracle.truncation_ok"),
            "cli.self_s": cli_s,
        }

    def save(self, path):
        name, parent, job, start, end = self.arrays()
        np.savez_compressed(path, name=name, parent=parent, job=job,
                            start=start, end=end,
                            names=np.array(self.names))
