"""Per-layer tracing from outside the program.

`Tracer.install()` replaces, in every loaded ddfilter module, the names
that module imported from a layer (for example `ddfilter.coherence.
integrate` and `ddfilter.optimize.chi`) with wrappers that record a span
(name, start, end, parent, thread) and count the work passed through.
The integrand handed to `integrate` is wrapped too, which counts
integrand points and refinement rounds. Spans stay in memory and are
written out when the run ends; `metrics()` turns them into per-layer
figures per pass of the workload.

A layer's self time is its spans' durations less the part of each span
that its child spans cover. Worker threads (the coherence_curve pool)
attach their spans to the span open on the main thread.
"""

import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

now = time.perf_counter


class Tracer:
    def __init__(self, dd):
        self.dd = dd
        self.spans = []                 # [name, start, end, parent record, thread]
        self.counts = defaultdict(float)
        self.main_thread = threading.get_ident()
        self.main_stack = []
        self.local = threading.local()
        self.patches = []               # (owner, attribute, original)
        self.mc_calls = []              # [time steps, modes] per Monte Carlo call

    # ---------------------------------------------------------------- spans

    def _stack(self):
        if threading.get_ident() == self.main_thread:
            return self.main_stack
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else (self.main_stack[-1] if self.main_stack else None)
        rec = [name, now(), 0.0, parent, threading.get_ident()]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = now()
        self._stack().pop()

    def current(self):
        stack = self._stack()
        if stack:
            return stack[-1][0]
        return self.main_stack[-1][0] if self.main_stack else None

    def wrap(self, fn, name, after=None, on_error=None, before=None):
        """fn inside a span; after(args, kwargs, result) counts its work."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                args, kwargs = before(args, kwargs)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(rec)
                if on_error:
                    on_error(exc)
                raise
            tracer._close(rec)
            if after:
                after(args, kwargs, out)
            return out

        return wrapper

    def counter(self, fn, key):
        """fn with a count of its calls and no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------- patching

    def _replace(self, module_name, attr, make):
        """Swap `attr` of module_name, and every ddfilter module's import of
        the same object, for make(original)."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "ddfilter" or name.startswith("ddfilter.")) and \
                    getattr(mod, attr, None) is original:
                self.patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def _replace_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        self.patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self):
        dd, c = self.dd, self.counts

        def size(x):
            try:
                return len(x)
            except TypeError:
                return 1

        # filters: calls and u-points x pulses
        def filt_after(args, kwargs, out):
            c["filters.calls"] += 1
            c["filters.u_pulse_points"] += size(args[1]) * max(args[0].n, 1)

        for attr in ("filter_value", "filter_value_finite"):
            self._replace("ddfilter.filters", attr,
                          lambda f: self.wrap(f, "filters", after=filt_after))

        # spectra: points evaluated
        def spec_after(args, kwargs, out):
            c["spectra.points"] += size(out)

        for cls in (dd.OhmicSharpCutoff, dd.WhiteBand, dd.PowerLaw, dd.SupraOhmicExp, dd.Tabulated):
            self._replace_method(cls, "evaluate",
                                 lambda f: self.wrap(f, "spectra", after=spec_after))

        # quadrature: calls, panels, integrand points and rounds, failures
        def quad_before(args, kwargs):
            f = args[0]

            def integrand(x):
                c["quadrature.integrand_points"] += size(x)
                c["quadrature.integrand_calls"] += 1
                return f(x)

            return (integrand,) + tuple(args[1:]), kwargs

        def quad_after(args, kwargs, out):
            c["quadrature.integrate_calls"] += 1
            c["quadrature.panels"] += out[2]

        def quad_error(exc):
            c["quadrature.integrate_calls"] += 1
            if type(exc).__name__ == "ToleranceNotMet":
                c["quadrature.tolerance_failures"] += 1

        self._replace("ddfilter.quadrature", "integrate",
                      lambda f: self.wrap(f, "quadrature", after=quad_after,
                                          on_error=quad_error, before=quad_before))

        # coherence
        self._replace("ddfilter.coherence", "chi", lambda f: self.wrap(f, "coherence.chi"))
        self._replace("ddfilter.coherence", "coherence_curve",
                      lambda f: self.wrap(f, "coherence.curve"))

        # metrics: one span per entry point, nested calls included
        for attr in ("filter_metrics", "bandpass_profile", "filter_ratio", "omega_f1",
                     "rolloff", "passband_stats"):
            self._replace("ddfilter.metrics", attr, lambda f: self.wrap(f, "metrics"))
        self._replace_method(dd.FilterSamples, "evaluate",
                             lambda f: self.counter(f, "metrics.refine_evals"))

        # sequences
        self._replace("ddfilter.sequences", "max_order",
                      lambda f: self.wrap(f, "sequences.max_order"))
        self._replace_method(dd.PulseSequence, "__post_init__",
                             lambda f: self.counter(f, "sequences.build_calls"))

        # optimize: each design call, each Nelder-Mead start, each objective
        for attr in ("optimize_lodd", "optimize_ofdd", "optimize_badd"):
            self._replace("ddfilter.optimize", attr, lambda f: self.wrap(f, "optimize"))

        def nm_before(args, kwargs):
            objective = self.wrap(args[0], "optimize.objective")
            return (objective,) + tuple(args[1:]), kwargs

        self._replace("ddfilter.optimize", "minimize",
                      lambda f: self.wrap(f, "optimize.nm", before=nm_before))

        # oracle
        def lags_after(args, kwargs, out):
            c["oracle.autocov_lags"] += size(args[1])

        self._replace("ddfilter.oracle", "autocovariance",
                      lambda f: self.wrap(f, "oracle.autocov", after=lags_after))
        self._replace("ddfilter.oracle", "grammian_chi", lambda f: self.wrap(f, "oracle.grammian"))

        def mc_before(args, kwargs):
            steps = kwargs["n_steps"] if "n_steps" in kwargs else args[4]
            self.mc_calls.append([steps, 0])
            return args, kwargs

        def mc_after(args, kwargs, out):
            c["oracle.mc_realizations"] += out.n_realizations

        self._replace("ddfilter.oracle", "monte_carlo_w",
                      lambda f: self.wrap(f, "oracle.mc", before=mc_before, after=mc_after))

        def eval_spectrum(f):
            # the one spectrum evaluation inside monte_carlo_w is on its modes
            @functools.wraps(f)
            def wrapper(spec, omega):
                if self.current() == "oracle.mc" and self.mc_calls:
                    self.mc_calls[-1][1] = size(omega)
                return f(spec, omega)
            return wrapper

        self._replace("ddfilter.oracle", "eval_spectrum", eval_spectrum)
        self._replace("ddfilter.oracle", "oracle_report", lambda f: self.wrap(f, "oracle.report"))

        # io and cli
        def write_after(args, kwargs, out):
            c["io.writes"] += 1
            c["io.bytes"] += len(args[1].encode())

        self._replace("ddfilter.io", "atomic_write_text",
                      lambda f: self.wrap(f, "io.write", after=write_after))
        self._replace("ddfilter.cli", "main", lambda f: self.wrap(f, "cli.main"))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def wrap_ops(self, ops):
        """One span around each benchmark operation."""
        for op in ops:
            op.call = self.wrap(op.call, "op")

    # -------------------------------------------------------------- results

    def write(self, path):
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, tid) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(start - t0, 9), round(end - t0, 9),
                                     index[id(parent)] if parent is not None else None,
                                     tid]) + "\n")

    def _children(self):
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append(rec)
        return children

    def _self_times(self, children):
        """Self time per span name, and the covered time per span record."""
        totals = defaultdict(float)
        covered = {}
        for rec in self.spans:
            busy = covered_time(rec, children[id(rec)])
            covered[id(rec)] = busy
            totals[rec[0]] += (rec[2] - rec[1]) - busy
        return totals, covered

    def metrics(self, passes):
        """Per-layer figures per pass of the operation list."""
        c = self.counts
        children = self._children()
        selft, covered = self._self_times(children)
        per = lambda x: x / passes
        dur = defaultdict(float)
        for rec in self.spans:
            dur[rec[0]] += rec[2] - rec[1]
        chi_ms = [1e3 * (r[2] - r[1]) for r in self.spans if r[0] == "coherence.chi"]
        nm_objective = [r for r in self.spans if r[0] == "optimize.objective"]
        top_metrics = sum(1 for r in self.spans
                          if r[0] == "metrics" and (r[3] is None or r[3][0] != "metrics"))
        outside_nm = sum((r[2] - r[1]) - covered_time(
            r, [ch for ch in children[id(r)] if ch[0] == "optimize.nm"])
            for r in self.spans if r[0] == "optimize")
        curve_overhead = sum((r[2] - r[1]) - covered[id(r)]
                             for r in self.spans if r[0] == "coherence.curve")
        ratio = lambda a, b: a / b if b else 0.0
        panels, qcalls = c["quadrature.panels"], c["quadrature.integrate_calls"]
        mc_s = dur["oracle.mc"]
        out = {
            "filters.calls": (per(c["filters.calls"]), "count"),
            "filters.u_pulse_points": (per(c["filters.u_pulse_points"]), "count"),
            "filters.ns_per_u_pulse": (1e9 * ratio(selft["filters"], c["filters.u_pulse_points"]), "ns"),
            "filters.self_s": (per(selft["filters"]), "s"),
            "spectra.points": (per(c["spectra.points"]), "count"),
            "spectra.ns_per_point": (1e9 * ratio(selft["spectra"], c["spectra.points"]), "ns"),
            "quadrature.integrate_calls": (per(qcalls), "count"),
            "quadrature.panels": (per(panels), "count"),
            "quadrature.integrand_points": (per(c["quadrature.integrand_points"]), "count"),
            # each round evaluates the 21- and 10-point rules once
            "quadrature.rounds": (per(c["quadrature.integrand_calls"] / 2.0 - qcalls), "count"),
            "quadrature.points_per_panel": (ratio(c["quadrature.integrand_points"], panels), "count"),
            "quadrature.tolerance_failures": (per(c["quadrature.tolerance_failures"]), "count"),
            "quadrature.self_s": (per(selft["quadrature"]), "s"),
            "coherence.chi_calls": (per(len(chi_ms)), "count"),
            "coherence.chi_p50_ms": (statistics.median(chi_ms) if chi_ms else 0.0, "ms"),
            "coherence.curve_overhead_s": (per(curve_overhead), "s"),
            "metrics.calls": (per(top_metrics), "count"),
            "metrics.refine_evals": (per(c["metrics.refine_evals"]), "count"),
            "metrics.self_s": (per(selft["metrics"]), "s"),
            "sequences.max_order_s": (per(dur["sequences.max_order"]), "s"),
            "sequences.build_calls": (per(c["sequences.build_calls"]), "count"),
            "optimize.nm_starts": (per(sum(1 for r in self.spans if r[0] == "optimize.nm")), "count"),
            "optimize.objective_evals": (per(len(nm_objective)), "count"),
            "optimize.objective_ms": (1e3 * ratio(dur["optimize.objective"], len(nm_objective)), "ms"),
            "optimize.outside_nm_s": (per(outside_nm), "s"),
            "oracle.autocov_s": (per(dur["oracle.autocov"]), "s"),
            "oracle.autocov_lags": (per(c["oracle.autocov_lags"]), "count"),
            "oracle.grammian_s": (per(dur["oracle.grammian"]), "s"),
            "oracle.mc_s": (per(mc_s), "s"),
            "oracle.mc_realizations_per_s": (ratio(c["oracle.mc_realizations"], mc_s), "1/s"),
            # computed, not measured: the largest modes x steps complex128 matrix
            "oracle.mc_matrix_mb": (max((s * m for s, m in self.mc_calls), default=0) * 16 / 1e6,
                                    "MB"),
            "io.writes": (per(c["io.writes"]), "count"),
            "io.bytes": (per(c["io.bytes"]), "count"),
            "io.write_s": (per(dur["io.write"]), "s"),
            "cli.main_s": (per(dur["cli.main"]), "s"),
        }
        return out


def covered_time(rec, kids):
    """The part of rec's interval that the spans in kids cover."""
    busy, end = 0.0, rec[1]
    for a, b in sorted((max(k[1], rec[1]), min(k[2], rec[2])) for k in kids):
        a = max(a, end)
        if b > a:
            busy += b - a
            end = b
    return busy
