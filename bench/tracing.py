"""Per-layer spans for the traced benchmark run, recorded from outside fhmerge.

`install()` replaces each traced function at every module of the fhmerge
package that binds it (the suites do ``from .symbol import fourier_coeffs``,
so patching ``fhmerge.symbol`` alone would record nothing).  A span is keyed
by its layer.  Counts and seconds are aggregated when a span closes, so
memory stays flat however many calls a run makes:

- ``calls`` and ``seconds`` count outermost spans only; a span opened inside
  another span of the same key (a retry, or a predictor calling another) is
  counted in ``nested`` and its time is already inside its parent's.
- a span whose parent is a suite (``experiments.*``) is appended to that
  suite's children; in a pool worker the thread's stack is empty, so the
  active suite is the parent.  Suite self time is its duration minus the
  union of its children's intervals; busy time is the children's sum.
"""

import functools
import threading
import time
from collections import defaultdict

SUITE = "experiments.suite"


class _Suite:
    def __init__(self, start):
        self.start = start
        self.end = None
        self.children = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._suite = None
        self.calls = defaultdict(int)
        self.nested = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.suites = []
        self._tables_seen = set()

    def stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, key, fn, before=None, after=None):
        """fn traced under key; before(args, kwargs) runs inside the span
        and its return value reaches after(ctx, args, kwargs, result)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack()
            nested = key in stack
            suite = tracer._suite
            if key == SUITE:
                suite = tracer._suite = _Suite(time.perf_counter())
                parent_suite = None
            else:
                parent_suite = suite if (not stack or stack[-1] == SUITE) else None
            stack.append(key)
            t0 = time.perf_counter()
            try:
                ctx = before(args, kwargs) if before else None
                result = fn(*args, **kwargs)
                if after:
                    after(ctx, args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    if nested:
                        tracer.nested[key] += 1
                    else:
                        tracer.calls[key] += 1
                        tracer.seconds[key] += t1 - t0
                    if parent_suite is not None:
                        parent_suite.children.append((t0, t1))
                    if key == SUITE:
                        suite.end = t1
                        tracer.suites.append(suite)
                        tracer._suite = None

        return traced

    def add(self, name, amount):
        with self._lock:
            self.counts[name] += amount

    # -- hooks for the work counters -------------------------------------

    def _table_before(self, args, kwargs):
        p = args[0] if args else kwargs["p"]
        n_max = int(args[1] if len(args) > 1 else kwargs["n_max"])
        tol = float(args[2] if len(args) > 2 else kwargs.get("tol", 1e-11))
        key = (p, n_max, tol)
        with self._lock:
            if key in self._tables_seen:
                self.counts["repeat_calls"] += 1
            self._tables_seen.add(key)
        # coefficients the table needs: the j >= 0 half for a real symbol
        modes = n_max + 1 if p.is_real_symbol() else 2 * n_max + 1
        self._local.table = [modes, False]
        return self._local.table

    def _table_after(self, ctx, args, kwargs, result):
        modes, computed = ctx
        if computed:  # the call built the table rather than hitting the cache
            self.add("modes", modes)
        self._local.table = None

    def _arc_rule_after(self, ctx, args, kwargs, result):
        nodes = len(result.x)
        self.add("nodes", nodes)
        table = getattr(self._local, "table", None)
        if table is not None and "symbol.fourier_coeffs" in self.stack():
            table[1] = True
            self.add("node_modes", nodes * table[0])

    def _log_det_after(self, ctx, args, kwargs, result):
        n = int(args[1] if len(args) > 1 else kwargs["n"])
        self.add("flops", 8.0 * n**3 / 3.0)  # complex LU, computed not counted

    def _solve_ivp_after(self, ctx, args, kwargs, result):
        self.add("nfev", int(result.nfev))

    # -- installation ------------------------------------------------------

    def _targets(self):
        from scipy.integrate import solve_ivp

        from fhmerge import asympt, experiments, painleve, quadrature, specfun, symbol, toeplitz

        return [
            ("quadrature.arc_rule", [quadrature.arc_rule], None, self._arc_rule_after),
            ("symbol.fourier_coeffs", [symbol.fourier_coeffs], self._table_before,
             self._table_after),
            ("toeplitz.log_det", [toeplitz.log_det], None, self._log_det_after),
            ("toeplitz.orth_poly", [toeplitz.orth_poly], None, None),
            ("toeplitz.det_path", [toeplitz.det_path], None, None),
            ("painleve.integrate_sigma", [painleve.integrate_sigma], None, None),
            ("painleve.solve_ivp", [solve_ivp], None, self._solve_ivp_after),
            ("painleve.r_trajectory", [painleve.r_trajectory], None, None),
            ("painleve.integral_identity_check", [painleve.integral_identity_check], None,
             None),
            ("asympt.predict", [
                asympt.fh1_log, asympt.fh2_log, asympt.fh2_odd_log, asympt.transition_log,
                asympt.beta_one_ratio, asympt.diff_identity_rhs, asympt.dyson_constant,
                asympt.fk_constants,
            ], None, None),
            ("specfun", [specfun.log_gamma, specfun.log_barnes_g], None, None),
            (SUITE, [
                experiments.regime_sweep, experiments.dyson_check, experiments.fk_moment_scan,
                experiments.diff_identity_scan, experiments.beta_one_check,
                experiments.sigma_from_determinants,
            ], None, None),
        ]

    def install(self, modules):
        """Wrap every traced function at each of the given modules that binds
        it; returns {key: number of sites wrapped}."""
        sites = defaultdict(int)
        for key, fns, before, after in self._targets():
            for fn in fns:
                wrapper = self.wrap(key, fn, before, after)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            sites[key] += 1
        return dict(sites)

    # -- results -------------------------------------------------------------

    def max_parallel(self):
        """Most suite children that ran at once: the pool size in effect."""
        events = sorted((t, d) for s in self.suites for a, b in s.children
                        for t, d in ((a, 1), (b, -1)))
        running = most = 0
        for _, d in events:
            running += d
            most = max(most, running)
        return most

    def metrics(self):
        self_s = busy_s = 0.0
        for suite in self.suites:
            covered, reach = 0.0, suite.start
            for a, b in sorted(suite.children):
                a, b = max(a, reach), min(b, suite.end)
                if b > a:
                    covered += b - a
                    reach = b
            self_s += (suite.end - suite.start) - covered
            busy_s += sum(b - a for a, b in suite.children)
        c, s, n = self.calls, self.seconds, self.counts
        return {
            "quadrature.arc_rule.calls": c["quadrature.arc_rule"],
            "quadrature.nodes": n["nodes"],
            "quadrature.arc_rule.s": s["quadrature.arc_rule"],
            "symbol.fourier_coeffs.calls": c["symbol.fourier_coeffs"],
            "symbol.fourier_coeffs.s": s["symbol.fourier_coeffs"],
            "symbol.fourier_coeffs.modes": n["modes"],
            "symbol.node_modes": n["node_modes"],
            "symbol.fourier_coeffs.repeat_calls": n["repeat_calls"],
            "toeplitz.log_det.calls": c["toeplitz.log_det"],
            "toeplitz.log_det.s": s["toeplitz.log_det"],
            "toeplitz.log_det.flops": n["flops"],
            "toeplitz.orth_poly.calls": c["toeplitz.orth_poly"],
            "toeplitz.orth_poly.s": s["toeplitz.orth_poly"],
            "toeplitz.det_path.s": s["toeplitz.det_path"],
            "painleve.integrate_sigma.calls": c["painleve.integrate_sigma"],
            "painleve.integrate_sigma.retries": self.nested["painleve.integrate_sigma"],
            "painleve.integrate_sigma.s": s["painleve.integrate_sigma"],
            "painleve.solve_ivp.calls": c["painleve.solve_ivp"],
            "painleve.solve_ivp.nfev": n["nfev"],
            "painleve.solve_ivp.s": s["painleve.solve_ivp"],
            "painleve.r_trajectory.s": s["painleve.r_trajectory"],
            "painleve.integral_identity_check.s": s["painleve.integral_identity_check"],
            "asympt.predict.calls": c["asympt.predict"],
            "asympt.predict.s": s["asympt.predict"],
            "specfun.calls": c["specfun"],
            "specfun.s": s["specfun"],
            "experiments.self_s": self_s,
            "experiments.busy_s": busy_s,
        }
