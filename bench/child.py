"""One repetition of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 bench/child.py <workload> <seed> <trace 0|1> <spawn time>

Imports fhmerge (paid before timing; the time from <spawn time>, the
parent's time.time() when it started this process, to the end of the
imports is reported as ready_s), runs the workload's operations
through the library's public calls, and prints one JSON line: wall and CPU
seconds and peak resident memory of the operations, each operation's
outputs or error, the thread settings, and with trace 1 the per-layer
figures.  It checks nothing: bench/run.py checks the outputs against
oracles computed without fhmerge.
"""

import ctypes
import json
import os
import resource
import sys
import time

import fhmerge
from fhmerge import asympt, experiments, painleve, symbol, toeplitz
from fhmerge.symbol import FHParams

import draws
from tracing import Tracer

READY_S = time.time() - float(sys.argv[4])


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


# -- workloads: each returns [(operation name, thunk)] ------------------------


def _dyson(seed):
    def run():
        rep = experiments.dyson_check(draws.DYSON_N)
        return {
            "n": [r["n"] for r in rep.rows],
            "rho0": [r["rho0"] for r in rep.rows],
            "constant": rep.summary["constant"],
            "verdict": bool(rep.verdict),
        }

    return [("dyson_check", run)]


def _dyson_extra():
    """D_n of the Dyson symbol at t = 0, computed after the timed interval."""
    n = draws.DYSON_T0_N
    table = symbol.fourier_coeffs(FHParams(0.5, 0.5, t=0.0), n - 1)
    return {"n": n, "log_d": _c(toeplitz.log_det(table, n).log)}


def _predictions(p, traj):
    out = []
    for n in draws.PREDICT_N:
        for nt in draws.PREDICT_NT:
            pt = p.with_t(nt / n)
            out.append({
                "n": n,
                "nt": nt,
                "transition": _c(asympt.transition_log(pt, n, traj).log_value),
                "fh2": _c(asympt.fh2_log(pt, n).log_value),
                "fh1": _c(asympt.fh1_log(pt.merged(), n).log_value),
            })
    return out


def _sigma_set(params):
    def run():
        p = FHParams(*params)
        traj = painleve.integrate_sigma(p, x_max=draws.SIGMA_X_MAX)
        rt = painleve.r_trajectory(p, traj)
        lhs, rhs, disc = painleve.integral_identity_check(p, traj, draws.IDENTITY_T)
        return {
            "x": traj.x_grid.tolist(),
            "sigma": [_c(v) for v in traj.sigma],
            "sigma_x": [_c(v) for v in traj.sigma_x],
            "sigma_xx": [_c(v) for v in traj.sigma_xx],
            "r": [_c(v) for v in rt.r],
            "identity": {"lhs": _c(lhs), "rhs": _c(rhs), "disc": float(disc)},
            "predict": _predictions(p, traj),
        }

    return run


def _degenerate():
    p = FHParams(*draws.DEGENERATE)
    traj = painleve.degenerate_sigma(x_max=draws.SIGMA_X_MAX + 3.0)
    rt = painleve.r_trajectory(p, traj)
    lhs, rhs, _ = painleve.integral_identity_check(p, traj, draws.IDENTITY_T)
    n = draws.DEGENERATE_N
    return {
        "x": traj.x_grid.tolist(),
        "r": [_c(v) for v in rt.r],
        "identity": {"lhs": _c(lhs), "rhs": _c(rhs)},
        "predict": _predictions(p, traj),
        "log_d": _c(toeplitz.log_det(symbol.fourier_coeffs(p, n - 1), n).log),
    }


def _regime_sweep():
    cfg = experiments.SweepConfig(
        params=FHParams(*draws.SUITE_PARAMS), n_list=draws.REGIME_N, nt_values=draws.REGIME_NT
    )
    rep = experiments.regime_sweep(cfg)
    return {
        "verdict": bool(rep.verdict),
        "rows": [
            {"n": r["n"], "t": r["t"], "err_transition": r["err_transition"]} for r in rep.rows
        ],
    }


def _strong(alpha):
    def run():
        traj = painleve.integrate_sigma(FHParams(alpha, alpha, t=0.1), x_max=draws.STRONG_X_MAX)
        return {"residual": float(traj.residual.max())}

    return run


def _sigma_family(seed):
    ops = [(f"set{i}", _sigma_set(q)) for i, q in enumerate(draws.sigma_family_sets(seed))]
    ops.append(("degenerate", _degenerate))
    ops.append(("regime_sweep", _regime_sweep))
    ops += [(f"strong{a}", _strong(a)) for a in draws.STRONG_ALPHAS]
    return ops


def _betaone():
    rep = experiments.beta_one_check(
        FHParams(*draws.SUITE_PARAMS), draws.BETAONE_N, draws.BETAONE_NT
    )
    return {
        "verdict": bool(rep.verdict),
        "identity_err": float(rep.summary["identity_err"]),
        "rows": [
            {"n": r["n"], "nt": r["nt"], "branch": r["branch"], "err": float(r["err"])}
            for r in rep.rows
        ],
    }


def _shift_identity(n):
    """Terms of z2^(n-1) hat_phi_n(0) chi_n D_n(f) = D_(n-1)(f z^-1 shifted)."""

    def run():
        p = FHParams(*draws.SUITE_PARAMS)
        table = symbol.fourier_coeffs(p, n)
        op = toeplitz.orth_poly(table, n - 1)
        pm = p.with_betas(p.beta1, p.beta2 - 1.0)
        return {
            "n": n,
            "hat_phi0_chi": _c(op.hat_phi0_chi),
            "log_d": _c(toeplitz.log_det(table, n).log),
            "log_d_shifted": _c(toeplitz.log_det(symbol.fourier_coeffs(pm, n - 2), n - 1).log),
        }

    return run


def _beta_shift(seed):
    n = draws.SHIFT_N
    p = FHParams(*draws.shifted_params(seed))
    out = {}
    for k in (0, 1, -1):
        q = p.with_betas(p.beta1 + k, p.beta2 - k)
        out[str(k)] = _c(toeplitz.log_det(symbol.fourier_coeffs(q, n - 1), n).log)
    return out


def _merged_product(seed):
    n = draws.SHIFT_N
    p = FHParams(*draws.shifted_params(seed)).with_t(0.0)
    return {"log_d": _c(toeplitz.log_det(symbol.fourier_coeffs(p, n - 1), n).log)}


def _shifted_ratio(seed):
    ops = [("beta_one_check", _betaone)]
    ops += [(f"identity{n}", _shift_identity(n)) for n in draws.BETAONE_N]
    ops.append(("beta_shift", lambda: _beta_shift(seed)))
    ops.append(("merged_product", lambda: _merged_product(seed)))
    return ops


WORKLOADS = {"dyson": _dyson, "sigma-family": _sigma_family, "shifted-ratio": _shifted_ratio}


# -- environment ----------------------------------------------------------


def _blas_threads():
    """Thread count of each OpenBLAS library loaded in this process."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def main():
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    ops = WORKLOADS[workload](seed)
    tracer = None
    sites = {}
    if trace:
        tracer = Tracer()
        mods = [m for name, m in sys.modules.items()
                if name == "fhmerge" or name.startswith("fhmerge.")]
        sites = tracer.install(mods)
    results = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for name, run in ops:
        try:
            results.append({"name": name, "out": run()})
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    layer = tracer.metrics() if tracer else None
    extra = _dyson_extra() if workload == "dyson" else None
    print(json.dumps({
        "fhmerge": os.path.dirname(os.path.abspath(fhmerge.__file__)),
        "ready_s": READY_S,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "ops": results,
        "extra": extra,
        "env": {"blas_threads": _blas_threads(), "cpu_count": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0))},
        "trace": None if tracer is None else {
            "metrics": layer, "sites": sites, "max_parallel": tracer.max_parallel()},
    }))


if __name__ == "__main__":
    main()
