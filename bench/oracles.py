"""Checks of the workloads' outputs against oracles computed without fhmerge.

Each check function takes the outputs of one repetition (operation name ->
outputs; failed operations are absent) and returns a list of failure
messages and a dict of figures worth reporting.  The oracles:

- C_D = sqrt(e/pi) 2^(-5/6) A^(-6) Gamma(1/4)^2 with mpmath;
- the merged (t = 0) determinant as the product
  D_n = prod_{k<n} G(k+1) G(k+1+2a) / (G(k+1+a+b) G(k+1+a-b)) of Gamma
  functions (scipy.special.loggamma), which gives D_n = n + 1 for the Dyson
  symbol and D_n = 1 for the degenerate pair;
- the degenerate pair alpha = beta = 1/2: D_n = 1, sigma = 0 and
  r(-ix) = -sin(x/2) / (x/2)^2 exactly;
- the Barnes-G side of the integral identity with mpmath.barnesg;
- exact identities: the quartic sigma-form relation on the trajectory, the
  finite-n shifted-symbol identity, and the beta-shift identity
  D_n(beta1 + k, beta2 - k) = e^(-2iknt) D_n(beta1, beta2).
"""

import cmath
import math

import mpmath
import numpy as np
from scipy.special import loggamma

import draws

EXACT_TOL = 1e-8  # exact identities at n <= 256, as the suites gate them
QUARTIC_TOL = 1e-6  # scaled residual of the sigma-form relation
IDENTITY_TOL = 5e-3  # integral-identity discrepancy at T = 40, beta = 0 sets
BARNES_TOL = 1e-8


def _z(pair):
    return complex(pair[0], pair[1])


def _log_err(a, b):
    """|a - b| with imaginary parts compared modulo 2 pi."""
    d = a - b
    return abs(complex(d.real, math.remainder(d.imag, 2.0 * math.pi)))


def dyson_constant():
    mp = mpmath.mp.clone()
    mp.dps = 30
    return float(
        mp.sqrt(mp.e / mp.pi) * mp.power(2, mp.mpf(-5) / 6) * mp.glaisher ** -6
        * mp.gamma(mp.mpf(1) / 4) ** 2
    )


def product_log_det(n, a, b):
    """ln D_n of the merged pure singularity |z - 1|^(2a) with jump b."""
    k = np.arange(n, dtype=float)
    terms = loggamma(k + 1) + loggamma(k + 1 + 2 * a) - loggamma(k + 1 + a + b) \
        - loggamma(k + 1 + a - b)
    return complex(np.sum(terms))


def barnes_side(a1, a2, b1, b2):
    """Right side of the integral identity, from mpmath.barnesg."""
    lg = lambda z: complex(mpmath.log(mpmath.barnesg(z)))  # noqa: E731
    a, b = a1 + a2, b1 + b2
    return (
        1j * math.pi * (a1 * b2 - a2 * b1)
        - (lg(1 + a + b) + lg(1 + a - b) - lg(1 + 2 * a))
        + lg(1 + a1 + b1) + lg(1 + a1 - b1) + lg(1 + a2 + b2) + lg(1 + a2 - b2)
        - lg(1 + 2 * a1) - lg(1 + 2 * a2)
    )


def quartic_residual(params, x, sigma, sigma_x, sigma_xx):
    """Scaled residual of s^2 s_ss^2 = (s - s s_s + 2 s_s^2)^2 - 4 prod(s_s - th_k)
    on the ray s = -ix, where sigma_s = i sigma_x and sigma_ss = -sigma_xx."""
    a1, a2, b1, b2, _ = params
    half = (b1 + b2) / 2.0
    thetas = (-a1 + half, a1 + half, a2 - half, -a2 - half)
    worst = 0.0
    for xv, sg, sx, sxx in zip(x, sigma, sigma_x, sigma_xx):
        s = -1j * xv
        ds, d2s = 1j * _z(sx), -_z(sxx)
        sg = _z(sg)
        aa = sg - s * ds + 2.0 * ds * ds
        quart = 4.0
        for th in thetas:
            quart *= ds - th
        res = abs(s * s * d2s * d2s - aa * aa + quart)
        worst = max(worst, res / (1.0 + abs(sg) ** 2 + abs(s * ds) ** 2))
    return worst


def _decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


def check_dyson(outs, extra):
    fails, figs = [], {}
    cd = dyson_constant()
    out = outs.get("dyson_check")
    if out is not None:
        if abs(out["constant"] - cd) > 1e-12 * cd:
            fails.append(f"dyson constant {out['constant']!r} != mpmath {cd!r}")
        devs = [abs(rho / math.sqrt(n) - cd) / cd for n, rho in zip(out["n"], out["rho0"])]
        figs["dyson_deviations"] = devs
        if list(out["n"]) != list(draws.DYSON_N):
            fails.append(f"dyson rows for n = {out['n']}")
        if not (_decreasing(devs) and devs[-1] < 0.10):
            fails.append(f"dyson deviations {devs} do not shrink to below 0.10")
    n = extra["n"]
    err = _log_err(_z(extra["log_d"]), complex(math.log(n + 1)))
    figs["dyson_t0_err"] = err
    if err > EXACT_TOL:
        fails.append(f"Dyson symbol at t = 0: ln D_{n} off ln(n+1) by {err:.2e}")
    return fails, figs


def _check_sigma_set(name, params, out, fails, figs):
    a1, a2, b1, b2, _ = params
    res = quartic_residual(params, out["x"], out["sigma"], out["sigma_x"], out["sigma_xx"])
    figs["quartic_residual"] = max(figs.get("quartic_residual", 0.0), res)
    if res > QUARTIC_TOL:
        fails.append(f"{name}: quartic residual {res:.2e}")
    if not np.all(np.isfinite(np.array(out["r"]))):
        fails.append(f"{name}: r trajectory not finite")

    ident = out["identity"]
    rhs = barnes_side(a1, a2, b1, b2)
    berr = _log_err(_z(ident["rhs"]), rhs)
    figs["barnes_err"] = max(figs.get("barnes_err", 0.0), berr)
    if berr > BARNES_TOL:
        fails.append(f"{name}: Barnes-G side off mpmath by {berr:.2e}")
    disc = abs(_z(ident["lhs"]) - _z(ident["rhs"]))
    if b1 == 0.0 and b2 == 0.0:
        figs["identity_disc_beta0"] = max(figs.get("identity_disc_beta0", 0.0), disc)
        if disc > IDENTITY_TOL:
            fails.append(f"{name}: integral identity discrepancy {disc:.2e} at beta = 0")
    else:  # recorded, not gated: the cause of the larger gap is not known
        figs["identity_disc_imag_beta"] = max(figs.get("identity_disc_imag_beta", 0.0), disc)

    errs = []
    for n in draws.PREDICT_N:
        row = next(r for r in out["predict"] if r["n"] == n)
        errs.append(_log_err(_z(row["fh1"]), product_log_det(n, a1 + a2, b1 + b2)))
    figs["fh1_err_max_n"] = max(figs.get("fh1_err_max_n", 0.0), errs[-1])
    if not (_decreasing(errs) and errs[-1] < 1e-2):
        fails.append(f"{name}: merged expansion vs product form {errs} not shrinking")
    vals = np.array([r[k] for r in out["predict"] for k in ("transition", "fh2", "fh1")])
    if not np.all(np.isfinite(vals)):
        fails.append(f"{name}: non-finite prediction")


def _check_degenerate(out, fails):
    tiny = 1e-12
    if _log_err(_z(out["log_d"]), 0j) > EXACT_TOL:
        fails.append(f"degenerate pair: ln D_n = {out['log_d']} != 0")
    ident = out["identity"]
    if abs(_z(ident["lhs"])) > tiny or abs(_z(ident["rhs"])) > tiny:
        fails.append(f"degenerate pair: identity sides {ident} != 0")
    r_err = max(
        abs(_z(r) - (-math.sin(x / 2.0) / (x / 2.0) ** 2)) for x, r in zip(out["x"], out["r"])
    )
    if r_err > tiny:
        fails.append(f"degenerate pair: r off its closed form by {r_err:.2e}")
    worst = max(_log_err(_z(r[k]), 0j) for r in out["predict"] for k in ("transition", "fh2", "fh1"))
    if worst > tiny:
        fails.append(f"degenerate pair: predicted ln D_n {worst:.2e} != 0")


def check_sigma_family(outs, seed):
    fails, figs = [], {}
    for i, params in enumerate(draws.sigma_family_sets(seed)):
        out = outs.get(f"set{i}")
        if out is not None:
            _check_sigma_set(f"set{i}", params, out, fails, figs)
    if "degenerate" in outs:
        _check_degenerate(outs["degenerate"], fails)
    sweep = outs.get("regime_sweep")
    if sweep is not None:
        max_err = [max(r["err_transition"] for r in sweep["rows"] if r["n"] == n)
                   for n in draws.REGIME_N]
        if not (sweep["verdict"] and _decreasing(max_err)):
            fails.append(f"regime sweep verdict {sweep['verdict']}, max errors {max_err}")
    for a in draws.STRONG_ALPHAS:
        out = outs.get(f"strong{a}")
        if out is not None and out["residual"] > QUARTIC_TOL:
            fails.append(f"strong{a}: residual {out['residual']:.2e}")
    return fails, figs


def check_shifted_ratio(outs, seed):
    fails, figs = [], {}
    rep = outs.get("beta_one_check")
    if rep is not None:
        if not rep["verdict"] or rep["identity_err"] > EXACT_TOL:
            fails.append(f"beta_one_check verdict {rep['verdict']}, identity {rep['identity_err']}")
        rows = [r for r in rep["rows"] if r["branch"] != "identity"]
        if len(rows) != len(draws.BETAONE_N) * len(draws.BETAONE_NT):
            fails.append(f"beta_one_check returned {len(rows)} ratio rows")
        for nt in draws.BETAONE_NT:
            errs = [r["err"] for r in rows if r["nt"] == nt]
            small = all(r["branch"] == "small" for r in rows if r["nt"] == nt)
            # the small-nt branch errs by O(t) and must improve along n; the
            # large branch errs by O(1/(nt)), which a fixed nt does not shrink
            if max(errs) > 0.05 or (small and not _decreasing(errs)):
                fails.append(f"shifted ratio at nt = {nt}: errors {errs}")
        figs["ratio_err_max"] = max(r["err"] for r in rows)

    t = draws.SUITE_PARAMS[4]
    for n in draws.BETAONE_N:
        out = outs.get(f"identity{n}")
        if out is None:
            continue
        lhs = -1j * (n - 1) * t + cmath.log(_z(out["hat_phi0_chi"])) + _z(out["log_d"])
        err = abs(cmath.exp(lhs - _z(out["log_d_shifted"])) - 1.0)
        figs["shift_identity_err"] = max(figs.get("shift_identity_err", 0.0), err)
        if err > EXACT_TOL:
            fails.append(f"finite-n shifted-symbol identity at n = {n}: {err:.2e}")

    a1, a2, b1, b2, t = draws.shifted_params(seed)
    n = draws.SHIFT_N
    out = outs.get("beta_shift")
    if out is not None:
        base = _z(out["0"])
        for k in (1, -1):
            err = abs(cmath.exp(_z(out[str(k)]) - base + 2j * k * n * t) - 1.0)
            figs["beta_shift_err"] = max(figs.get("beta_shift_err", 0.0), err)
            if err > EXACT_TOL:
                fails.append(f"beta-shift identity k = {k} at n = {n}: {err:.2e}")
    out = outs.get("merged_product")
    if out is not None:
        err = _log_err(_z(out["log_d"]), product_log_det(n, a1 + a2, b1 + b2))
        figs["product_err"] = err
        if err > EXACT_TOL:
            fails.append(f"t = 0 determinant vs product form at n = {n}: {err:.2e}")
    return fails, figs


def check(workload, seed, outs, extra):
    if workload == "dyson":
        return check_dyson(outs, extra)
    if workload == "sigma-family":
        return check_sigma_family(outs, seed)
    return check_shifted_ratio(outs, seed)
