"""Verification suites: exact determinants against every predictor.

Each suite returns an ExperimentReport whose verdict is a pure function
of its rows and the declared tolerances.  Exact-identity rows must pass
tightly; asymptotic verdicts are always monotone-improvement statements
across n, never absolute claims at a single size.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .asympt import (
    DEFAULT_C0,
    _transition_terms,
    beta_one_ratio,
    diff_identity_rhs,
    dyson_constant,
    fh1_log,
    fh2_log,
    fk_constants,
    transition_log,
)
from .errors import NumericalError, ValidationError, check_size
from .painleve import SigmaTrajectory, integrate_sigma, r_trajectory, sigma_zero
from .quadrature import gauss_legendre_panels
from .symbol import FHParams, fourier_coeffs
from .toeplitz import det_path, log_det, orth_poly

__all__ = [
    "SweepConfig",
    "ExperimentReport",
    "regime_sweep",
    "sigma_from_determinants",
    "dyson_check",
    "fk_moment_scan",
    "diff_identity_scan",
    "beta_one_check",
]


# slack for regime-dominance ties: deep in a single regime the better
# specialised formula can reach its error floor first
_TIE_SLACK = 0.10
_IDENTITY_N = 8  # size of beta_one_check's exact identity row


def _check_n_list(n_list, least: int = 1, sizes: int = 1) -> None:
    """Raise ValidationError unless n_list holds at least `sizes` sizes,
    strictly ascending from at least `least`."""
    n = list(n_list)
    if len(n) < sizes or n[0] < least or any(a >= b for a, b in zip(n, n[1:])):
        raise ValidationError(f"n_list {n} is not {sizes}+ ascending sizes from {least} up")


def _check_t(n: int, t: float) -> None:
    """Raise ValidationError unless t = nt/n lies in (0, pi)."""
    if not 0.0 < t < math.pi:
        raise ValidationError(f"nt = {n * t:g} at n = {n} puts t = nt/n = {t:g} outside (0, pi)")


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for the regime comparison sweep; every t of the
    grid lies in (0, pi), checked here, before any sigma is solved."""

    params: FHParams
    n_list: tuple
    t_rule: str = "fixed-nt"  # fixed-t | fixed-nt
    t_value: float | None = None
    nt_values: tuple = (0.2, 1.0, 5.0, 20.0)

    def __post_init__(self):
        _check_n_list(self.n_list)
        if self.t_rule not in ("fixed-t", "fixed-nt"):
            raise ValidationError(f"unknown t_rule {self.t_rule!r}")
        if self.t_rule == "fixed-t" and self.t_value is None:
            raise ValidationError("fixed-t rule needs t_value")
        if len(self.nt_values) == 0:
            raise ValidationError("empty grid")
        for n, t in self.grid():
            _check_t(n, t)

    def grid(self):
        for n in self.n_list:
            if self.t_rule == "fixed-t":
                yield n, float(self.t_value)
            else:
                for nt in self.nt_values:
                    yield n, float(nt) / n


@dataclass
class ExperimentReport:
    suite: str
    rows: list
    verdict: bool
    summary: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    @property
    def worst_row(self):
        keyed = [r for r in self.rows if "err" in r]
        if not keyed:
            return None
        return max(keyed, key=lambda r: r["err"])

    def to_csv(self, path=None) -> str:
        """The rows as CSV text, also written to path when one is given."""
        if not self.rows:
            raise ValidationError("no rows to write")
        cols = list(self.rows[0].keys())
        text = _csv_text(cols, ([row.get(c, "") for c in cols] for row in self.rows))
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def to_json(self, path):
        payload = {
            "suite": self.suite,
            "verdict": bool(self.verdict),
            "worst_row": self.worst_row,
            "runtime_s": round(self.runtime_s, 3),
            "summary": self.summary,
        }
        with open(path, "w") as fh:
            fh.write(json_text(payload))


def _json_value(v):
    """json's fallback: a complex number as [re, im], anything else as its str."""
    return [v.real, v.imag] if isinstance(v, complex) else str(v)


def json_text(payload) -> str:
    """payload as indented JSON through _json_value; the CLI writes through it too."""
    return json.dumps(payload, indent=2, default=_json_value) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}j"
    return str(v)


def _csv_text(header, rows) -> str:
    """A header line, then each row's values through _fmt, comma-joined."""
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _exact_logdet(p: FHParams, n: int) -> complex:
    table = fourier_coeffs(p, n - 1)
    return log_det(table, n).log


def _mod_2pi_err(a: complex, b: complex) -> float:
    """|a - b| with the imaginary parts compared modulo 2 pi."""
    d = a - b
    return abs(complex(d.real, math.remainder(d.imag, 2.0 * math.pi)))


def regime_sweep(cfg: SweepConfig, traj: SigmaTrajectory | None = None) -> ExperimentReport:
    """Exact ln D_n against all three regimes on the configured grid.

    The verdict asserts the uniformity pattern: the transition error is
    below min(single-singularity, fixed-t) at every point, and its
    maximum does not grow along n_list.
    """
    start = time.time()
    grid = list(cfg.grid())
    x_needed = max(2.0 * n * t for n, t in grid)
    if traj is None:
        traj = integrate_sigma(cfg.params, x_max=max(20.0, 1.05 * x_needed))

    rows = []
    for n, t in grid:
        pt = cfg.params.with_t(t)
        exact = _exact_logdet(pt, n)
        row = {"n": n, "t": t, "x": 2.0 * n * t, "exact": exact}
        preds = {
            "fh1": fh1_log(pt.merged(), n).log_value,
            "fh2": fh2_log(pt, n).log_value,
            "transition": transition_log(pt, n, traj).log_value,
        }
        for name, val in preds.items():
            row[f"log_{name}"] = val
            row[f"err_{name}"] = _mod_2pi_err(val, exact)
        row["err"] = row["err_transition"]
        rows.append(row)
    rows.sort(key=lambda r: (r["n"], r["t"]))
    dominance = all(
        r["err_transition"]
        <= min(r["err_fh1"], r["err_fh2"]) * (1.0 + _TIE_SLACK) + 1e-5
        for r in rows
    )
    max_err = {
        n: max(r["err_transition"] for r in rows if r["n"] == n) for n in cfg.n_list
    }
    improving = all(
        max_err[b] <= max_err[a] + 1e-12 for a, b in zip(cfg.n_list, cfg.n_list[1:])
    )
    return ExperimentReport(
        suite="regimes",
        rows=rows,
        verdict=dominance and improving,
        summary={"dominance": dominance, "improving": improving, "max_err": max_err},
        runtime_s=time.time() - start,
    )


def _stencil(t: float, h: float):
    """The five-point stencil t - 2h, ..., t + 2h, refused unless it lies in (0, pi)."""
    ts = [t + k * h for k in (-2, -1, 0, 1, 2)]
    if not (0.0 < min(ts) and max(ts) < math.pi):
        raise ValidationError(f"stencil {ts[0]:g} .. {ts[-1]:g} around t = {t:g} leaves (0, pi)")
    return ts


def _logdet_stencil(p: FHParams, n: int, t: float, h: float):
    """The five-point stencil around t and ln D_n on it (continuous branch)."""
    ts = _stencil(t, h)
    path = det_path(p, n, ts)
    return ts, np.array([ld.log for ld in path])


def _stencil_derivs(ls: np.ndarray, h: float):
    d1 = (ls[0] - 8 * ls[1] + 8 * ls[3] - ls[4]) / (12 * h)
    d2 = (-ls[0] + 16 * ls[1] - 30 * ls[2] + 16 * ls[3] - ls[4]) / (12 * h * h)
    d3 = (-ls[0] + 2 * ls[1] - 2 * ls[3] + ls[4]) / (2 * h**3)
    return d1, d2, d3


def sigma_from_determinants(p: FHParams, n: int, x_grid):
    """Estimate (sigma, sigma_x, sigma_xx) at each x from exact determinants.

    Inverts transition_log, so covers every set it covers (seminorm < 1):
    w(t) = ln D_n(f_t) - (its explicit terms) is omega(2nt) + o(1), and
    w's t-derivatives on a five-point stencil at t = x / 2n give sigma =
    sigma(0) + t w', sigma_x = (w' + t w'') / 2n, sigma_xx = (2 w'' + t w''') / (2n)^2.
    Returns (x, sigma, sigma_x, sigma_xx, noise) tuples; noise is the
    change of sigma when the stencil step is halved.
    """
    sig0 = sigma_zero(p)
    out = []
    for x in x_grid:
        t = x / (2.0 * n)
        h = min(max(1e-4, 1e-3 * t), t / 3.0)

        def estimate(step):
            ts, ls = _logdet_stencil(p, n, t, step)
            w = ls - [sum(_transition_terms(p.with_t(tk), n).values()) for tk in ts]
            w1, w2, w3 = _stencil_derivs(w, step)
            return sig0 + t * w1, (w1 + t * w2) / (2.0 * n), (2.0 * w2 + t * w3) / (2.0 * n) ** 2

        sig, sig_x, sig_xx = estimate(h)
        out.append((x, sig, sig_x, sig_xx, abs(sig - estimate(h / 2.0)[0])))
    return out


def _panel_edges(n: int, t_max: float):
    """Quadrature panels refined near t = 0 on the 1/n variation scale."""
    edges = [0.0]
    c = 2.0 / n
    while c < t_max:
        edges.append(c)
        c *= 4.0
    edges.append(t_max)
    return edges


def _t_nodes(n: int, t_max: float):
    """16-point Gauss-Legendre nodes and weights on each panel of _panel_edges."""
    return gauss_legendre_panels(_panel_edges(n, t_max))


def _integrate_det(p_of_t, n_list, t_max: float):
    """int_0^{t_max} D_n(f_t) dt for each n in n_list, one table and one
    factor per t-node.

    The t-nodes are those of the largest n, whose panels are the finest
    near t = 0.  At each node the table at max(n) - 1 is built and one
    log_det call factors T_max(n) by Cholesky; every D_n is read from its
    leading minors.  Returns the integrals in the order of n_list and a
    record of the t-quadrature: the panel n, the number of t-nodes and of
    tables.  The symbols are real, mirror-even and positive, so each table
    is float and each D_k is positive; a factor that stops at a block that
    is not positive raises NumericalError naming that D_k.
    """
    n_top = max(n_list)
    ts, ws = _t_nodes(n_top, t_max)
    orders = np.asarray(n_list)
    dets = np.empty((len(ts), len(n_list)))
    for i, t in enumerate(ts):
        minors = log_det(fourier_coeffs(p_of_t(t), n_top - 1), n_top).minors
        if len(minors) <= n_top:
            raise NumericalError(f"D_{len(minors)} at t = {t:.6g} is not positive")
        dets[i] = np.exp(minors[orders])
    t_quad = {"panel_n": n_top, "t_nodes": len(ts), "tables": len(ts)}
    return ws @ dets, t_quad


def dyson_check(n_list) -> ExperimentReport:
    """Zero-momentum occupation of the free-boson ground state vs sqrt(n).

    rho0(n) = (2/pi) int_0^{pi/2} D_{n-1}(f_t) dt for the square-root
    pair symbol; the ratio rho0/sqrt(n) must approach the closed-form
    constant with strictly shrinking deviation.  n_list is ascending with
    every n >= 2, since rho0(n) reads D_{n-1}.
    """
    _check_n_list(n_list, least=2)
    start = time.time()
    cd = dyson_constant()
    integrals, t_quad = _integrate_det(
        lambda t: FHParams(0.5, 0.5, t=t), [n - 1 for n in n_list], math.pi / 2.0
    )
    rows = []
    for n, integral in zip(n_list, integrals):
        rho0 = (2.0 / math.pi) * float(integral)
        ratio = rho0 / math.sqrt(n)
        rows.append(
            {
                "n": n,
                "rho0": rho0,
                "ratio": ratio,
                "err": abs(ratio - cd) / cd,
            }
        )
    devs = [r["err"] for r in rows]
    verdict = all(b < a for a, b in zip(devs, devs[1:])) and devs[-1] < 0.10
    return ExperimentReport(
        suite="dyson",
        rows=rows,
        verdict=verdict,
        summary={"constant": cd, "deviations": devs, "t_quadrature": t_quad},
        runtime_s=time.time() - start,
    )


def fk_moment_scan(alpha: float, n_list, t1: float) -> ExperimentReport:
    """Moment integral int_0^{t1} D_n(f_t) dt for the symmetric power symbol.

    Fits the log-log slope across n_list and compares with the regime
    exponent (2 alpha^2, n log n, or 4 alpha^2 - 1); the prefactor is
    compared against the matching closed-form constant when available.
    n_list is two or more ascending sizes n >= 2 (the critical regime
    divides by n ln n); the prefactor is read at the largest.
    """
    _check_n_list(n_list, least=2, sizes=2)
    start = time.time()
    if alpha <= -0.25:
        raise ValidationError("needs alpha > -1/4")
    two_a2 = 2.0 * alpha * alpha
    critical = abs(two_a2 - 1.0) < 1e-12
    if two_a2 > 1.0 and not critical:
        # sigma does not depend on the tables: a failing solve fails first
        traj = integrate_sigma(FHParams(alpha, alpha, t=0.1), x_max=80.0)
    moments, t_quad = _integrate_det(lambda t: FHParams(alpha, alpha, t=t), n_list, t1)
    rows = [{"n": n, "moment": float(m)} for n, m in zip(n_list, moments)]
    lns = np.log(np.array([r["n"] for r in rows], dtype=float))
    if critical:
        vals = np.log([r["moment"] / (r["n"] * math.log(r["n"])) for r in rows])
        slope = float(np.polyfit(lns, vals, 1)[0])
        expected = 0.0
        prefactor = math.exp(float(np.mean(vals)))
        reference = fk_constants(alpha).c2
    else:
        vals = np.log([r["moment"] for r in rows])
        slope = float(np.polyfit(lns, vals, 1)[0])
        expected = two_a2 if two_a2 < 1.0 else 4.0 * alpha * alpha - 1.0
        prefactor = math.exp(float(vals[-1] - expected * lns[-1]))
        if two_a2 < 1.0:
            reference = fk_constants(alpha).c1(t1)
        else:
            reference = fk_constants(alpha).c3(traj)
    for row in rows:
        row["err"] = abs(slope - expected)
    return ExperimentReport(
        suite="fk",
        rows=rows,
        verdict=bool(abs(slope - expected) < (0.1 if two_a2 < 1.0 else 0.15)),
        summary={
            "alpha": alpha,
            "slope": slope,
            "expected": expected,
            "prefactor": prefactor,
            "reference_constant": reference,
            "t_quadrature": t_quad,
        },
        runtime_s=time.time() - start,
    )


def diff_identity_scan(
    p: FHParams, n: int, t_grid, traj: SigmaTrajectory | None = None
) -> ExperimentReport:
    """Finite differences of exact ln D_n against the derivative expansion;
    n >= 1 and every stencil t +- 2h in (0, pi) are checked before sigma is solved."""
    start = time.time()
    check_size(n)
    t_grid = sorted(float(t) for t in t_grid)
    steps = [max(1e-4, 1e-3 * t) for t in t_grid]
    for t, h in zip(t_grid, steps):
        _stencil(t, h)
    if traj is None:
        traj = integrate_sigma(p, x_max=max(20.0, 2.2 * n * max(t_grid)))

    rows = []
    for t, h in zip(t_grid, steps):
        _, ls = _logdet_stencil(p.with_t(t), n, t, h)
        lhs = _stencil_derivs(ls, h)[0] / 1j
        rhs = diff_identity_rhs(p, n, t, traj)
        rows.append({"n": n, "t": t, "lhs": lhs, "rhs": rhs, "err": abs(lhs - rhs)})
    max_err = max(r["err"] for r in rows)
    return ExperimentReport(
        suite="diffid",
        rows=rows,
        verdict=bool(np.isfinite(max_err)),
        summary={"max_err": max_err},
        runtime_s=time.time() - start,
    )


def _shifted_logdet(p: FHParams, n: int):
    """ln D_n(f) and ln D_{n-1}(f_{beta2-1}) from one table of f, through

        D_{n-1}(f_{beta2-1}) = z2^(n-1) hat-phi_n(0) chi_n D_n(f):

    f_{beta2-1}(z) = -z2 z^-1 f(z) gives T_{n-1}(f_{beta2-1}) = -z2 T_n(f)[1:, :-1],
    and Cramer's rule.  The second arg is in (-pi, pi], as slogdet's."""
    table = fourier_coeffs(p, n - 1)
    ld = log_det(table, n)
    shift = p.pair[1].z ** (n - 1) * orth_poly(table, n - 1).hat_phi0_chi
    arg = cmath.phase(shift * cmath.rect(1.0, ld.arg))
    return ld.log, complex(ld.log_abs + math.log(abs(shift)), arg)


def beta_one_check(p: FHParams, n_list, nt_list) -> ExperimentReport:
    """Shifted-symbol determinant ratio: exact vs the two-branch prediction.

    Each row reads both determinants from one table of f at t = nt/n,
    through the exact finite-n identity of _shifted_logdet.  The identity
    row checks that identity at n = _IDENTITY_N against an independent
    table of the shifted symbol (tolerance 1e-8).  n_list is ascending
    from 2 and every t = nt/n lies in (0, pi), both checked before sigma
    is solved.
    """
    start = time.time()
    if (p.beta1 - p.beta2).real != 0.0:
        raise ValidationError("needs Re beta1 = Re beta2")
    _check_n_list(n_list, least=2)
    for n in n_list:
        for nt in nt_list:
            _check_t(n, nt / n)
    traj = integrate_sigma(p, x_max=max(25.0, 2.2 * max(nt_list)))
    rt = r_trajectory(p, traj)
    rows = []
    for n in n_list:
        for nt in nt_list:
            t = float(nt) / n
            pt = p.with_t(t)
            exact_n, exact_m = _shifted_logdet(pt, n)
            pred = beta_one_ratio(pt, n, rt.r_at(2.0 * n * t), exact_n)
            err = abs(np.exp(pred.log_value) - np.exp(exact_m)) / abs(np.exp(exact_m))
            rows.append(
                {
                    "n": n,
                    "t": t,
                    "nt": nt,
                    "branch": pred.notes["branch"],
                    "exact": exact_m,
                    "pred": pred.log_value,
                    "err": err,
                }
            )

    # exact identity row: the rows' identity against the shifted symbol's own table
    pid = p.with_t(0.05 if p.t == 0.0 else p.t)
    lhs = np.exp(_shifted_logdet(pid, _IDENTITY_N)[1])
    pm = pid.with_betas(pid.beta1, pid.beta2 - 1.0)
    rhs = np.exp(_exact_logdet(pm, _IDENTITY_N - 1))
    id_err = abs(lhs - rhs) / abs(rhs)
    rows.append(
        {
            "n": _IDENTITY_N,
            "t": pid.t,
            "nt": _IDENTITY_N * pid.t,
            "branch": "identity",
            "exact": complex(rhs),
            "pred": complex(lhs),
            "err": id_err,
        }
    )
    verdict = id_err < 1e-8
    return ExperimentReport(
        suite="betaone",
        rows=rows,
        verdict=verdict,
        summary={"identity_err": id_err, "c0": DEFAULT_C0},
        runtime_s=time.time() - start,
    )
