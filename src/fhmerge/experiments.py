"""Verification suites: exact determinants against every predictor.

Each suite returns an ExperimentReport whose verdict is a pure function
of its rows and the declared tolerances.  Exact-identity rows must pass
tightly; asymptotic verdicts are always monotone-improvement statements
across n, never absolute claims at a single size.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .asympt import (
    DEFAULT_C0,
    beta_one_ratio,
    diff_identity_rhs,
    dyson_constant,
    fh1_log,
    fh2_log,
    fk_constants,
    transition_log,
)
from .errors import ValidationError
from .painleve import (
    SigmaTrajectory,
    degenerate_sigma,
    integrate_sigma,
    r_trajectory,
)
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


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for the regime comparison sweep."""

    params: FHParams
    n_list: tuple
    t_rule: str = "fixed-nt"  # fixed-t | fixed-nt | log-grid
    t_value: float | None = None
    nt_values: tuple = (0.2, 1.0, 5.0, 20.0)
    tol_rel: float = 0.05
    # slack for regime-dominance ties: deep in a single regime the better
    # specialised formula can reach its error floor first
    tie_slack: float = 0.10

    def __post_init__(self):
        if not self.n_list or list(self.n_list) != sorted(self.n_list):
            raise ValidationError("n_list must be nonempty ascending")
        if self.t_rule not in ("fixed-t", "fixed-nt", "log-grid"):
            raise ValidationError(f"unknown t_rule {self.t_rule!r}")
        if self.t_rule == "fixed-t" and self.t_value is None:
            raise ValidationError("fixed-t rule needs t_value")
        if len(self.nt_values) == 0:
            raise ValidationError("empty grid")

    def grid(self):
        for n in self.n_list:
            if self.t_rule == "fixed-t":
                yield n, float(self.t_value)
            else:
                nts = (
                    np.geomspace(self.nt_values[0], self.nt_values[-1], len(self.nt_values))
                    if self.t_rule == "log-grid"
                    else self.nt_values
                )
                for nt in nts:
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

    def to_csv(self, path):
        if not self.rows:
            raise ValidationError("no rows to write")
        cols = list(self.rows[0].keys())
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(row.get(c, "")) for c in cols) + "\n")

    def to_json(self, path):
        payload = {
            "suite": self.suite,
            "verdict": bool(self.verdict),
            "worst_row": self.worst_row,
            "runtime_s": round(self.runtime_s, 3),
            "summary": self.summary,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
            fh.write("\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}j"
    return str(v)


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
        p = cfg.params
        if (p.alpha1, p.alpha2, p.beta1, p.beta2) == (0.0, 0.0, 0.0, 0.0):
            # smooth symbol: the transition correction vanishes identically
            traj = degenerate_sigma(x_max=max(20.0, 1.05 * x_needed))
        else:
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
        <= min(r["err_fh1"], r["err_fh2"]) * (1.0 + cfg.tie_slack) + 1e-5
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


def _logdet_stencil(p: FHParams, n: int, t: float, h: float):
    """ln D_n at the five-point stencil around t (continuous branch)."""
    ts = [t + k * h for k in (-2, -1, 0, 1, 2)]
    if ts[0] <= 0.0:
        raise ValidationError("stencil crosses t = 0; increase t or shrink h")
    path = det_path(p, n, ts)
    return np.array([ld.log for ld in path])


def _stencil_derivs(ls: np.ndarray, h: float):
    d1 = (ls[0] - 8 * ls[1] + 8 * ls[3] - ls[4]) / (12 * h)
    d2 = (-ls[0] + 16 * ls[1] - 30 * ls[2] + 16 * ls[3] - ls[4]) / (12 * h * h)
    d3 = (-ls[0] + 2 * ls[1] - 2 * ls[3] + ls[4]) / (2 * h**3)
    return d1, d2, d3


def sigma_from_determinants(p: FHParams, n: int, x_grid, h: float | None = None):
    """Estimate (sigma, sigma_x, sigma_xx) at each x from exact determinants.

    Inverts the symmetric-parameter transition expansion: requires
    beta1 = beta2 = 0 and real alpha1 = alpha2.  Returns a list of
    (x, sigma, sigma_x, sigma_xx, noise) tuples; noise is a Richardson
    comparison of the leading finite difference.
    """
    if p.beta1 != 0.0 or p.beta2 != 0.0 or p.alpha1 != p.alpha2 or p.alpha1.imag != 0.0:
        raise ValidationError("determinant inversion needs beta = 0, alpha1 = alpha2 real")
    alpha = p.alpha1.real
    out = []
    for x in x_grid:
        t = x / (2.0 * n)
        hh = min(max(1e-4, 1e-3 * t), t / 3.0) if h is None else h

        def estimate(step):
            ls = _logdet_stencil(p, n, t, step).real
            l1, l2, l3 = _stencil_derivs(ls, step)
            ct = 1.0 / math.tan(t)
            s2 = 1.0 / math.sin(t) ** 2
            g = t * l1 + 2.0 * alpha**2 * (t * ct - 1.0)
            g1 = l1 + t * l2 + 2.0 * alpha**2 * (ct - t * s2)
            g2 = 2.0 * l2 + t * l3 + 2.0 * alpha**2 * (
                -2.0 * s2 + 2.0 * t * math.cos(t) / math.sin(t) ** 3
            )
            return 2.0 * alpha**2 + g, g1 / (2.0 * n), g2 / (2.0 * n) ** 2

        sig, sig_x, sig_xx = estimate(hh)
        sig_check = estimate(hh / 2.0)[0]
        out.append((x, sig, sig_x, sig_xx, abs(sig - sig_check)))
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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _integrate_det(p_of_t, n: int, t_max: float) -> float:
    """int_0^{t_max} D_n(f_t) dt with geometric refinement near zero."""
    edges = _panel_edges(n, t_max)
    terms = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
            table = fourier_coeffs(p_of_t(mid + half * xi), n - 1)
            terms.append(half * wi * math.exp(log_det(table, n).log_abs))
    return float(np.sum(terms))


def dyson_check(n_list) -> ExperimentReport:
    """Zero-momentum occupation of the free-boson ground state vs sqrt(n).

    rho0(n) = (2/pi) int_0^{pi/2} D_{n-1}(f_t) dt for the square-root
    pair symbol; the ratio rho0/sqrt(n) must approach the closed-form
    constant with strictly shrinking deviation.
    """
    start = time.time()
    cd = dyson_constant()
    rows = []
    for n in n_list:
        rho0 = (2.0 / math.pi) * _integrate_det(
            lambda t: FHParams(0.5, 0.5, t=t), n - 1, math.pi / 2.0
        )
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
        summary={"constant": cd, "deviations": devs},
        runtime_s=time.time() - start,
    )


def fk_moment_scan(alpha: float, n_list, t1: float) -> ExperimentReport:
    """Moment integral int_0^{t1} D_n(f_t) dt for the symmetric power symbol.

    Fits the log-log slope across n_list and compares with the regime
    exponent (2 alpha^2, n log n, or 4 alpha^2 - 1); the prefactor is
    compared against the matching closed-form constant when available.
    """
    start = time.time()
    if alpha <= -0.25:
        raise ValidationError("needs alpha > -1/4")
    two_a2 = 2.0 * alpha * alpha
    critical = abs(two_a2 - 1.0) < 1e-12
    if two_a2 > 1.0 and not critical:
        # sigma does not depend on the tables: a failing solve fails first
        traj = integrate_sigma(FHParams(alpha, alpha, t=0.1), x_max=80.0)
    rows = []
    for n in n_list:
        m = _integrate_det(lambda t: FHParams(alpha, alpha, t=t), n, t1)
        rows.append({"n": n, "moment": m})
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
        },
        runtime_s=time.time() - start,
    )


def diff_identity_scan(
    p: FHParams, n: int, t_grid, traj: SigmaTrajectory | None = None
) -> ExperimentReport:
    """Finite differences of exact ln D_n against the derivative expansion."""
    start = time.time()
    t_grid = sorted(float(t) for t in t_grid)
    if traj is None:
        traj = integrate_sigma(p, x_max=max(20.0, 2.2 * n * max(t_grid)))

    rows = []
    for t in t_grid:
        h = max(1e-4, 1e-3 * t)
        ls = _logdet_stencil(p.with_t(t), n, t, h)
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


def beta_one_check(
    p: FHParams, n_list, nt_list, c0: float = DEFAULT_C0, identity_n: int = 8
) -> ExperimentReport:
    """Shifted-symbol determinant ratio: exact vs the two-branch prediction.

    Also verifies the exact finite-n identity connecting D_{n-1} of the
    shifted symbol to the orthogonal-polynomial data of the original one
    (at n = identity_n, tolerance 1e-8).
    """
    start = time.time()
    if (p.beta1 - p.beta2).real != 0.0:
        raise ValidationError("needs Re beta1 = Re beta2")
    traj = integrate_sigma(p, x_max=max(25.0, 2.2 * max(nt_list)))
    rt = r_trajectory(p, traj)
    rows = []
    for n in n_list:
        for nt in nt_list:
            t = float(nt) / n
            pt = p.with_t(t)
            pm = pt.with_betas(pt.beta1, pt.beta2 - 1.0)
            exact_n = _exact_logdet(pt, n)
            exact_m = _exact_logdet(pm, n - 1)
            x = 2.0 * n * t
            r_val = rt.r_at(x) if x <= rt.x_grid[-1] else None
            pred = beta_one_ratio(pt, n, r_val, exact_n, c0=c0)
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

    # exact identity row: vanishing-order-free product from the moment solve
    pid = p.with_t(0.05 if p.t == 0.0 else p.t)
    table = fourier_coeffs(pid, identity_n)
    op = orth_poly(table, identity_n - 1)
    lhs = (
        pid.z2 ** (identity_n - 1)
        * op.hat_phi0_chi
        * np.exp(log_det(table, identity_n).log)
    )
    pm = pid.with_betas(pid.beta1, pid.beta2 - 1.0)
    rhs = np.exp(_exact_logdet(pm, identity_n - 1))
    id_err = abs(lhs - rhs) / abs(rhs)
    rows.append(
        {
            "n": identity_n,
            "t": pid.t,
            "nt": identity_n * pid.t,
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
        summary={"identity_err": id_err, "c0": c0},
        runtime_s=time.time() - start,
    )
