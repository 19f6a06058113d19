"""Closed-form large-n predictors for the log-determinant.

Each predictor returns an AsymptoticPrediction whose named terms sum
exactly to the predicted value, so bookkeeping can be audited row by
row.  Complex-valued determinant logs are compared modulo 2 pi i (or in
exponentiated form) by callers; the constants here use principal
branches throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NondegeneracyError, ValidationError
from .painleve import (
    SigmaTrajectory,
    _is_negative_integer,
    barnes_g_merged_sum,
    barnes_g_pair_sum,
    check_nondegeneracy,
)
from .quadrature import integrate_arc
from .specfun import constants, log_barnes_g, log_gamma
from .symbol import FHParams, wiener_hopf

__all__ = [
    "AsymptoticPrediction",
    "NormalizedBeta",
    "e_constant",
    "fh1_log",
    "fh2_log",
    "normalize_beta",
    "fh2_odd_log",
    "transition_log",
    "beta_one_ratio",
    "diff_identity_rhs",
    "fk_constants",
    "dyson_constant",
    "DEFAULT_T0",
    "DEFAULT_C0",
]

DEFAULT_T0 = 0.5  # upper edge of the transition window in t
DEFAULT_C0 = 20.0  # branch boundary nt = C0 of the shifted-beta ratio


@dataclass(frozen=True)
class AsymptoticPrediction:
    """A log-determinant prediction decomposed into named terms."""

    regime: str
    terms: dict
    residual_order: str
    notes: dict = field(default_factory=dict)

    @property
    def log_value(self) -> complex:
        return complex(sum(self.terms.values()))

    @property
    def value(self) -> complex:
        return cmath.exp(self.log_value)


def _require_seminorm(p: FHParams):
    if p.seminorm >= 1.0:
        raise ValidationError(f"seminorm {p.seminorm} out of range; reduce betas first")


def e_constant(p: FHParams) -> complex:
    """The n-independent constant of the fixed-t two-singularity expansion."""
    if not (0.0 < p.t < math.pi):
        raise ValidationError("constant term needs t in (0, pi)")
    check_nondegeneracy(p, merged=False)
    wh = wiener_hopf(p)
    z1, z2 = p.z1, p.z2
    v0 = wh.v0
    out = wh.szego_sum
    out += 2.0 * (p.beta1 * p.beta2 - p.alpha1 * p.alpha2) * math.log(abs(2.0 * math.sin(p.t)))
    out += 1j * (math.pi - 2.0 * p.t) * (p.alpha1 * p.beta2 - p.alpha2 * p.beta1)
    out += -p.alpha1 * (p.v_at(z1) - v0) + p.beta1 * (wh.log_b_plus(z1) - wh.log_b_minus(z1))
    out += -p.alpha2 * (p.v_at(z2) - v0) + p.beta2 * (wh.log_b_plus(z2) - wh.log_b_minus(z2))
    out += barnes_g_pair_sum(p)
    return out


def fh2_log(p: FHParams, n: int, omega_exponent: float = 0.5) -> AsymptoticPrediction:
    """Fixed-t two-singularity expansion of ln D_n.

    Valid (with error O(n^(seminorm-1))) for t down to omega(n)/n with
    omega(n) = n^omega_exponent; the threshold actually used is recorded
    in the notes.
    """
    _require_seminorm(p)
    wh = wiener_hopf(p)
    terms = {
        "n_linear": n * wh.v0,
        "log_n": (p.alpha1**2 + p.alpha2**2 - p.beta1**2 - p.beta2**2) * math.log(n),
        "constant": e_constant(p),
    }
    t_min = n ** (omega_exponent - 1.0)
    return AsymptoticPrediction(
        regime="FH2",
        terms=terms,
        residual_order=f"O(n^{p.seminorm - 1.0:g})",
        notes={"t_threshold": t_min, "t_ok": p.t >= t_min},
    )


def fh1_log(p: FHParams, n: int) -> AsymptoticPrediction:
    """Merged single-singularity expansion of ln D_n at t = 0."""
    if p.t != 0.0:
        raise ValidationError("single-singularity form applies at t = 0")
    a = p.alpha1 + p.alpha2
    b = p.beta_sum
    if a.real <= -0.5:
        raise ValidationError("needs Re(alpha1+alpha2) > -1/2")
    for c in (a + b, a - b):
        if _is_negative_integer(c):
            raise NondegeneracyError(f"merged combination {c} degenerate")
    wh = wiener_hopf(p)
    constant = wh.szego_sum - a * (p.v_at(1.0) - wh.v0)
    constant += b * (wh.log_b_plus(1.0) - wh.log_b_minus(1.0))
    constant += barnes_g_merged_sum(a, b)
    terms = {
        "n_linear": n * wh.v0,
        "log_n": (a**2 - b**2) * math.log(n),
        "constant": constant,
    }
    return AsymptoticPrediction(regime="FH1", terms=terms, residual_order="O(1/n)")


@dataclass(frozen=True)
class NormalizedBeta:
    """Result of the integer beta-shift reduction.

    params has seminorm < 1 (or exactly 1 in the odd case, where
    params_pair holds the second representative and ell its phase sign).
    The caller owes the determinant a factor e^{2 i k n t}.
    """

    params: FHParams
    k: int
    odd: bool
    params_pair: FHParams | None = None
    ell: int | None = None


def normalize_beta(p: FHParams) -> NormalizedBeta:
    """Shift (beta1, beta2) -> (beta1+k, beta2-k) into the principal band.

    The band is Re(beta1-beta2) in [-1, 1); at an odd-integer seminorm the
    two boundary representatives are returned for the interference form.
    """
    d = (p.beta1 - p.beta2).real
    k = -math.floor((d + 1.0) / 2.0)
    p1 = p.with_betas(p.beta1 + k, p.beta2 - k)
    d1 = d + 2.0 * k  # in [-1, 1)
    if abs(d1) == 1.0:
        ell = 1 if (p1.beta1 - p1.beta2).real < 0.0 else -1
        p2 = p1.with_betas(p1.beta1 + ell, p1.beta2 - ell)
        return NormalizedBeta(params=p1, k=k, odd=True, params_pair=p2, ell=ell)
    return NormalizedBeta(params=p1, k=k, odd=False)


def fh2_odd_log(p: FHParams, n: int) -> AsymptoticPrediction:
    """Two-term interference expansion at odd-integer seminorm."""
    nb = normalize_beta(p)
    if not nb.odd:
        raise ValidationError("seminorm does not reduce to an odd integer")
    pa, pb = nb.params, nb.params_pair
    check_nondegeneracy(pa, merged=False)
    check_nondegeneracy(pb, merged=False)
    wh = wiener_hopf(p)
    exp_a = p.alpha1**2 + p.alpha2**2 - pa.beta1**2 - pa.beta2**2
    exp_b = p.alpha1**2 + p.alpha2**2 - pb.beta1**2 - pb.beta2**2
    branch_a = exp_a * math.log(n) + e_constant(pa)
    branch_b = 2j * n * nb.ell * p.t + exp_b * math.log(n) + e_constant(pb)
    terms = {
        "n_linear": n * (wh.v0 + 2j * nb.k * p.t),
        "interference": cmath.log(cmath.exp(branch_a) + cmath.exp(branch_b)),
    }
    return AsymptoticPrediction(
        regime="FH2-odd",
        terms=terms,
        residual_order="O(1/n)",
        notes={"k": nb.k, "ell": nb.ell, "branch_a": branch_a, "branch_b": branch_b},
    )


def transition_log(
    p: FHParams, n: int, traj: SigmaTrajectory, t: float | None = None
) -> AsymptoticPrediction:
    """Uniform small-t expansion of ln D_n through the merging transition.

    Needs a sigma trajectory covering x = 2 n t.  The t = 0 part is the
    merged single-singularity expansion; everything else is the explicit
    transition correction.
    """
    t = p.t if t is None else t
    if not (0.0 < t < math.pi):
        raise ValidationError("transition form needs t in (0, pi)")
    _require_seminorm(p)
    x = 2.0 * n * t
    wh = wiener_hopf(p)
    merged = fh1_log(p.merged(), n)
    z1, z2 = cmath.exp(1j * t), cmath.exp(-1j * t)
    terms = dict(merged.terms)
    terms["nt_linear"] = 1j * n * t * (p.beta2 - p.beta1)
    terms["painleve_integral"] = traj.omega_at(x)
    terms["sin_ratio"] = (
        2.0 * (p.beta1 * p.beta2 - p.alpha1 * p.alpha2) * math.log(math.sin(t) / t)
    )
    terms["t_linear"] = 2j * t * (p.alpha2 * p.beta1 - p.alpha1 * p.beta2)
    terms["v_shift"] = -p.alpha1 * (p.v_at(z1) - p.v_at(1.0)) - p.alpha2 * (
        p.v_at(z2) - p.v_at(1.0)
    )
    terms["b_shift"] = p.beta1 * (
        wh.log_b_plus(z1) + wh.log_b_minus(1.0) - wh.log_b_minus(z1) - wh.log_b_plus(1.0)
    ) + p.beta2 * (
        wh.log_b_plus(z2) + wh.log_b_minus(1.0) - wh.log_b_minus(z2) - wh.log_b_plus(1.0)
    )
    return AsymptoticPrediction(
        regime="transition",
        terms=terms,
        residual_order="o(1) uniform in t < t0",
        notes={"x": x, "t": t},
    )


def beta_one_ratio(
    p: FHParams,
    n: int,
    r_value: complex | None,
    log_dn: complex,
    c0: float = DEFAULT_C0,
) -> AsymptoticPrediction:
    """Predicted ln D_{n-1} for the beta2 -> beta2 - 1 shifted symbol.

    log_dn is ln D_n(f_t) (exact or itself predicted); r_value supplies
    the Painleve r(-2int) for the small-nt branch and may be None when
    nt > c0.  Within a +-25% window around nt = c0 both branches are
    evaluated and their mismatch recorded in the notes.
    """
    if (p.beta1 - p.beta2).real != 0.0:
        raise ValidationError("ratio form needs Re(beta1) = Re(beta2)")
    t = p.t
    if not (0.0 < t < math.pi):
        raise ValidationError("needs t in (0, pi)")
    nt = n * t
    wh = wiener_hopf(p)
    b = p.beta_sum

    def small_branch() -> complex:
        if r_value is None:
            raise ValidationError("small-nt branch needs r_value")
        factor = (
            -r_value
            * cmath.exp(wh.log_b_minus(1.0) - wh.log_b_plus(1.0))
            * t
            * (nt / math.sin(t)) ** (2.0 * b)
            * cmath.exp(1j * math.pi * (-p.alpha1 + 3.0 * p.beta1 + p.alpha2 + p.beta2))
        )
        return cmath.log(factor)

    def large_branch() -> complex:
        z1, z2 = p.z1, p.z2
        term1 = (
            cmath.exp((2.0 * p.beta1 - 1.0) * math.log(n))
            * z1 ** (-n + 1)
            * cmath.exp(wh.log_b_minus(z1) - wh.log_b_plus(z1))
            * cmath.exp(log_gamma(1.0 + p.alpha1 - p.beta1) - log_gamma(p.alpha1 + p.beta1))
            * cmath.exp(1j * (math.pi - 2.0 * t) * p.alpha2)
            * (2.0 * math.sin(t)) ** (-2.0 * p.beta2)
        )
        term2 = (
            cmath.exp((2.0 * p.beta2 - 1.0) * math.log(n))
            * z2 ** (-n + 1)
            * cmath.exp(wh.log_b_minus(z2) - wh.log_b_plus(z2))
            * cmath.exp(log_gamma(1.0 + p.alpha2 - p.beta2) - log_gamma(p.alpha2 + p.beta2))
            * cmath.exp(1j * (-math.pi + 2.0 * t) * p.alpha1)
            * (2.0 * math.sin(t)) ** (-2.0 * p.beta1)
        )
        return cmath.log(term1 + term2)

    use_small = nt <= c0
    notes = {"nt": nt, "branch": "small" if use_small else "large"}
    if 0.75 * c0 <= nt <= 1.25 * c0 and r_value is not None:
        try:
            notes["branch_mismatch"] = abs(
                cmath.exp(small_branch()) - cmath.exp(large_branch())
            )
        except ValidationError:  # pragma: no cover
            pass
    branch = small_branch() if use_small else large_branch()
    terms = {
        "prefactor": -1j * (n - 1) * t - wh.v0,
        "log_dn": log_dn,
        "branch": branch,
    }
    return AsymptoticPrediction(
        regime="beta-one", terms=terms, residual_order="O(t) or O(1/(nt))", notes=notes
    )


def diff_identity_rhs(p: FHParams, n: int, t: float, traj: SigmaTrajectory) -> complex:
    """Asymptotic form of (1/i) d/dt ln D_n at small t.

    Assembled from the Laurent data and the sigma trajectory at x = 2nt.
    """
    x = 2.0 * n * t
    sig, du, _ = traj.eval(x)
    sig_s = 1j * du
    v = p.v
    d1 = (p.alpha2 - p.alpha1) * p.beta_sum
    for j, vj in v.items():
        if j == 0:
            continue
        d1 += -p.alpha1 * j * vj * cmath.exp(1j * j * t) + p.alpha2 * j * vj * cmath.exp(
            -1j * j * t
        )
    d1 += (
        1j
        * p.beta_sum
        * sum(
            j * (v.get(j, 0.0) - v.get(-j, 0.0)) * math.sin(j * t)
            for j in range(1, max((abs(k) for k in v), default=0) + 1)
        )
    )
    d2 = (p.beta_sum**2 - 4.0 * p.alpha1 * p.alpha2) * (math.cos(t) / (2j * math.sin(t)))
    d2 += sig / (1j * t)
    bracket = -sum(
        j * (v.get(j, 0.0) + v.get(-j, 0.0)) * math.cos(j * t)
        for j in range(1, max((abs(k) for k in v), default=0) + 1)
    )
    bracket += (p.beta1 - p.beta2) / 2j * (math.cos(t) / math.sin(t) - 1.0 / t)
    bracket += -p.alpha1 - p.alpha2
    d3 = 2.0 * sig_s * bracket
    return n * (p.beta2 - p.beta1) + d1 + d2 + d3


@dataclass(frozen=True)
class FKConstants:
    """The three moment-scaling constants of the symmetric power symbol."""

    alpha: float

    def c1(self, t1: float) -> float:
        if 2.0 * self.alpha**2 >= 1.0:
            raise ValidationError("first-regime constant diverges for 2 alpha^2 >= 1")
        a = self.alpha
        prefac = math.exp(
            (4.0 * log_barnes_g(1.0 + a) - 2.0 * log_barnes_g(1.0 + 2.0 * a)).real
        ) / 2.0 ** (2.0 * a * a)
        expo = -2.0 * a * a

        def integrand(rule):
            return np.sin(rule.x) ** expo

        val, _ = integrate_arc(integrand, 0.0, t1, tol=1e-11)
        return prefac * float(val.real)

    @property
    def c2(self) -> float:
        iv = 1.0 / math.sqrt(2.0)
        return math.exp(
            (4.0 * log_barnes_g(1.0 + iv) - 2.0 * log_barnes_g(1.0 + 2.0 * iv)).real
        ) / 2.0

    def c3(self, traj: SigmaTrajectory, u_max: float | None = None) -> float:
        a = self.alpha
        if 2.0 * a * a <= 1.0:
            raise ValidationError("third-regime constant needs 2 alpha^2 > 1")
        x_top = float(traj.x_grid[-1])
        u_max = x_top / 2.0 if u_max is None else u_max
        us = np.linspace(1e-4, 1.0, 201)
        first = np.trapezoid(np.exp(traj.omega_at(2.0 * us).real), us)
        us2 = np.geomspace(1.0, u_max, 400)  # us2[0] == 1.0 exactly
        omega = traj.omega_at(2.0 * us2).real
        omega2 = omega[0]
        theta = omega - omega2
        vals = np.exp(theta) * us2 ** (-2.0 * a * a)
        second = np.trapezoid(vals, us2)
        # tail beyond the trajectory: theta has converged, pure power law
        second += math.exp(theta[-1]) * u_max ** (1.0 - 2.0 * a * a) / (2.0 * a * a - 1.0)
        gfac = math.exp((2.0 * log_barnes_g(1.0 + 2.0 * a) - log_barnes_g(1.0 + 4.0 * a)).real)
        return gfac * (first + math.exp(omega2) * second)


def fk_constants(alpha: float) -> FKConstants:
    return FKConstants(alpha=float(alpha))


def dyson_constant() -> float:
    """The boson zero-momentum occupation constant."""
    return constants().dyson_CD
