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
from scipy.special import beta as _sp_beta
from scipy.special import betainc

from .errors import ValidationError, check_size, check_t
from .painleve import SigmaTrajectory, check_nondegeneracy, check_seminorm, sigma_zero
from .specfun import DYSON_CD, gamma_ratio, log_barnes_g_ratio
from .symbol import FHParams

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
    "DEFAULT_C0",
]

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


def _log_n_power(p: FHParams) -> complex:
    """sum_j (alpha_j^2 - beta_j^2), the power of n in the fixed-t expansion."""
    return sum(s.alpha**2 - s.beta**2 for s in p.pair)


def _wiener_hopf_log(p: FHParams, z: complex, alpha: complex, beta: complex) -> complex:
    """ln of b_+(z)^(beta-alpha) b_-(z)^(-alpha-beta), the smooth factor's
    share of the constant of one singularity (alpha, beta) at z; it equals
    -alpha (V(z) - V_0) + beta (ln b_+ - ln b_-)(z)."""
    return (beta - alpha) * p.log_b_plus(z) - (alpha + beta) * p.log_b_minus(z)


def e_constant(p: FHParams) -> complex:
    """The n-independent constant of the fixed-t two-singularity expansion."""
    check_t(p.t)
    check_nondegeneracy(p, merged=False)
    out = p.szego_sum
    out -= 2.0 * p.log_coupling * math.log(abs(2.0 * math.sin(p.t)))
    out += 1j * (math.pi - 2.0 * p.t) * p.phase_coupling
    for s in p.pair:
        out += _wiener_hopf_log(p, s.z, s.alpha, s.beta) + log_barnes_g_ratio(s.alpha, s.beta)
    return out


def fh2_log(p: FHParams, n: int) -> AsymptoticPrediction:
    """Fixed-t two-singularity expansion of ln D_n.

    Valid (with error O(n^(seminorm-1))) for t down to omega(n)/n with
    omega(n) = n^(1/2); the threshold is recorded in the notes.
    """
    check_size(n)
    check_seminorm(p)
    terms = {
        "n_linear": n * p.v0,
        "log_n": _log_n_power(p) * math.log(n),
        "constant": e_constant(p),
    }
    t_min = n**-0.5
    return AsymptoticPrediction(
        regime="FH2",
        terms=terms,
        residual_order=f"O(n^{p.seminorm - 1.0:g})",
        notes={"t_threshold": t_min, "t_ok": p.t >= t_min},
    )


def fh1_log(p: FHParams, n: int) -> AsymptoticPrediction:
    """Merged single-singularity expansion of ln D_n at t = 0."""
    check_size(n)
    if p.t != 0.0:
        raise ValidationError("single-singularity form applies at t = 0")
    a = p.alpha1 + p.alpha2
    b = p.beta_sum
    check_nondegeneracy(p.merged(), merged=False)
    constant = p.szego_sum + _wiener_hopf_log(p, 1.0, a, b) + log_barnes_g_ratio(a, b)
    terms = {
        "n_linear": n * p.v0,
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
    check_size(n)
    nb = normalize_beta(p)
    if not nb.odd:
        raise ValidationError("seminorm does not reduce to an odd integer")
    pa, pb = nb.params, nb.params_pair
    check_nondegeneracy(pa, merged=False)
    check_nondegeneracy(pb, merged=False)
    branch_a = _log_n_power(pa) * math.log(n) + e_constant(pa)
    branch_b = 2j * n * nb.ell * p.t + _log_n_power(pb) * math.log(n) + e_constant(pb)
    terms = {
        "n_linear": n * (p.v0 + 2j * nb.k * p.t),
        "interference": cmath.log(cmath.exp(branch_a) + cmath.exp(branch_b)),
    }
    return AsymptoticPrediction(
        regime="FH2-odd",
        terms=terms,
        residual_order="O(1/n)",
        notes={"k": nb.k, "ell": nb.ell, "branch_a": branch_a, "branch_b": branch_b},
    )


def _transition_terms(p: FHParams, n: int) -> dict:
    """transition_log's terms at t = p.t, with omega's slot "painleve_integral" at 0.0."""
    t = p.t
    check_t(t)
    check_seminorm(p)
    merged = fh1_log(p.merged(), n)

    def shift(z, alpha, beta):
        """One singularity's Wiener-Hopf factor at z_j less its value at 1."""
        return _wiener_hopf_log(p, z, alpha, beta) - _wiener_hopf_log(p, 1.0, alpha, beta)

    terms = dict(merged.terms)
    terms["nt_linear"] = 1j * n * t * (p.beta2 - p.beta1)
    terms["painleve_integral"] = 0.0
    terms["sin_ratio"] = -2.0 * p.log_coupling * math.log(math.sin(t) / t)
    terms["t_linear"] = -2j * t * p.phase_coupling
    terms["v_shift"] = sum(shift(s.z, s.alpha, 0.0) for s in p.pair)
    terms["b_shift"] = sum(shift(s.z, 0.0, s.beta) for s in p.pair)
    return terms


def transition_log(p: FHParams, n: int, traj: SigmaTrajectory) -> AsymptoticPrediction:
    """Uniform small-t expansion of ln D_n through the merging transition.

    The t = 0 part is the merged single-singularity expansion; the rest of
    _transition_terms is the explicit transition correction.  omega(2 n t),
    the "painleve_integral" term, is read from a trajectory covering x = 2 n t.
    """
    terms = _transition_terms(p, n)
    x = 2.0 * n * p.t
    terms["painleve_integral"] = traj.omega_at(x)
    return AsymptoticPrediction(
        regime="transition",
        terms=terms,
        residual_order="o(1) uniform in t < t0",
        notes={"x": x, "t": p.t},
    )


def beta_one_ratio(
    p: FHParams, n: int, r_value: complex | None, log_dn: complex
) -> AsymptoticPrediction:
    """Predicted ln D_{n-1} for the beta2 -> beta2 - 1 shifted symbol.

    log_dn is ln D_n(f_t) (exact or itself predicted); r_value supplies
    the Painleve r(-2int) for the small-nt branch and may be None when
    nt > DEFAULT_C0.  Within a +-25% window around nt = DEFAULT_C0 both
    branches are evaluated and their mismatch recorded in the notes.
    """
    check_size(n)
    if (p.beta1 - p.beta2).real != 0.0:
        raise ValidationError("ratio form needs Re(beta1) = Re(beta2)")
    t = p.t
    check_t(t)
    nt = n * t
    b = p.beta_sum

    def small_branch() -> complex:
        if r_value is None:
            raise ValidationError("small-nt branch needs r_value")
        factor = (
            -r_value
            * cmath.exp(p.log_b_minus(1.0) - p.log_b_plus(1.0))
            * t
            * (nt / math.sin(t)) ** (2.0 * b)
            * cmath.exp(1j * math.pi * (-p.alpha1 + 3.0 * p.beta1 + p.alpha2 + p.beta2))
        )
        return cmath.log(factor)

    def large_branch() -> complex:
        # one term per singularity j, with k the other one and eps = +-1
        s1, s2 = p.pair
        return cmath.log(
            sum(
                cmath.exp((2.0 * j.beta - 1.0) * math.log(n))
                * j.z ** (-n + 1)
                * cmath.exp(p.log_b_minus(j.z) - p.log_b_plus(j.z))
                * gamma_ratio(j.alpha, j.beta)
                * cmath.exp(1j * eps * (math.pi - 2.0 * t) * k.alpha)
                * (2.0 * math.sin(t)) ** (-2.0 * k.beta)
                for j, k, eps in ((s1, s2, 1.0), (s2, s1, -1.0))
            )
        )

    use_small = nt <= DEFAULT_C0
    notes = {"nt": nt, "branch": "small" if use_small else "large"}
    if 0.75 * DEFAULT_C0 <= nt <= 1.25 * DEFAULT_C0 and r_value is not None:
        notes["branch_mismatch"] = abs(cmath.exp(small_branch()) - cmath.exp(large_branch()))
    branch = small_branch() if use_small else large_branch()
    terms = {
        "prefactor": -1j * (n - 1) * t - p.v0,
        "log_dn": log_dn,
        "branch": branch,
    }
    return AsymptoticPrediction(
        regime="beta-one", terms=terms, residual_order="O(t) or O(1/(nt))", notes=notes
    )


def diff_identity_rhs(p: FHParams, n: int, t: float, traj: SigmaTrajectory) -> complex:
    """Asymptotic form of (1/i) d/dt ln D_n at small t.

    Assembled from the Laurent data and the sigma trajectory at x = 2nt,
    with one term per singularity j at z_j = e^{+-it} of p.with_t(t):
    eps = d theta_j/dt = +-1, z V'(z) = sum k V_k z^k and
    h(z) = sum |k| V_k z^k.
    """
    x = 2.0 * n * t
    sig, du, _ = traj.eval(x)
    b = p.beta_sum
    d1 = 0.0
    bracket = (p.beta1 - p.beta2) / 2j * (math.cos(t) / math.sin(t) - 1.0 / t)
    for s, eps in zip(p.with_t(t).pair, (1.0, -1.0)):
        zv_prime = sum(k * c * s.z**k for k, c in p.v_coeffs)
        h = sum(abs(k) * c * s.z**k for k, c in p.v_coeffs)
        d1 += eps * (b * h / 2.0 - s.alpha * (zv_prime + b))
        bracket -= s.alpha + h / 2.0
    d2 = (sig / t - sigma_zero(p) * math.cos(t) / math.sin(t)) / 1j
    return n * (p.beta2 - p.beta1) + d1 + d2 + 2j * du * bracket


def _fk_prefactor(alpha: float) -> float:
    """P(alpha) of FKConstants, the prefactor of c1 and c2."""
    return math.exp(2.0 * log_barnes_g_ratio(alpha, 0.0).real) / 2.0 ** (2.0 * alpha * alpha)


@dataclass(frozen=True)
class FKConstants:
    """The three moment-scaling constants of the symmetric power symbol.

    With P(alpha) = G(1+alpha)^4 / (G(1+2 alpha)^2 2^(2 alpha^2)):
    c1(t1) = P(alpha) int_0^t1 sin^(-2 alpha^2) x dx for 2 alpha^2 < 1, in
    closed form through the regularized incomplete beta function;
    c2 = P(1/sqrt 2) at the critical point; and c3 is G(1+2 alpha)^2 /
    G(1+4 alpha) times int_0^inf e^{Re omega(2u)} du for 2 alpha^2 > 1.
    """

    alpha: float

    def c1(self, t1: float) -> float:
        a = self.alpha
        if 2.0 * a * a >= 1.0:
            raise ValidationError("first-regime constant diverges for 2 alpha^2 >= 1")
        check_t(t1)
        # u = sin^2 x: int_0^t1 sin^(-2 a^2) x dx = B(mu, 1/2) I_{sin^2 t1}(mu, 1/2) / 2
        # for t1 <= pi/2, and the full B(mu, 1/2) less the mirror part past pi/2
        mu = 0.5 - a * a
        full = float(_sp_beta(mu, 0.5))
        part = 0.5 * full * float(betainc(mu, 0.5, math.sin(t1) ** 2))
        return _fk_prefactor(a) * (part if t1 <= 0.5 * math.pi else full - part)

    @property
    def c2(self) -> float:
        return _fk_prefactor(1.0 / math.sqrt(2.0))

    def c3(self, traj: SigmaTrajectory) -> float:
        """gfac int_0^inf e^{Re omega(2u)} du, e^omega continued past the
        trajectory as the power law x^(-2 alpha^2) it decays like."""
        a = self.alpha
        if 2.0 * a * a <= 1.0:
            raise ValidationError("third-regime constant needs 2 alpha^2 > 1")
        u_max = float(traj.x_grid[-1]) / 2.0
        # trapezoid rule in ln u; the piece below u = 1e-8 is negligible
        us = np.geomspace(1e-8, u_max, 800)
        vals = np.exp(traj.omega_at(2.0 * us).real)
        body = np.trapezoid(vals * us, np.log(us))
        tail = vals[-1] * u_max / (2.0 * a * a - 1.0)
        gfac = math.exp(log_barnes_g_ratio(2.0 * a, 0.0).real)
        return gfac * (body + tail)


def fk_constants(alpha: float) -> FKConstants:
    return FKConstants(alpha=float(alpha))


def dyson_constant() -> float:
    """The boson zero-momentum occupation constant."""
    return DYSON_CD
