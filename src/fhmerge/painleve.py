"""The Painleve V sigma-transcendent attached to a merging singularity pair.

sigma solves the quartic second-order equation

    s^2 sigma_ss^2 = (sigma - s sigma_s + 2 sigma_s^2)^2
                     - 4 prod_k (sigma_s - theta_k)

on the ray s = -i x, x > 0.  We integrate the once-differentiated
explicit third-order form (no square roots, hence no branch flips); the
quartic relation itself is a first integral of that form, so it is
enforced by checking the residual at every output node.  Everything
downstream (the transition formula, the integral identity, the r-function
of the shifted-beta determinant ratio) reads from the resulting trajectory.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import rgamma

from .errors import (
    DegenerateDenominatorError,
    NondegeneracyError,
    NumericalError,
    PoleDetectedError,
    ValidationError,
)
from .specfun import log_barnes_g, log_gamma
from .symbol import FHParams

__all__ = [
    "ThetaParams",
    "SigmaTrajectory",
    "RTrajectory",
    "theta_params",
    "tau0",
    "sigma_series_small",
    "sigma_large_asym",
    "integrate_sigma",
    "degenerate_sigma",
    "degenerate_r",
    "is_degenerate",
    "r_trajectory",
    "integral_identity_check",
]

_POLE_CAP = 1e6
_X_SERIES_MAX = 1e-2
_X_ASYM_MIN = 10.0
# right-hand-side evaluations allowed per sigma solve; passing runs use a
# few thousand, a run heading for a blow-up millions
_RHS_BUDGET = 100_000


@dataclass(frozen=True)
class ThetaParams:
    theta1: complex
    theta2: complex
    theta3: complex
    theta4: complex

    def as_tuple(self):
        return (self.theta1, self.theta2, self.theta3, self.theta4)


def theta_params(p: FHParams) -> ThetaParams:
    """The four parameters of the quartic sigma-equation."""
    half = p.beta_sum / 2.0
    return ThetaParams(
        theta1=-p.alpha1 + half,
        theta2=p.alpha1 + half,
        theta3=p.alpha2 - half,
        theta4=-p.alpha2 - half,
    )


def sigma_zero(p: FHParams) -> complex:
    """sigma(0) = 2 alpha1 alpha2 - (beta1+beta2)^2 / 2."""
    return 2.0 * p.alpha1 * p.alpha2 - p.beta_sum**2 / 2.0


def _is_negative_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real < -0.5 and z.real == round(z.real)


def barnes_g_pair_sum(p: FHParams) -> complex:
    """ln G(1+alpha_j+beta_j) + ln G(1+alpha_j-beta_j) - ln G(1+2 alpha_j), summed over j."""
    return (
        log_barnes_g(1.0 + p.alpha1 + p.beta1)
        + log_barnes_g(1.0 + p.alpha1 - p.beta1)
        + log_barnes_g(1.0 + p.alpha2 + p.beta2)
        + log_barnes_g(1.0 + p.alpha2 - p.beta2)
        - log_barnes_g(1.0 + 2.0 * p.alpha1)
        - log_barnes_g(1.0 + 2.0 * p.alpha2)
    )


def barnes_g_merged_sum(a: complex, b: complex) -> complex:
    """ln G(1+a+b) + ln G(1+a-b) - ln G(1+2a) for merged exponents a, b."""
    return log_barnes_g(1.0 + a + b) + log_barnes_g(1.0 + a - b) - log_barnes_g(1.0 + 2.0 * a)


def check_nondegeneracy(p: FHParams, merged: bool = True) -> None:
    """Reject alpha_j +/- beta_j in {-1,-2,...} (and merged combinations)."""
    combos = [p.alpha1 + p.beta1, p.alpha1 - p.beta1, p.alpha2 + p.beta2, p.alpha2 - p.beta2]
    if merged:
        a, b = p.alpha1 + p.alpha2, p.beta_sum
        combos += [a + b, a - b]
    for c in combos:
        if _is_negative_integer(c):
            raise NondegeneracyError(f"parameter combination {c} hits a negative integer")


def _is_resonant(p: FHParams) -> bool:
    """2(alpha1+alpha2) in N u {0}: the series has no tau0 term."""
    two_a = 2.0 * (p.alpha1 + p.alpha2)
    return two_a.imag == 0.0 and two_a.real >= 0.0 and two_a.real == round(two_a.real)


def tau0(p: FHParams) -> complex:
    """Coefficient of |s|^(1+2(alpha1+alpha2)) in the small-argument expansion."""
    a = p.alpha1 + p.alpha2
    b = p.beta_sum
    two_a = 2.0 * a
    if _is_resonant(p):
        raise NondegeneracyError("2(alpha1+alpha2) in N u {0}: no tau0 term (half-integer case)")
    check_nondegeneracy(p)
    sin2a = cmath.sin(2.0 * cmath.pi * a)
    bracket = (
        cmath.exp(1j * cmath.pi * (p.alpha1 - p.alpha2)) * cmath.sin(cmath.pi * (a + b)) / sin2a
        + cmath.exp(-1j * cmath.pi * (p.alpha1 - p.alpha2)) * cmath.sin(cmath.pi * (a - b)) / sin2a
        - cmath.exp(1j * cmath.pi * (p.beta1 - p.beta2))
    )
    lg = (
        log_gamma(1.0 + a + b)
        + log_gamma(1.0 + a - b)
        - 2.0 * log_gamma(1.0 + two_a)
        + log_gamma(1.0 + 2.0 * p.alpha1)
        + log_gamma(1.0 + 2.0 * p.alpha2)
        - log_gamma(2.0 + two_a)
    )
    return -cmath.exp(lg) / (2.0 * cmath.pi) * bracket


def _series_linear_coeff(p: FHParams) -> complex:
    a = p.alpha1 + p.alpha2
    return (p.alpha1 - p.alpha2) * p.beta_sum / (2.0 * a) if a != 0.0 else 0.0


def _series_integer_coeffs(p: FHParams):
    """(a2, a3): the s^2 and s^3 coefficients forced by the equation.

    Substituting the expansion into the quartic relation determines every
    integer power beyond the stated ones; the s^2 order has a two-fold
    root and the trajectory matching the determinants takes the nonzero
    branch.  Both blow up at the half-integer resonances 2(a1+a2) in N.
    """
    a = p.alpha1 + p.alpha2
    b = p.beta_sum
    prod = p.alpha1 * p.alpha2
    a2 = prod * (a - b) * (a + b) / (a**2 * (2.0 * a - 1.0) * (2.0 * a + 1.0))
    a3 = (
        -prod
        * (p.alpha1 - p.alpha2)
        * b
        * (a - b)
        * (a + b)
        / (2.0 * a**3 * (a - 1.0) * (a + 1.0) * (2.0 * a - 1.0) * (2.0 * a + 1.0))
    )
    return a2, a3


def sigma_series_small(p: FHParams, x: float):
    """(sigma, d sigma/dx, d^2 sigma/dx^2) at s = -ix from the x -> 0 expansion.

    Carries the fractional tau0 |s|^(1+2a) term plus the integer s^2, s^3
    coefficients the equation forces, so the second derivative is accurate
    at the initialization point.  Valid for x below ~1e-2; raises outside.
    In the half-integer case 2(alpha1+alpha2) in N u {0} only the constant
    sigma(0) is available.
    """
    if x > _X_SERIES_MAX:
        raise ValidationError(f"series radius exceeded: x = {x} > {_X_SERIES_MAX}")
    a = p.alpha1 + p.alpha2
    s0 = sigma_zero(p)
    try:
        t0 = tau0(p)
    except NondegeneracyError:
        return s0, 0.0 + 0.0j, 0.0 + 0.0j
    lin = _series_linear_coeff(p)
    a2, a3 = _series_integer_coeffs(p)
    xp = x ** (2.0 * a)  # complex exponent allowed; x > 0
    u = s0 + 1j * lin * x + t0 * xp * x - a2 * x * x + 1j * a3 * x**3
    du = 1j * lin + t0 * (1.0 + 2.0 * a) * xp - 2.0 * a2 * x + 3j * a3 * x * x
    d2u = t0 * (1.0 + 2.0 * a) * (2.0 * a) * xp / x - 2.0 * a2 + 6j * a3 * x
    return u, du, d2u


def _gamma_connection(p: FHParams, x):
    """The oscillatory gamma(s) entering the large-argument expansion, at
    x = |s| given as a float or an array of floats."""
    if (p.beta1 - p.beta2).real >= 0.0:
        expo = 2.0 * (-1.0 + p.beta1 - p.beta2)
        phase = np.exp(-1j * x) * cmath.exp(1j * cmath.pi * (p.alpha1 + p.alpha2))
        ratio = cmath.exp(log_gamma(1.0 + p.alpha1 - p.beta1) + log_gamma(1.0 + p.alpha2 + p.beta2))
        ratio *= complex(rgamma(p.alpha1 + p.beta1)) * complex(rgamma(p.alpha2 - p.beta2))
    else:
        expo = 2.0 * (-1.0 + p.beta2 - p.beta1)
        phase = np.exp(1j * x) * cmath.exp(-1j * cmath.pi * (p.alpha1 + p.alpha2))
        ratio = cmath.exp(log_gamma(1.0 + p.alpha2 - p.beta2) + log_gamma(1.0 + p.alpha1 + p.beta1))
        ratio *= complex(rgamma(p.alpha2 + p.beta2)) * complex(rgamma(p.alpha1 - p.beta1))
    return 0.25 * (x / 2.0) ** expo * phase * ratio


def sigma_large_asym(p: FHParams, x: float) -> complex:
    """Connection asymptotics of sigma at s = -ix for large x.

    Requires the seminorm |Re(beta1-beta2)| < 1; the error of the formula
    is O(x^(-1+seminorm)).
    """
    if p.seminorm >= 1.0:
        raise ValidationError("large-argument form needs seminorm < 1")
    s = -1j * x
    g = _gamma_connection(p, x)
    sign = 1.0 if (p.beta1 - p.beta2).real >= 0.0 else -1.0
    return (p.beta2 - p.beta1) * s / 2.0 - (p.beta1 - p.beta2) ** 2 / 2.0 + sign * s * g / (1.0 + g)


# ---------------------------------------------------------------------------
# ODE integration along paths in the s-plane


def _sigma_rhs_factory(thetas):
    th1, th2, th3, th4 = thetas

    def rhs(s, sigma, dsig, d2sig):
        # third-order explicit form: d/ds of the quartic relation,
        # divided through by 2 s^2 sigma_ss (the division cancels exactly)
        aa = sigma - s * dsig + 2.0 * dsig * dsig
        f1, f2, f3, f4 = dsig - th1, dsig - th2, dsig - th3, dsig - th4
        pprime = 4.0 * (f2 * f3 * f4 + f1 * f3 * f4 + f1 * f2 * f4 + f1 * f2 * f3)
        return (2.0 * aa * (4.0 * dsig - s) - pprime) / (2.0 * s * s) - d2sig / s

    return rhs


def sigma_residual(p: FHParams, s, sigma, dsig, d2sig):
    """Scaled residual of the quartic relation, at one point or elementwise."""
    th1, th2, th3, th4 = theta_params(p).as_tuple()
    aa = sigma - s * dsig + 2.0 * dsig * dsig
    quart = 4.0 * (dsig - th1) * (dsig - th2) * (dsig - th3) * (dsig - th4)
    res = s * s * d2sig * d2sig - aa * aa + quart
    return abs(res) / (1.0 + abs(sigma) ** 2 + abs(s * dsig) ** 2)


@dataclass
class SigmaTrajectory:
    """sigma and derivatives on a grid of x = |s| along the ray s = -ix.

    mode is one of 'series-init', 'data-init', 'degenerate'.  eval,
    sigma_at and omega_at take a float or an array of x and read the dense
    solver output, whose variable tau is x - x0, in one call; below x0
    they use the series expansion.  The grid fields are filled from one
    eval on x_grid and the quartic-relation residual there.
    """

    params: FHParams
    x_grid: np.ndarray
    sigma0: complex
    mode: str
    x0: float
    x_max: float
    omega_head: complex
    _dense: object = field(default=None, repr=False)  # OdeSolution over [0, x_max - x0]
    sigma: np.ndarray = field(init=False)
    sigma_x: np.ndarray = field(init=False)
    sigma_xx: np.ndarray = field(init=False)
    residual: np.ndarray = field(init=False)

    def __post_init__(self):
        self.sigma, self.sigma_x, self.sigma_xx = self.eval(self.x_grid)
        s = -1j * self.x_grid
        self.residual = sigma_residual(self.params, s, self.sigma, 1j * self.sigma_x, -self.sigma_xx)

    def _dense_at(self, xs: np.ndarray) -> np.ndarray:
        """Rows (sigma, sigma_s, sigma_ss, omega - omega_head) at the points xs."""
        outside = ~((self.x0 <= xs) & (xs <= self.x_max + 1e-12))
        if outside.any():
            raise ValidationError(
                f"x = {xs[outside][0]} outside trajectory range [{self.x0}, {self.x_max}]"
            )
        return self._dense(np.minimum(xs - self.x0, self._dense.t_max))

    def eval(self, x):
        """(sigma, sigma_x, sigma_xx) at x, each of the shape of x."""
        xs = np.asarray(x, dtype=float)
        out = np.zeros((3, xs.size), dtype=complex)
        if self.mode != "degenerate":
            flat = xs.ravel()
            head = flat < self.x0
            for i in np.flatnonzero(head):
                out[:, i] = sigma_series_small(self.params, flat[i])
            if not head.all():
                sig, dsig, d2sig, _ = self._dense_at(flat[~head])
                # convert s-derivatives to x-derivatives on the ray (ds/dx = -i)
                out[:, ~head] = sig, -1j * dsig, -d2sig
        return tuple(o.reshape(xs.shape)[()] for o in out)

    def sigma_at(self, x):
        return self.eval(x)[0]

    def q_at(self, x: float) -> complex:
        """The (1,1) monodromy coefficient recovered from sigma."""
        p = self.params
        u = self.sigma_at(x)
        const = p.alpha1**2 + p.alpha2**2 - p.beta_sum**2 / 2.0
        return (2.0 / x) * (u - 1j * x * (p.beta1 - p.beta2) / 2.0 + const)

    def omega_at(self, x):
        """int_0^{-ix} (sigma(s) - sigma(0)) ds/s along the ray, of the shape of x."""
        xs = np.asarray(x, dtype=float)
        out = np.zeros(xs.size, dtype=complex)
        if self.mode != "degenerate":
            flat = xs.ravel()
            head = flat <= self.x0
            for i in np.flatnonzero(head):
                out[i] = _omega_series_head(self.params, flat[i])
            if not head.all():
                out[~head] = self.omega_head + self._dense_at(flat[~head])[3]
        return out.reshape(xs.shape)[()]


def _integrate_ray(p, x0, x_max, y0, rtol):
    """Dense solution of (sigma, sigma_s, sigma_ss, omega) from s = -i x0 to -i x_max."""
    rhs3 = _sigma_rhs_factory(theta_params(p).as_tuple())
    s0c = sigma_zero(p)
    s_a, s_b = -1j * x0, -1j * x_max
    length = abs(s_b - s_a)
    direction = (s_b - s_a) / length
    nfev = 0

    def f(tau, yv):
        nonlocal nfev
        nfev += 1
        if nfev > _RHS_BUDGET:
            raise NumericalError(
                f"sigma solve stalled at x = {x0 + tau:.6g} after "
                f"{_RHS_BUDGET} right-hand-side evaluations"
            )
        s = s_a + tau * direction
        sig, dsig, d2sig = yv[0], yv[1], yv[2]
        return direction * np.array(
            [dsig, d2sig, rhs3(s, sig, dsig, d2sig), (sig - s0c) / s], dtype=complex
        )

    def blowup(tau, yv):
        return abs(yv[0]) - _POLE_CAP

    blowup.terminal = True
    sol = solve_ivp(
        f,
        (0.0, length),
        np.asarray(y0, dtype=complex),
        method="DOP853",
        rtol=rtol,
        atol=rtol,
        dense_output=True,
        events=blowup,
    )
    if not sol.success and sol.status != 1:
        raise NumericalError(f"sigma integration failed: {sol.message}")
    if sol.status == 1:  # blow-up event fired
        s_pole = s_a + sol.t_events[0][0] * direction
        raise PoleDetectedError(abs(s_pole.imag))
    return sol.sol


def _default_grid(x0: float, x_max: float) -> np.ndarray:
    if x0 >= 1.0:
        return np.unique(np.concatenate([np.arange(x0, x_max + 1e-9, 0.2), [x_max]]))
    head = np.geomspace(x0, min(1.0, x_max), 25)
    if x_max <= 1.0:
        return head
    tail = np.arange(1.0, x_max + 1e-9, 0.2)
    return np.unique(np.concatenate([head, tail, [x_max]]))


def _is_pole_free_class(p: FHParams) -> bool:
    return (
        p.alpha1.imag == 0.0
        and p.alpha2.imag == 0.0
        and p.beta1.real == 0.0
        and p.beta2.real == 0.0
    )


def integrate_sigma(
    p: FHParams,
    x0: float = 1e-3,
    x_max: float = 40.0,
    tol: float = 1e-8,
    init: str = "series",
    init_data=None,
) -> SigmaTrajectory:
    """Integrate the sigma-equation forward along s = -ix from x0 to x_max.

    init='series' starts from the small-argument expansion (requires
    2(alpha1+alpha2) not in N u {0}); init='data' takes (sigma, sigma_x,
    sigma_xx) at x0 from init_data, e.g. the determinant-derived oracle.
    For the degenerate pair alpha = beta = 1/2 the series init returns
    degenerate_sigma(x0, x_max).  The trajectory is one solver pass, and
    the call raises:

    - NondegeneracyError up front for the series init when 2(alpha1+alpha2)
      is in N u {0} or a parameter combination hits a negative integer;

    - PoleDetectedError when |sigma| reaches the blow-up cap (a pole, or a
      runaway off the solution the initial data select);
    - NumericalError when the pass stalls (more than _RHS_BUDGET
      right-hand-side evaluations), or when it left the connecting
      solution: for the pole-free class (real alphas, imaginary betas)
      from the series with x_max >= 10, sigma(x_max) misses the connection
      asymptotics by O(1);
    - NumericalError when the quartic-relation residual at a grid node
      exceeds 10*tol.
    """
    if x0 <= 0.0 or x0 >= x_max:
        raise ValidationError("need 0 < x0 < x_max")
    if init == "series":
        if is_degenerate(p):
            return degenerate_sigma(x0, x_max)
        if _is_resonant(p):
            raise NondegeneracyError(
                "series init unavailable for 2(alpha1+alpha2) in N u {0}; use data init"
            )
        check_nondegeneracy(p)
        u0, du0, d2u0 = sigma_series_small(p, x0)
        mode = "series-init"
    elif init == "data":
        if init_data is None:
            raise ValidationError("init='data' requires init_data=(sigma, sigma_x, sigma_xx)")
        u0, du0, d2u0 = (complex(v) for v in init_data)
        mode = "data-init"
    else:
        raise ValidationError(f"unknown init {init!r}")

    # state in s-variables: sigma_s = i u', sigma_ss = -u''
    y0 = [u0, 1j * du0, -d2u0, 0.0]
    dense = _integrate_ray(p, x0, x_max, y0, rtol=min(1e-10, tol * 1e-2))

    traj = SigmaTrajectory(
        params=p,
        x_grid=_default_grid(x0, x_max),
        sigma0=sigma_zero(p),
        mode=mode,
        x0=x0,
        x_max=x_max,
        omega_head=_omega_series_head(p, x0),
        _dense=dense,
    )

    if (
        init == "series"
        and _is_pole_free_class(p)
        and p.seminorm < 1.0
        and x_max >= _X_ASYM_MIN
    ):
        # a forward pass that quietly left the connecting solution shows
        # up as an O(1) mismatch at the far end
        asym = sigma_large_asym(p, x_max)
        end = traj.sigma_at(x_max)
        if abs(end - asym) > 0.5 * (1.0 + abs(asym)):
            raise NumericalError(
                f"forward pass left the connecting solution: sigma({x_max:g}) = "
                f"{complex(end):.4g}, connection asymptotics {asym:.4g}"
            )

    worst = float(np.max(traj.residual))
    if worst > 10.0 * tol:
        raise NumericalError(f"quartic-relation residual {worst:.2e} exceeds 10*tol")
    return traj


def _omega_series_head(p: FHParams, x0: float) -> complex:
    """int_0^{x0} (sigma - sigma(0)) dy/y from the series expansion."""
    try:
        t0 = tau0(p)
    except NondegeneracyError:
        return 0.0 + 0.0j
    a = p.alpha1 + p.alpha2
    lin = _series_linear_coeff(p)
    a2, a3 = _series_integer_coeffs(p)
    return (
        1j * lin * x0
        + t0 * x0 ** (1.0 + 2.0 * a) / (1.0 + 2.0 * a)
        - a2 * x0**2 / 2.0
        + 1j * a3 * x0**3 / 3.0
    )


_DEGENERATE = FHParams(0.5, 0.5, 0.5, 0.5, 0.1)  # t is irrelevant here


def is_degenerate(p: FHParams) -> bool:
    """alpha1 = alpha2 = beta1 = beta2 = 1/2, where sigma == 0 exactly."""
    return (
        p.alpha1 == 0.5 and p.alpha2 == 0.5 and p.beta1 == 0.5 and p.beta2 == 0.5
    )


def degenerate_sigma(x0: float = 1e-3, x_max: float = 40.0) -> SigmaTrajectory:
    """The explicit solution sigma == 0 at alpha1=alpha2=beta1=beta2=1/2."""
    return SigmaTrajectory(
        params=_DEGENERATE,
        x_grid=_default_grid(x0, x_max),
        sigma0=0.0,
        mode="degenerate",
        x0=x0,
        x_max=x_max,
        omega_head=0.0,
    )


def degenerate_r(x: float) -> float:
    """r(-ix) = -sin(x/2) / (x/2)^2 in the degenerate case."""
    if x == 0.0:
        return -1.0
    return -math.sin(x / 2.0) / (x / 2.0) ** 2


@dataclass
class RTrajectory:
    """The (1,2) monodromy coefficient r on the trajectory grid."""

    x_grid: np.ndarray
    r: np.ndarray
    flagged: np.ndarray  # nodes where the identity denominator was floored

    def r_at(self, x: float) -> complex:
        if not (self.x_grid[0] <= x <= self.x_grid[-1]):
            raise ValidationError(f"x = {x} outside r trajectory range")
        re = np.interp(x, self.x_grid, self.r.real)
        im = np.interp(x, self.x_grid, self.r.imag)
        return complex(re, im)


def r_small_s(p: FHParams, x: float) -> complex:
    """Leading small-argument form of r at s = -ix."""
    a = p.alpha1 + p.alpha2
    b = p.beta_sum
    lg = log_gamma(1.0 + a - b) if not _is_negative_integer(1.0 + a - b) else None
    if lg is None:
        raise NondegeneracyError("r small-argument form degenerate")
    val = cmath.exp(lg) * complex(rgamma(a + b))
    phase = cmath.exp(1j * cmath.pi * (p.alpha1 - p.alpha2 - 3.0 * p.beta1 - p.beta2))
    return -2.0 / x * cmath.exp(-1j * x / 2.0) * phase * val


def r_large_s(p: FHParams, x: float) -> complex:
    """Two-term large-argument form of r at s = -ix (Re beta1 = Re beta2)."""
    term1 = (
        -2.0
        * x ** (-1.0 - p.beta2)
        * cmath.exp(-1j * x / 2.0)
        * cmath.exp(1j * cmath.pi * (p.alpha1 - 3.0 * p.beta1 - p.beta2))
        * cmath.exp(log_gamma(1.0 + p.alpha1 - p.beta1))
        * complex(rgamma(p.alpha1 + p.beta1))
    )
    term2 = (
        -2.0
        * x ** (-1.0 - p.beta1)
        * cmath.exp(1j * x / 2.0)
        * cmath.exp(-1j * cmath.pi * (p.alpha2 + 3.0 * p.beta1 + p.beta2))
        * cmath.exp(log_gamma(1.0 + p.alpha2 - p.beta2))
        * complex(rgamma(p.alpha2 + p.beta2))
    )
    return term1 + term2


def _su_s(p: FHParams, u_lax, v, s):
    """s dU/ds from the U-equation of the compatibility system."""
    return (
        s * u_lax
        - 2.0 * v * (u_lax - 1.0) ** 2
        + (u_lax - 1.0)
        * (u_lax * (-p.alpha1 - p.alpha2 + p.beta_sum) + 3.0 * p.alpha1 - p.alpha2 - p.beta_sum)
    )


def _lax_branches(p: FHParams, traj: SigmaTrajectory, x):
    """The Lax variable U on both roots of its quadratic at x (a float or
    an array), with dU/dx and the pieces of d ln r/dx on each.

    v is fixed by sigma_s; U solves the quadratic the sigma-equation
    forces on the residue variables.  Returns (u, du_dx, y_part, numf,
    dnumf), each stacked over the two roots along the first axis; where
    the leading coefficient vanishes both rows hold the linear root.
    """
    x = np.asarray(x, dtype=float)
    sig, du, d2u = traj.eval(x)
    s = -1j * x
    sig_s = 1j * du
    v = -sig_s + p.beta_sum / 2.0 - p.alpha1
    v_s = d2u  # v_s = -sigma_ss and sigma_ss = -d2u on the ray
    w_cap = sig - s * sig_s + p.alpha1**2 + p.alpha2**2 - p.beta_sum**2 / 2.0
    a_minus = p.alpha1 - p.alpha2 - p.beta_sum
    a_plus = p.alpha1 + p.alpha2 - p.beta_sum
    qa = v * (v + a_plus)
    qb = -(w_cap + (v + a_minus) * (v + a_plus) + v * (v + 2.0 * p.alpha1))
    qc = (v + a_minus) * (v + 2.0 * p.alpha1)
    linear = np.abs(qa) < 1e-14 * (1.0 + np.abs(qb) + np.abs(qc))
    if np.any(linear & (np.abs(qb) < 1e-14 * (1.0 + np.abs(qc)))):
        raise DegenerateDenominatorError("Lax quadratic degenerates; use degenerate_r")
    disc = np.sqrt(qb * qb - 4.0 * qa * qc)
    two_qa = np.where(linear, 1.0, 2.0 * qa)
    lin = -qc / np.where(linear, qb, 1.0)
    u = np.stack(
        [np.where(linear, lin, (-qb + disc) / two_qa), np.where(linear, lin, (-qb - disc) / two_qa)]
    )
    su_s = _su_s(p, u, v, s)
    sy_y = (v + 2.0 * p.alpha1) / u - 2.0 * v - 2.0 * p.alpha1 - s / 2.0 + u * v
    numf = v * (1.0 - u) + a_minus
    dnumf = v_s * (1.0 - u) - v * su_s / s
    # d ln r/dx = -i [ y_s/y - 1/s + numf_s/numf ] = y_part - 1/x + ...;
    # the -1/x and numf pieces integrate in closed form, so the bounded
    # y_part is returned separately for quadrature
    return u, -1j * su_s / s, -1j * sy_y / s, numf, -1j * dnumf


def r_log_derivative(p: FHParams, traj: SigmaTrajectory, x: float):
    """d ln r / dx at x from sigma via the compatibility system.

    Takes the root of the Lax quadratic whose value is nearest the
    log-derivative of the small-argument form (the first root on a tie).
    Returns (value, u_lax) so callers can continue the branch.
    """
    u, _, y_part, numf, dnumf = _lax_branches(p, traj, x)
    vals = y_part - 1.0 / x + dnumf / numf
    target = -1.0 / x - 0.5j  # log-derivative of the small-x closed form
    k = int(abs(vals[1] - target) < abs(vals[0] - target))
    return vals[k], u[k]


_R_STEP = 0.01  # spacing in x of the nodes r is integrated on


def r_trajectory(p: FHParams, traj: SigmaTrajectory) -> RTrajectory:
    """r(s) on the trajectory by integrating its logarithmic derivative.

    The derivative comes from the compatibility system of the associated
    linear problem; its log-singular part (vanishing of the r-numerator,
    i.e. zeros of r) is integrated in closed form so sign changes of r
    are crossed exactly.  The multiplicative constant is matched to the
    small-argument form at the trajectory start.  Nodes where the
    numerator is below 1e-6 (r indistinguishable from 0) are flagged.
    """
    if is_degenerate(p):
        grid = traj.x_grid
        return RTrajectory(
            x_grid=grid,
            r=np.array([degenerate_r(x) for x in grid], dtype=complex),
            flagged=np.zeros(len(grid), dtype=bool),
        )
    x0, x_max = traj.x0, float(traj.x_grid[-1])
    n_steps = max(int(math.ceil((x_max - x0) / _R_STEP)), 8)
    xs = np.linspace(x0, x_max, n_steps + 1)
    h = np.diff(xs)

    u, du_dx, y_part, numf, _ = _lax_branches(p, traj, xs)
    # start on r_log_derivative's root at x0, then take at each node the
    # root nearest the U-equation predictor, which disambiguates the two
    # near their collision points; the first root wins a tie
    u_prev, slope = r_log_derivative(p, traj, x0)[1], 0.0
    u_rows, du_rows = u.tolist(), du_dx.tolist()
    pick = []
    for i, step in enumerate([0.0, *h.tolist()]):
        pred = u_prev + slope * step
        k = int(abs(u_rows[1][i] - pred) < abs(u_rows[0][i] - pred))
        u_prev, slope = u_rows[k][i], du_rows[k][i]
        pick.append(k)
    root = np.array(pick), np.arange(len(xs))
    y_part, numf = y_part[root], numf[root]

    # continuous branch of ln(numf): unwrap the argument along the grid
    ln_numf = np.log(np.abs(numf)) + 1j * np.unwrap(np.angle(numf))

    # trapezoid sum of the bounded part; -1/x and d ln numf are exact
    lnr0 = cmath.log(r_small_s(p, x0)) - ln_numf[0] + math.log(x0)
    lnr = np.cumsum(np.concatenate([[lnr0], 0.5 * (y_part[1:] + y_part[:-1]) * h]))
    lnr += ln_numf - np.log(xs)

    # nearest dense node of each grid point, the first one on a tie
    near = np.argmin(np.abs(xs[None, :] - traj.x_grid[:, None]), axis=1)
    floor = 1e-6 * (1.0 + np.max(np.abs(numf)))
    flagged = np.abs(numf[near]) < floor
    return RTrajectory(x_grid=traj.x_grid, r=np.exp(lnr)[near], flagged=flagged)


def integral_identity_check(p: FHParams, traj: SigmaTrajectory, T: float):
    """Both sides of the global integral identity, evaluated at cutoff T.

    The left side is the finite-T combination plus an oscillatory-tail
    correction computed from the connection asymptotics; the right side
    is the Barnes-G expression.  Returns (lhs, rhs, |lhs - rhs|).
    """
    if T < 20.0:
        raise ValidationError("need T >= 20")
    if p.seminorm >= 1.0:
        raise ValidationError("identity needs seminorm < 1")
    lhs = (
        traj.omega_at(T)
        + 1j * T * (p.beta2 - p.beta1) / 2.0
        + 2.0 * (p.alpha1 * p.alpha2 - p.beta1 * p.beta2) * math.log(T)
    )
    if not is_degenerate(p):
        sign = 1.0 if (p.beta1 - p.beta2).real >= 0.0 else -1.0
        ys = np.arange(T, max(10.0 * T, 2000.0), math.pi / 40.0)
        gs = _gamma_connection(p, ys)
        integrand = -sign * 1j * gs / (1.0 + gs)
        lhs += np.trapezoid(integrand, ys)

    a = p.alpha1 + p.alpha2
    b = p.beta_sum
    rhs = 1j * math.pi * (p.alpha1 * p.beta2 - p.alpha2 * p.beta1)
    rhs -= barnes_g_merged_sum(a, b)
    rhs += barnes_g_pair_sum(p)
    return lhs, rhs, abs(lhs - rhs)
