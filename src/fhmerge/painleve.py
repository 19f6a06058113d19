"""The Painleve V sigma-transcendent attached to a merging singularity pair.

sigma solves the quartic second-order equation

    s^2 sigma_ss^2 = (sigma - s sigma_s + 2 sigma_s^2)^2
                     - 4 prod_k (sigma_s - theta_k)

on the ray s = -i x, x > 0.  Every caller reads sigma in the real x, so
the solve does too: on u(x) = sigma(-ix) the relation is a polynomial in
u, u', u'' whose constants (a, e2, e3) come from _equation_constants.  We
integrate its once-differentiated explicit third-order form (no square
roots, hence no branch flips), the same equation whose small-x series
_series_lattice builds; the quartic relation itself is a first integral
of that form, so it is enforced by checking the residual at every output
node.  The same pass carries omega, ln U for the Lax variable U of the
associated linear problem, and W = int (x y_x/y) dx/x, so the r-function
of the shifted-beta determinant ratio, r = C e^W numf(U, v)/x, is read
from the same dense output as sigma, at any x; below the start U is a
root of a quadratic in sigma's derivatives, so ln U and W start from the
series table.  That table is built on (0, x0], the only interval read
from it (the start data at x0, sigma and omega below x0, the Lax start
and r's anchor at 1e-10), and keeps each term that matters at rounding
to sigma, sigma_x or sigma_xx there; _series_rows is its one read.  The
trajectory keeps the dense output as the solver's steps stacked into
arrays and reads them with scipy's arithmetic, bit for bit equal to
scipy's dense output.  Everything downstream (the transition formula,
the integral identity, the ratio) reads from the resulting trajectory.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    DegenerateDenominatorError,
    NondegeneracyError,
    NumericalError,
    PoleDetectedError,
    ValidationError,
    check_tol,
)
from .quadrature import gauss_legendre_panels
from .specfun import gamma_ratio, is_nonpositive_integer, log_barnes_g_ratio, log_gamma
from .symbol import FHParams

__all__ = [
    "SigmaTrajectory",
    "RTrajectory",
    "theta_params",
    "tau0",
    "sigma_large_asym",
    "integrate_sigma",
    "degenerate_sigma",
    "degenerate_r",
    "is_degenerate",
    "r_trajectory",
    "integral_identity_check",
]

_POLE_CAP = 1e6
_X_ASYM_MIN = 10.0
_DEFAULT_TOL = 1e-8
# the lowest start of a sigma solve
_X_ANCHOR = 1e-3
# where r is matched to r_small_s, whose relative error k x is ~1e-10 here;
# deeper, the Lax roots meet to rounding (at 1e-20 r was off by its size)
_X_R = 1e-10
# lattice points (j, k) a series table may take before it gives up
_SERIES_BUDGET = 4000
# right-hand-side evaluations allowed per sigma solve; passing runs use a
# few thousand, a run heading for a blow-up millions
_RHS_BUDGET = 100_000


def theta_params(p: FHParams):
    """The four parameters (theta1, ..., theta4) of the quartic sigma-equation."""
    half = p.beta_sum / 2.0
    return (-p.alpha1 + half, p.alpha1 + half, p.alpha2 - half, -p.alpha2 - half)


def sigma_zero(p: FHParams) -> complex:
    """sigma(0) = 2 alpha1 alpha2 - (beta1+beta2)^2 / 2."""
    return 2.0 * p.alpha1 * p.alpha2 - p.beta_sum**2 / 2.0


def check_nondegeneracy(p: FHParams, merged: bool = True) -> None:
    """Reject alpha_j +/- beta_j in {-1,-2,...} (and merged combinations)."""
    combos = [s.alpha + sign * s.beta for s in p.pair for sign in (1.0, -1.0)]
    if merged:
        a, b = p.alpha1 + p.alpha2, p.beta_sum
        combos += [a + b, a - b]
    for c in combos:
        if is_nonpositive_integer(c + 1.0):
            raise NondegeneracyError(f"parameter combination {c} hits a negative integer")


def tau0(p: FHParams) -> complex:
    """Coefficient of |s|^(1+2(alpha1+alpha2)) in the small-argument expansion."""
    a = p.alpha1 + p.alpha2
    b = p.beta_sum
    two_a = 2.0 * a
    if is_nonpositive_integer(-two_a):
        raise NondegeneracyError("2(alpha1+alpha2) in N u {0}: no tau0 term (half-integer case)")
    check_nondegeneracy(p)
    # one term per sign eps = +-1 of b, and one per singularity
    d = p.alpha1 - p.alpha2
    bracket = sum(
        cmath.exp(eps * 1j * cmath.pi * d) * cmath.sin(cmath.pi * (a + eps * b)) for eps in (1.0, -1.0)
    ) / cmath.sin(cmath.pi * two_a) - cmath.exp(1j * cmath.pi * (p.beta1 - p.beta2))
    lg = sum(log_gamma(1.0 + a + eps * b) for eps in (1.0, -1.0))
    lg += sum(log_gamma(1.0 + 2.0 * s.alpha) for s in p.pair)
    lg -= 2.0 * log_gamma(1.0 + two_a) + log_gamma(2.0 + two_a)
    return -cmath.exp(lg) / (2.0 * cmath.pi) * bracket


def _exponents(p: FHParams):
    """(alpha1, alpha2, beta1, beta2): what sigma and r depend on."""
    return p.alpha1, p.alpha2, p.beta1, p.beta2


def _sigma_vanishes(p: FHParams) -> bool:
    """The degenerate pair and the smooth symbol, where sigma == 0 exactly."""
    return is_degenerate(p) or _exponents(p) == (0.0,) * 4


def _check_trajectory(p: FHParams, traj: SigmaTrajectory) -> None:
    """Refuse a trajectory of other exponents than p's; t and V may differ."""
    if _exponents(p) != _exponents(traj.params):
        raise ValidationError(f"trajectory solved for {_exponents(traj.params)}, not this set")


def check_seminorm(p: FHParams) -> None:
    """Refuse seminorm |Re(beta1 - beta2)| >= 1, outside the large-argument forms."""
    if p.seminorm >= 1.0:
        raise ValidationError(f"seminorm {p.seminorm} is not < 1; reduce betas first")


def _equation_constants(p: FHParams):
    """(a, e2, e3): a = alpha1 + alpha2, and the second and third
    elementary symmetric sums of the theta_k, e2 = sigma(0) - a^2 and e3.

    u(x) = sigma(-ix) solves x^2 u''' + x u'' = (u - x u' - 2u'^2)(x + 4u')
    + 2i P'(iu'), P(z) = prod_k (z - theta_k).  The theta_k sum to zero,
    so the cubic terms in u' cancel and the form is quadratic:

        x^2 u''' + x u'' = xu + 4uu' - x^2 u' - 6x u'^2 - 4 e2 u' - 2i e3.
    """
    th1, th2, th3, th4 = theta_params(p)
    a = p.alpha1 + p.alpha2
    return a, sigma_zero(p) - a * a, th1 * th2 * (th3 + th4) + th3 * th4 * (th1 + th2)


def _series_lattice(p: FHParams, t0: complex, size_j: int, size_k: int):
    """Coefficients C[k, j] of x^(j + k mu), mu = 1 + 2a, for j < size_j, k < size_k.

    At x^(e-1) the terms in c_e of _equation_constants' quadratic form add
    up to c_e e ((e-1)^2 - 4a^2), since 4(sigma(0) - e2) = 4a^2; so c_e
    is the rest at x^(e-1) over e ((e-1)^2 - 4a^2), except c_0 = sigma(0)
    and the free c_mu = tau0.
    Products of lattice points with j >= 0 stay on that lattice, and each
    point depends only on points at or below it in both j and k, so a
    k-major sweep fills the table.
    """
    a, _, e3 = _equation_constants(p)
    e = np.arange(size_j) + (1.0 + 2.0 * a) * np.arange(size_k)[:, None]
    den = e * ((e - 1.0) ** 2 - 4.0 * a * a)
    c = np.zeros((size_k, size_j), dtype=complex)
    # the products 4uu' - 6x u'^2 at x^(e-1) pair c_p (4 - 6 e_p) with c_q e_q;
    # the pair (0, e) holds c_e itself and enters through den
    left, right = np.zeros_like(c), np.zeros_like(c)
    for k in range(size_k):
        for j in range(size_j):
            if (k, j) == (0, 0):
                c[0, 0] = sigma_zero(p)
                continue
            if (k, j) == (1, 0):
                c[1, 0] = t0
            else:
                rest = -2j * e3 if (k, j) == (0, 1) else 0.0
                if j >= 2:
                    rest += (3.0 - e[k, j]) * c[k, j - 2]
                rest += np.sum(left[: k + 1, : j + 1] * right[k::-1, j::-1])
                c[k, j] = rest / den[k, j]
            left[k, j] = c[k, j] * (4.0 - 6.0 * e[k, j])
            right[k, j] = c[k, j] * e[k, j]
    return c, e


def _series_terms(p: FHParams, x_range: float):
    """The small-argument table (c, e): sigma(-ix) = sum_k c_k x^(e_k), and
    its first two x-derivatives term by term, to rounding on
    0 < x <= x_range.

    The exponents are j + k(1 + 2a), a = alpha1 + alpha2, j, k >= 0, and
    the coefficients come from _series_lattice.  A term is kept when it
    matters at rounding to sigma, sigma_x or sigma_xx at x_range: each
    derivative weighs c_k x^(e_k) by 1, e_k or e_k (e_k - 1) and is judged
    against its own largest term (eps times it), so sigma_xx keeps high
    orders that sigma alone would drop.  The rectangle grows until its
    last two columns and its last row lie below all three of those bars.
    sigma(0) is entry 0; the other entries are the kept terms above that.
    The degenerate pair and the smooth symbol, where sigma == 0 exactly,
    have the empty table.  Raises
    NondegeneracyError where tau0 does and where the recursion is
    resonant (_check_resonance), ValidationError for Re a <= -1/2 (the
    tau0 term does not vanish at x = 0) and NumericalError when the
    series has not converged on the range within _SERIES_BUDGET lattice
    points or a term's size overflows there.
    """
    if _sigma_vanishes(p):
        return np.zeros((2, 0), dtype=complex)
    t0 = tau0(p)
    mu = _tau0_power(p)
    _check_resonance(p)
    eps = np.finfo(float).eps
    # first guess, meant to pass at once: a radius of convergence of 3 (3.4
    # to 9 for real alphas), times |1 - 4a^2| / 0.4 below 0.4 (the x^2 term's
    # small divisor 2(1 - 4a^2) slows the decay of the terms built from it),
    # and sigma_xx's bar, whose largest term sits at x^2 or below; column j
    # weighs about (x/radius)^(j-2) j^2 against it, and the last two columns
    # start at j = size_j - 2
    radius = 3.0 * min(1.0, abs(1.0 - 4.0 * (p.alpha1 + p.alpha2) ** 2) / 0.4)
    log_ratio = math.log(min(x_range / radius, 0.5))
    j = 2
    while (j - 2) * log_ratio + 2.0 * math.log(j) > math.log(eps):
        j += 1
    size_j = j + 2
    size_k = 1 + math.ceil((size_j - 2) / mu)
    while size_j * size_k <= _SERIES_BUDGET:
        c, e = _series_lattice(p, t0, size_j, size_k)
        # x^d times each term's size in the d-th derivative at x_range, d = 0, 1, 2
        mag = np.abs(c * x_range**e.real * np.stack([np.ones_like(e), e, e * (e - 1.0)]))
        if not np.all(np.isfinite(mag)):
            break  # a term past the double range: the series diverges at x_range
        big = mag > eps * mag.max(axis=(1, 2), keepdims=True)
        cols_ok, row_ok = not big[..., -2:].any(), not big[:, -1].any()
        if cols_ok and row_ok:
            keep = big.any(axis=0)
            keep[0, 0] = True
            return c[keep], e[keep]
        size_j += 0 if cols_ok else size_j // 2
        size_k += 0 if row_ok else (size_k + 1) // 2
    raise NumericalError(f"small-argument series does not converge at x = {x_range:.3g}")


def _check_resonance(p: FHParams) -> None:
    """Refuse a = alpha1 + alpha2 where 1 - 2a lies on the exponent lattice.

    The recursion's denominator e ((e-1)^2 - 4a^2) vanishes at e = 0, at
    e = 1 + 2a (the free tau0) and at e = 1 - 2a.  With mu = 1 + 2a,
    j + k mu = 2 - mu at a lattice point when m mu = 2 - j for m = k + 1,
    j in {0, 1}: mu = 1/m or 2/m for an integer m >= 2 (a = -1/6, -1/4,
    -3/10, -1/3, ... towards -1/2; m = 2 with 2/m is a = 0, where tau0
    raises).
    There the recursion divides rounding by rounding, and the
    coefficient of x^(1-2a) is not fixed by it.  Raises NondegeneracyError
    when m mu is within rounding of 1 or 2.
    """
    a = p.alpha1 + p.alpha2
    for top in (1.0, 2.0):
        m = top / (1.0 + 2.0 * a)
        near = round(m.real)
        if near >= 2 and abs(m - near) <= 64.0 * np.finfo(float).eps * near:
            raise NondegeneracyError(
                f"alpha1 + alpha2 = {a.real:.6g}: 1 - 2a lies on the exponent lattice, "
                "where the small-argument recursion is resonant"
            )


def _tau0_power(p: FHParams) -> float:
    """1 + 2 Re(alpha1 + alpha2), the power of x in |tau0 x^(1+2a)|."""
    mu = 1.0 + 2.0 * (p.alpha1 + p.alpha2).real
    if mu <= 0.0:
        raise ValidationError("small-argument series needs Re(alpha1 + alpha2) > -1/2")
    return mu


def _series_start(p: FHParams, tol: float) -> float:
    """The smallest x >= _X_ANCHOR at which start data resolve tau0 to tol.

    Double-precision data at x carry an error of eps |sigma(0)|, which the
    solve cannot tell from a tau0 off by eps |sigma(0)| / x^(1+2a); so
    tau0 is resolved to relative accuracy 1/R with
    R = |tau0| x^(1+2 Re a) / (eps |sigma(0)|), and the start is the
    smallest x with R >= 1/tol.  Where sigma(0) = 0 (the sigma == 0 sets
    included) R is infinite.  Raises NondegeneracyError where tau0 does
    and NumericalError where tau0 = 0 but sigma(0) != 0.  The start also
    ends the series range: integrate_sigma builds the table on (0, x0].
    """
    s0 = abs(sigma_zero(p))
    if s0 == 0.0:
        return _X_ANCHOR
    t0 = abs(tau0(p))
    if t0 == 0.0:
        raise NumericalError("tau0 = 0: no start resolves the solution it selects")
    need = np.finfo(float).eps * s0 / (tol * t0)  # x^(1+2a) at the start
    return max(_X_ANCHOR, need ** (1.0 / _tau0_power(p)))


def _series_rows(table, x):
    """Rows (sigma, sigma_x, sigma_xx, omega) from the table at x > 0, each
    of the shape of x; omega = int_0^x (sigma - sigma(0)) dy/y takes
    c_k x^(e_k) / e_k from each term after sigma(0), the table's first.
    A power is a real power times a unit phase, so a real exponent keeps
    the accuracy of the real power.  Raises ValidationError unless every
    x > 0."""
    xs = np.asarray(x, dtype=float)
    if not np.all(xs > 0.0):
        raise ValidationError(f"x = {xs[~(xs > 0.0)][0]} is not > 0, where sigma is read")
    c, e = table
    xs = xs[..., None]
    phase = np.exp(1j * e.imag * np.log(xs))
    weights = (c, c * e, c * e * (e - 1.0))
    # a power whose weight is 0 (sigma(0)'s in both derivatives, x's in
    # sigma_xx) is taken as x^0: x^(e-2) overflows below x ~ 1e-154, and
    # inf * 0 is nan
    xe, xe1, xe2 = (
        xs ** np.where(w == 0.0, 0.0, e.real - m) * phase for m, w in enumerate(weights)
    )
    terms = (xe * c, xe1 * weights[1], xe2 * weights[2], xe[..., 1:] * (c[1:] / e[1:]))
    return np.stack([t.sum(-1) for t in terms])


def _branch_sign(p: FHParams):
    """(sign, kept, other): sign = +1 when Re(beta1 - beta2) >= 0, else -1,
    the sign of the oscillating term that the large-argument expansion
    keeps; kept is the singularity that term belongs to (1 for +1, 2 for
    -1) and other the remaining one."""
    s1, s2 = p.pair
    return (1.0, s1, s2) if (p.beta1 - p.beta2).real >= 0.0 else (-1.0, s2, s1)


def _gamma_connection(p: FHParams, x):
    """The oscillatory gamma(s) entering the large-argument expansion, at
    x = |s| given as a float or an array of floats; one expression on the
    kept singularity j and the other one k, with phase e^{-+ix}."""
    sign, j, k = _branch_sign(p)
    expo = 2.0 * (-1.0 + j.beta - k.beta)
    phase = np.exp(-1j * sign * x) * cmath.exp(1j * sign * cmath.pi * (p.alpha1 + p.alpha2))
    ratio = gamma_ratio(j.alpha, j.beta) * gamma_ratio(k.alpha, -k.beta)
    return 0.25 * (x / 2.0) ** expo * phase * ratio


def sigma_large_asym(p: FHParams, x: float) -> complex:
    """Connection asymptotics of sigma at s = -ix for large x.

    Requires the seminorm |Re(beta1-beta2)| < 1; the error of the formula
    is O(x^(-1+seminorm)).
    """
    check_seminorm(p)
    s = -1j * x
    g = _gamma_connection(p, x)
    sign = _branch_sign(p)[0]
    return (p.beta2 - p.beta1) * s / 2.0 - (p.beta1 - p.beta2) ** 2 / 2.0 + sign * s * g / (1.0 + g)


# ---------------------------------------------------------------------------
# ODE integration along the ray s = -ix, in x


def sigma_residual(p: FHParams, x, sigma, sigma_x, sigma_xx):
    """Scaled residual of the quartic relation at x from sigma and its
    x-derivatives, at one point or elementwise.  On u(x) = sigma(-ix), its
    u'^4 terms cancelled, the relation is x^2 u''^2 + (u - x u')(u - x u'
    - 4u'^2) + 4(e2 u' + i e3) u' = 4 prod_k theta_k."""
    _, e2, e3 = _equation_constants(p)
    rest = sigma - x * sigma_x
    res = (x * sigma_xx) ** 2 + rest * (rest - 4.0 * sigma_x**2) - 4.0 * math.prod(theta_params(p))
    res += 4.0 * (e2 * sigma_x + 1j * e3) * sigma_x
    return abs(res) / (1.0 + abs(sigma) ** 2 + abs(x * sigma_x) ** 2)


@dataclass
class SigmaTrajectory:
    """sigma and derivatives on a grid of x = |s| along the ray s = -ix.

    Built from the parameters, the range [x0, x_max] and the dense solver
    output over x, whose rows are (sigma, sigma_x, sigma_xx, omega, ln U,
    W), omega included from its series value at x0 on: _integrate_ray's
    stacked step arrays, which _dense_at reads with scipy's DOP853
    arithmetic, bit for bit equal to scipy's dense output.  eval, sigma_at
    and omega_at take a float or an array of x and read it through _read:
    the solve's series table _series below x0, the dense output from x0
    on, one call each.  x_grid is _default_grid(x0, x_max); the grid
    fields are filled from one eval on x_grid and the quartic-relation
    residual there.
    """

    params: FHParams
    x0: float
    x_max: float
    _dense: tuple = field(repr=False)  # stacked DOP853 steps over [x0, x_max]
    _series: tuple = field(repr=False)  # the table (c, e)
    x_grid: np.ndarray = field(init=False)
    sigma: np.ndarray = field(init=False)
    sigma_x: np.ndarray = field(init=False)
    sigma_xx: np.ndarray = field(init=False)
    residual: np.ndarray = field(init=False)

    def __post_init__(self):
        self.x_grid = _default_grid(self.x0, self.x_max)
        self.sigma, self.sigma_x, self.sigma_xx = self.eval(self.x_grid)
        self.residual = sigma_residual(
            self.params, self.x_grid, self.sigma, self.sigma_x, self.sigma_xx
        )

    def _dense_at(self, xs: np.ndarray) -> np.ndarray:
        """Rows (sigma, sigma_x, sigma_xx, omega, ln U, W) at the points xs.

        Each x is read on its step (the first whose end is >= x) from the
        step's degree-7 polynomial, Horner in q and 1 - q alternately for
        q = (x - t_old)/h: scipy's Dop853DenseOutput arithmetic, so every
        value equals its dense output bit for bit."""
        outside = ~((self.x0 <= xs) & (xs <= self.x_max + 1e-12))
        if outside.any():
            raise ValidationError(
                f"x = {xs[outside][0]} outside trajectory range [{self.x0}, {self.x_max}]"
            )
        t_old, h, coeffs, y_old = self._dense
        xs = np.minimum(xs, self.x_max)
        step = np.maximum(np.searchsorted(t_old, xs) - 1, 0)
        q = ((xs - t_old[step]) / h[step])[:, None]
        y = np.zeros((xs.size, y_old.shape[1]), dtype=complex)
        for k, f in enumerate(coeffs[::-1, step]):
            y += f
            y *= q if k % 2 == 0 else 1 - q
        return (y + y_old[step]).T

    def _read(self, x):
        """(sigma, sigma_x, sigma_xx, omega) at x, each of the shape of x:
        the series table below x0, the dense output from x0 on (at x0 it
        returns the start data, the series values there)."""
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel()
        head = flat < self.x0
        out = np.empty((4, flat.size), dtype=complex)
        if head.any():
            out[:, head] = _series_rows(self._series, flat[head])
        if not head.all():
            out[:, ~head] = self._dense_at(flat[~head])[:4]
        return tuple(o.reshape(xs.shape)[()] for o in out)

    def eval(self, x):
        """(sigma, sigma_x, sigma_xx) at x, each of the shape of x."""
        return self._read(x)[:3]

    def sigma_at(self, x):
        return self._read(x)[0]

    def omega_at(self, x):
        """int_0^x (sigma(-iy) - sigma(0)) dy/y, of the shape of x."""
        return self._read(x)[3]


def _integrate_ray(p, x0, x_max, y0, rtol):
    """Dense solution of (u, u', u'', omega, ln U, W) over [x0, x_max],
    u(x) = sigma(-ix), from the start data y0 at x0, as the pass's steps
    stacked into arrays (t_old, h, F, y_old): each step's start, width,
    seven DOP853 interpolant rows (F's first axis) and start state, the
    data of scipy's Dop853DenseOutput.

    u''' is the quadratic form of _equation_constants, the equation that
    _series_lattice expands, and omega' = (u - sigma(0))/x.  U oscillates
    like e^{-ix} with O(1) amplitude at large x, which would set the step;
    ln U ~ -ix plus a slowly varying part does not.
    """
    _, e2, e3 = _equation_constants(p)
    s0c = sigma_zero(p)
    lax_v, lax_rates = _lax_system(p)[:2]
    nfev = 0

    def f(x, yv):
        nonlocal nfev
        nfev += 1
        if nfev > _RHS_BUDGET:
            raise NumericalError(
                f"sigma solve stalled at x = {x:.6g} after "
                f"{_RHS_BUDGET} right-hand-side evaluations"
            )
        x = float(x)  # numpy-scalar arithmetic would dominate the call
        u, du, d2u, _, ln_u, _ = yv.tolist()
        d3u = (x * (u - x * du - 6.0 * du * du - d2u) + 4.0 * (u - e2) * du - 2j * e3) / (x * x)
        u_lax = cmath.exp(ln_u)
        xu_x, xy_y = lax_rates(u_lax, lax_v(du), x)
        return [du, d2u, d3u, (u - s0c) / x, xu_x / (x * u_lax), xy_y / x]

    def blowup(x, yv):
        return abs(yv[0]) - _POLE_CAP

    blowup.terminal = True
    sol = solve_ivp(
        f, (x0, x_max), np.asarray(y0, dtype=complex), method="DOP853", rtol=rtol, atol=rtol,
        dense_output=True, events=blowup,
    )
    if not sol.success and sol.status != 1:
        raise NumericalError(f"sigma integration failed: {sol.message}")
    if sol.status == 1:  # blow-up event fired
        raise PoleDetectedError(sol.t_events[0][0])
    steps = sol.sol.interpolants
    return (
        np.array([d.t_old for d in steps]),
        np.array([d.h for d in steps]),
        np.stack([d.F for d in steps], axis=1),
        np.array([d.y_old for d in steps]),
    )


def _default_grid(x0: float, x_max: float) -> np.ndarray:
    head = np.geomspace(x0, min(1.0, x_max), 25)
    tail = np.arange(1.0, x_max + 1e-9, 0.2)
    return np.unique(np.concatenate([head, tail, [x_max]]))


def integrate_sigma(
    p: FHParams, x_max: float = 40.0, tol: float = _DEFAULT_TOL
) -> SigmaTrajectory:
    """Integrate u(x) = sigma(-ix) forward in x from the start x0 to x_max.

    x0 = _series_start(p, tol), where the series table's start data
    (sigma, sigma_x, sigma_xx and omega) resolve tau0 to relative accuracy
    tol: 1e-3 for alpha1 = alpha2 = 0.3, about 0.24 for 0.9 at tol = 1e-8.
    The table is built on (0, x0], which holds every read of it: the
    start data, the trajectory's reads below x0, and ln U and W, which
    start from _lax_start on [1e-10, x0].  The solve is the one
    solve_ivp pass of _integrate_ray.  The sigma == 0 sets (the
    degenerate pair alpha = beta = 1/2 and the smooth symbol) have the
    empty table, start at 1e-3 from zero data, stay at zero and carry
    U = 1, which keeps the right-hand side finite.  The call raises:

    - NondegeneracyError up front, from the series, when 2(alpha1+alpha2)
      is in N u {0}, when 1 - 2(alpha1+alpha2) lies on the exponent
      lattice (alpha1 + alpha2 = -1/6, -1/4, -3/10, -1/3, ...), or when a
      parameter combination hits a negative integer;
    - ValidationError up front for a tol that is not finite and positive,
      and unless x0 < x_max < inf;
    - PoleDetectedError when |sigma| reaches the blow-up cap (a pole, or a
      runaway off the solution the initial data select);
    - NumericalError when the pass stalls (more than _RHS_BUDGET
      right-hand-side evaluations), when it left the connecting solution
      (real alphas, imaginary betas, x_max >= 10: sigma(x_max) misses the
      connection asymptotics by O(1)), or when the quartic-relation
      residual at a grid node exceeds 10*tol.
    """
    check_tol(tol)
    x0 = _series_start(p, tol)
    if not x0 < x_max < math.inf:
        raise ValidationError(f"need x0 < x_max < inf (x0 = {x0:.3g}, x_max = {x_max:.3g})")
    table = _series_terms(p, x0)
    rtol = min(1e-10, tol * 1e-2)
    ln_u0, w0 = (0.0, 0.0) if _sigma_vanishes(p) else _lax_start(p, table, x0)
    y0 = [*_series_rows(table, x0), ln_u0, w0]
    dense = _integrate_ray(p, x0, x_max, y0, rtol)
    traj = SigmaTrajectory(p, x0, x_max, dense, table)

    if p.has_real_fh_factor() and p.seminorm < 1.0 and x_max >= _X_ASYM_MIN:
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


_DEGENERATE = FHParams(0.5, 0.5, 0.5, 0.5, 0.1)  # t is irrelevant here


def is_degenerate(p: FHParams) -> bool:
    """alpha1 = alpha2 = beta1 = beta2 = 1/2, where sigma == 0 exactly."""
    return _exponents(p) == (0.5,) * 4


def degenerate_sigma(x_max: float = 40.0) -> SigmaTrajectory:
    """The explicit solution sigma == 0 at alpha1=alpha2=beta1=beta2=1/2."""
    return integrate_sigma(_DEGENERATE, x_max=x_max)


def degenerate_r(x: float) -> float:
    """r(-ix) = -sin(x/2) / (x/2)^2 in the degenerate case."""
    if x == 0.0:
        return -1.0
    return -math.sin(x / 2.0) / (x / 2.0) ** 2


@dataclass
class RTrajectory:
    """The (1,2) monodromy coefficient r on the trajectory grid, flagged
    where the r-numerator is below 1e-6 (r indistinguishable from 0).
    r is one call of _r_of on x_grid; r_at calls it at any x in range."""

    x_grid: np.ndarray
    r: np.ndarray
    flagged: np.ndarray
    _r_of: Callable = field(repr=False)

    def r_at(self, x: float) -> complex:
        if not (self.x_grid[0] <= x <= self.x_grid[-1]):
            raise ValidationError(f"x = {x} outside r trajectory range")
        return complex(self._r_of(np.array([x], dtype=float))[0])


def r_small_s(p: FHParams, x: float) -> complex:
    """Leading small-argument form of r at s = -ix."""
    a = p.alpha1 + p.alpha2
    b = p.beta_sum
    if is_nonpositive_integer(2.0 + a - b):  # 1 + a - b in {-1, -2, ...}
        raise NondegeneracyError("r small-argument form degenerate")
    phase = cmath.exp(1j * cmath.pi * (p.alpha1 - p.alpha2 - 3.0 * p.beta1 - p.beta2))
    return -2.0 / x * cmath.exp(-1j * x / 2.0) * phase * gamma_ratio(a, b)


def r_large_s(p: FHParams, x: float) -> complex:
    """Two-term large-argument form of r at s = -ix (Re beta1 = Re beta2):
    one term per singularity j, with k the other one and eps = +-1."""
    s1, s2 = p.pair
    return sum(
        -2.0
        * x ** (-1.0 - k.beta)
        * cmath.exp(-1j * eps * x / 2.0)
        * cmath.exp(1j * cmath.pi * (eps * j.alpha - 3.0 * p.beta1 - p.beta2))
        * gamma_ratio(j.alpha, j.beta)
        for j, k, eps in ((s1, s2, 1.0), (s2, s1, -1.0))
    )


def _lax_system(p: FHParams):
    """The compatibility-system forms with the constants of p bound, each
    on floats or arrays and read in x at s = -ix: v from sigma_x;
    lax_rates, the pair (x dU/dx, x y_x/y) = (s dU/ds, s y_s/y) on (U, v, x)
    (the U-equation, and the rates of ln U and W times x); the r-numerator
    numf on (U, v), whose zeros are the zeros of r; and d numf/dx on
    (U, v, x, sigma_xx)."""
    a1, b = p.alpha1, p.beta_sum
    v_shift, a_minus = b / 2.0 - a1, a1 - p.alpha2 - b
    c_u, d_u = b - a1 - p.alpha2, 3.0 * a1 - p.alpha2 - b

    def lax_rates(u, v, x):  # (s dU/ds, s y_s/y), s = -ix
        return (
            -1j * x * u + (u - 1.0) * (u * c_u + d_u - 2.0 * v * (u - 1.0)),
            (v + 2.0 * a1) / u - 2.0 * (v + a1) + 0.5j * x + u * v,
        )

    def lax_v(sig_x):  # v_shift - sigma_s, sigma_s = i sigma_x
        return v_shift - 1j * sig_x

    def numf_x(u, v, x, sig_xx):  # dv/dx = -i sigma_xx
        return -1j * sig_xx * (1.0 - u) - v * lax_rates(u, v, x)[0] / x

    return lax_v, lax_rates, (lambda u, v: v * (1.0 - u) + a_minus), numf_x


def _lax_branches(p: FHParams, x, sig, du, d2u):
    """The Lax variable U on both roots of its quadratic at x, from sigma
    and its x-derivatives there (floats, or arrays of one shape), with
    the pieces of d ln r/dx on each.

    v is fixed by sigma_x; U solves the quadratic the sigma-equation
    forces on the residue variables.  Returns (u, y_part, numf, dnumf),
    each stacked over the two roots along the first axis; where the
    leading coefficient vanishes both rows hold the linear root.
    """
    x = np.asarray(x, dtype=float)
    lax_v, lax_rates, numf_of, numf_x = _lax_system(p)
    v = lax_v(du)
    # sigma - x sigma_x + sum_j alpha_j^2 - (beta1 + beta2)^2 / 2, added left to right
    w_cap = sum((j.alpha**2 for j in p.pair), sig - x * du) - p.beta_sum**2 / 2.0
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
    # d ln r/dx = y_x/y - 1/x + numf_x/numf = y_part - 1/x + dnumf/numf
    return u, lax_rates(u, v, x)[1] / x, numf_of(u, v), numf_x(u, v, x, d2u)


def _lax_root(p: FHParams, x, sig, du, d2u):
    """(d ln r/dx, U, x y_x/y) elementwise over x, on the root of the Lax
    quadratic whose d ln r/dx is nearest -1/x - i/2 + k (the first on a
    tie), k = i alpha2/(alpha1 + alpha2).

    As x -> 0 the roots meet at U = -(a + b)/(a - b), a = alpha1 + alpha2,
    b = beta1 + beta2.  The quadratic to second order in x there gives the
    slopes of the two roots, and on them d ln r/dx + 1/x + i/2 tends to k
    on the root the U-flow keeps, and to another constant (-2.23i at
    alpha1 = alpha2 = 0.3) or like x^(2a-1) on the other.  Below about 1e-7
    the roots agree to the rounding of the discriminant; either serves.
    """
    u, y_part, numf, dnumf = _lax_branches(p, x, sig, du, d2u)
    vals = y_part - 1.0 / x + dnumf / numf
    target = -1.0 / x - 0.5j + 1j * p.alpha2 / (p.alpha1 + p.alpha2)
    pick = np.argmin(np.abs(vals - target), axis=0)[None]
    return tuple(np.take_along_axis(rows, pick, 0)[0] for rows in (vals, u, y_part * x))


def _lax_start(p: FHParams, table, x0: float):
    """(ln U, W) at the sigma start x0 from the series table: U is _lax_root's
    root at x0, and W = int_{_X_R}^{x0} (x y_x/y) dx/x on that root is one
    16-point Gauss-Legendre sum in ln x over equal panels of at most a
    decade."""
    panels = math.ceil(math.log10(x0 / _X_R))
    ln_rel, weights = gauss_legendre_panels(np.linspace(0.0, math.log(x0 / _X_R), panels + 1))
    xs = np.append(_X_R * np.exp(ln_rel), x0)
    _, u, xy_y = _lax_root(p, xs, *_series_rows(table, xs)[:3])
    return cmath.log(u[-1]), np.dot(weights, xy_y[:-1])


def r_trajectory(p: FHParams, traj: SigmaTrajectory) -> RTrajectory:
    """r(s) on the trajectory, read from the sigma pass.

    The pass carries ln U and W = int_{1e-10} (x y_x/y) dx/x, so
    r = C e^W numf(U, v)/x at any x: the zeros of r are zeros of numf,
    crossed exactly.  C is matched to r_small_s at x = _X_R = 1e-10, where
    W = 0; it carries the rounding of the Lax root there, about 1e-8, or
    where Re(alpha1 + alpha2) < 0 the form's x^(1+2a) term (3e-4 at -0.35).
    The degenerate pair has the closed form degenerate_r; the smooth
    symbol, which has no Lax root, raises DegenerateDenominatorError,
    and a trajectory of other exponents than p's ValidationError.
    """
    _check_trajectory(p, traj)
    if is_degenerate(p):
        r_of = np.vectorize(degenerate_r, otypes=[complex])
        return RTrajectory(traj.x_grid, r_of(traj.x_grid), np.zeros(len(traj.x_grid), bool), r_of)
    if _sigma_vanishes(p):
        raise DegenerateDenominatorError("Lax quadratic degenerates where sigma == 0")

    lax_v, _, numf_of, _ = _lax_system(p)

    def shape(xs):  # (r / C, numf) at the points xs
        _, du, _, _, ln_u, w = traj._dense_at(xs)
        numf = numf_of(np.exp(ln_u), lax_v(du))
        return np.exp(w) * numf / xs, numf

    unit, numf = shape(traj.x_grid)
    at_r = traj.eval(_X_R)
    c = r_small_s(p, _X_R) * _X_R / numf_of(_lax_root(p, _X_R, *at_r)[1], lax_v(at_r[1]))
    flagged = np.abs(numf) < 1e-6 * (1.0 + np.max(np.abs(numf)))
    return RTrajectory(traj.x_grid, c * unit, flagged, lambda xs: c * shape(xs)[0])


def integral_identity_check(p: FHParams, traj: SigmaTrajectory, T: float):
    """Both sides of the global integral identity, evaluated at cutoff T.

    The left side is the finite-T combination plus an oscillatory-tail
    correction computed from the connection asymptotics; the right side
    is the Barnes-G expression.  Returns (lhs, rhs, |lhs - rhs|); raises
    ValidationError for T < 20, seminorm >= 1 or another set's trajectory.
    """
    if T < 20.0:
        raise ValidationError("need T >= 20")
    check_seminorm(p)
    _check_trajectory(p, traj)
    lhs = traj.omega_at(T) + 1j * T * (p.beta2 - p.beta1) / 2.0
    lhs += 2.0 * p.log_coupling * math.log(T)
    # the tail vanishes for the degenerate pair, where gamma_ratio(alpha2, -beta2) = 0
    sign = _branch_sign(p)[0]
    ys = np.arange(T, max(10.0 * T, 2000.0), math.pi / 40.0)
    gs = _gamma_connection(p, ys)
    integrand = -sign * 1j * gs / (1.0 + gs)
    lhs += np.trapezoid(integrand, ys)

    rhs = 1j * math.pi * p.phase_coupling - log_barnes_g_ratio(p.alpha1 + p.alpha2, p.beta_sum)
    rhs += sum(log_barnes_g_ratio(s.alpha, s.beta) for s in p.pair)
    return lhs, rhs, abs(lhs - rhs)
