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
from the same dense output as sigma, at any x.  The pass starts at the
handover x_h (up to 0.2, _handover), above the tau0-resolution point x0
that starts the grid: below x_h the series table holds sigma to
rounding, and U is a root of a quadratic in sigma's derivatives, so
sigma, omega, ln U and W there (the start data included) come from the
table.  It is built on the range read from it (the start data, the
reads below x_h, the Lax head and r's anchor at 1e-10), and keeps each
term that matters at rounding to sigma, sigma_x or sigma_xx there;
_series_rows is its one read.  The pass records DOP853's accepted steps
and builds every step's interpolant in one batch after it; the
trajectory keeps them stacked into arrays and reads them with scipy's
Dop853DenseOutput arithmetic.  Everything downstream (the transition
formula, the integral identity, the ratio) reads from the resulting
trajectory.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.linalg.lapack import ztrtrs
from scipy.optimize import brentq

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
# the handover from the series table to the solver, as a fraction of the
# series' radius guess, and the Lax root pick's margin it keeps
_HANDOVER = 1.0 / 15.0
_PICK_MARGIN = 20.0
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
    point depends only on points at or below it in both j and k, so the
    table fills row by row.  Row 0, the powers x^j, pairs only its own
    points and is filled one point at a time.  Row k >= 1 is linear in
    itself: its products with row 0 and its (3 - e) c_{k, j-2} term make
    one lower-triangular system, and the pairs of finished rows 1 .. k-1
    its right-hand side, one product with their stacked Toeplitz windows.
    """
    a, _, e3 = _equation_constants(p)
    e = np.arange(size_j) + (1.0 + 2.0 * a) * np.arange(size_k)[:, None]
    den = e * ((e - 1.0) ** 2 - 4.0 * a * a)
    # the products 4uu' - 6x u'^2 at x^(e-1) pair c_p (4 - 6 e_p) with c_q e_q;
    # the pair (0, e) holds c_e itself and enters through den
    left_w = 4.0 - 6.0 * e
    c = np.zeros((size_k, size_j), dtype=complex)
    row, den0 = [sigma_zero(p)], den[0].tolist()  # row 0, where e = j
    for j in range(1, size_j):
        rest = -2j * e3 if j == 1 else 0.0
        if j >= 2:
            rest += (3.0 - j) * row[j - 2]
        rest += sum(row[m] * (4.0 - 6.0 * m) * row[j - m] * (j - m) for m in range(1, j))
        row.append(rest / den0[j])
    c[0] = row
    left = c * left_w
    # lower Toeplitz windows, toe[j, k, m] = c_{k, j-m} e_{k, j-m} for m <= j,
    # else 0, and low[j, m] = left[0, j - m] for m < j
    lag = size_j - 1 + np.arange(size_j)[:, None] - np.arange(size_j)
    pad = np.zeros(2 * size_j - 1, dtype=complex)
    toe = np.zeros((size_j, size_k, size_j), dtype=complex)
    pad[size_j:] = left[0, 1:]
    low = pad[lag]
    pad[size_j - 1 :] = c[0] * e[0]
    toe[:, 0] = pad[lag]
    # row k's coupling to row 0 and to c_{k, j-2}, affine in e = j + k mu
    two_back = np.eye(size_j, k=-2)
    base = -(low * e[0] + toe[:, 0] * left_w[0] + two_back * (3.0 - e[0, :, None]))
    slope = 6.0 * toe[:, 0] - low + two_back
    diag = np.diag_indices(size_j)
    for k in range(1, size_k):
        rhs = toe[:, 1:k].reshape(size_j, -1) @ left[k - 1 : 0 : -1].ravel()
        m = base + e[k, 0] * slope
        m[diag] = den[k]
        if k == 1:  # the free tau0
            m[0, 0], rhs[0] = 1.0, t0
        c[k] = ztrtrs(m, rhs, lower=1)[0]
        left[k] = c[k] * left_w[k]
        pad[size_j - 1 :] = c[k] * e[k]
        toe[:, k] = pad[lag]
    return c, e


def _series_terms(p: FHParams, x_range: float):
    """The small-argument table (c, e): sigma(-ix) = sum_k c_k x^(e_k), and
    its first two x-derivatives term by term, to rounding on
    0 < x <= x_range.

    The exponents are j + k(1 + 2a), a = alpha1 + alpha2, j, k >= 0, and
    the coefficients come from _series_lattice; the table is the lattice
    of _converged_lattice cut at x_range (_series_cut).  The degenerate
    pair and the smooth symbol, where sigma == 0 exactly, have the empty
    table.
    """
    if _sigma_vanishes(p):
        return np.zeros((2, 0), dtype=complex)
    return _series_cut(_converged_lattice(p, x_range), x_range)


def _term_matters(c, e, x: float):
    """big[d, k, j]: whether lattice term (k, j) matters at rounding at x to
    sigma, sigma_x or sigma_xx (d = 0, 1, 2), or None where a term's size
    overflows there.  Each derivative weighs c x^e by 1, e or e (e - 1)
    and is judged against its own largest term (eps times it), so
    sigma_xx keeps high orders that sigma alone would drop."""
    # x^d times each term's size in the d-th derivative at x, d = 0, 1, 2
    mag = np.abs(c * x**e.real * np.stack([np.ones_like(e), e, e * (e - 1.0)]))
    if not np.all(np.isfinite(mag)):
        return None
    return mag > np.finfo(float).eps * mag.max(axis=(1, 2), keepdims=True)


def _series_cut(lattice, x: float):
    """The table (c, e) of the lattice's terms that matter at x
    (_term_matters): sigma(0) is entry 0, the other entries are the kept
    terms above that."""
    c, e = lattice
    keep = _term_matters(c, e, x).any(axis=0)
    keep[0, 0] = True
    return c[keep], e[keep]


def _converged_lattice(p: FHParams, x_range: float):
    """The lattice (c, e) of _series_lattice that holds sigma to rounding on
    (0, x_range]: from _series_guess, the rectangle grows until its last
    two columns and its last row matter to none of sigma, sigma_x and
    sigma_xx at x_range (_term_matters).  Raises NondegeneracyError where
    tau0 does and where the recursion is resonant (_check_resonance),
    ValidationError for Re a <= -1/2 (the tau0 term does not vanish at
    x = 0) and NumericalError when the series has not converged on the
    range within _SERIES_BUDGET lattice points or a term's size overflows
    there."""
    t0 = tau0(p)
    _check_resonance(p)
    size_j, size_k = _series_guess(p, x_range)
    while size_j * size_k <= _SERIES_BUDGET:
        c, e = _series_lattice(p, t0, size_j, size_k)
        big = _term_matters(c, e, x_range)
        if big is None:
            break  # a term past the double range: the series diverges at x_range
        cols_ok, row_ok = not big[..., -2:].any(), not big[:, -1].any()
        if cols_ok and row_ok:
            return c, e
        size_j += 0 if cols_ok else size_j // 2
        size_k += 0 if row_ok else (size_k + 1) // 2
    raise NumericalError(f"small-argument series does not converge at x = {x_range:.3g}")


def _radius_guess(p: FHParams) -> float:
    """The radius of convergence _series_guess assumes: 3 (3.4 to 9 for
    real alphas), times |1 - 4a^2| / 0.4 below 0.4, a = alpha1 + alpha2
    (the x^2 term's small divisor 2(1 - 4a^2) slows the decay of the terms
    built from it)."""
    return 3.0 * min(1.0, abs(1.0 - 4.0 * (p.alpha1 + p.alpha2) ** 2) / 0.4)


def _series_guess(p: FHParams, x_range: float):
    """The first lattice (size_j, size_k) _converged_lattice tries on (0, x_range],
    meant to pass at once: at _radius_guess, sigma_xx's bar, whose largest
    term sits at x^2 or below, against column j, which weighs about
    (x/radius)^(j-2) j^2 (the last two columns start at j = size_j - 2),
    and rows up to the power x^(size_j - 2).  Raises ValidationError for
    Re(alpha1 + alpha2) <= -1/2."""
    log_ratio = math.log(min(x_range / _radius_guess(p), 0.5))
    log_eps = math.log(np.finfo(float).eps)
    j = 2
    while (j - 2) * log_ratio + 2.0 * math.log(j) > log_eps:
        j += 1
    return j + 2, 1 + math.ceil(j / _tau0_power(p))


def _handover(p: FHParams, x0: float, x_max: float):
    """(x_h, table): where the sigma solve leaves the series table, and the
    table it leaves, built on (0, cap] or (0, x0].  Where x_h lies far
    below the cap (as at Re a < 0, where the pick's margin at x0 is
    small), the cap's lattice is cut to the terms that matter at x_h
    (_series_cut) when that keeps at most half of the cap's terms: 35 of
    100 at (-0.2, -0.15).  Nearer the cap a cut saves few reads (it keeps
    58-99% of the terms on the sigma-family sets) and would move the
    start data by rounding, which the pass amplifies.

    The series holds to rounding up to the cap _HANDOVER times
    _radius_guess (0.2 at radius 3, less near alpha1 + alpha2 = 1/2).
    Below x_h, U is also read off the Lax quadratic (_lax_head), which
    needs _lax_root's pick to stay clear: its margin falls about like 1/x
    (m x -> 8 (alpha1 + alpha2) at beta = 0), so x_h is at most where the
    margin measured at x0 would fall to _PICK_MARGIN.  x_h = x0 when the
    cap is not in (x0, x_max) or its first lattice would not fit
    _SERIES_BUDGET, and for the sigma == 0 sets, whose table is empty."""
    cap = _HANDOVER * _radius_guess(p)
    fits = x0 < cap < x_max and math.prod(_series_guess(p, cap)) <= _SERIES_BUDGET
    if _sigma_vanishes(p) or not fits:
        return x0, _series_terms(p, x0)
    lattice = _converged_lattice(p, cap)
    table = _series_cut(lattice, cap)
    margin = _lax_root(p, x0, *_series_rows(table, x0)[:3])[3]
    x_h = min(cap, max(x0, x0 * float(margin) / _PICK_MARGIN))
    low = _series_cut(lattice, x_h)
    return x_h, low if 2 * low[0].size <= table[0].size else table


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
    the accuracy of the real power; real exponents (real alphas) skip the
    phase.  Raises ValidationError unless every x > 0."""
    xs = np.asarray(x, dtype=float)
    if not np.all(xs > 0.0):
        raise ValidationError(f"x = {xs[~(xs > 0.0)][0]} is not > 0, where sigma is read")
    c, e = table
    xs = xs[..., None]
    phase = np.exp(1j * e.imag * np.log(xs)) if e.imag.any() else 1.0
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

    Built from the parameters, the range [x0, x_max], the solver pass
    and the series table.  The pass starts at the handover and its dense
    output has the rows (sigma, sigma_x, sigma_xx, omega, ln U, W), omega
    included from its series value at the handover on: _integrate_ray's
    stacked step arrays, which _dense_at reads with scipy's DOP853
    arithmetic, within 1e-14 max(1, |y|) of scipy's dense output on the
    same steps.  eval, sigma_at
    and omega_at take a float or an array of x in (0, x_max] and read it
    through _read: the solve's series table _series below the handover,
    the dense output from there on, one call each.  x_grid is
    _default_grid(x0, x_max); the grid fields are filled from one eval on
    x_grid and the quartic-relation residual there.  handover, steps and
    nfev say how the pass ran: where it took over from the table, its
    accepted steps and its right-hand-side evaluations, the three batched
    interpolant stages per step included.
    """

    params: FHParams
    x0: float
    x_max: float
    _dense: tuple = field(repr=False)  # _integrate_ray's pass from the handover on
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

    @property
    def handover(self) -> float:
        """Where the pass starts: x0, or above it where the table still holds."""
        return float(self._dense[0][0])

    @property
    def steps(self) -> int:
        return len(self._dense[0])

    @property
    def nfev(self) -> int:
        return self._dense[4]

    def _dense_at(self, xs: np.ndarray) -> np.ndarray:
        """Rows (sigma, sigma_x, sigma_xx, omega, ln U, W) at the points xs
        in [handover, x_max].

        Each x is read on its step (the first whose end is >= x) from the
        step's degree-7 polynomial, Horner in q and 1 - q alternately for
        q = (x - t_old)/h (_step_poly): scipy's Dop853DenseOutput
        arithmetic on rows that _interpolants builds in one batch, within
        1e-14 max(1, |y|) of scipy's per-step dense output."""
        outside = ~((self.handover <= xs) & (xs <= self.x_max + 1e-12))
        if outside.any():
            raise ValidationError(
                f"x = {xs[outside][0]} outside the pass [{self.handover}, {self.x_max}]"
            )
        t_old, h, coeffs, y_old, _ = self._dense
        xs = np.minimum(xs, self.x_max)
        step = np.maximum(np.searchsorted(t_old, xs) - 1, 0)
        q = ((xs - t_old[step]) / h[step])[:, None]
        return (_step_poly(coeffs[:, step], q) + y_old[step]).T

    def _read(self, x):
        """(sigma, sigma_x, sigma_xx, omega) at x, each of the shape of x:
        the series table below the handover, the dense output from there
        on (at the handover it returns the start data, the series values
        there)."""
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel()
        head = flat < self.handover
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


def _ray_rhs(p: FHParams):
    """The pass's right-hand side rhs(x, y, exp) for y = (u, u', u'', omega,
    ln U, W), u(x) = sigma(-ix): one body on a float x, the six entries of
    y and exp = cmath.exp inside the pass, and on an array of x, six arrays
    and exp = np.exp for the interpolant stages after it (_interpolants).

    u''' is the quadratic form of _equation_constants, the equation that
    _series_lattice expands, and omega' = (u - sigma(0))/x.  U oscillates
    like e^{-ix} with O(1) amplitude at large x, which would set the step;
    ln U ~ -ix plus a slowly varying part does not.
    """
    _, e2, e3 = _equation_constants(p)
    s0c = sigma_zero(p)
    lax_v, lax_rates = _lax_system(p)[:2]

    def rhs(x, y, exp):
        u, du, d2u, _, ln_u, _ = y
        d3u = (x * (u - x * du - 6.0 * du * du - d2u) + 4.0 * (u - e2) * du - 2j * e3) / (x * x)
        u_lax = exp(ln_u)
        xu_x, xy_y = lax_rates(u_lax, lax_v(du), x)
        return [du, d2u, d3u, (u - s0c) / x, xu_x / (x * u_lax), xy_y / x]

    return rhs


def _interpolants(rhs, t_old, h, y_old, y, k):
    """F, the seven rows of DOP853's degree-7 interpolant (first axis) for
    every step at once, from the steps' starts t_old, widths h, start and
    end states y_old and y, and twelve stages plus the end slope k
    (steps x 13 x components): scipy's Dop853DenseOutput data, with each
    of the three extra stages one array call of rhs over all steps."""
    ks = np.concatenate([k, np.empty((len(h), 3, k.shape[2]), dtype=complex)], axis=1)
    hs = h[:, None]
    for s, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=k.shape[1]):
        at = (y_old + (a[:s] @ ks[:, :s]) * hs).T
        ks[:, s] = np.stack(rhs(t_old + c * h, at, np.exp), axis=-1)
    dy = y - y_old
    f_old, f_new = k[:, 0], k[:, -1]
    return np.concatenate([
        [dy, hs * f_old - dy, 2.0 * dy - hs * (f_new + f_old)],
        np.einsum("js,nsm->jnm", DOP853.D, ks) * hs,
    ])


def _step_poly(coeffs, q):
    """The interpolant rows coeffs summed at q = (x - t_old)/h, Horner in q
    and 1 - q alternately (Dop853DenseOutput's order); y_old not added."""
    y = np.zeros(coeffs.shape[1:], dtype=complex)
    for k, f in enumerate(coeffs[::-1]):
        y += f
        y *= q if k % 2 == 0 else 1 - q
    return y


class _RecordedDOP853(DOP853):
    """scipy's DOP853 that appends each accepted step (t_old, t, h, y_old,
    y, K) to the list `steps`, K its twelve stages and end slope, and
    builds no interpolant itself.  At a step end where |sigma| reaches
    _POLE_CAP it raises PoleDetectedError at the crossing, found on that
    step's interpolant (_interpolants of `rhs`) as solve_ivp finds an
    event's root."""

    def __init__(self, fun, t0, y0, t_bound, *, steps, rhs, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.steps, self.rhs = steps, rhs

    def _step_impl(self):
        t, y = self.t, self.y
        ok, message = super()._step_impl()
        if ok:
            self.steps.append((t, self.t, self.h_previous, y, self.y, self.K.copy()))
            if abs(self.y[0]) >= _POLE_CAP:
                raise PoleDetectedError(self._crossing())
        return ok, message

    def _crossing(self):
        t_old, t, h, y_old, y, k = self.steps[-1]
        coeffs = _interpolants(self.rhs, *(np.array([v]) for v in (t_old, h, y_old, y, k)))

        def above(x):
            sigma = y_old[0] + _step_poly(coeffs[:, 0, 0], (x - t_old) / (t - t_old))
            return abs(sigma) - _POLE_CAP

        eps = np.finfo(float).eps
        return brentq(above, t_old, t, xtol=4.0 * eps, rtol=4.0 * eps)


def _integrate_ray(p, x0, x_max, y0, rtol):
    """Dense solution of (u, u', u'', omega, ln U, W) over [x0, x_max],
    u(x) = sigma(-ix), from the start data y0 at x0, as the pass's steps
    stacked into arrays (t_old, h, F, y_old): each step's start, width,
    seven DOP853 interpolant rows (F's first axis) and start state, the
    data of scipy's Dop853DenseOutput; then the pass's nfev.

    The one solve_ivp pass (_RecordedDOP853) takes DOP853's steps and
    records them; F is built for all of them after it (_interpolants), so
    the pass itself spends no right-hand-side call on an interpolant.
    nfev counts the pass's calls and the three batched stages per step;
    _RHS_BUDGET bounds the pass's own.
    """
    rhs = _ray_rhs(p)
    nfev = 0

    def f(x, yv):
        nonlocal nfev
        nfev += 1
        if nfev > _RHS_BUDGET:
            raise NumericalError(
                f"sigma solve stalled at x = {x:.6g} after "
                f"{_RHS_BUDGET} right-hand-side evaluations"
            )
        # numpy-scalar arithmetic would dominate the call
        return rhs(float(x), yv.tolist(), cmath.exp)

    steps = []
    sol = solve_ivp(
        f, (x0, x_max), np.asarray(y0, dtype=complex), method=_RecordedDOP853, rtol=rtol,
        atol=rtol, steps=steps, rhs=rhs,
    )
    if not sol.success:
        raise NumericalError(f"sigma integration failed: {sol.message}")
    t_old, t, h, y_old, y, k = (np.array(v) for v in zip(*steps))
    return t_old, t - t_old, _interpolants(rhs, t_old, h, y_old, y, k), y_old, nfev + 3 * len(h)


def _default_grid(x0: float, x_max: float) -> np.ndarray:
    head = np.geomspace(x0, min(1.0, x_max), 25)
    tail = np.arange(1.0, x_max + 1e-9, 0.2)
    return np.unique(np.concatenate([head, tail, [x_max]]))


def integrate_sigma(
    p: FHParams, x_max: float = 40.0, tol: float = _DEFAULT_TOL
) -> SigmaTrajectory:
    """Integrate u(x) = sigma(-ix) forward in x from the start x0 to x_max.

    x0 = _series_start(p, tol) is where double-precision data resolve
    tau0 to relative accuracy tol: 1e-3 for alpha1 = alpha2 = 0.3, about
    0.24 for 0.9 at tol = 1e-8.  It starts the trajectory's grid and
    read ranges.  The solve itself is the one solve_ivp pass of
    _integrate_ray from the handover x_h = _handover(p, x0, x_max): up to
    0.2 (less near alpha1 + alpha2 = 1/2, and where the Lax root pick
    would lose its margin), or x0 where that is higher or its table would
    not fit _SERIES_BUDGET.  Below x_h the series holds sigma to
    rounding, where DOP853's early steps from x0 were most of its error
    and a third of its steps.  The table holds every read of it: the
    start data at x_h, the trajectory's reads below x_h, and ln U and W,
    which come from _lax_head on [1e-10, x_h].  The sigma == 0 sets (the degenerate pair
    alpha = beta = 1/2 and the smooth symbol) have the empty table, start
    at x_h = x0 = 1e-3 from zero data, stay at zero and carry U = 1,
    which keeps the right-hand side finite.  The call raises:

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
    x_h, table = _handover(p, x0, x_max)
    rtol = min(1e-10, tol * 1e-2)
    y0 = [*_series_rows(table, x_h), 0.0, 0.0]
    if not _sigma_vanishes(p):
        _, u_h, w_h = _lax_head(p, table, np.array([x_h]))
        y0[4:] = cmath.log(u_h[0]), w_h[0]
    dense = _integrate_ray(p, x_h, x_max, y0, rtol)
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
    """(d ln r/dx, U, x y_x/y, margin) elementwise over x, on the root of
    the Lax quadratic whose d ln r/dx is nearest -1/x - i/2 + k (the first
    on a tie), k = i alpha2/(alpha1 + alpha2); margin is how many times
    nearer it is than the other root's.

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
    dist = np.abs(vals - target)
    pick = np.argmin(dist, axis=0)[None]
    near, far = np.sort(dist, axis=0)
    picked = (np.take_along_axis(rows, pick, 0)[0] for rows in (vals, u, y_part * x))
    return (*picked, far / np.maximum(near, np.finfo(float).tiny))


def _lax_head(p: FHParams, table, xs: np.ndarray, x_ref: float = _X_R, w_ref: complex = 0.0):
    """(sigma_x, U, W) at the points xs in [_X_R, x_h] from the series
    table on (0, x_h]: U is _lax_root's root at each x, and
    W = w_ref + int_{x_ref}^x (x y_x/y) dx/x on that root is a
    Gauss-Legendre sum in ln x, one edge at x_ref and at each x, summed
    cumulatively.  Where a gap is wider than a decade every panel is cut
    at decades from the lowest edge.  The rule has 8 points where every
    panel is narrower than ln 2 (r below x_h, one panel per grid point;
    r moves by < 2e-13 from 16), else 16.  From W = 0 at _X_R it gives the
    solve's start at x_h; r below x_h sums down from the start."""
    ln_x = np.log(xs / x_ref)
    edges = np.union1d(ln_x, 0.0)
    width = np.diff(edges).max(initial=0.0)
    if width > math.log(10.0):
        edges = np.union1d(np.arange(edges[0], edges[-1], math.log(10.0)), edges)
    nodes, weights = gauss_legendre_panels(edges, 8 if width < math.log(2.0) else 16)
    at = np.concatenate([x_ref * np.exp(nodes), xs])
    rows = _series_rows(table, at)
    _, u, xy_y, _ = _lax_root(p, at, *rows[:3])
    panels = (weights * xy_y[: nodes.size]).reshape(edges.size - 1, -1).sum(1)
    cum = np.concatenate([[0.0], np.cumsum(panels)])
    w = w_ref + cum[np.searchsorted(edges, ln_x)] - cum[np.searchsorted(edges, 0.0)]
    return rows[1, nodes.size :], u[nodes.size :], w


def r_trajectory(p: FHParams, traj: SigmaTrajectory) -> RTrajectory:
    """r(s) on the trajectory, read from the sigma pass.

    The pass carries ln U and W = int_{1e-10} (x y_x/y) dx/x, so
    r = C e^W numf(U, v)/x at any x: the zeros of r are zeros of numf,
    crossed exactly.  Below the handover, where the pass has not started,
    U and W come from the series table as at its start (_lax_head).  C is
    matched to r_small_s at x = _X_R = 1e-10, where W = 0; it carries the
    rounding of the Lax root there, about 1e-8, or where
    Re(alpha1 + alpha2) < 0 the form's x^(1+2a) term (3e-4 at -0.35).
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

    x_h = traj.handover
    w_h = traj._dense[3][0, 5]  # W in the pass's start state y_old[0]

    def shape(xs):  # (r / C, numf) at the points xs
        head = xs < x_h
        du, u, w = np.empty((3, xs.size), dtype=complex)
        if head.any():
            du[head], u[head], w[head] = _lax_head(p, traj._series, xs[head], x_h, w_h)
        if not head.all():
            _, du[~head], _, _, ln_u, w[~head] = traj._dense_at(xs[~head])
            u[~head] = np.exp(ln_u)
        numf = numf_of(u, lax_v(du))
        return np.exp(w) * numf / xs, numf

    unit, numf = shape(traj.x_grid)
    at_r = traj.eval(_X_R)
    c = r_small_s(p, _X_R) * _X_R / numf_of(_lax_root(p, _X_R, *at_r)[1], lax_v(at_r[1]))
    flagged = np.abs(numf) < 1e-6 * (1.0 + np.max(np.abs(numf)))
    return RTrajectory(traj.x_grid, c * unit, flagged, lambda xs: c * shape(xs)[0])


def _tail_edges(T: float, width: float) -> np.ndarray:
    """Equal panels of width at most `width` from T to the identity's
    cutoff max(10 T, 2000)."""
    end = max(10.0 * T, 2000.0)
    return np.linspace(T, end, math.ceil((end - T) / width) + 1)


def integral_identity_check(p: FHParams, traj: SigmaTrajectory, T: float):
    """Both sides of the global integral identity, evaluated at cutoff T.

    The left side is the finite-T combination plus an oscillatory-tail
    correction computed from the connection asymptotics; the right side
    is the Barnes-G expression.  The tail is summed from T to the cutoff
    max(10 T, 2000) by 16-point Gauss-Legendre on panels of width at most
    4 pi, within 1e-14 of pi/4 panels.  The cutoff truncates: the
    integrand falls like y^(-2 + 2 seminorm), to ~1e-7 at the cutoff for
    equal real parts of the betas, and the oscillatory rest past it is
    of that size.  Returns (lhs, rhs, |lhs - rhs|);
    raises ValidationError for T < 20, seminorm >= 1 or another set's
    trajectory.
    """
    if T < 20.0:
        raise ValidationError("need T >= 20")
    check_seminorm(p)
    _check_trajectory(p, traj)
    lhs = traj.omega_at(T) + 1j * T * (p.beta2 - p.beta1) / 2.0
    lhs += 2.0 * p.log_coupling * math.log(T)
    # the tail vanishes for the degenerate pair, where gamma_ratio(alpha2, -beta2) = 0
    sign = _branch_sign(p)[0]
    ys, weights = gauss_legendre_panels(_tail_edges(T, 4.0 * math.pi))
    gs = _gamma_connection(p, ys)
    lhs += np.dot(weights, -sign * 1j * gs / (1.0 + gs))

    rhs = 1j * math.pi * p.phase_coupling - log_barnes_g_ratio(p.alpha1 + p.alpha2, p.beta_sum)
    rhs += sum(log_barnes_g_ratio(s.alpha, s.beta) for s in p.pair)
    return lhs, rhs, abs(lhs - rhs)
