"""Complex special functions: log-Gamma, Barnes G, and related constants.

Every constant term in the asymptotic formulas of this package is built
from the principal-branch log-Gamma and a branch of ln G (Barnes).  Both
are implemented here to ~1e-13 relative accuracy on the real interval
(0, 10) and ~1e-9 on the strip |Im z| <= 2; nothing in the package needs
Barnes G outside that strip.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import loggamma as _sp_loggamma
from scipy.special import rgamma
from scipy.special import zeta as _sp_zeta

from .errors import BarnesGZeroError, GammaPoleError

__all__ = [
    "log_gamma",
    "gamma_ratio",
    "log_barnes_g",
    "log_barnes_g_ratio",
    "is_nonpositive_integer",
    "GLAISHER_A",
    "ZETA_PRIME_MINUS1",
    "DYSON_CD",
]

# zeta'(-1), validated in the tests against an independent high-precision
# evaluation; Glaisher's A = exp(1/12 - zeta'(-1)).
ZETA_PRIME_MINUS1 = -0.16542114370045092921391966024278064276
GLAISHER_A = 1.2824271291006226368753425688697917278
# the boson occupation constant (e/pi)^(1/2) 2^(-5/6) A^(-6) Gamma(1/4)^2
DYSON_CD = (
    math.sqrt(math.e / math.pi)
    * 2.0 ** (-5.0 / 6.0)
    * GLAISHER_A ** (-6.0)
    * math.exp(_sp_loggamma(0.25).real) ** 2
)

_LN_2PI = math.log(2.0 * math.pi)
_EULER_GAMMA = 0.5772156649015328606065120900824024310


def is_nonpositive_integer(z: complex) -> bool:
    """z in {0, -1, -2, ...}: a pole of Gamma, a zero of Barnes G."""
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def log_gamma(z: complex) -> complex:
    """Principal branch of ln Gamma(z), continuous on the cut plane.

    Raises GammaPoleError at the poles z = 0, -1, -2, ...
    """
    z = complex(z)
    if is_nonpositive_integer(z):
        raise GammaPoleError(f"Gamma has a pole at z = {z}")
    return complex(_sp_loggamma(z))


def gamma_ratio(alpha: complex, beta: complex) -> complex:
    """Gamma(1 + alpha - beta) / Gamma(alpha + beta) of one singularity, 0 where
    alpha + beta is a pole of Gamma; GammaPoleError where 1 + alpha - beta is."""
    return cmath.exp(log_gamma(1.0 + alpha - beta)) * complex(rgamma(alpha + beta))


# Tail depth for the accelerated Weierstrass series of ln G(1+w); with the
# partial-product cutoff K and |w| <= 2.2 the remainder is below 1e-16.
_BARNES_K = 80
_BARNES_J = 28
_BARNES_ZETA_TAILS = tuple(
    float(_sp_zeta(j - 1) - np.sum(np.arange(1.0, _BARNES_K + 1.0) ** (1.0 - j)))
    for j in range(3, _BARNES_J + 1)
)


def _log_barnes_g_base(w: complex) -> complex:
    """ln G(1+w) for w in the base strip Re w in [-1/2, 1/2], |Im w| <= 2.2.

    Weierstrass product with the slowly convergent part of the k-sum
    replaced by zeta-function tails, so the truncation is geometric.
    """
    total = w / 2.0 * _LN_2PI - w * (w + 1.0) / 2.0 - _EULER_GAMMA * w * w / 2.0
    for k in range(1, _BARNES_K + 1):
        total += k * cmath.log(1.0 + w / k) - w + w * w / (2.0 * k)
    wj = w * w  # running power, starts the tail at j = 3
    sign = 1.0
    for j in range(3, _BARNES_J + 1):
        wj *= w
        total += sign * wj / j * _BARNES_ZETA_TAILS[j - 3]
        sign = -sign
    return total


def log_barnes_g(z: complex) -> complex:
    """A branch of ln G(z), continuous on the positive real axis.

    Satisfies ln G(z+1) = log_gamma(z) + ln G(z) with G(1) = 1.  The
    argument is shifted into a base strip with the functional equation and
    evaluated there by a convergent series.  Raises BarnesGZeroError at
    the zeros z = 0, -1, -2, ...
    """
    z = complex(z)
    if is_nonpositive_integer(z):
        raise BarnesGZeroError(f"Barnes G vanishes at z = {z}")
    if abs(z.imag) > 2.0 + 1e-12:
        raise ValueError("log_barnes_g supports |Im z| <= 2 only")

    # Shift Re z into [1/2, 3/2) so that w = z - 1 lands in the base strip.
    m = math.floor(z.real - 0.5)
    shift = 0.0 + 0.0j
    if m > 0:
        # ln G(z) = ln G(z - m) + sum_{j=1..m} ln Gamma(z - j)
        for j in range(1, m + 1):
            shift += log_gamma(z - j)
        z = z - m
    elif m < 0:
        # ln G(z) = ln G(z - m) - sum_{j=0..-m-1} ln Gamma(z + j)
        for j in range(0, -m):
            if is_nonpositive_integer(z + j):
                raise BarnesGZeroError("Barnes G vanishes at a shifted pole")
            shift -= log_gamma(z + j)
        z = z - m
    return _log_barnes_g_base(z - 1.0) + shift


def log_barnes_g_ratio(a: complex, b: complex) -> complex:
    """ln G(1+a+b) + ln G(1+a-b) - ln G(1+2a), the Barnes-G part of the
    constant of one Fisher-Hartwig singularity with exponents (a, b)."""
    return log_barnes_g(1.0 + a + b) + log_barnes_g(1.0 + a - b) - log_barnes_g(1.0 + 2.0 * a)
