"""Complex special functions: log-Gamma, Barnes G, and related constants.

Every constant term in the asymptotic formulas of this package is built
from the principal-branch log-Gamma (scipy's) and ln G (Barnes), the
latter continued analytically from the positive real axis.  ln G comes
from its large-argument expansion after an upward shift, to ~2e-14
max(1, |ln G|) at every argument but its zeros.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
from scipy.special import loggamma as _sp_loggamma
from scipy.special import bernoulli, rgamma

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
DYSON_CD = math.sqrt(math.e / math.pi) * 2.0 ** (-5 / 6) * GLAISHER_A**-6 * math.gamma(0.25) ** 2

_LN_2PI = math.log(2.0 * math.pi)


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


# ln G(1+v) is summed asymptotically at Re v >= _BARNES_R, over _BARNES_TERMS
# powers v^-2k with coefficients B_{2k+2} / (4k(k+1)); the last is below 1e-15.
_BARNES_R = 6
_BARNES_TERMS = 12
_BARNES_POWERS = np.arange(1, _BARNES_TERMS + 1)
_BARNES_COEFFS = bernoulli(2 * _BARNES_TERMS + 2)[4::2] / (
    4 * _BARNES_POWERS * (_BARNES_POWERS + 1)
)
# ln G values kept per interpreter: the asymptotic constants ask for a few
# hundred distinct arguments many times over
_BARNES_CACHE = 4096


@functools.lru_cache(maxsize=_BARNES_CACHE)
def log_barnes_g(z: complex) -> complex:
    """ln G(z), continued analytically from the positive real axis onto the
    plane cut along (-inf, 0], as log_gamma is.

    Satisfies ln G(z+1) = log_gamma(z) + ln G(z) with G(1) = 1.  The least
    n that puts v = z + n - 1 at Re v >= _BARNES_R gives ln G(z) = ln G(1+v)
    - ln Gamma(z) - ... - ln Gamma(z+n-1), and ln G(1+v) is (DLMF 5.17.5)

        v^2/2 ln v - 3v^2/4 + v/2 ln 2pi - ln(v)/12 + zeta'(-1) + sum_k B_{2k+2} / (4k(k+1) v^2k)

    to ~2e-14 max(1, |ln G|).  Each value is computed once per argument
    and kept (the last _BARNES_CACHE arguments).  Raises BarnesGZeroError
    at the zeros z = 0, -1, -2, ...
    """
    z = complex(z)
    if is_nonpositive_integer(z):
        raise BarnesGZeroError(f"Barnes G vanishes at z = {z}")
    n = max(0, math.ceil(_BARNES_R + 1.0 - z.real))
    v = z + (n - 1)
    lv = cmath.log(v)
    total = v * v * (0.5 * lv - 0.75) + 0.5 * v * _LN_2PI - lv / 12.0 + ZETA_PRIME_MINUS1
    total += complex(_BARNES_COEFFS @ v ** (-2 * _BARNES_POWERS))
    # a running sum, not an array: n has no bound as Re z falls (5-6 in the package)
    return total - complex(sum(_sp_loggamma(z + j) for j in range(n)))


def log_barnes_g_ratio(a: complex, b: complex) -> complex:
    """ln G(1+a+b) + ln G(1+a-b) - ln G(1+2a), the Barnes-G part of the
    constant of one Fisher-Hartwig singularity with exponents (a, b)."""
    return log_barnes_g(1.0 + a + b) + log_barnes_g(1.0 + a - b) - log_barnes_g(1.0 + 2.0 * a)
