import math

import mpmath as mp
import numpy as np
import pytest

from fhmerge.errors import BarnesGZeroError, GammaPoleError
from fhmerge.specfun import DYSON_CD, GLAISHER_A, ZETA_PRIME_MINUS1, log_barnes_g, log_gamma

mp.mp.dps = 30

# high-precision references (mpmath, 30 digits)
LN_GAMMA_1_6 = -0.112591765696755783588659875903
LN_SQRT_PI = 0.572364942924700087071713675677
G_HALF = 0.603244281209446206191429224535
LN_G_32 = 0.066931888435004704274028685868


def test_log_gamma_at_one():
    assert log_gamma(1.0) == 0.0


def test_log_gamma_reflection_half():
    assert abs(log_gamma(0.5) - LN_SQRT_PI) < 1e-14


def test_log_gamma_series_value():
    assert abs(log_gamma(1.6) - LN_GAMMA_1_6) < 1e-14


def test_log_gamma_recurrence_on_interval():
    xs = np.linspace(0.05, 9.95, 199)
    for x in xs:
        lhs = math.exp(log_gamma(x + 1.0).real)
        rhs = x * math.exp(log_gamma(x).real)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_log_gamma_pole_error():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(GammaPoleError):
            log_gamma(z)


def test_barnes_small_integers():
    # G(1) = G(2) = G(3) = 1, G(4) = 2
    for z, want in ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, math.log(2.0))):
        assert abs(log_barnes_g(z) - want) < 1e-13


def test_barnes_half_closed_form():
    # G(1/2) = 2^(1/24) e^(1/8) pi^(-1/4) A^(-3/2)
    assert abs(math.exp(log_barnes_g(0.5).real) - G_HALF) < 1e-12


def test_barnes_functional_equation_telescopes():
    for m in range(1, 9):
        acc = 0.0 + 0.0j
        for j in range(1, m):
            acc += log_gamma(float(j))
        assert abs(log_barnes_g(float(m)) - acc) <= 1e-12


def test_barnes_matches_mpmath_on_strip():
    pts = [0.3, 1.7, 5.5, 9.5, 0.25 + 1.5j, 2.0 - 2.0j, 4.5 + 0.7j, 0.6 - 1.9j]
    for z in pts:
        ref = complex(mp.log(mp.barnesg(mp.mpc(z))))
        got = log_barnes_g(z)
        # branches may differ by 2 pi i; compare exponentials and magnitudes
        assert abs(got.real - ref.real) < 1e-9
        assert abs(np.exp(got) - np.exp(ref)) < 1e-9 * max(1.0, abs(np.exp(ref)))


def test_barnes_conjugate_symmetry():
    for z in (1.3 + 0.8j, 4.1 + 1.9j, 0.2 + 1.1j):
        a = log_barnes_g(z)
        b = log_barnes_g(z.conjugate())
        assert abs(a - b.conjugate()) < 1e-12


def test_barnes_zero_error():
    for z in (0.0, -1.0, -5.0):
        with pytest.raises(BarnesGZeroError):
            log_barnes_g(z)


def test_constants_invariants():
    assert abs(GLAISHER_A - math.exp(1.0 / 12.0 - ZETA_PRIME_MINUS1)) < 1e-12
    gamma_quarter = math.exp(log_gamma(0.25).real)
    want = math.sqrt(math.e / math.pi) * 2.0 ** (-5.0 / 6.0) * GLAISHER_A**-6 * gamma_quarter**2
    assert abs(DYSON_CD - want) < 1e-10
    assert abs(DYSON_CD - 1.54269454774741592518709246) < 1e-9


def test_zeta_prime_reference():
    # independent high-precision evaluation of the stored literal
    ref = float(mp.zeta(-1, derivative=1))
    assert abs(ZETA_PRIME_MINUS1 - ref) < 1e-14


def test_glaisher_reference():
    assert abs(GLAISHER_A - float(mp.glaisher)) < 1e-13


def _mod_2pi(d):
    return complex(d.real, math.remainder(d.imag, 2.0 * math.pi))


def test_barnes_matches_mpmath_everywhere():
    # off the strip |Im z| <= 2 and at Re z < 0; branches compared mod 2 pi i
    for z in (2.0 + 5.0j, 1.3 - 6.0j, -3.7, -0.5 + 0.3j, 0.4 + 12.0j, -2.2 - 4.1j, 25.0 + 10.0j):
        ref = complex(mp.log(mp.barnesg(mp.mpc(z))))
        got = log_barnes_g(z)
        assert abs(_mod_2pi(got - ref)) <= 1e-13 * max(1.0, abs(ref)), z


# values of the Weierstrass-series ln G this one replaced, good to ~3e-11 on its strip
STRIP_VALUES = [
    (0.3, -1.0282956303232378),
    (9.5, 30.589550215997797),
    (0.25 + 1.5j, 2.221099611532165 + 0.5967799483235283j),
    (2.0 - 2.0j, -0.4844355881331015 + 1.304965199929844j),
    (0.6 - 1.9j, 2.2071770568348996 + 0.8345749072882843j),
    (-0.5 + 0.3j, -1.2047800242197813 + 3.6274797406434445j),
    (-2.3 + 1.2j, 6.605142312571598 + 15.033476958526604j),
    (-3.7, -1.9514662664932108 + 31.41592653589793j),
    (-1.5 - 2.0j, 9.396026273715272 - 6.088920365275053j),
]


def test_barnes_keeps_its_branch_on_and_off_the_strip():
    for z, old in STRIP_VALUES:
        # the same values, imaginary parts included, where the old series ran ...
        assert abs(log_barnes_g(z) - old) <= 2e-11 * max(1.0, abs(old)), z
        # ... and the same analytic branch out to |Im z| = 8: no 2 pi jump on the way
        if z.imag != 0.0:
            up = [z + 1j * math.copysign(s, z.imag) for s in np.linspace(0.0, 8.0, 801)]
            path = [log_barnes_g(w) for w in up]
            assert max(abs(b - a) for a, b in zip(path, path[1:])) < 0.5, z


def test_barnes_functional_equation_off_the_strip():
    # ln G(z+1) - ln G(z) = ln Gamma(z) exactly, not modulo 2 pi i
    for z in (0.3 + 4.0j, -2.6 - 3.3j, 7.2 + 9.0j, -5.5 + 0.1j):
        step = log_barnes_g(z + 1.0) - log_barnes_g(z)
        assert abs(step - log_gamma(z)) <= 1e-12 * abs(log_barnes_g(z)), z
