import cmath
import math
import time
from pathlib import Path

import numpy as np
import pytest

from fhmerge import painleve
from fhmerge.errors import (
    NondegeneracyError,
    NumericalError,
    PoleDetectedError,
    ValidationError,
)
from fhmerge.asympt import fk_constants
from fhmerge.experiments import _shifted_logdet
from fhmerge.painleve import (
    SigmaTrajectory,
    _series_rows,
    _series_start,
    _series_terms,
    degenerate_r,
    degenerate_sigma,
    integral_identity_check,
    integrate_sigma,
    r_large_s,
    r_small_s,
    r_trajectory,
    sigma_large_asym,
    sigma_residual,
    sigma_zero,
    tau0,
    theta_params,
)
from fhmerge.symbol import FHParams, fourier_coeffs
from fhmerge.toeplitz import log_det

PI = math.pi
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _series(p, x):
    """(sigma, sigma_x, sigma_xx) at x from the series table on (0, max x]."""
    return _series_rows(_series_terms(p, float(np.max(x))), x)[:3]


def test_theta_params_degenerate_case():
    assert theta_params(FHParams(0.5, 0.5, 0.5, 0.5, 0.3)) == (0.0, 1.0, 0.0, -1.0)


def test_theta_params_zero():
    assert theta_params(FHParams(0.0, 0.0)) == (0, 0, 0, 0)


def test_theta_params_symmetric_alphas():
    assert theta_params(FHParams(0.3, 0.3)) == (-0.3, 0.3, 0.3, -0.3)


def test_tau0_value(p03):
    # bracket = 2 sin(0.6 pi)/sin(1.2 pi) - 1 with the Gamma prefactor
    assert abs(tau0(p03) - 0.14603507962156745) < 1e-12


def test_tau0_reality_imaginary_betas():
    p = FHParams(0.3, 0.3, beta1=0.2j, beta2=0.2j, t=0.3)
    assert abs(tau0(p).imag) < 1e-14


def test_tau0_reflection_invariance():
    # the angle reflection swaps the alpha order and negates the betas;
    # it preserves the determinant, hence tau0
    a = tau0(FHParams(0.35, 0.2, beta1=0.1j, beta2=0.1j, t=0.4))
    b = tau0(FHParams(0.2, 0.35, beta1=-0.1j, beta2=-0.1j, t=0.4))
    assert abs(a - b) < 1e-14
    # with beta = 0 the plain alpha swap is already a symmetry
    c = tau0(FHParams(0.35, 0.2, t=0.4))
    d = tau0(FHParams(0.2, 0.35, t=0.4))
    assert abs(c - d) < 1e-14


def test_tau0_golden():
    # golden value (1e-13 relative) at complex alpha and beta1 != beta2
    ref = -0.053219599411850727 - 0.28698685454060535j
    assert abs(tau0(FHParams(0.3 + 0.05j, 0.2, 0.1 + 0.2j, -0.15j, 0.3)) - ref) <= 1e-13 * abs(ref)


def test_tau0_half_integer_error():
    with pytest.raises(NondegeneracyError):
        tau0(FHParams(0.25, 0.25))  # 2(a1+a2) = 1


def test_series_leading_term():
    p = FHParams(0.3, 0.3, beta1=0.1j, beta2=-0.3j, t=0.2)
    u, _, _ = _series(p, 1e-8)
    assert abs(u - sigma_zero(p)) < 1e-8
    assert abs(sigma_zero(FHParams(0.5, 0.5)) - 0.5) < 1e-15


def test_series_value(p03):
    u, _, _ = _series(p03, 1e-3)
    t0 = tau0(p03)
    # linear term vanishes (equal alphas); equation-forced x^2 piece present
    assert abs(u - (0.18 + t0 * 1e-3**2.2) + 0.20454545454545456 * 1e-6) < 1e-12


# 2(alpha1 + alpha2) in N u {0}: the series has no tau0 term; and
# 1 - 2a on the exponent lattice, where the recursion's denominator is zero
RESONANT = [
    FHParams(0.25, 0.25, t=0.3),
    FHParams(0.5, 0.5, t=0.3),
    FHParams(0.3, 0.2, beta2=0.25j, t=0.3),
    FHParams(0.75, 0.75, t=0.3),
    FHParams(-0.2, -0.2, t=0.3),  # 1 - 2a = 1.8 = 1 + 4(1 + 2a)
    FHParams(-0.1, -0.3, beta1=0.2j, beta2=-0.1j, t=0.3),
    FHParams(-0.125, -0.125, t=0.3),  # 1 - 2a = 1.5 = 3(1 + 2a)
]


@pytest.mark.parametrize("p", RESONANT)
def test_resonant_rejected_before_solve(p):
    start = time.perf_counter()
    with pytest.raises(NondegeneracyError):
        integrate_sigma(p)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("p", RESONANT)
def test_resonant_series_raises(p):
    # no silent sigma(0)-only value or zero omega head
    with pytest.raises(NondegeneracyError):
        _series(p, 1e-3)
    with pytest.raises(NondegeneracyError):
        _series_terms(p, 1e-2)


SERIES_SETS = [
    FHParams(0.3, 0.3, t=0.3),
    FHParams(0.2, 0.25, beta1=0.1j, beta2=-0.15j, t=0.3),
    FHParams(0.3, 0.4, beta1=0.1 + 0.2j, beta2=-0.1j, t=0.3),
    FHParams(0.3 + 0.1j, 0.2, t=0.3),
    FHParams(-0.2, 0.1, t=0.3),
    FHParams(0.0551, 0.1278, 0.232j, 0.284j, 0.3),
    FHParams(0.9, 0.9, t=0.1),
]


@pytest.mark.parametrize("p", SERIES_SETS)
def test_series_table_solves_quartic_relation(p):
    # the whole expansion: the quartic relation holds to rounding on the
    # range the table is built for, both on (0, x0], integrate_sigma's
    # (x0 = 0.24 for alpha = 0.9), and on (0, 1]
    for x_range in (_series_start(p, 1e-8), 1.0):
        xs = np.geomspace(1e-6, x_range, 60)
        u, du, d2u = _series(p, xs)
        assert np.max(sigma_residual(p, xs, u, du, d2u)) < 1e-13


@pytest.mark.parametrize("p", SERIES_SETS)
def test_series_cut_keeps_the_start_data(p):
    # the table on (0, x0] keeps each term that matters at rounding to
    # sigma, sigma_x or sigma_xx there, so at x0 it reads the start data
    # (omega included) as a table on ten times the range does; a table
    # cut by the size of sigma's terms alone loses sigma_xx by ~1e-10
    x0 = _series_start(p, 1e-8)
    got = _series_rows(_series_terms(p, x0), x0)
    want = _series_rows(_series_terms(p, 10.0 * x0), x0)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("p", SERIES_SETS[:4])
def test_series_recursion_reproduces_closed_forms(p):
    # the linear, s^2 and s^3 coefficients in closed form
    a, b = p.alpha1 + p.alpha2, p.beta_sum
    lin = (p.alpha1 - p.alpha2) * b / (2.0 * a)
    a2 = p.alpha1 * p.alpha2 * (a - b) * (a + b) / (a**2 * (2.0 * a - 1.0) * (2.0 * a + 1.0))
    a3 = -a2 * lin / ((a - 1.0) * (a + 1.0))
    c, e = _series_terms(p, 1e-2)
    assert c[0] == sigma_zero(p) and e[0] == 0.0
    for power, want in ((1.0, 1j * lin), (1.0 + 2.0 * a, tau0(p)), (2.0, -a2), (3.0, 1j * a3)):
        got = c[e == power].sum()
        assert abs(got - want) <= 1e-14 * (1.0 + abs(want))


def test_default_start_follows_tau0():
    # the start is the smallest x >= 1e-3 where double-precision data
    # resolve tau0 to tol: 1e-3 for alpha = 0.3, higher for strong alphas
    starts = [integrate_sigma(FHParams(a, a, t=0.1), x_max=12.0).x0 for a in (0.3, 0.45, 0.9)]
    assert starts[0] == 1e-3
    assert 5.0e-3 < starts[1] < 5.6e-3 and 0.2 < starts[2] < 0.28


def test_series_rejects_tau0_term_that_grows():
    # Re(alpha1 + alpha2) <= -1/2: tau0 x^(1+2a) does not vanish at x = 0
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        integrate_sigma(FHParams(-0.3, -0.3, t=0.1), x_max=20.0)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("alpha, x", [(0.9, 40.0), (0.9, 100.0), (0.3, 1000.0)])
def test_series_refuses_a_range_where_its_terms_overflow(alpha, x):
    # far past the radius of convergence x^(e_k) overflows; the sizes are
    # then inf or nan, which no bar comparison flags, so they are refused
    # rather than read as a converged table holding sigma(0) alone
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="does not converge"):
            _series_terms(FHParams(alpha, alpha, t=0.1), x)


@pytest.mark.parametrize("alpha", [0.6, 0.65, 0.7, 0.8, 0.9])
def test_strong_exponents_solve(alpha, monkeypatch):
    # sigma to x = 80 for strong exponents; at tol = 1e-9, where the solver
    # error stays below 1e-8, tripling the start moves sigma by < 1e-7
    p = FHParams(alpha, alpha, t=0.1)
    integrate_sigma(p, x_max=80.0)
    traj = integrate_sigma(p, x_max=80.0, tol=1e-9)
    start = painleve._series_start
    monkeypatch.setattr(painleve, "_series_start", lambda q, tol: 3.0 * start(q, tol))
    moved = integrate_sigma(p, x_max=80.0, tol=1e-9)
    assert moved.x0 == 3.0 * traj.x0
    xs = np.linspace(moved.x0, 80.0, 2000)
    assert np.max(np.abs(traj.sigma_at(xs) - moved.sigma_at(xs))) < 1e-7


@pytest.mark.parametrize(
    "alpha, omegas",
    [
        (0.6, {10.0: -1.135846}),
        (0.9, {1.0: -0.033778, 4.0: -0.516379, 10.0: -1.912808}),
    ],
)
def test_omega_matches_determinant_side(alpha, omegas):
    # omega from ln D_n less the explicit transition terms, extrapolated
    # in n (n = 128 ... 1024, spread <= 2e-6); independent of the series
    traj = integrate_sigma(FHParams(alpha, alpha, t=0.1), x_max=12.0)
    for x, want in omegas.items():
        assert abs(traj.omega_at(x) - want) < 1e-6


def test_fk_c3_from_solved_sigma():
    # the third-regime constant at alpha = 0.9 from the solved omega, against
    # 0.7007 from the determinant-side omega
    traj = integrate_sigma(FHParams(0.9, 0.9, t=0.1), x_max=80.0)
    assert abs(fk_constants(0.9).c3(traj) - 0.7007) < 1e-3


def test_small_exponents_meet_residual_gate():
    # a small-exponent set whose five-term start missed the 10*tol gate (1.4e-7)
    traj = integrate_sigma(FHParams(0.0551, 0.1278, 0.232j, 0.284j), x_max=42.0)
    assert np.max(traj.residual) < 1e-8


def test_trajectory_of_other_exponents_refused(p03, traj03):
    # r and the identity combine p's exponents with the trajectory's sigma;
    # with p = (0.4, 0.2) on the 0.3 pair's sigma they returned r(4) =
    # -0.1129-0.0056i and an identity gap of 0.072, against -0.1597+0.0369i
    # and 4.4e-5 on p's own sigma
    other = FHParams(0.4, 0.2, t=0.3)
    with pytest.raises(ValidationError, match="trajectory"):
        r_trajectory(other, traj03)
    with pytest.raises(ValidationError, match="trajectory"):
        integral_identity_check(other, traj03, 40.0)
    # t and V may differ: sigma and r depend on neither
    same = FHParams(0.3, 0.3, t=0.1, v_coeffs={1: 0.2})
    assert r_trajectory(same, traj03).r_at(4.0) == r_trajectory(p03, traj03).r_at(4.0)
    assert integral_identity_check(same, traj03, 40.0) == integral_identity_check(
        p03, traj03, 40.0
    )


def test_r_keeps_its_anchor_at_raised_start():
    # alpha = 0.9 starts sigma near x = 0.24; r is still matched at 1e-10,
    # and agrees with the shifted-determinant ratio as on the weak sets
    p = FHParams(0.9, 0.9, t=0.3)
    traj = integrate_sigma(p, x_max=5.0)
    assert traj.x0 > 0.2
    rt = r_trajectory(p, traj)
    n = 256
    for x in (0.5, 2.0, 4.0):
        t = x / (2.0 * n)
        pt = p.with_t(t)
        dm = log_det(fourier_coeffs(pt.with_betas(0.0, -1.0), n - 2), n - 1).log
        df = log_det(fourier_coeffs(pt, n - 1), n).log
        oracle = -cmath.exp(dm + 1j * (n - 1) * t - df) / t
        assert abs(rt.r_at(x) - oracle) / abs(oracle) < 3e-2


def test_gamma_connection_value():
    # equal betas, alpha = 1/2 pair at x = 2 pi: gamma = -1/(16 pi^2)
    p = FHParams(0.5, 0.5, t=0.2)
    from fhmerge.painleve import _gamma_connection

    assert abs(_gamma_connection(p, 2.0 * PI) + 1.0 / (16.0 * PI**2)) < 1e-14


# gamma(x) at x = 3 and 17.5 for Re(beta1 - beta2) > 0, = 0 and < 0 (kept
# singularity 1, 1 and 2), alpha = (0.3 + 0.1i, 0.2 - 0.05i), t = 0.3
_GAMMA_GOLDEN = {
    "pos": (0.25 + 0.1j, -0.1j, [
        0.01244803752758553 - 0.009148104815346928j,
        -0.0003147643588644278 - 0.0010503215785895095j,
    ]),
    "zero": (0.1 + 0.2j, 0.1 - 0.15j, [
        0.006181749551131968 + 0.0026177125318950756j,
        0.00018855727032696934 - 5.8028857853120734e-05j,
    ]),
    "neg": (-0.2 + 0.1j, 0.15, [
        0.014424906094135945 + 0.03164315853822244j,
        -0.0032104348296196823 + 0.0014244700026158795j,
    ]),
}


@pytest.mark.parametrize("name", list(_GAMMA_GOLDEN))
def test_gamma_connection_golden(name):
    from fhmerge.painleve import _gamma_connection

    b1, b2, ref = _GAMMA_GOLDEN[name]
    got = _gamma_connection(FHParams(0.3 + 0.1j, 0.2 - 0.05j, b1, b2, 0.3), np.array([3.0, 17.5]))
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


@pytest.mark.parametrize("order", [0, 1])
def test_r_large_s_golden(order):
    # r at x = 12.5 and 31 for alpha = (0.3 + 0.1i, 0.25), t = 0.3, with the
    # complex betas (0.1 + 0.2i, 0.1 - 0.15i) in both orders
    b1, b2, ref = [
        (0.1 + 0.2j, 0.1 - 0.15j, [0.06013946284753763 - 0.12405070690513872j,
                                   -0.03823906814432741 + 0.08560244508629088j]),
        (0.1 - 0.15j, 0.1 + 0.2j, [-0.020295943115643526 + 0.03488930396329845j,
                                   0.007136370578965467 - 0.01302125788633863j]),
    ][order]
    p = FHParams(0.3 + 0.1j, 0.25, b1, b2, 0.3)
    for x, r in zip((12.5, 31.0), ref):
        assert abs(r_large_s(p, x) - r) <= 1e-13 * abs(r)


def test_large_asym_imaginary_part_within_error_order():
    # for real alphas and imaginary betas sigma is real; the formula's
    # imaginary part must stay inside its own O(1/x) error band
    p = FHParams(0.3, 0.2, beta1=0.15j, beta2=-0.05j, t=0.3)
    for x in (15.0, 25.0, 40.0):
        assert abs(sigma_large_asym(p, x).imag) * x < 1.0


def test_residual_invariant(traj03):
    assert float(np.max(traj03.residual)) <= 1e-6


def test_reality_invariant(traj03):
    assert float(np.max(np.abs(traj03.sigma.imag))) <= 1e-7


def test_sigma_bounded_at_forty(traj03):
    assert abs(traj03.sigma_at(40.0)) <= 0.1


def test_connection_to_large_asym(traj03, p03):
    # weighted deviation |sigma - asym| * x stays bounded on [20, 40]
    devs = [
        abs(traj03.sigma_at(x) - sigma_large_asym(p03, x)) * x
        for x in np.linspace(20.0, 40.0, 21)
    ]
    assert max(devs) < 0.5


def test_derivative_consistency(traj03):
    for x in (2.0, 7.0, 20.0):
        h = 1e-4
        fd = (traj03.sigma_at(x + h) - traj03.sigma_at(x - h)) / (2.0 * h)
        assert abs(fd - traj03.eval(x)[1]) < 1e-6


def test_degenerate_sigma_and_r():
    traj = degenerate_sigma()
    assert traj.sigma_at(17.3) == 0.0
    assert abs(degenerate_r(PI) + 4.0 / PI**2) < 1e-15
    assert degenerate_r(0.0) == -1.0
    assert abs(degenerate_r(2.0 * PI)) < 1e-15


def test_array_accessors_match_scalar_calls(traj03):
    # one array call equals the scalar calls bit for bit, across x0
    xs = np.concatenate([[2e-4, 5e-4, 1e-3], np.linspace(1e-3, 41.0, 157)])
    arr = traj03.eval(xs)
    omega = traj03.omega_at(xs)
    for i, x in enumerate(xs):
        assert all(a[i] == b for a, b in zip(arr, traj03.eval(x)))
        assert omega[i] == traj03.omega_at(x)
    assert np.array_equal(traj03.sigma_at(xs), arr[0])
    grid = traj03.x_grid.reshape(-1, 1)
    assert np.array_equal(traj03.eval(grid)[0][:, 0], traj03.sigma)


def test_degenerate_accessors_take_arrays():
    traj = degenerate_sigma()
    xs = np.linspace(0.5, 30.0, 12).reshape(3, 4)
    for values in (*traj.eval(xs), traj.omega_at(xs)):
        assert values.shape == (3, 4) and not values.any()
    assert traj.eval(2.0) == (0.0, 0.0, 0.0)


def test_integrate_sigma_degenerate_pair():
    traj = integrate_sigma(FHParams(0.5, 0.5, 0.5, 0.5, 0.2), x_max=30.0)
    assert traj.x0 == 1e-3 and traj.x_max == 30.0
    assert not traj.sigma.any() and not traj.sigma_x.any() and not traj.omega_at(30.0)


def test_nondegeneracy_violation_rejected_fast():
    # alpha1 - beta1 = -1: rejected up front, not after the solve stalls
    start = time.perf_counter()
    with pytest.raises(NondegeneracyError):
        integrate_sigma(FHParams(0.3, 0.3, beta1=1.3, t=0.1))
    assert time.perf_counter() - start < 0.5


def test_degenerate_solves_equation():
    # sigma == 0 satisfies the quartic identically for the degenerate thetas
    from fhmerge.painleve import sigma_residual

    p = FHParams(0.5, 0.5, 0.5, 0.5, 0.2)
    for x in (0.5, 3.0, 11.0):
        assert sigma_residual(p, x, 0.0, 0.0, 0.0) == 0.0


def test_omega_additivity(traj03):
    from scipy.integrate import simpson

    xs = np.linspace(10.0, 30.0, 8001)
    vals = np.array([(traj03.sigma_at(x) - sigma_zero(traj03.params)) / x for x in xs])
    quad = simpson(vals, x=xs)
    diff = traj03.omega_at(30.0) - traj03.omega_at(10.0)
    assert abs(diff - quad) < 1e-9


def test_omega_tail_converges(traj03):
    # omega(x) + 2 a1 a2 ln x approaches a constant
    vals = [traj03.omega_at(x).real + 2.0 * 0.09 * math.log(x) for x in (20, 30, 40)]
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0]) + 5e-3
    assert abs(vals[2] - vals[1]) < 2e-3


def test_omega_degenerate_zero():
    traj = degenerate_sigma()
    assert traj.omega_at(15.0) == 0.0


def test_integral_identity(p03, traj03):
    lhs, rhs, disc = integral_identity_check(p03, traj03, 40.0)
    assert disc <= 5e-3


@pytest.mark.parametrize(
    "p, ref",
    [
        (FHParams(0.3, 0.25, 0.1j, -0.15j, 0.3, {1: 0.2 + 0.1j, -1: 0.15 - 0.05j, 2: -0.1j}),
         0.24181390401767594),
        (FHParams(0.3 + 0.05j, 0.2, 0.1 + 0.2j, 0.1 - 0.15j, 0.3),
         0.2892020742808178 + 0.06570375423586383j),
    ],
    ids=["imaginary-betas", "complex"],
)
def test_integral_identity_rhs_golden(p, ref):
    # golden Barnes-G side (1e-13 relative) with beta1 != beta2, computed with
    # ln G from mpmath at 30 digits
    rhs = integral_identity_check(p, integrate_sigma(p, x_max=42.0), 40.0)[1]
    assert abs(rhs - ref) <= 1e-13 * abs(ref)


def test_integral_identity_degenerate_termwise():
    p = FHParams(0.5, 0.5, 0.5, 0.5, 0.2)
    traj = degenerate_sigma(x_max=45.0)
    lhs, rhs, disc = integral_identity_check(p, traj, 40.0)
    assert lhs == 0.0 and abs(rhs) < 1e-12


def test_r_small_s_closed_form(p03):
    # Gamma(1.6)/Gamma(0.6) = 0.6 gives r ~ -(1.2/x) e^{-ix/2}
    val = r_small_s(p03, 0.01)
    assert abs(val - (-(1.2 / 0.01) * cmath.exp(-0.005j))) < 1e-9


def test_r_trajectory_matches_small_form(p03, traj03):
    rt = r_trajectory(p03, traj03)
    x = 0.05
    assert abs(rt.r_at(x) - r_small_s(p03, x)) / abs(r_small_s(p03, x)) < 0.05


def test_r_trajectory_matches_determinant_ratio(p03, traj03):
    # independent oracle: the shifted-symbol determinant ratio at small t
    rt = r_trajectory(p03, traj03)
    n = 64
    for x in (1.0, 4.0, 8.0):
        t = x / (2.0 * n)
        pm = FHParams(0.3, 0.3, 0.0, -1.0, t)
        pf = FHParams(0.3, 0.3, 0.0, 0.0, t)
        dm = log_det(fourier_coeffs(pm, n - 1), n - 1).log
        df = log_det(fourier_coeffs(pf, n - 1), n).log
        oracle = -np.exp(dm) * np.exp(1j * (n - 1) * t) / (t * np.exp(df))
        assert abs(rt.r_at(x) - oracle) / abs(oracle) < 0.05


def test_r_trajectory_matches_large_form(p03, traj03):
    rt = r_trajectory(p03, traj03)
    # compare against the oscillatory envelope 2 Gamma-ratio / x
    early = max(
        abs(rt.r_at(x) - r_large_s(p03, x)) * x / 1.2 for x in np.linspace(14, 20, 13)
    )
    late = max(
        abs(rt.r_at(x) - r_large_s(p03, x)) * x / 1.2 for x in np.linspace(30, 36, 13)
    )
    assert late < early


def test_r_log_derivative_identity(p03, traj03):
    # d ln r/dx of the output matches the identity away from r-zeros
    from fhmerge.painleve import _lax_root

    rt = r_trajectory(p03, traj03)
    val = _lax_root(p03, 2.0, *traj03.eval(2.0))[0]
    h = 0.02
    fd = (np.log(rt.r_at(2.0 + h)) - np.log(rt.r_at(2.0 - h))) / (2.0 * h)
    assert abs(val - fd) < 5e-3


def test_r_trajectory_matches_stepwise_reference(p03, traj03):
    # reference: a node walk 1e-3 apart that tracks the root of the Lax
    # quadratic nearest the U-equation predictor and sums d ln r/dx by
    # the trapezoid rule; r_trajectory reads the one sigma pass instead.
    # The walk starts from r_trajectory's own r at x0, so this checks the
    # shape of r; its level is checked against the exact ratio below
    from fhmerge.painleve import _lax_branches, _lax_root, _lax_system

    x0, x_max = traj03.x0, float(traj03.x_grid[-1])
    xs = np.union1d(np.arange(x0, x_max, 1e-3), traj03.x_grid)
    sig, du, d2u = traj03.eval(xs)
    u, y_part, numf, _ = _lax_branches(p03, xs, sig, du, d2u)
    lax_v, lax_rates = _lax_system(p03)[:2]
    du_dx = lax_rates(u, lax_v(du), xs)[0] / xs
    u_prev, slope, pick = _lax_root(p03, x0, *traj03.eval(x0))[1], 0.0, []
    for i, h in enumerate(np.diff(xs, prepend=x0)):
        pred = u_prev + slope * h
        k = int(abs(u[1, i] - pred) < abs(u[0, i] - pred))
        u_prev, slope = u[k, i], du_dx[k, i]
        pick.append(k)
    root = np.array(pick), np.arange(len(xs))
    y_part, numf = y_part[root], numf[root]
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (y_part[1:] + y_part[:-1]) * np.diff(xs))])
    rt = r_trajectory(p03, traj03)
    ref = rt.r_at(x0) * (x0 / xs) * (numf / numf[0]) * np.exp(integral)
    at = np.searchsorted(xs, traj03.x_grid)
    ok = ~rt.flagged
    assert ok.sum() > 200
    np.testing.assert_allclose(rt.r[ok], ref[at][ok], rtol=1e-4)


# two seeded pole-free sets on which a root tracker started at x0 leaves
# the right root of the Lax quadratic before x = 0.0024
_SEEDED_SETS = [
    FHParams(0.3451902446298373, 0.42803886233166144, 0.18063630574562334j,
             0.0009928508970218353j, 0.3),
    FHParams(0.33780111399199153, 0.44533696796027705, 0.13483646830044527j,
             -0.0013173121654587727j, 0.3),
]


@pytest.mark.parametrize("p", _SEEDED_SETS)
def test_r_trajectory_matches_shifted_determinant_ratio(p):
    # independent oracle: r(-2int) from D_(n-1) of the beta2 -> beta2 - 1
    # symbol over D_n, less the beta-one prefactor, at n = 256
    rt = r_trajectory(p, integrate_sigma(p, x_max=5.0))
    n = 256
    b = p.beta_sum
    for x in (0.5, 2.0, 4.0):
        t = x / (2.0 * n)
        pt = p.with_t(t)
        pm = pt.with_betas(pt.beta1, pt.beta2 - 1.0)
        dm = log_det(fourier_coeffs(pm, n - 2), n - 1).log
        df = log_det(fourier_coeffs(pt, n - 1), n).log
        phase = cmath.exp(1j * PI * (-p.alpha1 + 3.0 * p.beta1 + p.alpha2 + p.beta2))
        prefactor = t * (n * t / math.sin(t)) ** (2.0 * b) * phase
        oracle = -cmath.exp(dm + 1j * (n - 1) * t - df) / prefactor
        assert abs(rt.r_at(x) - oracle) / abs(oracle) < 5e-2


# (set, bound on |exact/r - 1|): the symmetric sets, a set with
# Re(alpha1 + alpha2) < 0, where the x^(1+2a) term of r's small form
# limits the match, and the two seeded sets above
_RATIO_SETS = [
    (FHParams(0.3, 0.3, t=0.3), 1e-6),
    (FHParams(0.9, 0.9, t=0.1), 1e-4),
    (FHParams(-0.2, -0.15, t=0.3), 1e-3),
    *((p, 1e-6) for p in _SEEDED_SETS),
]


def _exact_r(p, x, n):
    """r(-ix) read off the exact ratio D_(n-1)(f_(beta2-1)) / D_n(f) at t = x/2n."""
    t = x / (2.0 * n)
    log_dn, log_dm = _shifted_logdet(p.with_t(t), n)
    phase = cmath.exp(1j * PI * (-p.alpha1 + 3.0 * p.beta1 + p.alpha2 + p.beta2))
    prefactor = t * (n * t / math.sin(t)) ** (2.0 * p.beta_sum) * phase
    return -cmath.exp(log_dm + 1j * (n - 1) * t - log_dn) / prefactor


@pytest.mark.parametrize("p, bound", _RATIO_SETS)
def test_r_trajectory_matches_exact_ratio_in_the_limit(p, bound):
    # the exact ratio at n = 256, 512, 1024 taken to n = inf by two
    # Richardson steps in 1/n: r's level, set by matching C at 1e-10,
    # is right to the bound
    rt = r_trajectory(p, integrate_sigma(p, x_max=5.0))
    for x in (0.5, 2.0, 4.0):
        r256, r512, r1024 = (_exact_r(p, x, n) for n in (256, 512, 1024))
        limit = (4.0 * (2.0 * r1024 - r512) - (2.0 * r512 - r256)) / 3.0
        assert abs(limit / rt.r_at(x) - 1.0) <= bound


@pytest.mark.parametrize("p", [p for p, _ in _RATIO_SETS])
def test_lax_root_pick_has_a_margin(p, monkeypatch):
    # at every Gauss node of the W sum, at the start and at the match
    # point, the picked root's d ln r/dx is at least 10 times nearer the
    # target than the other root's, or (below 1e-6) the two roots agree
    # to the rounding of the quadratic's discriminant and either serves
    seen = []
    branches = painleve._lax_branches

    def record(q, x, *rest):
        out = branches(q, x, *rest)
        seen.append((np.atleast_1d(x), out))
        return out

    monkeypatch.setattr(painleve, "_lax_branches", record)
    r_trajectory(p, integrate_sigma(p, x_max=5.0))
    k = 1j * p.alpha2 / (p.alpha1 + p.alpha2)
    xs = np.concatenate([x for x, _ in seen])
    assert len(xs) > 100 and xs.min() == 1e-10
    for x, (u, y_part, numf, dnumf) in seen:
        near, far = np.sort(np.abs(y_part + dnumf / numf + 0.5j - k).reshape(2, -1), axis=0)
        u = u.reshape(2, -1)
        gap = np.abs(u[0] - u[1]) / np.abs(u).max(axis=0)
        clear = far >= 10.0 * near
        assert np.all(clear | ((gap <= 2e-7) & (x <= 1e-6)))


@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_start_is_continuous_across_the_read_split(alpha, traj03):
    # the dense output at the handover returns the series start data and
    # omega bit for bit, and reads just below it (series) and just above
    # it (dense) agree; alpha = 0.3 hands over at 0.2, above x0 = 1e-3,
    # and alpha = 0.9 at x0 = 0.24, above the anchor
    traj = traj03 if alpha == 0.3 else integrate_sigma(FHParams(0.9, 0.9, t=0.1), x_max=2.0)
    x_h = traj.handover
    assert x_h == (0.2 if alpha == 0.3 else traj.x0)
    start = tuple(_series_rows(traj._series, x_h))
    assert tuple(traj._dense_at(np.array([x_h]))[:4, 0]) == start
    assert traj._read(x_h) == start
    below, above = traj._read(x_h * (1.0 - 1e-12)), traj._read(x_h * (1.0 + 1e-12))
    for lo, hi in zip(below, above):
        assert abs(lo - hi) <= 1e-12 * max(1.0, abs(lo))


@pytest.mark.parametrize("which", ["family", "alpha065", "degenerate"])
def test_stacked_read_equals_scipy_dense_output(which, monkeypatch):
    # the pass records DOP853's steps and builds every interpolant after it,
    # so it never calls scipy's per-step dense output.  Against a plain
    # dense_output=True DOP853 pass from the same start, the steps' starts,
    # widths and start states are equal bit for bit, and reads at both
    # ends, on the grid, at the steps' ends and at random x agree within
    # 1e-14 max(1, |y|): the batched stage sums add in another order than
    # scipy's per-step dot.  A scipy that renamed the step fields fails here
    # rather than reading wrong values
    from scipy.integrate import DOP853

    if which == "family":
        monkeypatch.syspath_prepend(str(BENCH))
        import draws

        p, x_max = FHParams(*draws.sigma_family_sets(1)[1]), 42.0
        assert p.beta1.imag != 0.0 and p.beta2.imag != 0.0
    elif which == "alpha065":
        p, x_max = FHParams(0.65, 0.65, t=0.1), 80.0
    else:
        p, x_max = painleve._DEGENERATE, 40.0
    passes = []
    solve = painleve.solve_ivp

    def spy(fun, span, y0, **options):
        passes.append((fun, span, y0, options))
        return solve(fun, span, y0, **options)

    def refuse(self):
        raise AssertionError("per-step dense output built during the pass")

    with monkeypatch.context() as m:
        m.setattr(painleve, "solve_ivp", spy)
        m.setattr(DOP853, "_dense_output_impl", refuse)
        traj = integrate_sigma(p, x_max=x_max)
    assert len(passes) == 1
    fun, span, y0, options = passes[0]
    ref = solve(fun, span, y0, method="DOP853", rtol=options["rtol"], atol=options["atol"],
                dense_output=True).sol
    assert ref.t_max == x_max
    t_old, h, _, y_old, _ = traj._dense
    for got, field_name in ((t_old, "t_old"), (h, "h"), (y_old, "y_old")):
        want = np.array([getattr(d, field_name) for d in ref.interpolants])
        assert got.tobytes() == want.tobytes(), field_name
    rng = np.random.default_rng(5)
    on_pass = traj.x_grid[traj.x_grid >= traj.handover]
    xs = np.concatenate([[traj.handover, traj.x_max], on_pass, ref.ts,
                         rng.uniform(traj.handover, traj.x_max, 500)])
    want = ref(xs)
    assert np.all(np.abs(traj._dense_at(xs) - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


def test_nfev_counts_every_right_hand_side_evaluation(monkeypatch):
    # nfev is the pass's calls plus the three interpolant stages per step,
    # each stage one array call over all steps that counts one evaluation
    # per step: what a wrapper around the right-hand side counts
    calls = []
    make = painleve._ray_rhs

    def counting(q):
        rhs = make(q)

        def counted(x, y, exp):
            calls.append(np.size(x))
            return rhs(x, y, exp)

        return counted

    monkeypatch.setattr(painleve, "_ray_rhs", counting)
    traj = integrate_sigma(_FAMILY_SETS[0], x_max=42.0)
    assert traj.nfev == sum(calls)
    assert [n for n in calls if n > 1] == [traj.steps] * 3


def test_reads_after_the_solve_never_call_scipys_dense_output(p03, traj03, monkeypatch):
    # r, the integral identity and the transition formula read the stacked
    # steps; scipy's OdeSolution is not kept once integrate_sigma returns
    from scipy.integrate import OdeSolution

    from fhmerge.asympt import transition_log

    def refuse(self, t):
        raise AssertionError("OdeSolution read after the sigma solve")

    monkeypatch.setattr(OdeSolution, "__call__", refuse)
    rt = r_trajectory(p03, traj03)
    rt.r_at(2.5)
    integral_identity_check(p03, traj03, 40.0)
    transition_log(p03.with_t(0.05), 64, traj03)


def test_reads_refuse_x_outside_their_range(p03, traj03):
    # sigma is read on 0 < x <= x_max and r on its grid: x <= 0 does not
    # reach np.log, and x past either end is refused, not extrapolated
    for x in (-1.0, 0.0, np.array([0.5, 0.0]), traj03.x_max + 1.0, math.nan):
        for read in (traj03.sigma_at, traj03.omega_at, traj03.eval):
            with pytest.raises(ValidationError):
                read(x)
    rt = r_trajectory(p03, traj03)
    for x in (0.5 * traj03.x0, traj03.x_max + 1.0):
        with pytest.raises(ValidationError, match="outside r trajectory range"):
            rt.r_at(x)
    with pytest.raises(ValidationError, match="T >= 20"):
        integral_identity_check(p03, traj03, 19.0)


def test_reads_near_zero_stay_finite(p03, traj03):
    # sigma(0)'s powers in sigma_x and sigma_xx, and x's in sigma_xx, have
    # weight 0 and are not formed: x^-2 overflows below x ~ 1e-154, and
    # inf * 0 would be nan.  Down to subnormal x the rows are finite and
    # sigma is sigma(0) to rounding
    s0 = sigma_zero(p03)
    with np.errstate(over="raise", invalid="raise"):
        for x in (1e-160, 1e-200, 1e-320):
            rows = traj03._read(x)
            assert all(np.isfinite(v) for v in rows)
            assert abs(rows[0] - s0) <= 1e-15 * abs(s0)


def test_series_table_takes_one_lattice(monkeypatch):
    # the first lattice guess already meets the sigma, sigma_x and sigma_xx
    # bars at each set's start, so the table is built from one lattice
    monkeypatch.syspath_prepend(str(BENCH))
    import draws

    sizes = []
    build = painleve._series_lattice

    def counting(p, t0, size_j, size_k):
        sizes.append((size_j, size_k))
        return build(p, t0, size_j, size_k)

    monkeypatch.setattr(painleve, "_series_lattice", counting)
    starts = [(p, 1e-8) for p in SERIES_SETS + [FHParams(*s) for s in draws.sigma_family_sets(1)]]
    # a = alpha1 + alpha2 near 1/2, where the x^2 term's divisor 2(1 - 4a^2)
    # is small: these took (10, 5) then (15, 8), (9, 5) then (13, 5), and
    # (9, 5) then (13, 8)
    starts += [(FHParams(0.25, 0.255, t=0.3), 1e-12)]
    starts += [(FHParams(0.26, 0.245, 0.2j, 0.1j, 0.3), tol) for tol in (1e-6, 1e-8, 1e-10)]
    starts += [(FHParams(0.24, 0.25, 0.3j, 0.3j, 0.3), tol) for tol in (1e-6, 1e-8, 1e-10)]
    for p, tol in starts:
        sizes.clear()
        _series_terms(p, _series_start(p, tol))
        assert len(sizes) == 1, (p, tol, sizes)


def _lattice_by_points(p, t0, size_j, size_k, majorant=False):
    """The series lattice filled one point at a time, k-major: each point
    is the rest of the equation at x^(e-1) over den.  With majorant, the
    same sweep on the absolute value of every input, so each entry is the
    sum of the sizes the recursion adds up there: its rounding scale."""
    a, _, e3 = painleve._equation_constants(p)
    size = np.abs if majorant else (lambda v: v)
    e = np.arange(size_j) + (1.0 + 2.0 * a) * np.arange(size_k)[:, None]
    den = e * ((e - 1.0) ** 2 - 4.0 * a * a)
    c = np.zeros((size_k, size_j), dtype=complex)
    left, right = np.zeros_like(c), np.zeros_like(c)
    for k in range(size_k):
        for j in range(size_j):
            if (k, j) == (0, 0):
                c[0, 0] = size(sigma_zero(p))
            elif (k, j) == (1, 0):
                c[1, 0] = size(t0)
            else:
                rest = size(-2j * e3) if (k, j) == (0, 1) else 0.0
                if j >= 2:
                    rest += size(3.0 - e[k, j]) * c[k, j - 2]
                rest += np.sum(left[: k + 1, : j + 1] * right[k::-1, j::-1])
                c[k, j] = rest / size(den[k, j])
            left[k, j] = c[k, j] * size(4.0 - 6.0 * e[k, j])
            right[k, j] = c[k, j] * size(e[k, j])
    return c


@pytest.mark.parametrize("p", SERIES_SETS + [FHParams(-0.2, -0.15, t=0.3),
                                             FHParams(0.26, 0.245, 0.2j, 0.1j, 0.3)])
def test_row_fill_equals_the_point_loop(p):
    # row by row (row 0 pointwise, then one triangular solve per row) the
    # lattice equals the point-by-point sweep within 1e-13 of each entry's
    # rounding scale; a plain relative bound fails where an entry cancels
    # to far below its neighbours (1e-52 beside 1e-25 at (-0.2, -0.15)),
    # where both fills hold rounding only
    t0 = tau0(p)
    for shape in [(1, 1), (2, 1), (1, 3), (9, 5), (20, 10), (20, 61), (49, 26), (26, 49)]:
        want = _lattice_by_points(p, t0, *shape)
        scale = _lattice_by_points(p, t0, *shape, majorant=True).real
        got, e = painleve._series_lattice(p, t0, *shape)
        assert e.shape == got.shape == shape[::-1]
        assert np.all(np.abs(got - want) <= 1e-13 * scale), shape


def _handover_starts():
    # near-1/2 starts of test_series_table_takes_one_lattice, a in
    # [0.35, 1.4] with complex betas (2a kept 0.06 off the integers), and
    # Re a < 0
    starts = [(FHParams(0.25, 0.255, t=0.3), 1e-12)]
    starts += [(FHParams(0.26, 0.245, 0.2j, 0.1j, 0.3), tol) for tol in (1e-6, 1e-8, 1e-10)]
    starts += [(FHParams(0.24, 0.25, 0.3j, 0.3j, 0.3), tol) for tol in (1e-6, 1e-8, 1e-10)]
    for a in (0.35, 0.4, 0.45, 0.56, 0.7, 0.85, 0.94, 1.06, 1.2, 1.4):
        starts.append((FHParams(0.6 * a, 0.4 * a, 0.1 + 0.2j, -0.25j, 0.3), 1e-8))
    starts += [(FHParams(-0.2, -0.15, t=0.3), 1e-8), (FHParams(-0.2, 0.1, 0.1j, 0.1j, 0.3), 1e-8)]
    return starts


@pytest.mark.parametrize("p, tol", _handover_starts())
def test_handover_table_takes_one_lattice(p, tol, monkeypatch):
    # the table on (0, x_h] is built from the first lattice guess, within
    # the budget, and holds the start data there as a table on twice the
    # range does
    sizes = []
    build = painleve._series_lattice

    def counting(q, t0, size_j, size_k):
        sizes.append(size_j * size_k)
        return build(q, t0, size_j, size_k)

    monkeypatch.setattr(painleve, "_series_lattice", counting)
    x0 = _series_start(p, tol)
    x_h, table = painleve._handover(p, x0, 42.0)
    assert len(sizes) == 1 and sizes[0] <= painleve._SERIES_BUDGET
    assert x0 <= x_h <= 0.2 + 1e-12
    monkeypatch.undo()
    got = _series_rows(table, x_h)
    want = _series_rows(_series_terms(p, 2.0 * x_h), x_h)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


def test_handover_stays_low_where_the_table_or_the_pick_would_not_hold():
    # Re a = -0.465: the rows step by x^0.07, so the first lattice at the
    # cap 0.2 is 20 x 259 points, past the budget; x0's own table fits
    p = FHParams(-0.2, -0.265, t=0.3)
    x0 = _series_start(p, 1e-8)
    assert math.prod(painleve._series_guess(p, 0.2)) > painleve._SERIES_BUDGET
    assert painleve._handover(p, x0, 42.0)[0] == x0
    # and where the Lax pick's margin at x0 is small, the handover stays
    # near x0: (-0.2, -0.15) has margin ~110 at 1e-3 and hands over at 5e-3.
    # Its table is the cap's 20 x 61 lattice cut at x_h: the 35 terms of
    # x_h's own table, where the cap's cut kept 100
    p = FHParams(-0.2, -0.15, t=0.3)
    x_h, table = painleve._handover(p, _series_start(p, 1e-8), 42.0)
    assert x_h < 0.01
    own = _series_terms(p, x_h)
    assert len(table[0]) == len(own[0]) < 40
    assert np.array_equal(table[1], own[1])
    assert np.allclose(table[0], own[0], rtol=1e-13, atol=0.0)


# bench/draws.sigma_family_sets(1)[1] and [2]
_FAMILY_SETS = [
    FHParams(0.4312390314805847, 0.37577280075534086, -0.12904058623630135j,
             0.051999601676397056j, 0.3),
    FHParams(0.36214656887944197, 0.3958700848415758, 0.2872017497100611j,
             -0.030757412881467217j, 0.3),
]


@pytest.mark.parametrize("p", _FAMILY_SETS)
def test_default_tol_sigma_is_accurate(p):
    # against an rtol-2.3e-14 pass from x0 (2.5e-3 and 2.1e-3), the
    # default-tol solve, which hands over to DOP853 at 0.2, is within 5e-8
    # in sigma and omega; the pass from x0 at the default tol was 5.3e-7 off
    traj = integrate_sigma(p, x_max=42.0)
    assert traj.handover > 0.1
    x0 = traj.x0
    table = _series_terms(p, x0)
    _, u0, w0 = painleve._lax_head(p, table, np.array([x0]))
    y0 = [*_series_rows(table, x0), cmath.log(u0[0]), w0[0]]
    dense = painleve._integrate_ray(p, x0, 42.0, y0, 2.3e-14)
    ref = SigmaTrajectory(p, x0, 42.0, dense, table)
    xs = np.array([0.4, 2.0, 10.0, 40.0])
    assert np.max(np.abs(traj.sigma_at(xs) - ref.sigma_at(xs))) < 5e-8
    assert np.max(np.abs(traj.omega_at(xs) - ref.omega_at(xs))) < 5e-8


def test_family_solves_take_a_fifth_fewer_steps(monkeypatch):
    # over the 24 sigma-family sets to x = 42 the passes start at the
    # handover and take <= 1900 accepted steps (2376 from x0)
    monkeypatch.syspath_prepend(str(BENCH))
    import draws

    trajs = [integrate_sigma(FHParams(*s), x_max=42.0) for s in draws.sigma_family_sets(1)]
    assert sum(t.steps for t in trajs) <= 1900
    assert all(t.nfev > t.steps > 0 for t in trajs)


@pytest.mark.parametrize(
    "p",
    [
        FHParams(0.3, 0.3, t=0.3),
        FHParams(0.2, 0.25, beta1=0.1j, beta2=-0.15j, t=0.3),
        FHParams(0.3 + 0.1j, 0.2, 0.25, -0.1j, 0.3),
    ],
)
def test_identity_tail_matches_fine_panels(p, monkeypatch):
    # the tail on 4 pi panels is within 1e-12 of the same rule on pi/4
    # panels (the 25 000-point trapezoid it replaced was up to 4e-7 off)
    traj = integrate_sigma(p, x_max=42.0)
    got = integral_identity_check(p, traj, 40.0)[0]
    edges = painleve._tail_edges
    monkeypatch.setattr(painleve, "_tail_edges", lambda T, width: edges(T, math.pi / 4.0))
    assert abs(got - integral_identity_check(p, traj, 40.0)[0]) < 1e-12


def test_r_at_reads_the_sigma_pass(p03, traj03):
    # off the grid, r_at equals the r reported for a trajectory of the
    # same solve whose grid ends at that x: no interpolation between nodes
    rt = r_trajectory(p03, traj03)
    for x in (0.0123, 2.1234, 17.77):
        short = SigmaTrajectory(p03, traj03.x0, x, traj03._dense, traj03._series)
        assert x not in traj03.x_grid and short.x_grid[-1] == x
        r_end = r_trajectory(p03, short).r[-1]
        assert abs(rt.r_at(x) - r_end) <= 1e-12 * abs(r_end)


@pytest.mark.parametrize(
    "p",
    [
        FHParams(0.3, 0.3, t=0.3),
        FHParams(0.2, 0.25, beta1=0.1j, beta2=-0.15j, t=0.3),
        FHParams(0.35, 0.2, beta1=0.2j, beta2=0.2j, t=0.3),
    ],
)
def test_r_trajectory_head_points_at_their_x(p):
    # each grid point of the head is read at its own x, where r ~ 1/x
    # varies fivefold; the leading form itself is off by O(x) relative
    traj = integrate_sigma(p, x_max=12.0)
    rt = r_trajectory(p, traj)
    head = traj.x_grid <= 0.01
    assert head.sum() >= 5
    for x, r in zip(traj.x_grid[head], rt.r[head]):
        assert abs(r - r_small_s(p, x)) / abs(r_small_s(p, x)) < x


def test_r_degenerate_delegates():
    p = FHParams(0.5, 0.5, 0.5, 0.5, 0.2)
    traj = degenerate_sigma()
    rt = r_trajectory(p, traj)
    for x in (2.0 * PI, 3.3, 17.1):
        assert abs(rt.r_at(x) - degenerate_r(x)) < 1e-12


def test_pole_detection_complex_beta():
    # strongly complex betas: integration either passes or reports a pole
    p = FHParams(0.1, 0.1, beta1=0.45, beta2=-0.45, t=0.2)
    try:
        traj = integrate_sigma(p, x_max=12.0)
        assert np.max(traj.residual) <= 1e-5
    except PoleDetectedError as exc:
        assert 0.0 < exc.x_location <= 12.0


def test_pole_gate_raises_where_sigma_reaches_the_cap(monkeypatch):
    # with beta1 - beta2 = 0.4i, |sigma| grows like 0.2 x and passes 1 near
    # x = 5; a cap of 1 raises there, at the x where |sigma| = 1
    p = FHParams(0.3, 0.3, beta1=0.2j, beta2=-0.2j, t=0.3)
    free = integrate_sigma(p, x_max=12.0)
    monkeypatch.setattr(painleve, "_POLE_CAP", 1.0)
    start = time.perf_counter()
    with pytest.raises(PoleDetectedError) as exc:
        integrate_sigma(p, x_max=12.0)
    assert time.perf_counter() - start < 5.0
    x_location = exc.value.x_location
    assert 0.0 < x_location <= 12.0
    assert abs(abs(free.sigma_at(x_location)) - 1.0) < 1e-6


@pytest.mark.parametrize("alpha", [0.65, 0.8])
def test_strong_exponents_fail_fast(alpha, monkeypatch):
    # start data with tau0 off by 10% select a solution other than the
    # connecting one; the forward pass leaves it and the solve raises
    # within seconds
    exact = painleve.tau0
    monkeypatch.setattr(painleve, "tau0", lambda p: 1.1 * exact(p))
    start = time.perf_counter()
    with pytest.raises(NumericalError, match="left the connecting solution"):
        integrate_sigma(FHParams(alpha, alpha, t=0.1), x_max=80.0)
    assert time.perf_counter() - start < 10.0


def test_sigma_solve_stalls_at_budget(p03, monkeypatch):
    # a pass that needs more right-hand-side evaluations than the budget
    # stops there instead of grinding on
    monkeypatch.setattr(painleve, "_RHS_BUDGET", 500)
    start = time.perf_counter()
    with pytest.raises(NumericalError, match="stalled"):
        integrate_sigma(p03, x_max=80.0)
    assert time.perf_counter() - start < 10.0


def test_next_to_resonance_solves():
    # 1e-6 off a = -0.4 the recursion is well posed and the solve meets its gate
    traj = integrate_sigma(FHParams(-0.2 + 1e-6, -0.2, t=0.1), x_max=20.0)
    assert np.max(traj.residual) < 1e-8
