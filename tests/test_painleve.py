import cmath
import math
import time

import numpy as np
import pytest

from fhmerge.errors import NondegeneracyError, NumericalError, ValidationError
from fhmerge.painleve import (
    degenerate_r,
    degenerate_sigma,
    integral_identity_check,
    integrate_sigma,
    r_large_s,
    r_small_s,
    r_trajectory,
    sigma_large_asym,
    sigma_series_small,
    sigma_zero,
    tau0,
    theta_params,
)
from fhmerge.symbol import FHParams, fourier_coeffs
from fhmerge.toeplitz import log_det

PI = math.pi


def test_theta_params_degenerate_case():
    th = theta_params(FHParams(0.5, 0.5, 0.5, 0.5, 0.3))
    assert th.as_tuple() == (0.0, 1.0, 0.0, -1.0)


def test_theta_params_zero():
    assert theta_params(FHParams(0.0, 0.0)).as_tuple() == (0, 0, 0, 0)


def test_theta_params_symmetric_alphas():
    th = theta_params(FHParams(0.3, 0.3))
    assert th.as_tuple() == (-0.3, 0.3, 0.3, -0.3)


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


def test_tau0_half_integer_error():
    with pytest.raises(NondegeneracyError):
        tau0(FHParams(0.25, 0.25))  # 2(a1+a2) = 1


def test_series_leading_term():
    p = FHParams(0.5, 0.5, beta1=0.1j, beta2=-0.3j, t=0.2)
    u, _, _ = sigma_series_small(p, 1e-8)
    assert abs(u - sigma_zero(p)) < 1e-8
    assert abs(sigma_zero(FHParams(0.5, 0.5)) - 0.5) < 1e-15


def test_series_value(p03):
    u, _, _ = sigma_series_small(p03, 1e-3)
    t0 = tau0(p03)
    # linear term vanishes (equal alphas); equation-forced x^2 piece present
    assert abs(u - (0.18 + t0 * 1e-3**2.2) + 0.20454545454545456 * 1e-6) < 1e-12


def test_series_radius_error(p03):
    with pytest.raises(ValidationError):
        sigma_series_small(p03, 0.5)


def test_gamma_connection_value():
    # equal betas, alpha = 1/2 pair at x = 2 pi: gamma = -1/(16 pi^2)
    p = FHParams(0.5, 0.5, t=0.2)
    from fhmerge.painleve import _gamma_connection

    assert abs(_gamma_connection(p, 2.0 * PI) + 1.0 / (16.0 * PI**2)) < 1e-14


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


def test_data_init_round_trip(traj03, p03):
    mid = traj03.eval(5.0)
    cont = integrate_sigma(p03, x0=5.0, x_max=10.0, init="data", init_data=mid)
    assert abs(cont.sigma_at(10.0) - traj03.sigma_at(10.0)) < 1e-7
    assert cont.mode == "data-init"


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
    traj = integrate_sigma(FHParams(0.5, 0.5, 0.5, 0.5, 0.2), x0=2e-3, x_max=30.0)
    assert traj.mode == "degenerate" and traj.x0 == 2e-3 and traj.x_max == 30.0
    assert not traj.sigma.any()


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
        assert sigma_residual(p, -1j * x, 0.0, 0.0, 0.0) == 0.0


def test_omega_additivity(traj03):
    from scipy.integrate import simpson

    xs = np.linspace(10.0, 30.0, 8001)
    vals = np.array([(traj03.sigma_at(x) - traj03.sigma0) / x for x in xs])
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
    from fhmerge.painleve import r_log_derivative

    rt = r_trajectory(p03, traj03)
    val, u_lax = r_log_derivative(p03, traj03, 2.0)
    h = 0.02
    fd = (np.log(rt.r_at(2.0 + h)) - np.log(rt.r_at(2.0 - h))) / (2.0 * h)
    assert abs(val - fd) < 5e-3


def test_r_trajectory_matches_stepwise_reference(p03, traj03):
    # the array pass against a node-by-node walk with the same root rule
    from fhmerge.painleve import _R_STEP, _lax_branches, r_log_derivative

    x0, x_max = traj03.x0, float(traj03.x_grid[-1])
    xs = np.linspace(x0, x_max, math.ceil((x_max - x0) / _R_STEP) + 1)
    u_prev, slope = r_log_derivative(p03, traj03, x0)[1], 0.0
    ln_numf, lnr, arg = [], [], None
    for i, x in enumerate(xs):
        u, du_dx, y_part, numf, _ = _lax_branches(p03, traj03, x)
        h = x - xs[i - 1] if i else 0.0
        pred = u_prev + slope * h
        k = int(abs(u[1] - pred) < abs(u[0] - pred))
        u_prev, slope = u[k], du_dx[k]
        phase = cmath.phase(numf[k])
        arg = phase if arg is None else arg + math.remainder(phase - arg, 2.0 * PI)
        ln_numf.append(math.log(abs(numf[k])) + 1j * arg)
        if i == 0:
            lnr.append(cmath.log(r_small_s(p03, x0)) - ln_numf[0] + math.log(x0))
        else:
            lnr.append(lnr[-1] + 0.5 * (y_part[k] + y_prev) * h)
        y_prev = y_part[k]
    r = np.exp(np.array(lnr) + np.array(ln_numf) - np.log(xs))
    near = [int(np.argmin(np.abs(xs - x))) for x in traj03.x_grid]
    np.testing.assert_allclose(r_trajectory(p03, traj03).r, r[near], rtol=1e-10)


def test_r_degenerate_delegates():
    p = FHParams(0.5, 0.5, 0.5, 0.5, 0.2)
    traj = degenerate_sigma()
    rt = r_trajectory(p, traj)
    assert abs(rt.r_at(2.0 * PI)) < 2e-3  # grid interpolation near the exact zero


def test_pole_detection_complex_beta():
    # strongly complex betas: integration either passes or reports a pole
    from fhmerge.errors import PoleDetectedError

    p = FHParams(0.1, 0.1, beta1=0.45, beta2=-0.45, t=0.2)
    try:
        traj = integrate_sigma(p, x_max=12.0)
        assert np.max(traj.residual) <= 1e-5
    except PoleDetectedError as exc:
        assert 0.0 < exc.x_location <= 12.0


@pytest.mark.parametrize("alpha", [0.65, 0.8])
def test_strong_exponents_fail_fast(alpha):
    # the forward pass leaves the connecting solution (0.65) or heads for
    # a blow-up (0.8); either way the solve raises within seconds
    start = time.perf_counter()
    with pytest.raises(NumericalError):
        integrate_sigma(FHParams(alpha, alpha, t=0.1), x_max=80.0)
    assert time.perf_counter() - start < 10.0


def test_q_recovery(traj03, p03):
    # q is an algebraic readout of sigma; check the inversion at one point
    x = 3.0
    q = traj03.q_at(x)
    s = -1j * x
    sig = 1j / 2.0 * s * q - (p03.beta1 - p03.beta2) / 2.0 * s - 0.09 - 0.09
    assert abs(sig - traj03.sigma_at(x)) < 1e-12
