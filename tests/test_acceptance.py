"""Acceptance gate: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Criteria are ordered; the heavier suites (Dyson,
moment scans) sit at the end.
"""

import math

import numpy as np
import pytest

from fhmerge.asympt import beta_one_ratio, dyson_constant, fh1_log, fh2_log
from fhmerge.experiments import (
    SweepConfig,
    diff_identity_scan,
    dyson_check,
    fk_moment_scan,
    regime_sweep,
    sigma_from_determinants,
)
from fhmerge.painleve import (
    degenerate_r,
    degenerate_sigma,
    integral_identity_check,
    integrate_sigma,
    sigma_large_asym,
)
from fhmerge.specfun import GLAISHER_A, log_barnes_g, log_gamma
from fhmerge.symbol import FHParams, fourier_coeffs
from fhmerge.toeplitz import heine_det, log_det, orth_poly

PI = math.pi


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {name} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_exact_oracles():
    tab = fourier_coeffs(FHParams(0.25, 0.25), 4)
    ok_d = (
        abs(np.exp(log_det(tab, 1).log) - 4.0 / PI) < 1e-10
        and abs(np.exp(log_det(tab, 2).log) - 128.0 / (9.0 * PI**2)) < 1e-10
    )

    battery = [
        FHParams(0.25, 0.25, t=0.0),
        FHParams(0.5, 0.5, t=PI / 2.0),
        FHParams(-0.2, 0.25, t=0.3),
        FHParams(0.3, 0.3, beta1=0.4j, beta2=0.4j, t=0.3),
        FHParams(0.5, -0.2, beta1=0.4j, beta2=0.0, t=PI / 2.0),
    ]
    worst_h = 0.0
    for p in battery:
        ptab = fourier_coeffs(p, 4)
        for n in (1, 2, 3):
            diff = abs(heine_det(p, n) - np.exp(log_det(ptab, n).log))
            worst_h = max(worst_h, diff)
    ok_h = worst_h <= 1e-6

    # finite-n identity for the shifted symbol at n = 8
    n = 8
    pid = FHParams(0.3, 0.3, 0.0, 0.0, 0.2)
    table = fourier_coeffs(pid, n)
    op = orth_poly(table, n - 1)
    lhs = pid.pair[1].z ** (n - 1) * op.hat_phi0_chi * np.exp(log_det(table, n).log)
    pm = pid.with_betas(0.0, -1.0)
    rhs = np.exp(log_det(fourier_coeffs(pm, n - 2), n - 1).log)
    ok_id = abs(lhs - rhs) / abs(rhs) < 1e-8

    p = FHParams(0.3, 0.3, beta1=0.1 + 0.2j, beta2=-0.1j, t=0.7)
    ok_shift = True
    for nn in (4, 16):
        base = log_det(fourier_coeffs(p, nn - 1), nn).log
        for k in (1, -1):
            sh = log_det(
                fourier_coeffs(p.with_betas(p.beta1 + k, p.beta2 - k), nn - 1), nn
            ).log
            ok_shift &= abs(np.exp(sh) - np.exp(base - 2j * k * nn * p.t)) < 1e-9 * abs(
                np.exp(base)
            )

    _report(
        1,
        "exact oracles",
        ok_d and ok_h and ok_id and ok_shift,
        f"(heine worst {worst_h:.1e}, identity {abs(lhs - rhs) / abs(rhs):.1e})",
    )


def test_criterion_02_special_functions():
    ok = True
    for z, want in ((1, 0.0), (2, 0.0), (3, 0.0), (4, math.log(2.0))):
        ok &= abs(log_barnes_g(float(z)) - want) < 1e-12
    g_half_closed = (
        2.0 ** (1.0 / 24.0)
        * math.exp(1.0 / 8.0)
        * PI ** (-0.25)
        * GLAISHER_A ** (-1.5)
    )
    ok &= abs(math.exp(log_barnes_g(0.5).real) - g_half_closed) < 1e-9
    gamma_quarter = math.exp(log_gamma(0.25).real)
    cd_assembled = (
        math.sqrt(math.e / PI)
        * 2.0 ** (-5.0 / 6.0)
        * GLAISHER_A ** (-6.0)
        * gamma_quarter**2
    )
    ok &= abs(dyson_constant() - cd_assembled) < 1e-9
    _report(2, "special functions", ok)


def test_criterion_03_fh1_convergence():
    details = []
    ok = True
    for a in (0.5, 1.0):
        p = FHParams(a / 2.0, a / 2.0)
        tab = fourier_coeffs(p, 255)
        errs = {}
        for n in (128, 256):
            exact = log_det(tab, n).log_abs
            pred = fh1_log(p, n).log_value.real
            errs[n] = abs(pred - exact) / abs(exact)
        ratio = errs[128] / errs[256]
        ok &= errs[256] < 0.02 and 1.5 <= ratio <= 2.5
        details.append(f"a={a}: err256={errs[256]:.2e} ratio={ratio:.2f}")
    _report(3, "single-singularity convergence", ok, "; ".join(details))


def test_criterion_04_fh2_fixed_t():
    p = FHParams(0.3, 0.3, t=0.5)
    errs = []
    for n in (64, 128, 256):
        tab = fourier_coeffs(p, n - 1)
        exact = log_det(tab, n).log_abs
        pred = fh2_log(p, n).log_value.real
        errs.append(abs(pred - exact) / abs(exact))
    ok = errs[2] < errs[1] < errs[0] and errs[2] < 0.03
    _report(4, "two-singularity fixed-t", ok, f"errors {['%.2e' % e for e in errs]}")


def test_criterion_05_painleve_pipeline(p03, traj03):
    ok_res = float(np.max(traj03.residual)) <= 1e-6
    devs = [
        abs(traj03.sigma_at(x) - sigma_large_asym(p03, x)) * x
        for x in np.linspace(20.0, 40.0, 11)
    ]
    ok_asym = max(devs) < 0.5
    oracle = sigma_from_determinants(p03, 128, [1.0, 2.0, 5.0])
    worst = max(abs(sig - traj03.sigma_at(x)) for x, sig, *_ in oracle)
    ok_oracle = worst < 0.01
    dtraj = degenerate_sigma()
    ok_deg = bool(np.all(dtraj.sigma == 0.0))
    _report(
        5,
        "Painleve pipeline",
        ok_res and ok_asym and ok_oracle and ok_deg,
        f"(residual {np.max(traj03.residual):.1e}, oracle dev {worst:.1e})",
    )


def test_criterion_06_transition_formula(p03, traj03):
    cfg = SweepConfig(params=p03, n_list=(64, 128), nt_values=(0.2, 1.0, 5.0, 20.0))
    report = regime_sweep(cfg, traj=traj03)
    ok = report.verdict
    _report(
        6,
        "transition uniformity",
        ok,
        f"max errors {report.summary['max_err']}",
    )


def test_criterion_07_integral_identity(p03, traj03):
    lhs, rhs, disc = integral_identity_check(p03, traj03, 40.0)
    ok = disc <= 5e-3
    pdeg = FHParams(0.5, 0.5, 0.5, 0.5, 0.2)
    dl, dr, _ = integral_identity_check(pdeg, degenerate_sigma(x_max=45.0), 40.0)
    ok_deg = dl == 0.0 and abs(dr) < 1e-12
    _report(7, "integral identity", ok and ok_deg, f"discrepancy {disc:.1e}")


def test_criterion_08_differential_identity(p03):
    traj = integrate_sigma(p03, x_max=80.0)
    # the remainder at fixed x = 2nt is C(x)/n with C oscillating in x
    # (period ~2 pi), so both sizes are read at the same x; a fixed t-grid
    # put n = 128 at spacing 6.26 in x, one phase of C
    xs = 128.0 * np.linspace(0.08, 0.3, 10)
    maxes = {}
    for n in (64, 128):
        rep = diff_identity_scan(p03, n, xs / (2.0 * n), traj=traj)
        maxes[n] = max(r["err"] for r in rep.rows)
    ratio = maxes[64] / maxes[128]
    ok = 1.5 <= ratio <= 2.5
    _report(8, "differential identity", ok, f"ratio {ratio:.2f}")


def test_criterion_09_dyson():
    report = dyson_check((64, 128, 256))
    devs = [r["err"] for r in report.rows]
    ok = devs[2] < devs[1] < devs[0] and devs[2] < 0.10
    _report(9, "boson occupation constant", ok, f"deviations {['%.3f' % d for d in devs]}")


@pytest.mark.parametrize("alpha,band", [(0.4, 0.1), (0.9, 0.15)])
def test_criterion_10_moment_regimes(alpha, band):
    report = fk_moment_scan(alpha, (64, 128, 256, 512), PI / 3.0)
    slope = report.summary["slope"]
    expected = report.summary["expected"]
    ok = abs(slope - expected) < band
    _report(
        10,
        f"moment scaling alpha={alpha}",
        ok,
        f"slope {slope:.3f} vs {expected:.3f} (band {band})",
    )


def test_criterion_11_shifted_symbol_ratio():
    # degenerate closed-form branch over nt in [0.5, 10] at n = 32
    pdeg = FHParams(0.5, 0.5, 0.5, 0.5, 0.1)
    n = 32
    worst_deg = 0.0
    for nt in (0.5, 2.0, 4.0, 7.0, 10.0):
        t = nt / n
        pt = pdeg.with_t(t)
        pm = pt.with_betas(0.5, -0.5)
        exact_n = log_det(fourier_coeffs(pt, n - 1), n).log
        exact_m = log_det(fourier_coeffs(pm, n - 2), n - 1).log
        pred = beta_one_ratio(pt, n, degenerate_r(2.0 * n * t), exact_n)
        err = abs(np.exp(pred.log_value) - np.exp(exact_m)) / abs(np.exp(exact_m))
        worst_deg = max(worst_deg, err)
    ok_deg = worst_deg < 0.05

    # generic two-term branch at nt = 30, improving with n
    errs = []
    for n in (48, 96):
        t = 30.0 / n
        pt = FHParams(0.3, 0.3, 0.0, 0.0, t)
        pm = pt.with_betas(0.0, -1.0)
        exact_n = log_det(fourier_coeffs(pt, n - 1), n).log
        exact_m = log_det(fourier_coeffs(pm, n - 2), n - 1).log
        pred = beta_one_ratio(pt, n, None, exact_n)
        errs.append(abs(np.exp(pred.log_value) - np.exp(exact_m)) / abs(np.exp(exact_m)))
    ok_gen = errs[0] < 0.10 and errs[1] < errs[0]
    _report(
        11,
        "shifted-symbol ratio",
        ok_deg and ok_gen,
        f"degenerate worst {worst_deg:.3f}, generic {['%.4f' % e for e in errs]}",
    )
