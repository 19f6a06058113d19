import json
import math
import time

import numpy as np
import pytest

from fhmerge import experiments
from fhmerge.asympt import fk_constants
from fhmerge.errors import NumericalError, ValidationError
from fhmerge.experiments import (
    SweepConfig,
    _exact_logdet,
    _integrate_det,
    _logdet_stencil,
    _mod_2pi_err,
    _stencil_derivs,
    _t_nodes,
    beta_one_check,
    diff_identity_scan,
    dyson_check,
    fk_moment_scan,
    regime_sweep,
    sigma_from_determinants,
)
from fhmerge.painleve import integrate_sigma
from fhmerge.specfun import DYSON_CD
from fhmerge.symbol import FHParams, FourierTable, fourier_coeffs
from fhmerge.toeplitz import log_det

PI = math.pi
BETAONE_NT = (0.5, 2.0, 5.0, 10.0, 30.0)  # the CLI's betaone nt list


def test_sweep_config_validation():
    p = FHParams(0.3, 0.3)
    with pytest.raises(ValidationError):
        SweepConfig(params=p, n_list=())
    with pytest.raises(ValidationError):
        SweepConfig(params=p, n_list=(64, 32))
    with pytest.raises(ValidationError):
        SweepConfig(params=p, n_list=(32,), t_rule="fixed-t")


@pytest.mark.parametrize(
    "kwargs, says",
    [
        ({"n_list": (2,)}, "nt = 20 at n = 2 "),  # the default nt_values reach 20
        ({"n_list": (8, 16), "nt_values": (0.0, 1.0)}, "nt = 0 at n = 8 "),
        ({"n_list": (32,), "t_rule": "fixed-t", "t_value": PI}, "at n = 32 "),
        ({"n_list": (32,), "t_rule": "fixed-t", "t_value": -0.1}, "at n = 32 "),
    ],
)
def test_sweep_config_refuses_t_outside_0_pi(kwargs, says):
    with pytest.raises(ValidationError, match=says):
        SweepConfig(params=FHParams(0.3, 0.3), **kwargs)


@pytest.mark.parametrize(
    "n, t_grid",
    [(0, [0.1]), (-2, [0.1]), (64, [1e-4, 0.1]), (64, [0.1, 3.14]), (64, [0.0])],
    ids=["n-zero", "n-negative", "stencil-below-0", "stencil-past-pi", "t-zero"],
)
def test_diff_identity_scan_refuses_before_sigma(n, t_grid, monkeypatch, p03):
    solves = []
    monkeypatch.setattr(experiments, "integrate_sigma", lambda *a, **k: solves.append(a))
    with pytest.raises(ValidationError):
        diff_identity_scan(p03, n, t_grid)
    assert not solves


@pytest.mark.parametrize(
    "suite, n_list",
    [
        ("dyson", ()),
        ("dyson", (0,)),
        ("dyson", (1,)),
        ("dyson", (1, 4)),
        ("dyson", (64, 32)),
        ("dyson", (32, 32)),
        ("fk", (8,)),
        ("fk", (64, 32)),
        ("fk", (1, 8)),
        ("fk", ()),
        ("betaone", (0,)),
        ("betaone", (1,)),
        ("betaone", (2,)),
        ("betaone", (8,)),
        ("betaone", (64, 32)),
    ],
)
def test_suite_rejects_unusable_n_list(suite, n_list):
    # dyson reads D_(n-1), so n >= 2; fk fits a slope, so at least two sizes;
    # betaone reads D_(n-1) too, and nt = 30 needs n > 30/pi for t < pi
    run = {
        "dyson": dyson_check,
        "fk": lambda n: fk_moment_scan(0.9, n, PI / 3.0),
        "betaone": lambda n: beta_one_check(FHParams(0.3, 0.3, t=0.3), n, BETAONE_NT),
    }[suite]
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        run(n_list)
    assert time.perf_counter() - start < 0.1


def test_regime_sweep_small(traj03, p03):
    cfg = SweepConfig(params=p03, n_list=(64, 128), nt_values=(0.2, 1.0, 5.0))
    report = regime_sweep(cfg, traj=traj03)
    assert len(report.rows) == 6
    assert report.verdict
    # dominance pattern (with the tie slack) from the rows themselves
    for row in report.rows:
        bound = min(row["err_fh1"], row["err_fh2"]) * 1.1 + 1e-5
        assert row["err_transition"] <= bound


def test_regime_sweep_identity_symbol():
    cfg = SweepConfig(params=FHParams(0.0, 0.0), n_list=(8,), nt_values=(0.5, 1.0))
    report = regime_sweep(cfg)
    for row in report.rows:
        assert abs(row["exact"]) < 1e-12
        assert row["err_transition"] < 1e-9 and row["err_fh2"] < 1e-12


def test_regime_sweep_degenerate_params():
    # complex-valued symbol: transition with sigma == 0 still tracks the
    # exact determinant's magnitude and phase
    p = FHParams(0.5, 0.5, 0.5, 0.5, 0.05)
    from fhmerge.painleve import degenerate_sigma

    cfg = SweepConfig(params=p, n_list=(32,), t_rule="fixed-t", t_value=0.05)
    report = regime_sweep(cfg, traj=degenerate_sigma())
    row = report.rows[0]
    assert row["err_transition"] < 0.05


def test_report_serialization(tmp_path, traj03, p03):
    cfg = SweepConfig(params=p03, n_list=(16,), nt_values=(0.5,))
    report = regime_sweep(cfg, traj=traj03)
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "summary.json"
    report.to_csv(csv_path)
    report.to_json(json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("n,t,")
    payload = json.loads(json_path.read_text())
    assert payload["suite"] == "regimes" and "verdict" in payload and "runtime_s" in payload
    assert payload["worst_row"] is not None
    # complex values are written as [re, im], as the CLI writes them
    exact = report.worst_row["exact"]
    assert payload["worst_row"]["exact"] == [exact.real, exact.imag]


def test_sigma_from_determinants_matches_trajectory(traj03, p03):
    samples = sigma_from_determinants(p03, 128, [1.0, 2.0])
    for x, sig, sig_x, sig_xx, noise in samples:
        assert abs(sig - traj03.sigma_at(x)) < 0.01
        assert abs(sig_x - traj03.eval(x)[1]) < 0.05
        assert noise < 1e-3


def test_sigma_from_determinants_small_x_limit(p03):
    samples = sigma_from_determinants(p03, 128, [0.05])
    (x, sig, _, _, _) = samples[0]
    assert abs(sig - 0.18) < 5e-3  # 2 alpha^2 at alpha = 0.3


def _symmetric_sigma_reference(p, n, x_grid):
    # the hand-derived inversion for beta = 0 and real alpha1 = alpha2:
    # the explicit terms there reduce to -2 alpha^2 ln(sin t / t)
    alpha = p.alpha1.real
    out = []
    for x in x_grid:
        t = x / (2.0 * n)
        h = min(max(1e-4, 1e-3 * t), t / 3.0)
        _, ls = _logdet_stencil(p, n, t, h)
        l1, l2, l3 = _stencil_derivs(ls.real, h)
        ct = 1.0 / math.tan(t)
        s2 = 1.0 / math.sin(t) ** 2
        g = t * l1 + 2.0 * alpha**2 * (t * ct - 1.0)
        g1 = l1 + t * l2 + 2.0 * alpha**2 * (ct - t * s2)
        g2 = 2.0 * l2 + t * l3 + 2.0 * alpha**2 * (
            -2.0 * s2 + 2.0 * t * math.cos(t) / math.sin(t) ** 3
        )
        out.append((2.0 * alpha**2 + g, g1 / (2.0 * n), g2 / (2.0 * n) ** 2))
    return out


def test_sigma_from_determinants_matches_symmetric_reference(p03):
    xs = [0.05, 1.0, 2.0, 5.0]
    got = sigma_from_determinants(p03, 128, xs)
    for (_, sig, sig_x, sig_xx, _), (ref, ref_x, ref_xx) in zip(
        got, _symmetric_sigma_reference(p03, 128, xs)
    ):
        assert abs(sig - ref) < 1e-12
        assert abs(sig_x - ref_x) < 1e-10
        assert abs(sig_xx - ref_xx) < 1e-9


@pytest.mark.parametrize(
    "p",
    [FHParams(0.2, 0.25, 0.1j, -0.15j), FHParams(0.3, 0.3, 0.1 + 0.2j, -0.1j)],
    ids=["imag-beta", "complex-beta"],
)
def test_sigma_from_determinants_general_params(p):
    # away from beta = 0 and alpha1 = alpha2 the inversion still tracks the solve
    traj = integrate_sigma(p, x_max=10.0)
    for x, *est, _ in sigma_from_determinants(p, 128, [1.0, 2.0, 5.0]):
        for got, want in zip(est, traj.eval(x)):
            assert abs(got - want) < 2e-3


def test_sigma_from_determinants_rejects_bad_params():
    # transition_log needs seminorm |Re(beta1 - beta2)| < 1
    with pytest.raises(ValidationError):
        sigma_from_determinants(FHParams(0.3, 0.3, 1.0, 0.0), 64, [1.0])


def test_dyson_check_small_sizes():
    report = dyson_check((8, 16, 32))
    devs = [r["err"] for r in report.rows]
    assert devs[2] < devs[1] < devs[0]
    # D_7, D_15 and D_31 read from one table per node on the panels of 31
    assert report.summary["t_quadrature"] == {"panel_n": 31, "t_nodes": 64, "tables": 64}


def test_dyson_richardson_reaches_constant():
    # the ratio rho0/sqrt(n) approaches C_D like n^(-1/2): one Richardson
    # step on consecutive sizes removes that term
    ratios = [r["ratio"] for r in dyson_check((64, 128, 256)).rows]
    q = math.sqrt(2.0)
    errs = [
        abs((q * big - small) / (q - 1.0) - DYSON_CD) / DYSON_CD
        for small, big in zip(ratios, ratios[1:])
    ]
    assert errs[1] < 5e-5 and errs[1] < errs[0]


def test_dyson_two_particle_value():
    # rho0 for n = 2 equals (2/pi) int_0^{pi/2} f_{t,0} dt with
    # f_{t,0} = (2/pi)(2 cos t + (pi - 2t) sin t) for the pair symbol
    report = dyson_check((2,))
    row = report.rows[0]

    def f0(t):
        return (2.0 / PI) * (2.0 * math.sin(t) + (PI - 2.0 * t) * math.cos(t))

    ts = np.linspace(0.0, PI / 2.0, 20001)
    want = (2.0 / PI) * np.trapezoid([f0(t) for t in ts], ts)
    assert abs(row["rho0"] - want) < 1e-7


def test_diff_identity_scan_halving(traj03, p03):
    grid = np.linspace(0.08, 0.3, 6)
    r32 = diff_identity_scan(p03, 32, grid, traj=traj03)
    r64 = diff_identity_scan(p03, 64, grid, traj=traj03)
    m32 = max(r["err"] for r in r32.rows)
    m64 = max(r["err"] for r in r64.rows)
    assert 1.5 <= m32 / m64 <= 2.5


@pytest.mark.parametrize(
    "p",
    [
        FHParams(0.3, 0.25, 0.1j, -0.15j, 0.3, {1: 0.2 + 0.1j, -1: 0.15 - 0.05j, 2: -0.1j}),
        FHParams(0.2, 0.35, 0.05 + 0.1j, 0.05 - 0.1j, 0.3, {1: 0.3, -2: 0.1j}),
    ],
    ids=["imaginary-betas", "complex-betas"],
)
def test_diff_identity_scan_with_smooth_factor(p):
    # the expansion's V-part against exact determinants: the worst error on
    # the grid falls like 1/n (ratios 1.87-2.05 per doubling)
    traj = integrate_sigma(p, x_max=80.0)
    grid = np.linspace(0.08, 0.3, 6)
    errs = [diff_identity_scan(p, n, grid, traj=traj).summary["max_err"] for n in (32, 64, 128)]
    assert errs[0] / errs[1] >= 1.7 and errs[1] / errs[2] >= 1.7


def test_diff_identity_imaginary_beta(p03):
    p = FHParams(0.3, 0.3, beta1=0.2j, beta2=0.2j, t=0.3)
    from fhmerge.painleve import integrate_sigma

    traj = integrate_sigma(p, x_max=30.0)
    grid = np.linspace(0.05, 0.2, 4)
    r32 = diff_identity_scan(p, 32, grid, traj=traj)
    r64 = diff_identity_scan(p, 64, grid, traj=traj)
    assert max(r["err"] for r in r64.rows) < max(r["err"] for r in r32.rows)


def test_beta_one_check_identity_row(p03):
    report = beta_one_check(p03, (16,), (2.0,))
    assert report.summary["identity_err"] < 1e-8
    assert report.verdict


@pytest.mark.parametrize(
    "p", [FHParams(0.3, 0.3, t=0.3), FHParams(0.3, 0.25, 0.1 + 0.2j, 0.1 - 0.05j, 0.3)]
)
def test_beta_one_check_rows_match_the_shifted_table(p):
    # each row reads D_(n-1) of the shifted symbol through the identity from
    # f's own table; an independent table of the shifted symbol agrees
    report = beta_one_check(p, (16, 64), (0.5, 2.0, 10.0, 30.0))
    rows = [r for r in report.rows if r["branch"] != "identity"]
    assert len(rows) == 8
    for row in rows:
        pt = p.with_t(row["t"])
        pm = pt.with_betas(pt.beta1, pt.beta2 - 1.0)
        assert _mod_2pi_err(row["exact"], _exact_logdet(pm, row["n"] - 1)) < 1e-10
        assert -PI < row["exact"].imag <= PI


def test_beta_one_check_builds_one_table_per_row(monkeypatch, p03):
    # one table of f per (n, nt) row, plus the identity row's two tables
    built = []

    def counting(q, n_max, **kwargs):
        built.append(n_max)
        return fourier_coeffs(q, n_max, **kwargs)

    monkeypatch.setattr(experiments, "fourier_coeffs", counting)
    n_list, nt_list = (16, 32), (0.5, 2.0, 30.0)
    beta_one_check(p03, n_list, nt_list)
    assert len(built) == len(n_list) * len(nt_list) + 2


def test_beta_one_check_degenerate():
    p = FHParams(0.5, 0.5, 0.5, 0.5, 0.1)
    report = beta_one_check(p, (32,), (0.5, 2.0, 5.0, 10.0))
    for row in report.rows:
        if row["branch"] in ("small", "large"):
            assert row["err"] < 0.05


def test_integrate_det_shared_tables(monkeypatch):
    # one table at max(n) - 1 and one log_det of order max(n) per t-node,
    # every D_n read from its minors, against each n's own table at the
    # same nodes: the two differ only by the tables' quadrature error
    n_list, t1 = (8, 16, 32), PI / 3.0
    orders = []

    def counting(table, n):
        orders.append(n)
        return log_det(table, n)

    def p_of_t(t):
        return FHParams(0.4, 0.4, t=t)

    monkeypatch.setattr(experiments, "log_det", counting)
    got, t_quad = _integrate_det(p_of_t, n_list, t1)
    ts, ws = _t_nodes(32, t1)
    assert t_quad == {"panel_n": 32, "t_nodes": len(ts), "tables": len(ts)}
    assert orders == [32] * len(ts)
    for n, value in zip(n_list, got):
        dets = [math.exp(log_det(fourier_coeffs(p_of_t(t), n - 1), n).log_abs) for t in ts]
        own = float(np.dot(ws, dets))
        assert abs(value - own) <= 1e-12 * abs(own)


def test_integrate_det_refuses_a_negative_determinant(monkeypatch):
    # f_0 = 1, f_{+-1} = c: D_2 = 1 - c^2 is positive at c = 0.4 and negative
    # at c = 2, which the integrand of a positive symbol cannot be; it is not
    # read as |D_2|
    def stub(c):
        return lambda p, n_max: FourierTable(p, n_max, np.array([c, 1.0, c]), 0.0)

    def p_of_t(t):
        return FHParams(0.4, 0.4, t=t)

    monkeypatch.setattr(experiments, "fourier_coeffs", stub(0.4))
    _integrate_det(p_of_t, [1, 2], 1.0)
    monkeypatch.setattr(experiments, "fourier_coeffs", stub(2.0))
    with pytest.raises(NumericalError, match="D_2"):
        _integrate_det(p_of_t, [1, 2], 1.0)


def test_fk_moment_scan_quick():
    report = fk_moment_scan(0.4, (16, 32, 64), PI / 3.0)
    # slope approaches 2 alpha^2 = 0.32 from desk-scale sizes
    assert abs(report.summary["slope"] - 0.32) < 0.15
    assert report.summary["reference_constant"] > 0.0
    assert report.summary["t_quadrature"]["panel_n"] == 64


def test_fk_moment_scan_at_the_critical_point():
    # at alpha = 1/sqrt 2 the moment grows like n ln n: the fit is on
    # moment/(n ln n), whose slope is 0, and the prefactor's reference is c2
    alpha = 1.0 / math.sqrt(2.0)
    report = fk_moment_scan(alpha, (64, 128, 256), PI / 3.0)
    assert report.verdict and report.summary["expected"] == 0.0
    assert report.summary["reference_constant"] == fk_constants(alpha).c2
