import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from fhmerge.asympt import (
    beta_one_ratio,
    diff_identity_rhs,
    dyson_constant,
    e_constant,
    fh1_log,
    fh2_log,
    fh2_odd_log,
    fk_constants,
    normalize_beta,
    transition_log,
)
from fhmerge.errors import ValidationError
from fhmerge.painleve import degenerate_sigma, integrate_sigma, r_trajectory
from fhmerge.specfun import log_barnes_g
from fhmerge.symbol import FHParams, fourier_coeffs
from fhmerge.toeplitz import log_det

PI = math.pi


def test_e_constant_half_pair():
    # V = 0, beta = 0, alpha = 1/2 pair at t = pi/2: -(1/2) ln 2 + 4 ln G(3/2)
    p = FHParams(0.5, 0.5, t=PI / 2.0)
    want = -0.5 * math.log(2.0) + 4.0 * log_barnes_g(1.5).real
    assert abs(e_constant(p) - want) < 1e-13


def test_e_constant_pure_jump():
    # alpha = 0, beta1 = beta2 = ib: the 2 b1 b2 ln|2 sin t| term plus the
    # jump-only Barnes factor 2 ln|G(1+ib)|^2
    b = 0.25
    p = FHParams(0.0, 0.0, beta1=1j * b, beta2=1j * b, t=0.8)
    want = -2.0 * b * b * math.log(abs(2.0 * math.sin(0.8)))
    want += 2.0 * (log_barnes_g(1.0 + 1j * b) + log_barnes_g(1.0 - 1j * b)).real
    assert abs(e_constant(p) - want) < 1e-13
    # the t-dependence is carried by the first term alone
    p2 = FHParams(0.0, 0.0, beta1=1j * b, beta2=1j * b, t=1.3)
    dd = e_constant(p2) - e_constant(p)
    ref = -2.0 * b * b * (
        math.log(abs(2.0 * math.sin(1.3))) - math.log(abs(2.0 * math.sin(0.8)))
    )
    assert abs(dd - ref) < 1e-13


def test_e_constant_swap_negates_odd_term():
    # swapping the singularity data negates the i(pi-2t) cross term only
    p = FHParams(0.3, 0.2, beta1=0.1j, beta2=-0.1j, t=0.7)
    q = FHParams(0.2, 0.3, beta1=-0.1j, beta2=0.1j, t=0.7)
    ep, eq = e_constant(p), e_constant(q)
    cross = 1j * (PI - 2.0 * 0.7) * (p.alpha1 * p.beta2 - p.alpha2 * p.beta1)
    assert abs((ep - cross) - (eq + cross)) < 1e-13


def test_fh2_identity_symbol():
    pred = fh2_log(FHParams(0.0, 0.0, t=0.5), 50)
    assert abs(pred.log_value) < 1e-13


def test_fh2_assembly():
    p = FHParams(0.5, 0.5, t=PI / 2.0)
    pred = fh2_log(p, 64)
    want = 0.5 * math.log(64.0) + e_constant(p)
    assert abs(pred.log_value - want) < 1e-13


def test_fh2_v0_shift():
    p = FHParams(0.5, 0.5, t=PI / 2.0)
    pv = FHParams(0.5, 0.5, t=PI / 2.0, v_coeffs={0: 1.0})
    n = 37
    assert abs(fh2_log(pv, n).log_value - fh2_log(p, n).log_value - n) < 1e-12


def test_fh2_terms_sum_exactly():
    p = FHParams(0.3, 0.2, beta1=0.1j, beta2=0.2j, t=0.6, v_coeffs={1: 0.2, -1: 0.2})
    pred = fh2_log(p, 41)
    assert pred.log_value == sum(pred.terms.values())


def test_fh1_unit_alpha_sum():
    # alpha1+alpha2 = 1, beta = 0: prediction is exactly ln n
    pred = fh1_log(FHParams(0.5, 0.5), 100)
    assert abs(pred.log_value - math.log(100.0)) < 1e-13


def test_fh1_abs_z_minus_one():
    pred = fh1_log(FHParams(0.25, 0.25), 64)
    want = 0.25 * math.log(64.0) + 2.0 * log_barnes_g(1.5).real
    assert abs(pred.log_value - want) < 1e-13


def test_fh1_pure_jump():
    # sign of the log-n coefficient: -(beta1+beta2)^2 = +b^2
    b = 0.4
    pred = fh1_log(FHParams(0.0, 0.0, beta1=1j * b), 32)
    assert abs(pred.terms["log_n"] - b * b * math.log(32.0)) < 1e-13


def test_normalize_beta_identity():
    nb = normalize_beta(FHParams(0.1, 0.1, 0.3j, -0.2j, 0.5))
    assert nb.k == 0 and not nb.odd


def test_normalize_beta_shift():
    nb = normalize_beta(FHParams(0.1, 0.1, 1.2, -0.3, 0.5))
    assert nb.k == -1
    assert abs(nb.params.beta1 - 0.2) < 1e-15 and abs(nb.params.beta2 - 0.7) < 1e-15
    assert nb.params.seminorm == 0.5


def test_normalize_beta_odd():
    nb = normalize_beta(FHParams(0.1, 0.1, 1.0, 0.0, 0.5))
    assert nb.odd and nb.ell == 1
    assert (nb.params.beta1, nb.params.beta2) == (0.0, 1.0)
    assert (nb.params_pair.beta1, nb.params_pair.beta2) == (1.0, 0.0)


def test_fh2_odd_equal_branch_magnitudes():
    # for equal alphas the two branch constants differ only by a phase,
    # so the interference terms have equal magnitude
    p = FHParams(0.3, 0.3, 1.0, 0.0, 0.4)
    n = 16
    pred = fh2_odd_log(p, n)
    ba, bb = pred.notes["branch_a"], pred.notes["branch_b"]
    ell = pred.notes["ell"]
    assert abs((bb - 2j * n * ell * 0.4).real - ba.real) < 1e-12


def test_fh2_odd_matches_exact_determinant():
    n = 32
    for t in (0.1, 0.2, 0.4):
        p = FHParams(0.3, 0.3, 1.0, 0.0, t)
        exact = np.exp(log_det(fourier_coeffs(p, n - 1), n).log)
        pred = cmath.exp(fh2_odd_log(p, n).log_value)
        assert abs(pred - exact) / abs(exact) < 0.05


def test_fh2_odd_interference_dip():
    # the two terms nearly cancel once per phase period; the prediction
    # must reproduce both the dip location and depth of the exact values
    n = 32
    xs = np.linspace(2.5, 6.0, 15)
    exact = []
    pred = []
    for x in xs:
        p = FHParams(0.3, 0.3, 1.0, 0.0, float(x) / (2 * n))
        exact.append(abs(np.exp(log_det(fourier_coeffs(p, n - 1), n).log)))
        pred.append(abs(cmath.exp(fh2_odd_log(p, n).log_value)))
    exact, pred = np.array(exact), np.array(pred)
    assert exact.min() < 0.1 * exact.max()
    assert np.max(np.abs(pred - exact)) < 0.1 * exact.max()
    assert abs(xs[np.argmin(pred)] - xs[np.argmin(exact)]) <= 0.5


def test_transition_reduces_to_fh1(traj03):
    p = FHParams(0.3, 0.3, t=1e-6)
    tr = transition_log(p, 64, traj03)
    f1 = fh1_log(p.merged(), 64)
    assert abs(tr.log_value - f1.log_value) < 1e-5


def test_transition_symmetric_reduction(traj03, p03):
    # for beta = 0 and equal alphas only four terms survive
    n, t = 64, 0.05
    pt = p03.with_t(t)
    tr = transition_log(pt, n, traj03)
    a = 0.3
    want = (
        4.0 * a * a * math.log(n)
        + (2.0 * log_barnes_g(1.0 + 2.0 * a) - log_barnes_g(1.0 + 4.0 * a)).real
        + traj03.omega_at(2.0 * n * t).real
        - 2.0 * a * a * math.log(math.sin(t) / t)
    )
    assert abs(tr.log_value - want) < 1e-10


def test_transition_matches_fh2_at_large_nt(traj03):
    # prediction difference shrinks as nt grows at fixed t, down to the
    # oscillatory-tail noise floor
    t = 0.2
    diffs = []
    for n in (8, 16, 32, 64):
        pt = FHParams(0.3, 0.3, t=t)
        tr = transition_log(pt, n, traj03)
        f2 = fh2_log(pt, n)
        diffs.append(abs(tr.log_value - f2.log_value))
    assert diffs[0] > diffs[1] > diffs[2] > diffs[3]
    assert diffs[0] < 0.01 and diffs[3] < 1e-4


def test_diff_identity_rhs_trivial():
    traj = degenerate_sigma()
    p = FHParams(0.0, 0.0, t=0.2)
    assert abs(diff_identity_rhs(p, 8, 0.2, traj)) < 1e-12


def test_diff_identity_rhs_term_selection(traj03, p03):
    n, t = 32, 0.1
    sig, du, _ = traj03.eval(2.0 * n * t)
    sig_s = 1j * du
    want = (
        -4.0 * 0.09 * math.cos(t) / (2j * math.sin(t))
        + sig / (1j * t)
        - 2.0 * sig_s * 0.6
    )
    assert abs(diff_identity_rhs(p03, n, t, traj03) - want) < 1e-12


def test_beta_one_degenerate_small_branch():
    # small-nt branch with the closed-form r reduces to sin(nt)/sin(t)
    from fhmerge.painleve import degenerate_r

    n, t = 32, 0.05
    p = FHParams(0.5, 0.5, 0.5, 0.5, t)
    x = 2.0 * n * t
    pred = beta_one_ratio(p, n, degenerate_r(x), 0.0)
    want = cmath.exp(-1j * (n - 1) * t) * math.sin(n * t) / math.sin(t)
    got = cmath.exp(pred.log_value)
    assert abs(got - want) / abs(want) < 0.1


def test_beta_one_branch_mismatch_within_the_window(p03):
    # within 25% of nt = 20 both branches are evaluated and their gap is
    # noted; it falls along n (1.8e-4, 5.5e-5, 1.6e-5 at nt = 20)
    rt = r_trajectory(p03, integrate_sigma(p03, x_max=60.0))
    for nt in (10.0, 16.0, 20.0, 24.0, 30.0):
        notes = [
            beta_one_ratio(p03.with_t(nt / n), n, rt.r_at(2.0 * nt), 0.0).notes
            for n in (64, 128, 256)
        ]
        if nt in (10.0, 30.0):
            assert all("branch_mismatch" not in note for note in notes)
            continue
        gaps = [note["branch_mismatch"] for note in notes]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_beta_one_needs_matching_real_parts():
    with pytest.raises(ValidationError):
        beta_one_ratio(FHParams(0.3, 0.3, 0.5, 0.0, 0.1), 16, None, 0.0)


@pytest.mark.parametrize("n", [0, -3])
def test_predictors_refuse_n_below_one(n, traj03):
    # each reads ln n; the size is refused before any other work
    p = FHParams(0.3, 0.3, t=0.1)
    calls = [
        lambda: fh1_log(p.merged(), n),
        lambda: fh2_log(p, n),
        lambda: fh2_odd_log(FHParams(0.3, 0.3, 0.5, -0.5, 0.1), n),
        lambda: transition_log(p, n, traj03),
        lambda: beta_one_ratio(p, n, 0.1, 0.0),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="n must be at least 1"):
            call()


def test_fk_constants_c2():
    c2 = fk_constants(1.0 / math.sqrt(2.0)).c2
    want = math.exp(
        (4.0 * log_barnes_g(1.0 + 2.0**-0.5) - 2.0 * log_barnes_g(1.0 + 2.0**0.5)).real
    ) / 2.0
    assert abs(c2 - want) < 1e-14


class _PowerLawOmega:
    """A trajectory stub with omega(x) = -2 alpha^2 ln(1 + x) on [0, x_max]."""

    def __init__(self, alpha, x_max):
        self.alpha = alpha
        self.x_grid = np.array([0.0, x_max])

    def omega_at(self, x):
        return -2.0 * self.alpha**2 * np.log1p(x) + 0j


@pytest.mark.parametrize("alpha", [0.8, 0.9])
def test_fk_constants_c3_power_law_omega(alpha):
    # gfac int_0^inf (1 + 2u)^(-2 alpha^2) du = gfac / (2 (2 alpha^2 - 1));
    # the tail beyond x_max carries a relative error O(1 / x_max)
    gfac = math.exp(
        (2.0 * log_barnes_g(1.0 + 2.0 * alpha) - log_barnes_g(1.0 + 4.0 * alpha)).real
    )
    want = gfac / (2.0 * (2.0 * alpha**2 - 1.0))
    got = fk_constants(alpha).c3(_PowerLawOmega(alpha, 1e4))
    assert abs(got - want) < 1e-3 * want


def test_fk_c1_diverges():
    with pytest.raises(ValidationError):
        fk_constants(0.9).c1(0.5)


@pytest.mark.parametrize("alpha", [-0.2, 0.2, 0.5, 0.6, 0.65, 0.7])
def test_fk_c1_against_mpmath_betainc(alpha):
    # G(1+a)^4 / (G(1+2a)^2 2^(2a^2)) int_0^t1 sin^(-2a^2) x dx with
    # u = sin^2 x: B_{sin^2 t1}(mu, 1/2) / 2 up to pi/2, mu = 1/2 - a^2
    for t1 in (0.05, PI / 3.0, PI / 2.0, 2.5):
        with mp.workdps(30):
            a = mp.mpf(alpha)
            mu = mp.mpf(0.5) - a * a
            prefac = mp.barnesg(1 + a) ** 4 / mp.barnesg(1 + 2 * a) ** 2 / mp.mpf(2) ** (2 * a * a)
            half = mp.betainc(mu, 0.5, 0, mp.sin(mp.mpf(t1)) ** 2) / 2
            want = float(prefac * (half if t1 <= PI / 2.0 else mp.beta(mu, 0.5) - half))
        assert abs(fk_constants(alpha).c1(t1) - want) < 1e-12 * want


@pytest.mark.parametrize("t1", [0.0, -0.1, PI, 4.0])
def test_fk_c1_rejects_t1_outside_open_interval(t1):
    with pytest.raises(ValidationError):
        fk_constants(0.5).c1(t1)


def test_dyson_constant_value():
    assert abs(dyson_constant() - 1.5426945477474159) < 1e-9


def test_dyson_chain_equality():
    # (2/pi) C1(pi/2, 1/2) equals the closed-form boson constant
    c1 = fk_constants(0.5).c1(PI / 2.0)
    assert abs((2.0 / PI) * c1 - dyson_constant()) < 1e-8


def test_prediction_conjugation():
    # conjugating the symbol maps (alpha, beta, V_k) to
    # (conj alpha, -conj beta, conj V_{-k}); predictions conjugate with it
    p = FHParams(0.3 + 0.05j, 0.2, beta1=0.1 + 0.1j, beta2=0.1 - 0.2j, t=0.7,
                 v_coeffs={1: 0.1 + 0.2j, -1: 0.3})
    pc = FHParams(0.3 - 0.05j, 0.2, beta1=-0.1 + 0.1j, beta2=-0.1 - 0.2j, t=0.7,
                  v_coeffs={1: 0.3, -1: 0.1 - 0.2j})
    a = fh2_log(p, 40).log_value
    b = fh2_log(pc, 40).log_value
    assert abs(a - b.conjugate()) < 1e-12
    # purely imaginary betas with real alphas: the symbol is real and the
    # prediction must be too
    preal = FHParams(0.3, 0.2, beta1=0.1j, beta2=-0.2j, t=0.7, v_coeffs={1: 0.1, -1: 0.1})
    assert abs(fh2_log(preal, 40).log_value.imag) < 1e-12


# ln D_{n-1} of the shifted symbol on the large-nt branch (n = 128, nt = 32),
# alpha = (0.3, 0.25 + 0.05i), V = {1: 0.2 + 0.1i, -1: 0.15 - 0.05i, 2: -0.1i},
# ln D_n = 1.5 - 0.3i, with the complex betas in both orders
_RATIO_GOLDEN = {
    "12": (0.1 + 0.2j, 0.1 - 0.15j, -3.070142754764805 - 34.956409853433854j),
    "21": (0.1 - 0.15j, 0.1 + 0.2j, -4.190973360037633 - 29.357982007317517j),
}


@pytest.mark.parametrize("order", list(_RATIO_GOLDEN))
def test_beta_one_large_branch_golden(order):
    b1, b2, ref = _RATIO_GOLDEN[order]
    v = {1: 0.2 + 0.1j, -1: 0.15 - 0.05j, 2: -0.1j}
    pred = beta_one_ratio(FHParams(0.3, 0.25 + 0.05j, b1, b2, 0.25, v), 128, None, 1.5 - 0.3j)
    assert pred.notes["branch"] == "large"
    assert abs(pred.log_value - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("n, nt, band", [(128, 40.0, 6e-3), (256, 40.0, 3e-3), (256, 80.0, 3e-3)])
def test_beta_one_large_branch_drops_a_vanishing_term(n, nt, band):
    # alpha2 + beta2 = 0: 1/Gamma(alpha2 + beta2) = 0 removes the second
    # singularity's term, and the first one alone matches the exact ratio
    pt = FHParams(0.3, 0.0, 0.1j, 0.0, nt / n)
    exact_n = log_det(fourier_coeffs(pt, n - 1), n).log
    exact_m = log_det(fourier_coeffs(pt.with_betas(0.1j, -1.0), n - 2), n - 1).log
    pred = beta_one_ratio(pt, n, None, exact_n)
    assert pred.notes["branch"] == "large"
    assert abs(cmath.exp(pred.log_value - exact_m) - 1.0) < band


# golden values (1e-13 relative) of the predictors built from the pair's cross
# terms, sum_j (alpha_j^2 - beta_j^2) and the V-part of the derivative expansion;
# those with a Barnes-G part are computed with ln G from mpmath at 30 digits
_V = {1: 0.2 + 0.1j, -1: 0.15 - 0.05j, 2: -0.1j}


def _close(got, ref):
    return abs(got - ref) <= 1e-13 * abs(ref)


def test_e_constant_golden():
    p = FHParams(0.3 + 0.05j, 0.2, 0.1 + 0.2j, -0.15j, 0.5, _V)
    assert _close(e_constant(p), 0.17638122198038203 - 0.0029930702384591158j)
    assert _close(fh2_log(p, 64).log_value, 0.9249801769851229 - 0.04458190107205587j)


def test_transition_terms_golden():
    from fhmerge.asympt import _transition_terms

    p = FHParams(0.3 + 0.05j, 0.2, 0.1 + 0.2j, -0.15j, 0.05, _V)
    got = sum(_transition_terms(p, 64).values())
    assert _close(got, 2.0953957865853936 - 0.12333144149450322j)


def test_fh2_odd_log_golden():
    p = FHParams(0.3, 0.2 + 0.1j, 0.5 + 0.1j, -0.5, 0.4, _V)
    assert _close(fh2_odd_log(p, 16).log_value, -0.8811356816451904 - 12.578137621701057j)
    assert _close(fh2_odd_log(p, 64).log_value, -1.2617811945318007 - 50.52201948919181j)


class _RecordedSigma:
    """A trajectory stand-in whose eval(x) returns fixed (sigma, sigma_x,
    sigma_xx), recorded from integrate_sigma(FHParams(0.3, 0.25, 0.1j,
    -0.15j, 0.3, _V), x_max=80) at x = 6.4 and 64, so the golden pins
    diff_identity_rhs's formula and not the solver's rounding."""

    _AT = {
        6.4: (
            -0.7779973061947039 + 1.311011782351735e-13j,
            -0.09907853551453027 + 2.3238271669252347e-14j,
            0.008573672019953326 - 8.592024495362231e-15j,
        ),
        64.0: (
            -7.969362437375388 + 1.335395062034535e-12j,
            -0.12242103867224324 + 2.1500190808307908e-14j,
            0.001259499265478314 - 1.3413259693980216e-15j,
        ),
    }

    def eval(self, x):
        return self._AT[x]


def test_diff_identity_rhs_golden():
    p = FHParams(0.3, 0.25, 0.1j, -0.15j, 0.3, _V)
    traj = _RecordedSigma()
    for n, t, ref in [
        (32, 0.1, 0.007636934643144605 + 1.4506313734744893j),
        (128, 0.25, -0.016624670523641503 + 0.6434927023701489j),
    ]:
        assert _close(diff_identity_rhs(p, n, t, traj), ref)
