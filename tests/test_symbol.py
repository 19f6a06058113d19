import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.special import beta, gamma, i0, rgamma

from fhmerge._blas import single_thread
from fhmerge import experiments, quadrature, symbol
from fhmerge.errors import NumericalError, QuadratureError, ValidationError
from fhmerge.quadrature import arc_rule
from fhmerge.symbol import (
    TWO_PI,
    FHParams,
    _fourier_sums,
    _symbol_core,
    _table_sums,
    _top_freq,
    fourier_coeffs,
    params_from_json_dict,
    weighted_rules,
)

PI = math.pi


def _eval(p, theta):
    """f(e^{i theta}) off the singular angles, each offset theta - theta_j
    with theta_1 = t and theta_2 = 2 pi - t (both 0 at t = 0)."""
    theta = np.asarray(theta, dtype=float)
    return _symbol_core(p, theta, [theta - p.t, theta - (TWO_PI - p.t) % TWO_PI])


def _sums(p, n_max, j_values, refine):
    """The table builder's fine and coarse sums at one refine: both branches
    of its half-circle arcs, on its rule for the top frequency n_max + deg V."""
    return _table_sums(p, list(weighted_rules(p, _top_freq(p, n_max), refine)), j_values)


def _circle_sums(p, n_max, j_values, refine):
    """Fine sums of f e^{-ij theta}/(2 pi) on the full circle [0, 2 pi], split
    at t and 2 pi - t: a reference geometry independent of the table's, at 8
    bulk nodes per period of mode n_max at refine 0 (twice the tables' density).

    Each offset is formed without cancellation: from the arc end its
    singularity sits at, else from the nearer copy of the singularity
    (theta + t, or dist_a + 2t and -(dist_b + 2t) across the long arc).
    """
    t, max_freq = p.t, n_max * 8.0 / quadrature._NODES_PER_OSC
    if t == 0.0:
        rule = arc_rule(0.0, TWO_PI, max_freq=max_freq, refine=refine)
        d = np.where(rule.dist_a <= rule.dist_b, rule.dist_a, -rule.dist_b)
        arcs = [(rule, (d, d))]
    else:
        first, long, last = (
            arc_rule(a, b, max_freq=max_freq, refine=refine)
            for a, b in ((0.0, t), (t, TWO_PI - t), (TWO_PI - t, TWO_PI))
        )
        near_a = long.dist_a <= long.dist_b
        arcs = [
            (first, (-first.dist_b, first.x + t)),
            (long, (np.where(near_a, long.dist_a, -(long.dist_b + 2.0 * t)),
                    np.where(near_a, long.dist_a + 2.0 * t, -long.dist_b))),
            (last, (-(last.dist_b + t), last.dist_a)),
        ]
    rows = [(rule, (rule.w * _symbol_core(p, rule.x, d) / TWO_PI)[None]) for rule, d in arcs]
    return _fourier_sums(rows, j_values)[0][0]


def test_tanh_sinh_endpoint_singularity():
    # int_0^1 x^lam (1 - x)^mu dx = B(1 + lam, 1 + mu) from the refine-0 rule
    # with the stable endpoint distances, singular at either end or both, on
    # the base step and on the step of the Dyson tables' top frequency
    for lam, mu in itertools.product((-0.4, 0.0, 0.5, 1.0), repeat=2):
        for max_freq in (0.0, 254.0):
            rule = arc_rule(0.0, 1.0, max_freq=max_freq)
            total = np.sum(rule.w * rule.dist_a**lam * rule.dist_b**mu)
            assert abs(total / beta(1.0 + lam, 1.0 + mu) - 1.0) < 2e-15


def test_tanh_sinh_oscillatory():
    rule = arc_rule(0.0, 2.0 * PI, max_freq=40.0)
    val = np.sum(np.cos(40.0 * rule.x) * rule.x * rule.w)
    exact = 0.0  # int_0^{2pi} x cos(40x) dx = 0
    assert abs(val - exact) < 1e-11


def test_params_validation():
    with pytest.raises(ValidationError):
        FHParams(-0.6, 0.0)
    with pytest.raises(ValidationError):
        FHParams(0.3, 0.3, t=3.5)
    with pytest.raises(ValidationError):
        FHParams(-0.3, -0.3, t=0.0)  # merged integrability


def test_t_snap():
    p = FHParams(0.3, 0.3, t=1e-15)
    assert p.t == 0.0 and p.pair[1].z == 1.0


def test_seminorm():
    p = FHParams(0.1, 0.1, beta1=1.2, beta2=-0.3)
    assert p.seminorm == 1.5


def test_eval_identity_symbol():
    p = FHParams(0.0, 0.0)
    for theta in (0.3, 2.0, 5.9):
        assert abs(_eval(p, theta) - 1.0) < 1e-15


def test_eval_modulus_product():
    # |1-i| * |1+i| = 2 at theta=0 for the half pair at t = pi/2
    p = FHParams(0.5, 0.5, t=PI / 2.0)
    assert abs(_eval(p, 0.0) - 2.0) < 1e-14


def test_jump_ratio():
    p = FHParams(0.0, 0.0, beta1=0.5, t=1.0)
    eps = 1e-9
    ratio = _eval(p, 1.0 + eps) / _eval(p, 1.0 - eps)
    assert abs(ratio - np.exp(-2j * PI * 0.5)) < 1e-6


def test_wiener_hopf_trivial():
    p = FHParams(0.0, 0.0)
    assert np.exp(p.v0) == 1.0 and np.exp(p.log_b_plus(0.5)) == 1.0 and p.szego_sum == 0


def test_wiener_hopf_split():
    p = FHParams(0.0, 0.0, v_coeffs={1: 1.0})
    z = 0.3 + 0.1j
    assert abs(np.exp(p.log_b_plus(z)) - np.exp(z)) < 1e-15
    assert np.exp(p.log_b_minus(z)) == 1.0 and np.exp(p.v0) == 1.0


def test_szego_sum_single_pair():
    p = FHParams(0.0, 0.0, v_coeffs={1: 0.5, -1: 0.5})
    assert abs(p.szego_sum - 0.25) < 1e-15


def test_fourier_identity():
    tab = fourier_coeffs(FHParams(0.0, 0.0), 6)
    assert abs(tab[0] - 1.0) < 1e-14
    assert max(abs(tab[j]) for j in range(1, 7)) < 1e-13


# f at theta = 0.1, 1, 3, 5.9 for alpha = (0.3 + 0.05i, 0.2), beta = (0.1 + 0.2i,
# -0.15i), V = {1: 0.2 + 0.1i, -1: 0.15 - 0.05i, 2: -0.1i}
_SYMBOL_GOLDEN = {
    0.0: [
        0.13878006380334504 - 0.09047358827773688j,
        1.2374696519425243 - 0.13374043735849458j,
        1.3479930528711164 - 0.11289578283974169j,
        0.44884919548961805 + 0.06093865662327075j,
    ],
    0.5: [
        0.2591941768407316 + 0.0361555626029468j,
        1.119006731040388 - 0.25471736105010206j,
        1.540515472690868 - 0.21480131871252264j,
        0.2099024794445922 + 0.03512084104904299j,
    ],
}


@pytest.mark.parametrize("t", list(_SYMBOL_GOLDEN))
def test_eval_symbol_golden(t):
    v = {1: 0.2 + 0.1j, -1: 0.15 - 0.05j, 2: -0.1j}
    p = FHParams(0.3 + 0.05j, 0.2, 0.1 + 0.2j, -0.15j, t, v)
    ref = np.array(_SYMBOL_GOLDEN[t])
    got = _eval(p, np.array([0.1, 1.0, 3.0, 5.9]))
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


@pytest.mark.parametrize("t", [0.0, 0.5])
@pytest.mark.parametrize("a", [-0.2, -0.3, -0.34, -0.35, -0.36, -0.37, -0.45])
def test_fourier_table_meets_tol_or_refuses(a, t):
    # |z - e^{it}|^{2a} has f_j = (-1)^j G(1+2a)/(G(1+a-j) G(1+a+j)) e^{-ijt}; the
    # mass the rules drop ~1e-37 from the singular end does not shrink with
    # refine, so the table meets tol or is refused before any sums
    tol = 1e-11
    start = time.perf_counter()
    try:
        tab = fourier_coeffs(FHParams(a, 0.0, t=t), 8, tol=tol)
    except ValidationError:
        assert time.perf_counter() - start < 0.1
        return
    j = np.arange(-8, 9)
    exact = (-1.0) ** j * gamma(1 + 2 * a) * rgamma(1 + a - j) * rgamma(1 + a + j)
    assert np.max(np.abs(tab.coeffs - exact * np.exp(-1j * j * t))) <= tol
    assert tab.quad_error_estimate <= tol


def test_fourier_abs_z_minus_one():
    # f = |z-1| = 2|sin(theta/2)|: f_j = 4/pi (j=0), -4/(pi(4j^2-1)) else
    tab = fourier_coeffs(FHParams(0.25, 0.25), 5)
    assert abs(tab[0] - 4.0 / PI) < 1e-11
    assert abs(tab[1] + 4.0 / (3.0 * PI)) < 1e-11
    assert abs(tab[3] + 4.0 / (35.0 * PI)) < 1e-11


def test_fourier_two_cos():
    # f = 2|cos theta| at t = pi/2
    tab = fourier_coeffs(FHParams(0.5, 0.5, t=PI / 2.0), 4)
    assert abs(tab[0] - 4.0 / PI) < 1e-11
    assert abs(tab[1]) < 1e-11
    assert abs(tab[2] - 4.0 / (3.0 * PI)) < 1e-11
    assert abs(tab[-2] - 4.0 / (3.0 * PI)) < 1e-11


@pytest.mark.parametrize("t", [0.3, 3.0])
def test_jump_side_from_offset(t):
    # with a negative exponent the nodes within rounding of a jump carry
    # weight; taking their side from the angle left estimates of 4.9e-12
    # (t = 0.3) and 2.5e-11 (t = 3.0) at refine 0, and f_0 off by 2.9e-11
    # and 1.3e-10
    p = FHParams(-0.2, -0.15, 0.1j, 0.0, t)
    fine, coarse = _sums(p, 16, np.arange(-16, 17), refine=0)
    assert np.max(np.abs(fine - coarse)) <= 1e-14

    with mp.workdps(20):
        t2 = 2 * mp.pi - t

        def f(th):
            jump = mp.exp(1j * mp.pi * p.beta1 * (1 if th < t else -1))
            power = (2 * abs(mp.sin((th - t) / 2))) ** (2 * p.alpha1.real)
            power *= (2 * abs(mp.sin((th - t2) / 2))) ** (2 * p.alpha2.real)
            return mp.exp(1j * p.beta1 * (th - t)) * jump * power / (2 * mp.pi)

        ref = complex(mp.quad(f, [0, t, t2, 2 * mp.pi]))
    assert abs(fourier_coeffs(p, 16)[0] - ref) <= 1e-13


def test_fourier_nonconvergence_raises():
    with pytest.raises(QuadratureError):
        fourier_coeffs(FHParams(0.3, 0.3, t=0.3), 8, tol=1e-30)


def _direct_sums(p, n_max, j_values, refine):
    """Fine and coarse sums of f e^{-ij theta}/(2 pi) over the table's nodes
    theta = phi and -phi of both branches, one exponential per term."""
    fine = np.zeros(len(j_values), dtype=complex)
    coarse = np.zeros(len(j_values), dtype=complex)
    for rule, plus, minus in weighted_rules(p, _top_freq(p, n_max), refine):
        for i, j in enumerate(j_values):
            terms = plus * np.exp(-1j * j * rule.x) + minus * np.exp(1j * j * rule.x)
            fine[i] += np.sum(terms)
            coarse[i] += 2.0 * np.sum(terms[rule.coarse])
    return fine, coarse


@pytest.mark.parametrize("t", [0.0, 0.05, 0.7])
@pytest.mark.parametrize("n_max", [0, 1, 2, 15, 16, 17, 255, 1023])
@pytest.mark.parametrize("beta1", [0.4j, 0.1 + 0.2j], ids=["real", "complex"])
def test_fourier_sums_match_direct_sum(beta1, n_max, t):
    p = FHParams(0.3, 0.2, beta1=beta1, beta2=-0.05j, t=t)
    lo = 0 if p.is_real_symbol() else -n_max
    j_values = np.arange(lo, n_max + 1)
    fine, coarse = _sums(p, n_max, j_values, refine=1)
    # all modes of the small tables; of the large ones the first and last 64
    # (the padded outer block is the last) and every 29th in between
    pick = np.unique(np.r_[0:64, -64:0, 64 : len(j_values) - 64 : 29] % len(j_values))
    ref_fine, ref_coarse = _direct_sums(p, n_max, j_values[pick], refine=1)
    assert np.max(np.abs(fine[pick] - ref_fine)) < 1e-13
    assert np.max(np.abs(coarse[pick] - ref_coarse)) < 1e-13


def test_fourier_sums_parity_split():
    # modes far beyond the node density alias differently on the two nested
    # half-rules, so the coarse sums fix which nodes form the coarse half;
    # the arc [t, pi] starts on an odd (non-coarse) node, [0, t] on an even
    # at max_freq 64 (which arc starts on a coarse node depends on max_freq)
    p = FHParams(0.3, 0.2, beta1=0.1 + 0.2j, beta2=-0.05j, t=0.7)
    starts = [bool(rule.coarse[0]) for rule, _, _ in weighted_rules(p, 64.0, 0)]
    assert starts == [True, False]
    j_values = np.arange(-200, 201)
    fine, coarse = _sums(p, 64, j_values, refine=0)
    ref_fine, ref_coarse = _direct_sums(p, 64, j_values, refine=0)
    assert np.max(np.abs(fine - coarse)) > 0.1
    assert np.max(np.abs(fine - ref_fine)) < 1e-13
    assert np.max(np.abs(coarse - ref_coarse)) < 1e-13


# (alpha1, alpha2, beta1, beta2, V) of seven symbol classes: Dyson's pair, a strong merged exponent a = 1.4, complex beta,
# complex alpha, the beta2 - 1 shift, a smooth factor and a negative alpha
_TABLE_CLASSES = {
    "dyson": (0.5, 0.5, 0.0, 0.0, {}),
    "a1.4": (0.7, 0.7, 0.0, 0.0, {}),
    "cbeta": (0.3, 0.2, 0.1 + 0.2j, -0.05j, {}),
    "calpha": (0.3 + 0.1j, 0.2 - 0.05j, 0.0, 0.0, {}),
    "shifted": (0.3, 0.3, 0.0, -1.0, {}),
    "V": (0.3, 0.25, 0.1j, 0.0, {1: 0.3 + 0.1j, -1: 0.3 - 0.1j, 2: 0.1}),
    "negalpha": (-0.2, 0.3, 0.0, 0.0, {}),
}


@pytest.mark.parametrize("n_max", [16, 255])
@pytest.mark.parametrize("t", [0.0, 0.01, 0.3, 1.5, 3.0])
@pytest.mark.parametrize("name", list(_TABLE_CLASSES))
def test_fourier_table_matches_next_refinement(name, t, n_max):
    a1, a2, b1, b2, v = _TABLE_CLASSES[name]
    p = FHParams(a1, a2, b1, b2, t, v)
    tab = fourier_coeffs(p, n_max)
    lo = 0 if p.is_real_symbol() else -n_max
    j_values = np.arange(lo, n_max + 1)
    fine = _circle_sums(p, n_max, j_values, refine=1)
    assert tab.quad_error_estimate <= 1e-13
    assert np.max(np.abs(tab.coeffs[n_max + j_values] - fine)) <= 5e-14
    # the half-circle sums at refine 0, bit for bit, where the table sums
    # them: not at t = 0 with V = 0 (the closed form)
    if t > 0.0 or v:
        fine0, _ = single_thread(_sums)(p, n_max, j_values, refine=0)
        assert np.array_equal(tab.coeffs[n_max + j_values], fine0)


# (alpha, beta, V) of mirror-even classes, f(2 pi - theta) = f(theta) for
# alpha1 = alpha2 = alpha, beta1 = -beta2 = beta and V_k = V_-k
_MIRROR_CLASSES = {
    "dyson": (0.5, 0.0, {}),
    "calpha": (0.3 + 0.1j, 0.0, {}),
    "ibeta": (0.3, 0.2j, {}),
    "rbeta": (0.3, 0.2, {}),
    "cbeta": (0.25, 0.1 + 0.2j, {}),
    "realV": (0.3, 0.0, {1: 0.2, -1: 0.2}),
    "cV": (0.3, 0.1j, {1: 0.2 + 0.1j, -1: 0.2 + 0.1j, 2: 0.1j, -2: 0.1j}),
    "negalpha": (-0.15, 0.0, {}),
}


@pytest.mark.parametrize("n_max", [16, 255])
@pytest.mark.parametrize("t", [0.0, 0.01, 0.3, 1.5, 3.0])
@pytest.mark.parametrize("name", list(_MIRROR_CLASSES))
def test_folded_table_matches_full_circle(name, t, n_max):
    alpha, beta, v = _MIRROR_CLASSES[name]
    p = FHParams(alpha, alpha, beta, -beta, t, v)
    assert p.is_mirror_even()
    tab = fourier_coeffs(p, n_max)
    assert (tab.coeffs.dtype == np.float64) == p.is_real_symbol()
    assert tab.quad_error_estimate <= 1e-13
    j_values = np.arange(-n_max, n_max + 1)
    fine = _circle_sums(p, n_max, j_values, refine=1)
    assert np.max(np.abs(tab.coeffs - fine)) <= 5e-14


@pytest.mark.parametrize("t", [0.0, 0.3, 2.0])
def test_folded_estimate_bounds_full_circle_error(t):
    # the table's rule resolves the top frequency 16 + 40, but e^V also holds
    # z^{+-80}, z^{+-120}, ..., which the refine-0 rule's coarse half does
    # not resolve; that puts the nested estimate far above rounding; a tol
    # above it accepts refine 0, and the estimate bounds the table's
    # distance to the full-circle sums at refine 3
    p = FHParams(0.3, 0.3, 0.2j, -0.2j, t, {40: 0.5, -40: 0.5})
    j_values = np.arange(-16, 17)
    fine, coarse = _sums(p, 16, j_values, refine=0)
    assert np.max(np.abs(fine - coarse)) > 1e-3
    ref = _circle_sums(p, 16, j_values, refine=3)
    tab = fourier_coeffs(p, 16, tol=1.0)
    assert np.max(np.abs(tab.coeffs - ref)) <= tab.quad_error_estimate


def _merged_exact(a, b, j):
    """f_j of |z - 1|^(2a) g_b at 30 digits:
    (-1)^j Gamma(1+2a) / (Gamma(1+a+b-j) Gamma(1+a-b+j))."""
    with mp.workdps(30):
        a, b = mp.mpc(a), mp.mpc(b)
        g = mp.gamma(1 + 2 * a)
        terms = [(-1) ** int(k) * g * mp.rgamma(1 + a + b - k) * mp.rgamma(1 + a - b + k) for k in j]
        return np.array([complex(x) for x in terms])


# (alpha1, alpha2, beta1, beta2) at t = 0: complex a and b, Re a = -0.45 (whose
# quadrature table drops mass above tol), and b - a = 1, where f = -z and f_0 = 0
_MERGED_SETS = {
    "complex": (0.3 + 0.1j, 0.15 - 0.05j, 0.1 + 0.2j, -0.3j),
    "a-0.45": (-0.2, -0.25, 0.0, 0.0),
    "a-0.45-cbeta": (-0.2, -0.25, 0.2 - 0.1j, 0.1j),
    "pole": (0.0, 0.0, 1.0, 0.0),
}


@pytest.mark.parametrize("n_max", [16, 1024])
@pytest.mark.parametrize("name", list(_MERGED_SETS))
def test_merged_table_meets_its_bound_against_mpmath(name, n_max, monkeypatch):
    def no_rule(*args, **kwargs):
        raise AssertionError("a t = 0, V = 0 table built a quadrature rule")

    monkeypatch.setattr(symbol, "arc_rule", no_rule)
    p = FHParams(*_MERGED_SETS[name], t=0.0)
    tab = fourier_coeffs(p, n_max)
    # every mode of the small table; of the large one both ends and every 37th
    j = np.unique(np.r_[-40:41, -n_max : -n_max + 40, n_max - 40 : n_max + 1, -n_max:n_max:37])
    j = j[np.abs(j) <= n_max]
    ref = _merged_exact(p.alpha1 + p.alpha2, p.beta_sum, j)
    assert np.max(np.abs(tab.coeffs[n_max + j] - ref)) <= tab.quad_error_estimate <= 1e-11
    if name == "pole":
        assert tab.coeffs.tolist() == [0.0] * (n_max + 1) + [-1.0] + [0.0] * (n_max - 1)


def test_merged_table_refuses_a_tol_below_its_bound():
    tab = fourier_coeffs(FHParams(0.5, 0.5), 8)
    assert 0.0 < tab.quad_error_estimate < 1e-13
    with pytest.raises(NumericalError):
        fourier_coeffs(FHParams(0.5, 0.5), 8, tol=tab.quad_error_estimate / 2.0)


@pytest.mark.parametrize(
    "args",
    [(0.3, 0.3, 0.2, 0.2), (0.3, 0.2, 0.1j, -0.1j), (0.3, 0.3, 0.0, 0.0, 0.5, {1: 0.2})],
    ids=["beta-equal", "alpha-unequal", "V-odd"],
)
def test_not_mirror_even(args):
    assert not FHParams(*args).is_mirror_even()


# a real mirror-even symbol (one summed branch), a real one, a complex one,
# t = 0 with V != 0 (one arc) and t = 3 (a short arc [t, pi])
_ARC_SETS = {
    "real-mirror": FHParams(0.5, 0.5, 0.2j, -0.2j, 0.4),
    "real": FHParams(0.3, 0.2, 0.4j, -0.1j, 0.7),
    "complex": FHParams(0.3, 0.2, 0.1 + 0.2j, -0.05j, 0.7),
    "t0-V": FHParams(0.3, 0.25, 0.1j, 0.0, 0.0, {1: 0.3 + 0.1j, -1: 0.3 - 0.1j}),
    "t3": FHParams(0.3, 0.2, 0.1j, 0.0, 3.0),
}


@pytest.mark.parametrize("name", list(_ARC_SETS))
def test_every_table_sums_half_circle_arcs(name, monkeypatch):
    # one rule set for every symbol: arcs of [0, pi] split at t, at most one
    # on each side of t (refines repeat the same arcs)
    p = _ARC_SETS[name]
    arcs = []

    def recording(a, b, **kwargs):
        arcs.append((a, b))
        return arc_rule(a, b, **kwargs)

    monkeypatch.setattr(symbol, "arc_rule", recording)
    fourier_coeffs(p, 64)
    assert arcs and all(0.0 <= a < b <= PI for a, b in arcs)
    assert all(b <= p.t or a >= p.t for a, b in arcs)
    assert len({arc for arc in arcs if arc[1] <= p.t}) <= 1
    assert len({arc for arc in arcs if arc[0] >= p.t}) == 1


def _mp_coeff(p, k):
    """f_k at 30 digits by mp.quad on [0, t, 2 pi - t, 2 pi], the long arc in
    1 + k // 12 pieces."""
    with mp.workdps(30):
        t, two_pi = mp.mpf(p.t), 2 * mp.pi
        pair = [(mp.mpc(s.alpha), mp.mpc(s.beta), th) for s, th in zip(p.pair, (t, two_pi - t))]

        def f(th):
            val = mp.exp(-1j * k * th)
            for alpha, beta, th_j in pair:
                d = th - th_j
                val *= (2 * abs(mp.sin(d / 2))) ** (2 * alpha) * mp.exp(1j * beta * (d - mp.pi * mp.sign(d)))
            return val

        pieces = 1 + k // 12
        edges = [0, *(t + (two_pi - 2 * t) * i / pieces for i in range(pieces + 1)), two_pi]
        return complex(mp.quad(f, edges) / two_pi)


@pytest.mark.parametrize(
    "args", [(-0.2, -0.2, 0.0, 0.0), (-0.2, -0.15, 0.1j, 0.0)], ids=["mirror", "not-mirror"]
)
def test_small_t_table_within_its_estimate_of_mpmath(args):
    # a node's offset to the far singularity e^{-it} formed as x - (2 pi - t)
    # lost a relative ~pi u / t of |z - z_2| near theta = t; at t = 1e-3 that
    # put these tables 3.8e-14 and 1.7e-14 off, against estimates of 1.6e-15
    # and 2.5e-15, uniformly in k
    p = FHParams(*args, t=1e-3)
    assert p.is_real_symbol()
    tab = fourier_coeffs(p, 255, tol=1e-13)
    for k in (0, 7, 200):
        ref = _mp_coeff(p, k)
        assert abs(tab[k] - ref) <= tab.quad_error_estimate
        assert abs(tab[-k] - ref.conjugate()) <= tab.quad_error_estimate  # f real


def _dyson_exact(t, n):
    """f_j, 0 <= j <= n, of f = |z - e^{it}| |z - e^{-it}| = 2 |cos theta - cos t|:
    (4/pi) int_0^t (cos theta - cos t) cos(j theta) d theta less (2/pi) times
    the same integral over [0, pi], which is 0 for j >= 2."""
    t = mp.mpf(t)
    c = mp.cos(t)
    out = [4 / mp.pi * (mp.sin(t) - c * t) + 2 * c,
           4 / mp.pi * ((t + mp.sin(2 * t) / 2) / 2 - c * mp.sin(t)) - 1]
    for j in range(2, n + 1):
        half = (mp.sin((j - 1) * t) / (j - 1) + mp.sin((j + 1) * t) / (j + 1)) / 2
        out.append(4 / mp.pi * (half - c * mp.sin(j * t) / j))
    return np.array([float(v) for v in out])


def _dyson_coeffs(t, n):
    """f_j, 0 <= j <= n, of the Dyson symbol 2 |cos theta - cos t| in floats:
    (2/pi)(s(j+1) + s(j-1) - 2 cos t s(j)) + 2 cos t [j = 0] - [j = 1] with
    s(m) = sin(m t)/m and s(0) = t."""
    m = np.arange(-1, n + 2)
    s = np.full(len(m), t)
    s[m != 0] = np.sin(m[m != 0] * t) / m[m != 0]
    f = 2.0 / PI * (s[2:] + s[:-2] - 2.0 * math.cos(t) * s[1:-1])
    f[0] += 2.0 * math.cos(t)
    f[1] -= 1.0
    return f


_DYSON_T_NODES = experiments._t_nodes(255, PI / 2.0)[0]


def test_dyson_formula_matches_mpmath():
    with mp.workdps(40):
        for t in _DYSON_T_NODES[::8]:
            assert np.max(np.abs(_dyson_coeffs(t, 300) - _dyson_exact(t, 300))) <= 4e-16


@pytest.mark.parametrize("n_max", [254, 1023])
def test_dyson_suite_tables_within_their_estimates_of_the_exact_coefficients(n_max):
    # every t-node table of dyson_check((64, 128, 256)), and at 4 times its size
    for t in _DYSON_T_NODES:
        tab = fourier_coeffs(FHParams(0.5, 0.5, t=float(t)), n_max)
        err = np.max(np.abs(tab.coeffs[n_max:] - _dyson_coeffs(t, n_max)))
        assert err <= tab.quad_error_estimate


def test_dyson_suite_tables_take_at_most_2000_nodes():
    # at the map x = tanh(0.6 sinh tau) the Dyson tables at n_max = 254 hold
    # 1516 to 1760 nodes at refine 0; Takahasi and Mori's pi/2 took 3194 to 3706
    for t in _DYSON_T_NODES:
        tab = fourier_coeffs(FHParams(0.5, 0.5, t=float(t)), 254)
        assert tab.refine == 0
        assert tab.nodes <= 2000


@pytest.mark.parametrize("n_max", [2.7, math.nan, math.inf])
def test_fourier_coeffs_refuses_a_non_integral_n_max(n_max):
    p = FHParams(0.5, 0.5, t=0.3)
    with pytest.raises(ValidationError, match="n_max must be a nonnegative integer"):
        fourier_coeffs(p, n_max)
    for n in (np.int64(3), np.int32(3), 3):
        assert fourier_coeffs(p, n).coeffs.shape == (7,)


@pytest.mark.parametrize("t", [1e-3, 0.3, 2.0])
def test_dyson_table_at_n_max_4095_within_its_estimate(t):
    # the sums' rounding grows with n_max and the nested estimate, itself
    # rounding, does not see it: without its rounding term the estimate fell
    # short of the exact error at t = 1e-3 and 0.3 (3.3e-14 against 4.7e-14)
    n = 4095
    tab = fourier_coeffs(FHParams(0.5, 0.5, t=t), n)
    assert tab.refine == 0
    with mp.workdps(30):
        exact = _dyson_exact(t, n)
    assert np.max(np.abs(tab.coeffs[n:] - exact)) <= tab.quad_error_estimate


@pytest.mark.parametrize("name", ["calpha", "shifted"])
def test_complex_table_at_n_max_4095_within_its_estimate(name):
    # against half-circle sums on four times the nodes (16 per period of the
    # top frequency), on both ends of the modes, where the rounding peaks,
    # and the middle; without its rounding term the estimate fell short
    a1, a2, b1, b2, v = _TABLE_CLASSES[name]
    p = FHParams(a1, a2, b1, b2, 0.3, v)
    n = 4095
    tab = fourier_coeffs(p, n)
    assert tab.refine == 0
    arcs = list(weighted_rules(p, _top_freq(p, n), 2))
    for lo in (-n, -128, n - 255):
        j_values = np.arange(lo, lo + 256)
        ref = _table_sums(p, arcs, j_values)[0]
        assert np.max(np.abs(tab.coeffs[n + j_values] - ref)) <= tab.quad_error_estimate


def test_table_resolves_the_frequency_of_v():
    # e^V carries z^{+-80} into f e^{-ij theta}: the rule resolves the top
    # frequency 16 + 80; one tied to n_max = 16 alone misses tol at every refine
    p = FHParams(0.3, 0.25, 0.1j, 0.0, t=0.3, v_coeffs={80: 0.5, -80: 0.5, 3: 0.2j})
    tab = fourier_coeffs(p, 16)
    assert tab.quad_error_estimate <= 1e-11
    ref = _circle_sums(p, 96, np.arange(-16, 17), refine=3)
    assert np.max(np.abs(tab.coeffs - ref)) <= 5e-14


def _nodes_at_8_per_period(p, n_max, monkeypatch):
    """Nodes of the refine-0 rule at 8 bulk nodes per period of the top frequency."""
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_NODES_PER_OSC", 8.0)
        return sum(len(rule.x) for rule, _, _ in weighted_rules(p, _top_freq(p, n_max), 0))


def test_suite_tables_accept_refine_0_at_4_nodes_per_period(monkeypatch):
    # the Dyson t-node tables (n_max 254) and the complex beta-shift tables of
    # the shifted-ratio suite size (n_max 255) meet tol on the first rule, at
    # about half the nodes of a rule with 8 per period
    dyson = [FHParams(0.5, 0.5, t=float(t)) for t in experiments._t_nodes(255, PI / 2.0)[0]]
    shifted = [
        FHParams(a1, a2, b1 + k, b2 - k, t)
        for a1, a2, b1, b2, t in [
            (0.3, 0.2, 0.1 + 0.2j, -0.05j, 0.3), (0.15, 0.35, -0.2j, 0.25, 1.1)
        ]
        for k in (0, 1, -1)
    ]
    for p, n_max in [(p, 254) for p in dyson] + [(p, 255) for p in shifted]:
        tab = fourier_coeffs(p, n_max)
        assert tab.refine == 0
        assert tab.nodes <= 0.55 * _nodes_at_8_per_period(p, n_max, monkeypatch)


def test_fourier_table_escalates():
    # f = exp(cos 32 theta) = sum_k I_k(1) z^{32k}: the rule tied to the top
    # frequency 16 + 32 cannot resolve the z^{+-32k} terms, k >= 2, on its
    # refine-0 coarse half, so the table escalates
    p = FHParams(0.0, 0.0, t=0.3, v_coeffs={32: 0.5, -32: 0.5})
    n_max, tol = 16, 1e-11
    fine, coarse = _sums(p, n_max, np.arange(0, n_max + 1), refine=0)
    assert np.max(np.abs(fine - coarse)) > tol
    tab = fourier_coeffs(p, n_max, tol=tol)
    assert tab.refine > 0
    assert tab.quad_error_estimate <= tol
    assert abs(tab[0] - i0(1.0)) <= tol
    assert max(abs(tab[j]) for j in range(1, n_max + 1)) <= tol


def test_hermitian_symmetry():
    p = FHParams(0.3, 0.2, beta1=0.4j, beta2=-0.1j, t=0.9)
    assert p.is_real_symbol()
    tab = fourier_coeffs(p, 8)
    worst = max(abs(tab[-j] - np.conj(tab[j])) for j in range(1, 9))
    assert worst <= max(tab.quad_error_estimate, 1e-13)


def test_parseval():
    p = FHParams(0.25, 0.25, t=0.6)
    n_max = 48
    tab = fourier_coeffs(p, n_max)

    # sum |f|^2 w / 2 pi over both branches, with w f / 2 pi from the table's rules
    total = sum(
        np.sum((np.abs(plus) ** 2 + np.abs(minus) ** 2) / rule.w) * 2.0 * PI
        for rule, plus, minus in weighted_rules(p, 4.0, 1)
    )
    series = sum(abs(tab[j]) ** 2 for j in range(-n_max, n_max + 1))
    # coefficients decay ~ 1/j^2, so the tail is O(1/n_max^3)
    assert abs(total - series) < 5.0 / n_max**3


def test_rotation_consistency():
    phi = PI / 3.0
    v = {1: 0.3 + 0.1j, -2: 0.2j, 2: -0.05}
    p = FHParams(0.0, 0.0, v_coeffs=v)
    vrot = {k: c * np.exp(1j * k * phi) for k, c in v.items()}
    prot = FHParams(0.0, 0.0, v_coeffs=vrot)
    t1 = fourier_coeffs(p, 6)
    t2 = fourier_coeffs(prot, 6)
    for j in range(-6, 7):
        assert abs(t2[j] - t1[j] * np.exp(1j * j * phi)) < 1e-9


def test_json_config_roundtrip():
    cfg = {
        "alpha1": [0.3, 0.0],
        "alpha2": [0.2, 0.1],
        "beta1": [0.0, 0.4],
        "beta2": 0.0,
        "t": 0.7,
        "V": {"1": [0.5, 0.0], "-1": [0.5, 0.0]},
    }
    p = params_from_json_dict(cfg)
    assert p.alpha2 == 0.2 + 0.1j and p.beta1 == 0.4j and p.v[1] == 0.5


def test_json_config_rejects_invalid():
    with pytest.raises(ValidationError):
        params_from_json_dict({"alpha1": [-0.7, 0.0], "alpha2": 0.0, "t": 0.1})
