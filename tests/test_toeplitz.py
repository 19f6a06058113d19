import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import loggamma

from fhmerge.errors import SingularMatrixError, ValidationError
from fhmerge.symbol import FHParams, FourierTable, fourier_coeffs
from fhmerge.toeplitz import det_path, heine_det, log_det, orth_poly

PI = math.pi

# the cross-check battery: mixed power/jump exponents and separations
BATTERY = [
    FHParams(0.25, 0.25, t=0.0),
    FHParams(0.5, 0.5, t=PI / 2.0),
    FHParams(-0.2, 0.25, t=0.3),
    FHParams(0.3, 0.3, beta1=0.4j, beta2=0.4j, t=0.3),
    FHParams(0.5, -0.2, beta1=0.4j, beta2=0.0, t=PI / 2.0),
    FHParams(0.3, 0.1, beta1=0.2 + 0.1j, beta2=-0.1j, t=0.0),
]


def test_identity_matrix():
    tab = fourier_coeffs(FHParams(0.0, 0.0), 8)
    ld = log_det(tab, 6)
    assert abs(ld.log_abs) < 1e-13 and abs(ld.arg) < 1e-13


def test_d1_d2_abs_z_minus_one():
    tab = fourier_coeffs(FHParams(0.25, 0.25), 4)
    d1 = log_det(tab, 1)
    d2 = log_det(tab, 2)
    assert abs(np.exp(d1.log) - 4.0 / PI) < 1e-10
    assert abs(np.exp(d2.log) - 128.0 / (9.0 * PI**2)) < 1e-10


def test_beta_shift_scaling():
    # shifting (beta1, beta2) -> (beta1+k, beta2-k) scales D_n by e^{-2iknt}
    p = FHParams(0.3, 0.3, beta1=0.1 + 0.2j, beta2=-0.1j, t=0.7)
    for n in (4, 16, 256):
        for k in (1, -1):
            base = log_det(fourier_coeffs(p, n - 1), n).log
            shifted = log_det(
                fourier_coeffs(p.with_betas(p.beta1 + k, p.beta2 - k), n - 1), n
            ).log
            expect = base - 2j * k * n * p.t
            assert abs(np.exp(shifted) - np.exp(expect)) < 1e-9 * abs(np.exp(base))


@pytest.mark.parametrize(
    "p",
    [
        FHParams(0.25, 0.25),  # Hermitian: 256 modes, a square block
        FHParams(0.15, 0.2, beta1=0.1 + 0.2j, beta2=-0.05j),  # 511 modes, padded
    ],
)
def test_merged_gamma_product_suite_size(p):
    # t = 0, V = 0, a = alpha1 + alpha2, b = beta1 + beta2:
    # D_n = prod_{k<n} Gamma(k+1) Gamma(k+1+2a) / (Gamma(k+1+a+b) Gamma(k+1+a-b))
    n = 256
    a, b = p.alpha1 + p.alpha2, p.beta_sum
    k = np.arange(n) + 1.0
    want = np.sum(
        loggamma(k + 0j) + loggamma(k + 2.0 * a) - loggamma(k + a + b) - loggamma(k + a - b)
    )
    got = log_det(fourier_coeffs(p, n - 1), n).log
    d = got - want
    assert abs(complex(d.real, math.remainder(d.imag, 2.0 * PI))) < 1e-9


@pytest.mark.parametrize("t", [0.0, 0.05, 0.7, 2.0])
def test_degenerate_pair_suite_size(t):
    # alpha_j = beta_j = 1/2 makes f the polynomial (z - z1)(z - z2), so the
    # matrix is triangular with diagonal f_0 = z1 z2 = 1 and D_n = 1
    n = 256
    p = FHParams(0.5, 0.5, beta1=0.5, beta2=0.5, t=t)
    assert abs(log_det(fourier_coeffs(p, n - 1), n).log) < 1e-9


def test_heine_trivial():
    assert abs(heine_det(FHParams(0.0, 0.0), 1) - 1.0) < 1e-12


def test_heine_two_by_two_values():
    # f = |z-1|: D_2 = 128/(9 pi^2); f = 2|cos|: D_2 = f0^2 - |f1|^2 = 16/pi^2
    assert abs(heine_det(FHParams(0.25, 0.25), 2) - 128.0 / (9.0 * PI**2)) < 1e-9
    assert abs(heine_det(FHParams(0.5, 0.5, t=PI / 2.0), 2) - 16.0 / PI**2) < 1e-9


@pytest.mark.parametrize("idx", range(len(BATTERY)))
def test_heine_battery(idx):
    p = BATTERY[idx]
    tab = fourier_coeffs(p, 4)
    for n in (1, 2, 3):
        hd = heine_det(p, n)
        ld = np.exp(log_det(tab, n).log)
        assert abs(hd - ld) <= 1e-6 * max(1.0, abs(ld))


def test_positivity_real_symbols():
    for p in (FHParams(0.25, 0.25), FHParams(0.3, 0.3, beta1=0.2j, beta2=0.2j, t=0.4)):
        tab = fourier_coeffs(p, 24)
        for n in (3, 10, 24):
            assert abs(log_det(tab, n).arg) < 1e-8


def test_szego_baseline():
    p = FHParams(0.0, 0.0, v_coeffs={1: 0.5, -1: 0.5})
    tab = fourier_coeffs(p, 32)
    assert abs(log_det(tab, 32).log_abs - 0.25) < 1e-6


def test_orth_poly_trivial():
    # f == 1: T = I, so hat-phi_n(0) chi_n = (T^{-1})_{n0} = 0
    tab = fourier_coeffs(FHParams(0.0, 0.0), 6)
    op = orth_poly(tab, 4)
    assert op.n == 4 and abs(op.hat_phi0_chi) < 1e-12


def test_orth_poly_chi0():
    # n = 0: hat-phi_0(0) chi_0 = chi_0^2 = 1 / f_0, with f_0 = 4/pi for |z - 1|
    tab = fourier_coeffs(FHParams(0.25, 0.25), 4)
    assert abs(orth_poly(tab, 0).hat_phi0_chi - PI / 4.0) < 1e-10


def test_orth_poly_chi_consistency():
    # the beta-shift identity at small n:
    # z2^(n-1) hat-phi_{n-1}(0) chi_{n-1} D_n(f) = D_{n-1}(f with beta2 - 1)
    p = FHParams(0.3, 0.3, beta1=0.1j, beta2=0.3j, t=0.8)
    tab = fourier_coeffs(p, 8)
    shifted = fourier_coeffs(p.with_betas(p.beta1, p.beta2 - 1.0), 8)
    for n in (2, 4, 7):
        lhs = p.pair[1].z ** (n - 1) * orth_poly(tab, n - 1).hat_phi0_chi
        lhs *= np.exp(log_det(tab, n).log)
        rhs = np.exp(log_det(shifted, n - 1).log)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_orth_poly_orthogonality_residuals():
    # the polynomials orthogonal w.r.t. |z - 1|^2 = 2 - z - 1/z: T is
    # tridiagonal (2, -1), det T = n + 2 and the cofactor of (n, 0) is 1,
    # so hat-phi_n(0) chi_n = 1 / (n + 2)
    tab = fourier_coeffs(FHParams(0.5, 0.5, t=0.0), 255)
    for n in (0, 5, 64, 255):
        assert abs(orth_poly(tab, n).hat_phi0_chi * (n + 2) - 1.0) < 5e-11


def test_orth_poly_recurrence():
    # Desnanot-Jacobi on the (n+1) x (n+1) matrix: D_{n+1} D_{n-1} =
    # D_n^2 - a b D_{n+1}^2, with a = hat_phi0_chi of f and b that of
    # f(1/z), whose Toeplitz matrix is T^T
    p = FHParams(0.3, 0.25, 0.1 + 0.2j, -0.15j, 0.4)
    tab = fourier_coeffs(p, 6)
    flip = FourierTable(p, tab.n_max, tab.coeffs[::-1].copy(), tab.quad_error_estimate)
    d = [np.exp(log_det(tab, k).log) for k in range(7)]
    for n in range(1, 6):
        a, b = orth_poly(tab, n).hat_phi0_chi, orth_poly(flip, n).hat_phi0_chi
        want = d[n] ** 2 - a * b * d[n + 1] ** 2
        assert abs(d[n + 1] * d[n - 1] - want) < 1e-14 * abs(d[n] ** 2)


def test_det_path_positive_symbol():
    p = FHParams(0.25, 0.25)
    path = det_path(p, 4, [0.1, 0.2, 0.3])
    assert all(abs(ld.arg) < 1e-8 for ld in path)


def test_det_path_continuity_and_endpoint():
    p = FHParams(0.3, 0.3, beta1=0.3j, beta2=0.3j)
    grid = np.linspace(0.01, 0.5, 50)
    path = det_path(p, 8, grid)
    args = np.array([ld.arg for ld in path])
    assert np.max(np.abs(np.diff(args))) < PI
    single = log_det(fourier_coeffs(p.with_t(0.5), 7), 8)
    assert abs(math.remainder(path[-1].arg - single.arg, 2.0 * PI)) < 1e-9
    assert abs(path[-1].log_abs - single.log_abs) < 1e-10


def test_det_path_constant_factor():
    # scaling the symbol by c multiplies D_n by c^n
    c = np.exp(1j * PI / 7.0)
    v0 = complex(np.log(c))
    p = FHParams(0.25, 0.25, t=0.4)
    pc = FHParams(0.25, 0.25, t=0.4, v_coeffs={0: v0})
    n = 6
    base = log_det(fourier_coeffs(p, n - 1), n)
    scaled = log_det(fourier_coeffs(pc, n - 1), n)
    assert abs(scaled.log_abs - base.log_abs - n * v0.real) < 1e-9
    assert abs(math.remainder(scaled.arg - base.arg - n * v0.imag, 2.0 * PI)) < 1e-9


def test_log_det_requires_table_size():
    tab = fourier_coeffs(FHParams(0.25, 0.25), 3)
    for call in (log_det, orth_poly):
        for n in (-1, 5):
            with pytest.raises(ValidationError):
                call(tab, n)
    with pytest.raises(ValidationError):
        orth_poly(tab, tab.n_max + 1)
    assert log_det(tab, 0).log == 0.0


def test_singular_matrix_raises_typed_error():
    tab = FourierTable(FHParams(0.0, 0.0), 3, np.zeros(7, dtype=complex), 0.0)
    with pytest.raises(SingularMatrixError):
        log_det(tab, 3)
    with pytest.raises(SingularMatrixError):
        orth_poly(tab, 3)


@pytest.mark.parametrize("n", [63, 255])
@pytest.mark.parametrize(
    "p",
    [FHParams(0.3, 0.25, 0.1 + 0.2j, -0.15j, 0.4), FHParams(0.3, 0.3, 0.0, -1.0, 0.3)],
    ids=["complex", "shifted"],
)
def test_orth_poly_persymmetric_solve_suite_size(p, n):
    # the one column T^{-1} e_0 against an independent solve with T^T = J T J:
    # (T^{-1})_{n0} is the first entry of T^{-T} e_n
    tab = fourier_coeffs(p, n)
    want = scipy.linalg.solve(tab.toeplitz(n + 1).T, np.eye(n + 1)[-1])[0]
    assert abs(orth_poly(tab, n).hat_phi0_chi - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [63, 127, 255])
@pytest.mark.parametrize(
    "p",
    [
        FHParams(0.5, 0.5, t=0.3),
        FHParams(0.3, 0.25, 0.1 + 0.2j, -0.15j, 0.4),
        FHParams(0.4, 0.3, 0.25j, -1.0 - 0.1j, 0.3),
    ],
    ids=["dyson", "complex", "shifted"],
)
def test_orth_poly_cofactor_suite_size(p, n):
    # Cramer's rule: hat-phi_n(0) chi_n = (T^{-1})_{n0} = (-1)^n det T[1:, :-1] / det T
    tab = fourier_coeffs(p, n)
    m = tab.toeplitz(n + 1)
    (sign_minor, log_minor), (sign, log_abs) = np.linalg.slogdet(m[1:, :-1]), np.linalg.slogdet(m)
    want = (-1) ** n * sign_minor / sign * np.exp(log_minor - log_abs)
    assert abs(orth_poly(tab, n).hat_phi0_chi - want) <= 1e-13 * abs(want)


def _as_complex_table(tab):
    """The same table with its coefficients cast to complex."""
    return FourierTable(tab.params, tab.n_max, tab.coeffs.astype(complex), tab.quad_error_estimate)


# real mirror-even symbols, whose tables are float: Dyson's pair, the suite
# symbol, an imaginary beta pair and an even real V
_REAL_TABLES = [
    FHParams(0.5, 0.5, t=0.3),
    FHParams(0.3, 0.3, t=0.0),
    FHParams(0.3, 0.3, 0.2j, -0.2j, 1.5),
    FHParams(0.25, 0.25, t=2.0, v_coeffs={1: 0.2, -1: 0.2}),
]


@pytest.mark.parametrize("n", [1, 16, 64, 255])
@pytest.mark.parametrize("p", _REAL_TABLES, ids=["dyson", "merged", "ibeta", "V"])
def test_real_table_log_det_matches_complex(p, n):
    tab = fourier_coeffs(p, 255)
    assert tab.coeffs.dtype == np.float64 and tab.toeplitz(n).dtype == np.float64
    ld = log_det(tab, n)
    sign, want = np.linalg.slogdet(tab.toeplitz(n).astype(complex))
    assert ld.arg == 0.0 and abs(sign - 1.0) <= 1e-13
    assert abs(ld.log_abs - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("p", _REAL_TABLES, ids=["dyson", "merged", "ibeta", "V"])
def test_cholesky_minors_are_the_leading_determinants(p):
    # one factor of T_255 carries ln D_k of every leading block
    tab = fourier_coeffs(p, 255)
    minors = log_det(tab, 255).minors
    assert minors.shape == (256,) and minors[0] == 0.0
    for k in (1, 2, 16, 64, 200, 255):
        want = np.linalg.slogdet(tab.toeplitz(k).astype(complex))[1]
        assert abs(minors[k] - want) <= 1e-13 * max(1.0, abs(want))
    assert log_det(_as_complex_table(tab), 16).minors is None


def test_indefinite_float_table_falls_back_to_slogdet():
    # f_0 = 1, f_{+-1} = 2: T_2 has D_2 = -3, so the Cholesky factor stops
    # at block 2 and slogdet gives ln 3 with arg pi, as on the complex table
    tab = FourierTable(FHParams(0.0, 0.0), 1, np.array([2.0, 1.0, 2.0]), 0.0)
    ld = log_det(tab, 2)
    want = log_det(_as_complex_table(tab), 2)
    assert abs(ld.log_abs - math.log(3.0)) <= 1e-15 and ld.arg == PI
    assert (ld.log_abs, ld.arg) == (want.log_abs, want.arg)
    assert ld.minors.tolist() == [0.0, 0.0]  # D_0 = D_1 = 1, then block 2 fails


@pytest.mark.parametrize("n", [16, 255])
@pytest.mark.parametrize("p", _REAL_TABLES, ids=["dyson", "merged", "ibeta", "V"])
def test_real_table_orth_poly_matches_complex(p, n):
    tab = fourier_coeffs(p, n)
    got = orth_poly(tab, n).hat_phi0_chi
    want = orth_poly(_as_complex_table(tab), n).hat_phi0_chi
    assert got.imag == 0.0 and abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [256, 768, 1024, 1200, 2048])
def test_dyson_symbol_merged_determinant(n):
    # |z - 1|^2 = 2 - z - 1/z has the tridiagonal matrix (2, -1), D_n = n + 1
    tab = fourier_coeffs(FHParams(0.5, 0.5, t=0.0), n - 1)
    ld = log_det(tab, n)
    assert ld.arg == 0.0
    assert abs(ld.log_abs - math.log(n + 1)) <= 1e-10


@pytest.mark.parametrize("n", [768, 1024, 1200])
def test_dyson_symbol_merged_determinant_to_first_order(n):
    # a table that misses f_0 = 2, f_{+-1} = -1 by rounding delta_j moves
    # ln D_n by tr(T^{-1} Delta) = sum_j delta_j S_j to first order, S_j the
    # j-th diagonal sum of T^{-1}; with (T^{-1})_{ik} = min(i,k)(n+1-max(i,k))/(n+1),
    # S_j = m(m+1)(m+2) / (6(n+1)), m = n - |j|.  What is left is the
    # factorisation's own rounding (the closed-form table has delta = 0)
    tab = fourier_coeffs(FHParams(0.5, 0.5, t=0.0), n - 1)
    j = np.arange(-(n - 1), n)
    delta = tab.coeffs - np.select([j == 0, np.abs(j) == 1], [2.0, -1.0])
    m = n - np.abs(j)
    predicted = math.log(n + 1) + delta @ (m * (m + 1.0) * (m + 2.0) / (6.0 * (n + 1.0)))
    assert abs(log_det(tab, n).log_abs - predicted) <= 5e-11


def test_dense_algebra_runs_on_one_blas_thread(monkeypatch):
    # log_det (slogdet on a complex table, dpotrf on a float one) and
    # orth_poly call LAPACK with every OpenBLAS at one thread and hand the
    # previous counts back, also when the wrapped call raises
    from fhmerge import _blas, toeplitz

    controls = _blas._controls()
    if not controls:
        pytest.skip("no OpenBLAS found in this process")
    before = [get() for get, _ in controls]
    seen = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            seen.append([get() for get, _ in controls])
            return fn(*args, **kwargs)

        return wrapper

    for name in ("slogdet", "solve"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    monkeypatch.setattr(toeplitz, "dpotrf", spy(toeplitz.dpotrf))
    tab = fourier_coeffs(FHParams(0.3, 0.3, beta1=0.2j, t=0.3), 40)
    log_det(tab, 40)
    orth_poly(tab, 30)
    real = fourier_coeffs(FHParams(0.3, 0.3, t=0.3), 40)
    assert real.coeffs.dtype == np.float64
    log_det(real, 40)
    assert seen == [[1] * len(controls)] * 3
    assert [get() for get, _ in controls] == before

    @_blas.single_thread
    def fails():
        raise ValueError

    with pytest.raises(ValueError):
        fails()
    assert [get() for get, _ in controls] == before


def test_blas_counts_restored_after_concurrent_calls():
    # overlapping decorated calls in two threads: the counts come back
    # when the last one returns, not when the first does
    import threading

    from fhmerge import _blas

    controls = _blas._controls()
    if not controls:
        pytest.skip("no OpenBLAS found in this process")
    before = [get() for get, _ in controls]
    inside = threading.Event()
    release = threading.Event()
    seen = []

    @_blas.single_thread
    def hold():
        inside.set()
        release.wait(10.0)

    @_blas.single_thread
    def quick():
        seen.append([get() for get, _ in controls])

    worker = threading.Thread(target=hold)
    worker.start()
    inside.wait(10.0)
    quick()
    seen.append([get() for get, _ in controls])  # hold() still running
    release.set()
    worker.join()
    assert seen == [[1] * len(controls)] * 2
    assert [get() for get, _ in controls] == before
