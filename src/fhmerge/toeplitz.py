"""Exact finite-n objects: log-determinants, a Heine-integral oracle, and
the polynomials orthogonal on the circle with the symbol as weight.

Each Toeplitz job is one LAPACK call: `log_det` takes ln|D_n| and arg D_n
from numpy's `slogdet` (pivoted LU, safe from overflow for n up to ~1024)
and `orth_poly` makes one solve.  Both run in the table's dtype: real
arithmetic on the float table of a real mirror-even symbol, complex
otherwise.  The Heine route re-derives small determinants by direct
multi-dimensional quadrature and is kept deliberately independent of the
LU path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import single_thread
from .errors import BranchAmbiguityError, SingularMatrixError, ValidationError, check_tol
from .symbol import TWO_PI, FHParams, FourierTable, fourier_coeffs, weighted_rules

__all__ = ["LogDeterminant", "OrthoPolyData", "log_det", "heine_det", "orth_poly", "det_path"]


@dataclass(frozen=True)
class LogDeterminant:
    """ln D_n split into magnitude and phase; arg is a representative value
    in (-pi, pi] unless produced by det_path, which unwraps it."""

    n: int
    log_abs: float
    arg: float

    @property
    def log(self) -> complex:
        return complex(self.log_abs, self.arg)


@single_thread
def log_det(table: FourierTable, n: int) -> LogDeterminant:
    """ln det of the n x n Toeplitz matrix built from the coefficient table.

    n = 0 returns the empty-product convention ln D_0 = 0.
    """
    if n == 0:
        return LogDeterminant(n=0, log_abs=0.0, arg=0.0)
    sign, log_abs = np.linalg.slogdet(table.toeplitz(n))
    if sign == 0.0:
        raise SingularMatrixError(n)
    return LogDeterminant(n=n, log_abs=float(log_abs), arg=float(np.angle(sign)))


_HEINE_REFINE = {1: 3, 2: 1, 3: 0}  # tanh-sinh step halvings per n


@single_thread
def heine_det(p: FHParams, n: int) -> complex:
    """D_n by direct quadrature of the n-fold Heine integral (n <= 3).

    Cost grows exponentially with n; this exists purely as an oracle for
    log_det.  The one-dimensional rules are doubly-exponentially accurate,
    so _HEINE_REFINE (coarser for larger n) still lands far below 1e-6.
    """
    if n not in _HEINE_REFINE:
        raise ValidationError("heine_det supports n in {1, 2, 3} only")
    rules, weights = zip(*weighted_rules(p, 4.0, _HEINE_REFINE[n]))
    theta = np.concatenate([rule.x for rule in rules])
    wf = np.concatenate(weights)
    if n == 1:
        return complex(np.sum(wf))
    # pair factor |e^{i a} - e^{i b}|^2 = 2 - 2 cos(a - b)
    pair = 2.0 - 2.0 * np.cos(theta[:, None] - theta[None, :])
    if n == 2:
        total = wf @ pair @ wf
        return complex(total / 2.0)
    m = (pair * wf[None, :]) @ pair  # m[a,b] = sum_c pair[a,c] wf[c] pair[c,b]
    total = wf @ (pair * m) @ wf
    return complex(total / 6.0)


@dataclass(frozen=True)
class OrthoPolyData:
    """Coefficient data of phi_n and hat-phi_n plus the leading coefficient.

    chi is the principal square root of chi^2 = D_n / D_{n+1}; complex
    symbols should consume chi_sq (or products like hat_phi_at_0 * chi,
    exposed branch-free as hat_phi0_chi) instead of chi itself.
    """

    n: int
    phi_coeffs: np.ndarray
    hat_phi_coeffs: np.ndarray
    chi: complex
    chi_sq: complex
    hat_phi_at_0: complex

    @property
    def hat_phi0_chi(self) -> complex:
        """hat_phi_n(0) * chi_n without any square-root branch."""
        return complex(self.hat_phi_at_0 * self.chi)


@single_thread
def orth_poly(table: FourierTable, n: int) -> OrthoPolyData:
    """Polynomials of degree n orthogonal w.r.t. the symbol on the circle.

    Solves the moment systems equivalent to the bordered-determinant
    formulas; requires table.n_max >= n.  A Toeplitz T has T^T = J T J (J
    reverses), so T^{-T} e_n is T^{-1} e_0 reversed: one solve gives both.
    """
    m = table.toeplitz(n + 1)
    rhs = np.zeros((n + 1, 2), dtype=m.dtype)
    rhs[[-1, 0], [0, 1]] = 1.0
    try:
        cols = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(n + 1) from exc
    y, yt = cols[:, 0], cols[::-1, 1]  # T^{-1} e_n and T^{-T} e_n
    chi_sq = complex(y[-1])  # (T^{-1})_{nn} = D_n / D_{n+1}
    if chi_sq == 0.0 or not np.isfinite(chi_sq):
        raise SingularMatrixError(n + 1)
    chi = complex(np.sqrt(chi_sq))
    phi = y / chi  # phi_n coefficients, leading = chi
    hat_phi = yt / chi
    return OrthoPolyData(
        n=n,
        phi_coeffs=phi,
        hat_phi_coeffs=hat_phi,
        chi=chi,
        chi_sq=chi_sq,
        hat_phi_at_0=complex(hat_phi[0]),
    )


def det_path(p: FHParams, n: int, t_grid, tol: float = 1e-11):
    """ln D_n(f_t) along an ascending t grid with continuous argument.

    The arg of the first point is taken in (-pi, pi]; subsequent points
    are unwrapped by the nearest-branch rule.  Raises BranchAmbiguityError
    when neighboring arguments are too far apart to unwrap reliably.
    """
    check_tol(tol)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValidationError("t_grid must be strictly ascending")
    out = []
    prev_arg = None
    for t in t_grid:
        table = fourier_coeffs(p.with_t(float(t)), n - 1, tol=tol)
        ld = log_det(table, n)
        arg = ld.arg
        if prev_arg is not None:
            arg += TWO_PI * round((prev_arg - arg) / TWO_PI)
            if abs(arg - prev_arg) >= 0.9 * math.pi:
                raise BranchAmbiguityError(
                    f"arg jump {arg - prev_arg:+.3f} rad at t = {t:.6g}; refine the grid"
                )
        prev_arg = arg
        out.append(LogDeterminant(n=n, log_abs=ld.log_abs, arg=arg))
    return out
