"""Exact finite-n objects: log-determinants, a Heine-integral oracle, and
hat-phi_n(0) chi_n, the orthogonal-polynomial datum of the beta-shift identity.

`log_det` reads ln D_n and every leading minor off one Cholesky factor
(LAPACK's dpotrf) of a float table, and ln|D_n| and arg D_n from numpy's
`slogdet` (pivoted LU) otherwise; `orth_poly` makes one single-column
solve in the table's dtype.  The Heine route re-derives small
determinants by direct multi-dimensional quadrature, independent of the
factorisations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf

from ._blas import single_thread
from .errors import (
    BranchAmbiguityError, SingularMatrixError, ValidationError, check_size, check_tol,
)
from .symbol import TWO_PI, FHParams, FourierTable, fourier_coeffs, weighted_rules

__all__ = ["LogDeterminant", "OrthoPolyData", "log_det", "heine_det", "orth_poly", "det_path"]


@dataclass(frozen=True)
class LogDeterminant:
    """ln D_n split into magnitude and phase; arg is a representative value
    in (-pi, pi] unless produced by det_path, which unwraps it.

    minors holds ln D_k, k = 0, 1, ..., from log_det's Cholesky factor of a
    float table: every k <= n, or the k below the first block that is not
    positive definite, whose order is then len(minors).  None for a
    complex table and for n = 0.
    """

    n: int
    log_abs: float
    arg: float
    minors: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def log(self) -> complex:
        return complex(self.log_abs, self.arg)


@single_thread
def log_det(table: FourierTable, n: int) -> LogDeterminant:
    """ln det of the n x n Toeplitz matrix built from the coefficient table.

    A float table comes from a real mirror-even symbol, f > 0, so T_n is
    positive definite: dpotrf factors T_n = L L^T, and ln D_k =
    2 sum_{j<k} ln L_jj for every k <= n (minors).  A complex table, or a
    float one with a pivot that is not positive (only a hand-made table
    has one), takes ln|D_n| and arg D_n from slogdet.  n = 0 returns the
    empty-product convention ln D_0 = 0.
    """
    if n == 0:
        return LogDeterminant(n=0, log_abs=0.0, arg=0.0)
    m = table.toeplitz(n)
    minors = None
    if m.dtype == np.float64:
        factor, info = dpotrf(m, lower=1)
        reached = n if info == 0 else info - 1  # info > 0: block info is not positive
        minors = np.zeros(reached + 1)
        np.cumsum(2.0 * np.log(np.diagonal(factor)[:reached]), out=minors[1:])
        if info == 0:
            return LogDeterminant(n=n, log_abs=float(minors[-1]), arg=0.0, minors=minors)
    sign, log_abs = np.linalg.slogdet(m)
    if sign == 0.0:
        raise SingularMatrixError(n)
    return LogDeterminant(n=n, log_abs=float(log_abs), arg=float(np.angle(sign)), minors=minors)


@single_thread
def heine_det(p: FHParams, n: int) -> complex:
    """D_n by direct quadrature of the n-fold Heine integral (n <= 3).

    Cost grows as N^n in the N nodes; this exists purely as an oracle for
    log_det.  The nodes are those of weighted_rules at refine -2, step
    pi/(32 c) = 0.16 (63 per arc, N = 252 for t > 0), read at both
    e^{i phi} and e^{-i phi}; the one-dimensional rules are
    doubly-exponentially accurate, so on the oracle battery the sums land
    within ~2e-15 relative of log_det, far below 1e-6.
    """
    if n not in (1, 2, 3):
        raise ValidationError("heine_det supports n in {1, 2, 3} only")
    rules, plus, minus = zip(*weighted_rules(p, 4.0, -2))
    theta = np.concatenate([rule.x for rule in rules] + [-rule.x for rule in rules])
    wf = np.concatenate(plus + minus)
    if n == 1:
        return complex(np.sum(wf))
    # pair factor |e^{i a} - e^{i b}|^2 = 2 - 2 cos(a - b), real
    pair = 2.0 - 2.0 * np.cos(theta[:, None] - theta[None, :])
    if n == 2:
        total = wf @ pair @ wf
        return complex(total / 2.0)
    # m[a,b] = sum_c pair[a,c] wf[c] pair[c,b], as two real products
    m = (pair * wf.real) @ pair + 1j * ((pair * wf.imag) @ pair)
    total = wf @ (pair * m) @ wf
    return complex(total / 6.0)


@dataclass(frozen=True)
class OrthoPolyData:
    """hat_phi0_chi = hat-phi_n(0) chi_n, the datum the beta-shift identity reads."""

    n: int
    hat_phi0_chi: complex


@single_thread
def orth_poly(table: FourierTable, n: int) -> OrthoPolyData:
    """hat-phi_n(0) chi_n = (T^{-1})_{n0} = (-1)^n det T[1:, :-1] / det T of the
    (n+1) x (n+1) Toeplitz matrix T, read from one solve T y = e_0; the
    product carries no square-root branch.  Requires table.n_max >= n."""
    m = table.toeplitz(n + 1)
    try:
        y = np.linalg.solve(m, np.eye(n + 1, 1, dtype=m.dtype))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(n + 1) from exc
    return OrthoPolyData(n=n, hat_phi0_chi=complex(y[-1, 0]))


def det_path(p: FHParams, n: int, t_grid, tol: float = 1e-11):
    """ln D_n(f_t) along an ascending t grid with continuous argument.

    The arg of the first point is taken in (-pi, pi]; subsequent points
    are unwrapped by the nearest-branch rule.  Raises BranchAmbiguityError
    when neighboring arguments are too far apart to unwrap reliably.
    """
    check_tol(tol)
    check_size(n)
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
