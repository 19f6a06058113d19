"""The two-singularity circle symbol: evaluation and Fourier coefficients.

The symbol carries power factors |z - z_j|^(2 alpha_j) and jump factors
with exponents beta_j at the conjugate pair z_1 = e^{it}, z_2 = e^{-it},
times a smooth factor e^{V(z)} given by finitely many Laurent
coefficients.  Fourier coefficients are computed by splitting the circle
at the singular angles and applying tanh-sinh quadrature on each arc,
with the node density tied to the largest requested mode number.  The
first rule tried has 8 bulk nodes per period of the top mode (refine 0);
its nested estimate, the change when the every-other-node half is
dropped, decides whether to escalate to refine 1, 2 or 3.  The
phase e^{-ij theta} of the M requested modes is factored into a coarse
step e^{-i(j0 + B q) theta} and a fine offset e^{-i m theta},
B = ceil(sqrt(M)), both filled by repeated multiplication, so a table
costs one exponential and O(sqrt(M)) multiplications per node plus one
matrix product per nested half-rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._blas import single_thread
from .errors import QuadratureError, SingularAngleError, ValidationError
from .quadrature import arc_rule

__all__ = [
    "FHParams",
    "FourierTable",
    "eval_symbol",
    "fourier_coeffs",
    "params_from_json_dict",
]

TWO_PI = 2.0 * math.pi
_T_SNAP = 1e-14


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(float(re), float(im))
    return complex(value)


@dataclass(frozen=True)
class FHParams:
    """Full symbol specification.

    v_coeffs holds the Laurent coefficients V_k of the smooth factor as a
    sorted tuple of (k, V_k) pairs with finite support; use the ``v``
    keyword of ``make`` / the constructor with a dict for convenience.
    """

    alpha1: complex
    alpha2: complex
    beta1: complex = 0.0
    beta2: complex = 0.0
    t: float = 0.0
    v_coeffs: tuple = ()
    t_was_snapped: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha1", complex(self.alpha1))
        object.__setattr__(self, "alpha2", complex(self.alpha2))
        object.__setattr__(self, "beta1", complex(self.beta1))
        object.__setattr__(self, "beta2", complex(self.beta2))
        if isinstance(self.v_coeffs, dict):
            items = self.v_coeffs.items()
        else:
            items = self.v_coeffs
        v = tuple(
            sorted((int(k), complex(c)) for k, c in items if complex(c) != 0.0)
        )
        object.__setattr__(self, "v_coeffs", v)

        t = float(self.t)
        if t < 0.0 or t >= math.pi:
            raise ValidationError(f"t must lie in [0, pi), got {t}")
        if 0.0 < t < _T_SNAP:
            t = 0.0
            object.__setattr__(self, "t_was_snapped", True)
        object.__setattr__(self, "t", t)

        if self.alpha1.real <= -0.5 or self.alpha2.real <= -0.5:
            raise ValidationError("Re alpha_j must exceed -1/2")
        if t == 0.0 and (self.alpha1 + self.alpha2).real <= -0.5:
            raise ValidationError("merged symbol needs Re(alpha1+alpha2) > -1/2")

    @property
    def z1(self) -> complex:
        return complex(math.cos(self.t), math.sin(self.t))

    @property
    def z2(self) -> complex:
        return complex(math.cos(self.t), -math.sin(self.t))

    @property
    def beta_sum(self) -> complex:
        return self.beta1 + self.beta2

    @property
    def seminorm(self) -> float:
        """|Re(beta1 - beta2)|, the quantity steering the asymptotic regime."""
        return abs((self.beta1 - self.beta2).real)

    @property
    def v(self) -> dict:
        return dict(self.v_coeffs)

    def with_betas(self, beta1, beta2) -> "FHParams":
        return FHParams(self.alpha1, self.alpha2, beta1, beta2, self.t, self.v_coeffs)

    def with_t(self, t) -> "FHParams":
        return FHParams(self.alpha1, self.alpha2, self.beta1, self.beta2, t, self.v_coeffs)

    def merged(self) -> "FHParams":
        """The t = 0 symbol the pair collapses to."""
        return FHParams(
            self.alpha1 + self.alpha2, 0.0, self.beta1 + self.beta2, 0.0, 0.0, self.v_coeffs
        )

    def is_real_symbol(self) -> bool:
        """True when f is real-valued on the circle (real alphas, imaginary
        betas, V real on the circle)."""
        if self.alpha1.imag != 0.0 or self.alpha2.imag != 0.0:
            return False
        if self.beta1.real != 0.0 or self.beta2.real != 0.0:
            return False
        v = self.v
        for k, c in v.items():
            if v.get(-k, 0.0) != c.conjugate():
                return False
        return True

    def singular_angles(self):
        if self.t == 0.0:
            return (0.0,)
        return (self.t, TWO_PI - self.t)

    def v_at(self, z: complex) -> complex:
        """V(z) from the Laurent data."""
        return sum(c * z**k for k, c in self.v_coeffs)

    # Wiener-Hopf split e^V = b_+ e^{V_0} b_- over the Laurent coefficients

    @property
    def v0(self) -> complex:
        return self.v.get(0, 0.0 + 0.0j)

    def log_b_plus(self, z: complex) -> complex:
        return sum(c * z**k for k, c in self.v_coeffs if k >= 1)

    def log_b_minus(self, z: complex) -> complex:
        return sum(c * z**k for k, c in self.v_coeffs if k <= -1)

    @property
    def szego_sum(self) -> complex:
        """sum_{k>=1} k V_k V_{-k}, the smooth-symbol constant term."""
        v = self.v
        return sum(k * c * v.get(-k, 0.0 + 0.0j) for k, c in v.items() if k >= 1)


def _jump_factors(p: FHParams, d1, d2):
    """g_{z1,beta1} * g_{z2,beta2}: e^{i pi beta_j} before z_j, e^{-i pi beta_j} after.

    The side comes from the sign of the stable offset d_j (d_j < 0 before
    z_j): a node within rounding of z_j has an angle that may round onto
    the other side, its offset does not.  At t = 0 every node counts as
    after the merged singularity.
    """
    before1 = (p.t > 0.0) & (d1 < 0.0)
    before2 = (p.t > 0.0) & (d2 < 0.0)
    g1 = np.where(before1, np.exp(1j * math.pi * p.beta1), np.exp(-1j * math.pi * p.beta1))
    g2 = np.where(before2, np.exp(1j * math.pi * p.beta2), np.exp(-1j * math.pi * p.beta2))
    return g1 * g2


def _symbol_core(p: FHParams, theta, d1, d2):
    """Symbol values given angles and stable angle offsets to z1, z2."""
    theta = np.asarray(theta, dtype=float)
    vals = np.exp(1j * theta * p.beta_sum)
    for k, c in p.v_coeffs:
        vals = vals * np.exp(c * np.exp(1j * k * theta))
    # |z - z_j|^{2 alpha_j} = (2|sin(d_j/2)|)^{2 alpha_j}
    vals = vals * np.exp(2.0 * p.alpha1 * np.log(2.0 * np.abs(np.sin(d1 / 2.0))))
    vals = vals * np.exp(2.0 * p.alpha2 * np.log(2.0 * np.abs(np.sin(d2 / 2.0))))
    vals = vals * _jump_factors(p, d1, d2)
    t1, t2 = (p.t, TWO_PI - p.t) if p.t > 0.0 else (0.0, 0.0)
    vals = vals * np.exp(-1j * (t1 * p.beta1 + t2 * p.beta2))
    return vals


def eval_symbol(p: FHParams, theta):
    """f(e^{i theta}); raises SingularAngleError on the singular angles."""
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    for a in p.singular_angles():
        if np.any(theta_arr == a) or (a == 0.0 and np.any(theta_arr == TWO_PI)):
            raise SingularAngleError(f"symbol is singular at theta = {a}")
    t1, t2 = (p.t, TWO_PI - p.t) if p.t > 0.0 else (0.0, TWO_PI)
    d1 = theta_arr - t1
    d2 = theta_arr - t2
    out = _symbol_core(p, theta_arr, d1, d2)
    return out[0] if np.isscalar(theta) or np.ndim(theta) == 0 else out


def _arcs(p: FHParams):
    """Circle split at the singular angles; each arc lists which endpoint
    coincides with which singularity ('a'/'b' keyed by singularity index)."""
    if p.t == 0.0:
        return [((0.0, TWO_PI), {1: "ab", 2: "ab"})]
    t = p.t
    return [
        ((0.0, t), {1: "b"}),
        ((t, TWO_PI - t), {1: "a", 2: "b"}),
        ((TWO_PI - t, TWO_PI), {2: "a"}),
    ]


def _symbol_on_rule(p: FHParams, rule, roles):
    """Evaluate the symbol at tanh-sinh nodes using stable endpoint offsets."""
    t1, t2 = (p.t, TWO_PI - p.t) if p.t > 0.0 else (0.0, TWO_PI)

    def offset(target, role):
        if role and "a" in role and "b" in role:
            # merged t=0 singularity sits at both ends; use the nearer one
            return np.where(rule.dist_a <= rule.dist_b, rule.dist_a, -rule.dist_b)
        if role == "a":
            return rule.dist_a
        if role == "b":
            return -rule.dist_b
        return rule.x - target

    d1 = offset(t1, roles.get(1))
    d2 = offset(t2, roles.get(2))
    return _symbol_core(p, rule.x, d1, d2)


@dataclass(frozen=True)
class FourierTable:
    """Fourier coefficients f_j for |j| <= n_max with an accuracy estimate."""

    params: FHParams
    n_max: int
    coeffs: np.ndarray
    quad_error_estimate: float

    def __getitem__(self, j: int) -> complex:
        if abs(j) > self.n_max:
            raise IndexError(f"|j| = {abs(j)} exceeds n_max = {self.n_max}")
        return complex(self.coeffs[j + self.n_max])

    def toeplitz(self, n: int) -> np.ndarray:
        """The n x n matrix (f_{j-k}) for 1 <= n <= n_max + 1."""
        if not 1 <= n <= self.n_max + 1:
            raise ValidationError(f"table holds |j| <= {self.n_max}; no {n} x {n} matrix")
        idx = np.arange(n)
        return self.coeffs[(idx[:, None] - idx[None, :]) + self.n_max]


def _fourier_sums(p: FHParams, n_max: int, j_values: np.ndarray, refine: int):
    """Fine and coarse (half-rate) quadrature sums of f e^{-ij theta}/(2 pi).

    The M contiguous modes are written j = j0 + B q + m with 0 <= m < B and
    B = ceil(sqrt(M)), so the phase factors as e^{-i(j0 + B q) theta} times
    e^{-i m theta}.  On each nested half-rule (coarse nodes, the rest) both
    factors are filled by repeated multiplication with e^{-i theta} and
    e^{-i B theta}: a node costs one exponential and O(sqrt(M)) products,
    and one matrix product per half returns its sums.
    """
    n_modes = len(j_values)
    block = math.isqrt(n_modes - 1) + 1
    n_outer = -(-n_modes // block)
    fine, coarse = np.zeros((2, n_modes), dtype=complex)
    for (a, b), roles in _arcs(p):
        rule = arc_rule(a, b, max_freq=float(n_max), refine=refine)
        wf = rule.w * _symbol_on_rule(p, rule, roles) / TWO_PI
        sums = []
        for half in (rule.coarse, ~rule.coarse):
            x = rule.x[half]
            step = np.exp(-1j * x)
            inner = _powers(1.0, step, block)
            outer = _powers(wf[half] * np.exp(-1j * j_values[0] * x), inner[-1] * step, n_outer)
            # entry [q, m] belongs to mode j0 + B q + m; the padding beyond M is dropped
            sums.append((outer @ inner.T).ravel()[:n_modes])
        even, odd = sums
        fine += even + odd
        coarse += 2.0 * even
    return fine, coarse


def _powers(seed, step, count):
    """Rows seed * step**k for k < count, filled by repeated multiplication."""
    rows = np.empty((count, len(step)), dtype=complex)
    rows[0] = seed
    for k in range(1, count):
        np.multiply(rows[k - 1], step, out=rows[k])
    return rows


@single_thread
def fourier_coeffs(p: FHParams, n_max: int, tol: float = 1e-11) -> FourierTable:
    """Fourier coefficients f_j, |j| <= n_max, of the symbol.

    Each call builds its table; the returned quad_error_estimate is a
    nested tanh-sinh comparison, uniform in j.
    """
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    n_max = int(n_max)
    hermitian = p.is_real_symbol()
    j_values = np.arange(0, n_max + 1) if hermitian else np.arange(-n_max, n_max + 1)
    # refine 0 runs first (8 nodes per oscillation of the top mode, 4 on
    # its coarse half); the nested estimate decides whether to escalate
    for refine in (0, 1, 2, 3):
        fine, coarse = _fourier_sums(p, n_max, j_values, refine)
        err = float(np.max(np.abs(fine - coarse)))
        if err <= tol:
            break
    else:
        raise QuadratureError(
            f"Fourier table error estimate {err:.2e} exceeds tol {tol:.2e} at refine 3"
        )
    coeffs = np.zeros(2 * n_max + 1, dtype=complex)
    coeffs[n_max + j_values] = fine
    if hermitian:
        coeffs[:n_max] = np.conj(coeffs[:n_max:-1])
    return FourierTable(params=p, n_max=n_max, coeffs=coeffs, quad_error_estimate=err)


def params_from_json_dict(cfg: dict) -> FHParams:
    """Build FHParams from the JSON symbol-config layout.

    Keys: alpha1, alpha2, beta1, beta2 as [re, im] (or plain numbers),
    t as a real number, V as {"k": [re, im], ...}.
    """
    try:
        v = {int(k): _as_complex(c) for k, c in cfg.get("V", {}).items()}
        exps = {k: _as_complex(cfg.get(k, 0.0)) for k in ("alpha1", "alpha2", "beta1", "beta2")}
        t = float(cfg.get("t", 0.0))
    except (AttributeError, TypeError, KeyError, ValueError) as exc:
        raise ValidationError(f"malformed symbol config: {exc}") from exc
    return FHParams(**exps, t=t, v_coeffs=v)
