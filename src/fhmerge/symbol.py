"""The two-singularity circle symbol and its Fourier coefficients.

The symbol is e^{V(z)} times one factor per singularity of the pair
`FHParams.pair`, z_j = e^{i theta_j} with theta_1 = t and
theta_2 = 2 pi - t (both 0 at t = 0): |z - z_j|^(2 alpha_j) times the
jump g_{z_j,beta_j} and e^{i beta_j (theta - theta_j)}.  Fourier
coefficients are computed by splitting the circle at the singular angles
and applying tanh-sinh quadrature on each arc (`weighted_rules`).  A
node's offset to theta_j is its stable distance to the arc end theta_j
is: dist_a at the start a, -dist_b at the end b, the nearer of the two
where the merged singularity is both ends, x - theta_j otherwise.  The
node density is tied to the largest requested mode number.  The first
rule tried has 8 bulk nodes per period of the top mode (refine 0); its
nested estimate, the change when the every-other-node half is dropped,
decides whether to escalate to refine 1, 2 or 3.  The mass the nodes drop
beyond their ends (~1e-37 away) does not shrink with refine; it is bounded
up front and added to the estimate.  The phase e^{-ij theta} of the M
requested modes is factored into a coarse step e^{-i(j0 + B q) theta} and
a fine offset e^{-i m theta}, B = ceil(sqrt(M)), both filled by repeated
multiplication, so a table costs one exponential and O(sqrt(M))
multiplications per node plus one matrix product per nested half-rule.
At t = 0 with V = 0 the pair is one singularity, whose coefficients have
a closed form (`_merged_half`) and need no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gamma, rgamma

from ._blas import single_thread
from .errors import NumericalError, QuadratureError, ValidationError, check_tol
from .quadrature import arc_rule
from .specfun import is_nonpositive_integer

__all__ = [
    "FHParams",
    "FourierTable",
    "Singularity",
    "fourier_coeffs",
    "params_from_json_dict",
    "weighted_rules",
]

TWO_PI = 2.0 * math.pi
_T_SNAP = 1e-14


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(float(re), float(im))
    return complex(value)


class Singularity(NamedTuple):
    """One Fisher-Hartwig singularity z = e^{i theta} with exponents (alpha, beta)."""

    theta: float
    z: complex
    alpha: complex
    beta: complex


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
        values = [t, self.alpha1, self.alpha2, self.beta1, self.beta2, *(c for _, c in v)]
        if not np.isfinite(values).all():
            raise ValidationError("t, alpha_j, beta_j and V_k must be finite")
        if t < 0.0 or t >= math.pi:
            raise ValidationError(f"t must lie in [0, pi), got {t}")
        if 0.0 < t < _T_SNAP:
            t = 0.0
        object.__setattr__(self, "t", t)

        if self.alpha1.real <= -0.5 or self.alpha2.real <= -0.5:
            raise ValidationError("Re alpha_j must exceed -1/2")
        if t == 0.0 and (self.alpha1 + self.alpha2).real <= -0.5:
            raise ValidationError("merged symbol needs Re(alpha1+alpha2) > -1/2")

    @property
    def pair(self) -> tuple[Singularity, Singularity]:
        """The two singularities: theta_1 = t and theta_2 = 2 pi - t, both 0 at t = 0."""
        c, s = math.cos(self.t), math.sin(self.t)
        theta2 = TWO_PI - self.t if self.t > 0.0 else 0.0
        return (
            Singularity(self.t, complex(c, s), self.alpha1, self.beta1),
            Singularity(theta2, complex(c, -s), self.alpha2, self.beta2),
        )

    @property
    def beta_sum(self) -> complex:
        return self.beta1 + self.beta2

    @property
    def log_coupling(self) -> complex:
        """alpha1 alpha2 - beta1 beta2, the pair's cross term at ln|2 sin t|,
        ln(sin t / t) and ln T."""
        return self.alpha1 * self.alpha2 - self.beta1 * self.beta2

    @property
    def phase_coupling(self) -> complex:
        """alpha1 beta2 - alpha2 beta1, the pair's cross term at the phases
        i (pi - 2t), 2it and i pi."""
        return self.alpha1 * self.beta2 - self.alpha2 * self.beta1

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

    def has_real_fh_factor(self) -> bool:
        """True when f e^{-V} is real on the circle: real alphas, imaginary betas."""
        return all(s.alpha.imag == 0.0 and s.beta.real == 0.0 for s in self.pair)

    def is_mirror_even(self) -> bool:
        """True when f(2 pi - theta) = f(theta): alpha1 = alpha2,
        beta1 = -beta2 and V_k = V_-k."""
        v = self.v
        return (
            self.alpha1 == self.alpha2
            and self.beta1 == -self.beta2
            and all(v.get(-k, 0.0) == c for k, c in v.items())
        )

    def is_real_symbol(self) -> bool:
        """True when f is real-valued on the circle (has_real_fh_factor, and
        V real on the circle)."""
        if not self.has_real_fh_factor():
            return False
        v = self.v
        return all(v.get(-k, 0.0) == c.conjugate() for k, c in v.items())

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


def _symbol_core(p: FHParams, theta, offsets):
    """Symbol values at the angles theta, given each node's stable offset
    d_j to theta_j.

    Singularity j contributes |z - z_j|^(2 alpha_j) = (2|sin(d_j/2)|)^(2 alpha_j),
    the jump g_{z_j,beta_j} = e^{i pi beta_j} before z_j and e^{-i pi beta_j}
    after, and e^{-i theta_j beta_j}.  The side comes from the sign of d_j
    (d_j < 0 before z_j): a node within rounding of z_j has an angle that
    may round onto the other side, its offset does not.  At t = 0 every
    node counts as after the merged singularity.
    """
    vals = np.exp(1j * theta * p.beta_sum)
    for k, c in p.v_coeffs:
        vals = vals * np.exp(c * np.exp(1j * k * theta))
    jumps = 1.0
    for s, d in zip(p.pair, offsets):
        vals = vals * np.exp(2.0 * s.alpha * np.log(2.0 * np.abs(np.sin(d / 2.0))))
        before = (p.t > 0.0) & (d < 0.0)
        g = np.exp(1j * math.pi * s.beta), np.exp(-1j * math.pi * s.beta)
        jumps = jumps * np.where(before, *g)
    vals = vals * jumps
    return vals * np.exp(-1j * sum(s.theta * s.beta for s in p.pair))


def _ends(rule, theta: float):
    """(theta is the arc's start a, theta is its end b), angles mod 2 pi."""
    return theta == rule.a, rule.b in (theta, theta + TWO_PI)


def _offset(rule, theta: float):
    """The nodes' offsets to theta, in stable form at an arc end."""
    at_a, at_b = _ends(rule, theta)
    if at_a and at_b:  # the merged t = 0 singularity: the nearer end
        return np.where(rule.dist_a <= rule.dist_b, rule.dist_a, -rule.dist_b)
    return rule.dist_a if at_a else -rule.dist_b if at_b else rule.x - theta


def _weighted(p: FHParams, rule):
    """(rule, w f / 2 pi) on one rule's nodes."""
    f = _symbol_core(p, rule.x, [_offset(rule, s.theta) for s in p.pair])
    return rule, rule.w * f / TWO_PI


def _rules(p: FHParams, edges, max_freq: float, refine: int):
    """(rule, w f / 2 pi) on each arc between the sorted edges, the tanh-sinh
    rule resolving modes up to max_freq at the given refine."""
    edges = sorted(edges)
    for a, b in zip(edges[:-1], edges[1:]):
        yield _weighted(p, arc_rule(a, b, max_freq=max_freq, refine=refine))


def weighted_rules(p: FHParams, max_freq: float, refine: int):
    """_rules on the circle [0, 2 pi], split at the singular angles."""
    return _rules(p, {0.0, TWO_PI, *(s.theta for s in p.pair)}, max_freq, refine)


def _folded_rules(p: FHParams, max_freq: float, refine: int):
    """_rules on [0, pi], split at t, at twice their weights: the mirror
    theta -> 2 pi - theta maps [0, pi] onto [pi, 2 pi] and a mirror-even f
    onto itself, so they sum w f cos(j theta) over the circle."""
    return ((rule, 2.0 * wf) for rule, wf in _rules(p, {0.0, p.t, math.pi}, max_freq, refine))


def _dropped_mass(p: FHParams, arcs) -> float:
    """Bound on the mass of |f|/2 pi beyond each arc's outermost nodes.

    Near an end where singularities of total exponent lam = 2 sum Re alpha_j
    sit, |f| ~ C delta^lam; with delta0 the outermost node's distance the
    dropped mass is |f(x0)| delta0 / (1 + lam).  It does not shrink with
    refine, so the nested estimate cannot see it.
    """
    total = 0.0
    for rule, wf in arcs:
        for end, i, dist in ((0, 0, rule.dist_a), (1, -1, rule.dist_b)):
            lam = 2.0 * sum(s.alpha.real for s in p.pair if _ends(rule, s.theta)[end])
            total += abs(wf[i]) / rule.w[i] * dist[i] / (1.0 + lam)
    return float(total)


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
        """The n x n matrix (f_{j-k}) for 1 <= n <= n_max + 1, of the
        coefficients' dtype, as a read-only view of the table.

        Row j is f_{j-k}, k = 0..n-1: the window of the reversed
        coefficients that starts at n_max - j.
        """
        if not 1 <= n <= self.n_max + 1:
            raise ValidationError(f"table holds |j| <= {self.n_max}; no {n} x {n} matrix")
        windows = np.lib.stride_tricks.sliding_window_view(self.coeffs[::-1], n)
        return windows[self.n_max :: -1][:n]


def _fourier_sums(arcs, j_values: np.ndarray):
    """Fine and coarse (half-rate) quadrature sums of f e^{-ij theta}/(2 pi)
    over the (rule, w f / 2 pi) pairs of weighted_rules.

    The M contiguous modes are written j = j0 + B q + m with 0 <= m < B and
    B = ceil(sqrt(M)), so the phase factors as e^{-i(j0 + B q) theta} times
    e^{-i m theta}.  On each nested half-rule (coarse nodes, the rest) both
    factors are filled by repeated multiplication with e^{-i theta} and
    e^{-i B theta}: a node costs one exponential and O(sqrt(M)) products,
    and one matrix product per half returns its sums.  The factors of every
    half are written into one workspace allocated once per call: allocated
    per half, they came from memory glibc had just returned to the system,
    and a Dyson table at n_max = 254 took ~700 page faults.
    """
    arcs = list(arcs)
    n_modes = len(j_values)
    block = math.isqrt(n_modes - 1) + 1
    n_outer = -(-n_modes // block)
    n_nodes = max(len(rule.x) for rule, _ in arcs) // 2 + 1  # the larger half
    work = np.empty((2, block * n_nodes), dtype=complex)
    fine, coarse = np.zeros((2, n_modes), dtype=complex)
    for rule, wf in arcs:
        sums = []
        for half in (rule.coarse, ~rule.coarse):
            x = rule.x[half]
            step = np.exp(-1j * x)
            inner = _powers(1.0, step, block, work[0])
            seed = wf[half] * np.exp(-1j * j_values[0] * x)
            outer = _powers(seed, inner[-1] * step, n_outer, work[1])
            # entry [q, m] belongs to mode j0 + B q + m; the padding beyond M is dropped
            sums.append((outer @ inner.T).ravel()[:n_modes])
        even, odd = sums
        fine += even + odd
        coarse += 2.0 * even
    return fine, coarse


def _powers(seed, step, count, work):
    """Rows seed * step**k for k < count, filled by repeated multiplication
    into the front of the flat workspace."""
    rows = work[: count * len(step)].reshape(count, len(step))
    rows[0] = seed
    for k in range(1, count):
        np.multiply(rows[k - 1], step, out=rows[k])
    return rows


# the closed form's rounding relative to |f_k| in eps = 2^-52: its seed's three
# Gamma values (scipy's complex ones ~21 each, against mpmath), each ratio step
_SEED_EPS, _STEP_EPS, _EPS = 96.0, 8.0, np.finfo(float).eps


def _merged_half(a, b, n: int) -> np.ndarray:
    """f_k, 0 <= k <= n, of the merged singularity |z - 1|^(2a) g_b:
    (-1)^k Gamma(1+2a) / (Gamma(1+a+b-k) Gamma(1+a-b+k)) (Boettcher &
    Silbermann), 0 at a pole below, by f_k / f_{k-1} = (k-1-a-b)/(k+a-b)
    from the first k0 >= 0 off the poles of Gamma(1+a-b+k)."""
    c, d = a + b, a - b
    k0 = 1 - int((1 + d).real) if is_nonpositive_integer(1 + d) else 0
    f = np.zeros(n + 1, dtype=np.result_type(c, d))
    if k0 <= n:
        k = np.arange(k0 + 1, n + 1)
        f[k0] = (-1) ** k0 * gamma(1 + 2 * a) * rgamma(1 + c - k0) * rgamma(1 + d + k0)
        f[k0 + 1 :] = f[k0] * np.cumprod((k - 1 - c) / (k + d))
    return f


@single_thread
def fourier_coeffs(p: FHParams, n_max: int, tol: float = 1e-11) -> FourierTable:
    """Fourier coefficients f_j, |j| <= n_max, of the symbol, built per call.

    At t = 0 with V = 0 they are the closed form of `_merged_half`, and
    quad_error_estimate is its rounding bound max_j |f_j| (96 + 8|j|) eps,
    which held against mpmath for n_max <= 1024 (NumericalError above tol).
    Otherwise they are tanh-sinh sums (a mirror-even symbol's over [0, pi],
    `_folded_rules`), and the estimate is a nested comparison, uniform in
    j, plus the mass the rules drop beyond their outermost nodes:
    ValidationError before any sums when that alone exceeds tol (an exponent
    below about -0.34 at tol = 1e-11), QuadratureError when refine 3 still
    misses tol.  A tol that is not finite and positive is a ValidationError.
    The coefficients are float for a real mirror-even symbol, else complex.
    """
    check_tol(tol)
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    n_max = int(n_max)
    real, mirror = p.is_real_symbol(), p.is_mirror_even()
    j_values = np.arange(0 if real else -n_max, n_max + 1)
    if p.t == 0.0 and not p.v_coeffs:
        a, b = p.alpha1 + p.alpha2, p.beta_sum
        if a.imag == b.imag == 0.0:  # real Gamma values, exact at the integers
            a, b = a.real, b.real
        fine = _merged_half(a, b, n_max)
        if not real:  # f_-k(a, b) = f_k(a, -b)
            fine = np.concatenate([_merged_half(a, -b, n_max)[:0:-1], fine])
        err = float(np.max(np.abs(fine) * (_SEED_EPS + _STEP_EPS * np.abs(j_values)))) * _EPS
        if not err <= tol:  # nan too
            raise NumericalError(f"closed-form rounding bound {err:.2e} exceeds tol {tol:.2e}")
    else:  # refine 0 first (8 nodes per period of the top mode, 4 on its coarse half)
        rules = _folded_rules if mirror else weighted_rules
        for refine in (0, 1, 2, 3):
            arcs = list(rules(p, float(n_max), refine))
            if refine == 0:
                dropped = _dropped_mass(p, arcs)
                if dropped > tol:
                    raise ValidationError(
                        f"Fourier table drops mass {dropped:.2e} beyond its endpoint nodes, "
                        f"above tol {tol:.2e}: an exponent too close to -1/2"
                    )
            fine, coarse = _fourier_sums(arcs, j_values)
            if mirror:  # w f cos(j theta): the real part for a real f, else the mean over +-j
                fine, coarse = (s.real if real else (s + s[::-1]) / 2.0 for s in (fine, coarse))
            err = float(np.max(np.abs(fine - coarse))) + dropped
            if err <= tol:
                break
        else:
            raise QuadratureError(
                f"Fourier table error estimate {err:.2e} exceeds tol {tol:.2e} at refine 3"
            )
    coeffs = np.zeros(2 * n_max + 1, dtype=float if real and mirror else complex)
    coeffs[n_max + j_values] = fine
    if real:
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
