"""The two-singularity circle symbol and its Fourier coefficients.

The symbol is e^{V(z)} times one factor per singularity of the pair
`FHParams.pair`, z_1 = e^{it} and z_2 = e^{-it} at theta_1 = t and
theta_2 = 2 pi - t (both 0 at t = 0): |z - z_j|^(2 alpha_j) times the
jump g_{z_j,beta_j} and e^{i beta_j (theta - theta_j)}, which together
are (2|sin(d_j/2)|)^(2 alpha_j) e^{i beta_j (d_j - pi sgn d_j)} in the
signed offset d_j of theta to theta_j.  The pair sits at the conjugate
points e^{+-it}, so every Fourier table is one tanh-sinh rule on the
arcs of [0, pi] split at t (`weighted_rules`), read at e^{i phi} and at
e^{-i phi}, the mirror arc [pi, 2 pi].  On [0, pi] the offsets are
exact: phi - t is the distance to the arc end t, and phi + t is formed
directly; the other branch takes (-(phi + t), -(phi - t)).  At t = 0
both singularities sit at the end phi = 0.  The node density is tied
to the integrand's top frequency, the largest requested mode number plus
the largest |k| of V.  The first rule tried has 4 bulk nodes per period
of that frequency (refine 0), 2 on its nested every-other-node half; its
nested estimate, the change when that half is dropped, decides whether
to escalate to refine 1 to 4.  The mass the nodes drop beyond their ends
(~1e-37 away) does not shrink with refine; it is bounded up front and
added to the estimate, as is the sums' rounding, which grows with the
top frequency and which the nested comparison does not see.  The phase
e^{-ij phi} of the M requested modes is factored into a coarse step
e^{-i(j0 + B q) phi} and a fine offset
e^{-i m phi}, B = ceil(sqrt(M)), both filled by repeated multiplication
and shared by the two branches, so a table costs one exponential and
O(sqrt(M)) multiplications per node and branch plus one matrix product
per nested half-rule.  A real mirror-even f is the same on both branches
and sums one of them, f_j = 2 Re S_j.  At t = 0 with V = 0 the pair is
one singularity, whose coefficients have a closed form (`_merged_half`)
and need no quadrature.
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
    """One Fisher-Hartwig singularity z on the unit circle with exponents (alpha, beta)."""

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
        """The two singularities: z_1 = e^{it} and z_2 = e^{-it}."""
        c, s = math.cos(self.t), math.sin(self.t)
        return (
            Singularity(complex(c, s), self.alpha1, self.beta1),
            Singularity(complex(c, -s), self.alpha2, self.beta2),
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
    """Symbol values at the angles theta, given each node's signed offset
    d_j to theta_j (any representative mod 2 pi, in stable form).

    Singularity j contributes (2|sin(d_j/2)|)^(2 alpha_j) e^{i beta_j (d_j - pi sgn d_j)}:
    |z - z_j|^(2 alpha_j) times the jump g_{z_j,beta_j} (e^{i pi beta_j}
    before z_j, e^{-i pi beta_j} after) times e^{i beta_j (theta - theta_j)}.
    The side comes from the sign of d_j: a node within rounding of z_j has
    an angle that may round onto the other side, its offset does not.
    """
    log_f = 0.0
    for k, c in p.v_coeffs:
        log_f = log_f + c * np.exp(1j * k * theta)
    for s, d in zip(p.pair, offsets):
        log_f = log_f + 2.0 * s.alpha * np.log(2.0 * np.abs(np.sin(d / 2.0)))
        log_f = log_f + 1j * s.beta * (d - math.pi * np.sign(d))
    return np.exp(log_f)


def _top_freq(p: FHParams, n_max: int) -> float:
    """The top frequency of f e^{-ij theta}, |j| <= n_max: n_max plus the largest |k| of V."""
    return float(n_max + max((abs(k) for k, _ in p.v_coeffs), default=0))


def weighted_rules(p: FHParams, max_freq: float, refine: int):
    """(rule, w f(e^{i phi}) / 2 pi, w f(e^{-i phi}) / 2 pi) on each arc of
    [0, pi] split at t, the tanh-sinh rule resolving modes up to max_freq
    at the given refine; phi - t is dist_a after the arc end t, -dist_b
    before it.  A mirror-even f reuses f(e^{i phi}) for e^{-i phi}."""
    mirror = p.is_mirror_even()
    edges = (0.0, p.t, math.pi) if p.t > 0.0 else (0.0, math.pi)
    for a, b in zip(edges[:-1], edges[1:]):
        rule = arc_rule(a, b, max_freq=max_freq, refine=refine)
        near, far = rule.dist_a if a == p.t else -rule.dist_b, rule.x + p.t
        plus = rule.w * _symbol_core(p, rule.x, (near, far)) / TWO_PI
        minus = plus if mirror else rule.w * _symbol_core(p, -rule.x, (-far, -near)) / TWO_PI
        yield rule, plus, minus


def _dropped_mass(p: FHParams, arcs) -> float:
    """Bound on the mass of |f|/2 pi beyond each arc's outermost nodes, on
    both branches of weighted_rules.

    Near an end where singularities of total exponent lam = 2 sum Re alpha_j
    sit, |f| ~ C delta^lam; with delta0 the outermost node's distance the
    dropped mass is |f(x0)| delta0 / (1 + lam).  It does not shrink with
    refine, so the nested estimate cannot see it.  The end phi = t holds
    alpha1 on the e^{i phi} branch and alpha2 on the other; at t = 0, both.
    """
    at_t = (p.alpha1, p.alpha2) if p.t > 0.0 else (p.alpha1 + p.alpha2,) * 2
    total = 0.0
    for rule, *rows in arcs:
        for wf, alpha in zip(rows, at_t):
            for end, i, dist in ((rule.a, 0, rule.dist_a), (rule.b, -1, rule.dist_b)):
                lam = 2.0 * alpha.real if end == p.t else 0.0
                total += abs(wf[i]) / rule.w[i] * dist[i] / (1.0 + lam)
    return float(total)


@dataclass(frozen=True)
class FourierTable:
    """Fourier coefficients f_j for |j| <= n_max with an accuracy estimate.

    refine is the refine of the accepted tanh-sinh rule and nodes the number
    of its nodes on [0, pi], each read at e^{i phi} and e^{-i phi}; None
    and 0 for the closed form, which sums no rule.
    """

    params: FHParams
    n_max: int
    coeffs: np.ndarray
    quad_error_estimate: float
    refine: int | None = None
    nodes: int = 0

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
    """Fine and coarse (half-rate) quadrature sums of w e^{-ij phi} over the
    (rule, rows) pairs, one sum per weight row w of rows, all rows sharing
    the phase powers.

    The M contiguous modes are written j = j0 + B q + m with 0 <= m < B and
    B = ceil(sqrt(M)), so the phase factors as e^{-i(j0 + B q) phi} times
    e^{-i m phi}.  On each nested half-rule (coarse nodes, the rest) both
    factors are filled by repeated multiplication with e^{-i phi} and
    e^{-i B phi}: a node costs one exponential and O(sqrt(M)) products per
    row, and one matrix product per half returns its sums.  The factors of
    every half are written into one workspace allocated once per call:
    allocated per half, they came from memory glibc had just returned to
    the system, and a Dyson table at n_max = 254 took ~700 page faults.
    """
    arcs = list(arcs)
    n_rows, n_modes = len(arcs[0][1]), len(j_values)
    block = math.isqrt(n_modes - 1) + 1
    n_outer = -(-n_modes // block)
    n_nodes = max(len(rule.x) for rule, _ in arcs) // 2 + 1  # the larger half
    work = np.empty((1 + n_rows, block * n_nodes), dtype=complex)
    fine, coarse = np.zeros((2, n_rows, n_modes), dtype=complex)
    for rule, rows in arcs:
        sums = []
        for half in (rule.coarse, ~rule.coarse):
            x = rule.x[half]
            step = np.exp(-1j * x)
            inner = _powers(np.ones(len(x)), step, block, work[0])
            seed = rows[:, half] * np.exp(-1j * j_values[0] * x)
            outer = _powers(seed, inner[-1] * step, n_outer, work[1:].reshape(-1))
            # entry [q, r, m] belongs to row r, mode j0 + B q + m; the padding beyond M is dropped
            prod = outer.reshape(-1, len(x)) @ inner.T
            sums.append(prod.reshape(n_outer, n_rows, block).transpose(1, 0, 2))
        even, odd = (s.reshape(n_rows, -1)[:, :n_modes] for s in sums)
        fine += even + odd
        coarse += 2.0 * even
    return fine, coarse


def _powers(seed, step, count, work):
    """Rows seed * step**k for k < count, filled by repeated multiplication
    into the front of the flat workspace."""
    rows = work[: count * seed.size].reshape(count, *seed.shape)
    rows[0] = seed
    for k in range(1, count):
        np.multiply(rows[k - 1], step, out=rows[k])
    return rows


def _table_sums(p: FHParams, arcs, j_values: np.ndarray):
    """Fine and coarse sums of f e^{-ij theta}/(2 pi) over the circle from
    the arcs of weighted_rules: S_0 + conj S_1 of the rows w f(e^{i phi})
    and conj(w f(e^{-i phi})), or 2 Re S_0 of the first row alone for a
    real mirror-even f."""
    if p.is_real_symbol() and p.is_mirror_even():
        sums = _fourier_sums(((rule, plus[None]) for rule, plus, _ in arcs), j_values)
        return tuple(2.0 * s[0].real for s in sums)
    rows = ((rule, np.stack([plus, minus.conj()])) for rule, plus, minus in arcs)
    return tuple(s[0] + s[1].conj() for s in _fourier_sums(rows, j_values))


# the closed form's rounding relative to |f_k| in eps = 2^-52: its seed's three
# Gamma values (scipy's complex ones ~21 each, against mpmath), each ratio step
_SEED_EPS, _STEP_EPS, _EPS = 96.0, 8.0, np.finfo(float).eps
# the quadrature sums' rounding in eps (1 + top) sqrt(sum |w f|^2): the phase
# e^{-ij phi} of a node is off by ~|j phi| eps (the rounded node, j phi, the
# repeated products), independently from node to node; over ten symbol
# classes at t in {1e-3, 0.3, 2} and n_max 255 and 1023 (six at 4095) the
# worst table sat 3.5 of these units from sums on 4 to 8 times the nodes,
# where the nested estimate, itself rounding, often fell short; 4 covers it
# with the nested term on top
_ROUND_EPS = 4.0


def _rounding(arcs, top: float) -> float:
    """Bound on the rounding of the sums over weighted_rules' arcs, uniform in
    the modes up to the top frequency; it does not shrink with refine."""
    squares = sum(float(np.vdot(wf, wf).real) for _, *rows in arcs for wf in rows)
    return _ROUND_EPS * _EPS * (1.0 + top) * math.sqrt(squares)


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
    Otherwise they are tanh-sinh sums over the arcs of [0, pi] split at t,
    read at e^{i phi} and e^{-i phi} (`weighted_rules`), and the estimate
    is a nested comparison, uniform in j, plus the mass the rules drop
    beyond their outermost nodes on both branches and the sums' rounding
    (`_rounding`), which the nested comparison does not see.  The rules
    resolve the integrand's top frequency n_max + max |k| of V, with 4 bulk nodes per
    period at refine 0 and twice as many at each refine up to 4:
    ValidationError before any sums when the dropped mass alone exceeds tol
    (an exponent below about -0.34 at tol = 1e-11), QuadratureError when
    refine 4 still misses tol.  A tol that is not finite and positive, or
    an n_max that is not a nonnegative integer, is a ValidationError.
    The coefficients are float for a real mirror-even symbol, else complex.
    """
    check_tol(tol)
    if not (math.isfinite(n_max) and n_max >= 0 and n_max == int(n_max)):
        raise ValidationError(f"n_max must be a nonnegative integer, got {n_max}")
    n_max = int(n_max)
    real, mirror = p.is_real_symbol(), p.is_mirror_even()
    j_values = np.arange(0 if real else -n_max, n_max + 1)
    refine, nodes = None, 0
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
    else:  # refine 0 first (4 nodes per period of the top frequency, 2 on its coarse half)
        top = _top_freq(p, n_max)
        for refine in (0, 1, 2, 3, 4):
            arcs = list(weighted_rules(p, top, refine))
            if refine == 0:
                dropped = _dropped_mass(p, arcs)
                if dropped > tol:
                    raise ValidationError(
                        f"Fourier table drops mass {dropped:.2e} beyond its endpoint nodes, "
                        f"above tol {tol:.2e}: an exponent too close to -1/2"
                    )
            fine, coarse = _table_sums(p, arcs, j_values)
            err = float(np.max(np.abs(fine - coarse))) + dropped + _rounding(arcs, top)
            if err <= tol:
                break
        else:
            raise QuadratureError(
                f"Fourier table error estimate {err:.2e} exceeds tol {tol:.2e} at refine 4"
            )
        nodes = sum(len(rule.x) for rule, _, _ in arcs)
    coeffs = np.zeros(2 * n_max + 1, dtype=float if real and mirror else complex)
    coeffs[n_max + j_values] = fine
    if real:
        coeffs[:n_max] = np.conj(coeffs[:n_max:-1])
    return FourierTable(p, n_max, coeffs, err, refine, nodes)


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
