"""Double-exponential (tanh-sinh) rules on arcs with endpoint singularities.

One rule, arc_rule, serves every caller: an algebraic endpoint
singularity (x - a)^lam is flattened by the substitution
x = tanh(c sinh tau), so no Jacobi-type weights are needed.  Nodes are
returned together with their distances to both endpoints, computed
without cancellation, so integrands can resolve |x - endpoint| to full
precision arbitrarily close to the ends.  The nodes stop at endpoint
distances ~1e-37; the mass of (x - a)^lam dropped there is
~(1e-37)^(1 + Re lam)/(1 + Re lam), does not shrink with refine, and is
below 1e-11 only for Re lam > -0.68 (symbol.fourier_coeffs bounds it at
each end of a table's arcs).
The step at refine 0 puts 4 bulk nodes in each period of the fastest
oscillation the caller names (max_freq), capped at pi/(128 c), so the
cap binds below max_freq * length = 128; the trapezoid sum of the
transformed integrand resolves e^{i max_freq x} well below that budget.
Takahasi and Mori's c = pi/2 suits a step set by the decay in the tails;
here the bulk oscillation sets it, and c = 0.6 spends fewer of those
steps where the map crowds the nodes into the ends: a rule has
~(2/pi) c asinh(42.9/c) max_freq * length nodes, 0.47 times as many
as at pi/2.  At c = 0.5 some Dyson tables at n_max = 254 no longer meet
tol at refine 0.  Callers choose the refine, each halving the step, and
estimate the error themselves from the nested every-other-node half
that ArcRule.coarse marks.  Smooth integrands on panels take
gauss_legendre_panels' 16-point rule instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ArcRule", "arc_rule", "gauss_legendre_panels"]

# the map's constant c in x = tanh(c sinh tau)
_C = 0.6
# Clustering cutoff: c sinh(_T_MAX) = (pi/2) sinh(4), so endpoint distances
# reach ~exp(-pi*sinh(4)) ~ 1e-37, enough for exponents down to (and slightly
# below) -1/2.
_T_MAX = math.asinh(0.5 * math.pi * math.sinh(4.0) / _C)
# the step whose bulk spacing c h length/2 is length pi/256
_BASE_H = math.pi / (128.0 * _C)
# bulk nodes per period of the fastest oscillation at refine 0 (2 on its
# nested every-other-node half)
_NODES_PER_OSC = 4.0
# the 16- and 8-point Gauss-Legendre rules on [-1, 1], built once at import:
# leggauss solves an eigenproblem, which wakes the BLAS threads on every call
_GL_RULE = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class ArcRule:
    """Tanh-sinh nodes for one arc [a, b].

    x are the nodes, w the weights (including the arc half-length),
    dist_a = x - a and dist_b = b - x held in stable form.  coarse marks
    the every-other-node subset used for the nested error estimate.
    """

    a: float
    b: float
    x: np.ndarray
    w: np.ndarray
    dist_a: np.ndarray
    dist_b: np.ndarray
    coarse: np.ndarray


def _choose_h(length: float, max_freq: float) -> float:
    """Step so the bulk node spacing resolves exp(i*max_freq*x).

    The spacing at the arc center is (length/2) c h; requiring at least
    _NODES_PER_OSC = 4 nodes per period 2*pi/max_freq gives the bound
    below, which binds once max_freq*length > 128 (the base step
    pi/(128 c) holds otherwise).
    """
    h = _BASE_H
    if max_freq > 0.0 and length > 0.0:
        h_osc = 4.0 * math.pi / (_NODES_PER_OSC * max_freq * length * _C)
        h = min(h, h_osc)
    return h


def arc_rule(a: float, b: float, max_freq: float = 0.0, refine: int = 0) -> ArcRule:
    """Build a tanh-sinh rule on [a, b].

    max_freq is the largest |frequency| of an oscillatory factor the rule
    must resolve; refine halves the step that many extra times.
    """
    length = b - a
    if length <= 0.0:
        raise ValueError("empty arc")
    h = _choose_h(length, max_freq) / (2.0**refine)
    kmax = int(math.ceil(_T_MAX / h))
    k = np.arange(-kmax, kmax + 1)
    t = k * h
    u = _C * np.sinh(t)
    # 1 -/+ tanh(u) in cancellation-free form
    one_minus = 2.0 / (1.0 + np.exp(2.0 * u))
    one_plus = 2.0 / (1.0 + np.exp(-2.0 * u))
    half = 0.5 * length
    dist_a = half * one_plus
    dist_b = half * one_minus
    x = a + dist_a
    w = half * h * _C * np.cosh(t) / np.cosh(u) ** 2
    keep = w > 1e-300
    return ArcRule(
        a=a,
        b=b,
        x=x[keep],
        w=w[keep],
        dist_a=dist_a[keep],
        dist_b=dist_b[keep],
        coarse=(k[keep] % 2 == 0),
    )


def gauss_legendre_panels(edges):
    """Gauss-Legendre nodes and weights, 16 points, on each panel
    between consecutive entries of edges, flattened panel by panel."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes, weights = _GL_RULE
    return (mid + half * nodes).ravel(), (half * weights).ravel()
