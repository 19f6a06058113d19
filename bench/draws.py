"""Workload inputs drawn from the benchmark seed (numpy only).

Both the child process that drives fhmerge and the parent that checks its
outputs call these functions, so the checks never take the inputs from the
program under test.  Parameters are plain tuples
(alpha1, alpha2, beta1, beta2, t).
"""

import numpy as np

SIGMA_SETS = 24
MIN_ALPHA_SUM = 0.35
SIGMA_X_MAX = 42.0
IDENTITY_T = 40.0
# n x nt grid of the predictor calls; x = 2nt stays below SIGMA_X_MAX
PREDICT_N = (64, 128, 256)
PREDICT_NT = (0.2, 1.0, 5.0, 20.0)
# alpha1 = alpha2 at t = 0.1, integrated to x = 80 (the moment-scan need);
# independent of the seed so every round fails them the same way
STRONG_ALPHAS = (0.65, 0.7)
STRONG_X_MAX = 80.0
DEGENERATE = (0.5, 0.5, 0.5, 0.5, 0.3)
DEGENERATE_N = 64

DYSON_N = (64, 128, 256)
DYSON_T0_N = 256  # D_n = n + 1 for the Dyson symbol at t = 0

SUITE_PARAMS = (0.3, 0.3, 0.0, 0.0, 0.3)
REGIME_N = (64, 128)
REGIME_NT = (0.2, 1.0, 5.0, 20.0)
BETAONE_N = (64, 128, 256)
BETAONE_NT = (0.5, 2.0, 5.0, 10.0, 30.0)
SHIFT_N = 256


def sigma_family_sets(seed):
    """Pole-free parameter sets: real alphas in [0.05, 0.45] kept 0.05 away
    from 2(alpha1 + alpha2) in N, imaginary betas in [-0.3i, 0.3i].  Every
    third set has beta = 0, where the Barnes-G side of the integral identity
    is checked against mpmath and its discrepancy is gated.

    alpha1 + alpha2 >= MIN_ALPHA_SUM leaves out the corner where
    integrate_sigma fails its own 1e-7 quartic-residual gate for some
    betas (alpha1 + alpha2 <= 0.27 with |beta| >= 0.2), which would make the
    failed count depend on the seed."""
    rng = np.random.default_rng([seed, 1])
    sets = []
    while len(sets) < SIGMA_SETS:
        a1, a2 = (float(v) for v in rng.uniform(0.05, 0.45, 2))
        b1, b2 = (float(v) for v in rng.uniform(-0.3, 0.3, 2))
        two_a = 2.0 * (a1 + a2)
        if abs(two_a - round(two_a)) < 0.05 or a1 + a2 < MIN_ALPHA_SUM:
            continue
        if len(sets) % 3 == 0:
            b1 = b2 = 0.0
        sets.append((a1, a2, 1j * b1, 1j * b2, 0.3))
    return sets


def shifted_params(seed):
    """Complex-beta symbol for the beta-shift identity and the t = 0 product:
    alphas in [0.1, 0.4], Re and Im of each beta in [-0.3, 0.3], t in [0.2, 1.2]."""
    rng = np.random.default_rng([seed, 2])
    a1, a2 = (float(v) for v in rng.uniform(0.1, 0.4, 2))
    b1, b2 = (complex(*rng.uniform(-0.3, 0.3, 2)) for _ in range(2))
    t = float(rng.uniform(0.2, 1.2))
    return (a1, a2, b1, b2, t)
