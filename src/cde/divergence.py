"""Loss functions: KL divergence, cross entropy, entropy and the count-class loss.

All logarithms are natural, so every value is in nats. Infinite divergences
are returned as float infinity and never clamped; aggregation layers decide
how to report them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError


def kl(p, q) -> float:
    """KL divergence sum(p * ln(p/q)); +inf when q is 0 somewhere p is not,
    InvalidParameterError when q is negative anywhere.

    Rounding can push the raw sum a few ulps below zero when p and q nearly
    coincide; the result is floored at 0 since the true value cannot be
    negative.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise InvalidParameterError(f"length mismatch: {p.shape} vs {q.shape}")
    if (q < 0.0).any():
        raise InvalidParameterError("q must be nonnegative")
    support = p > 0.0
    ps = p[support]
    qs = q[support]
    if np.any(qs == 0.0):
        return math.inf
    return max(float(np.sum(ps * np.log(ps / qs))), 0.0)


def cross_entropy(p, q) -> float:
    """sum(p * ln(1/q)); +inf when q is 0 somewhere p is not."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise InvalidParameterError(f"length mismatch: {p.shape} vs {q.shape}")
    support = p > 0.0
    qs = q[support]
    # array methods skip np.any/np.sum's dispatch, which dominates on the
    # few count classes of the per-sample loss
    if (qs == 0.0).any():
        return math.inf
    return float(-(p[support] * np.log(qs)).sum())


def entropy(p) -> float:
    """Shannon entropy -sum(p * ln(p)), with 0 ln 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    ps = p[p > 0.0]
    return float(-np.sum(ps * np.log(ps)))


def natural_kl(s, q, h: float) -> float:
    """KL(p, q) of a natural estimate, from its count classes alone.

    s holds the true class masses S_t = class_totals(p, profile), q the
    estimate's per-class values and h = entropy(p), so the loss is
    sum_t S_t ln(1/q_t) - H(p): +inf when some q_t is 0 while S_t is not,
    and floored at 0 like kl().
    """
    return max(cross_entropy(s, q) - h, 0.0)

