"""Sample sufficient statistics.

Every estimator here is "natural": it assigns one probability per count
class. The statistics that matter are therefore the per-symbol counts, the
prevalence of each count value (how many symbols were seen exactly t times),
and, when the true distribution is known, the true probability mass sitting
in each count class. So a sample enters the library only as its count
vector, and profile_from_counts is the one way to profile it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import whole_number
from .errors import CapacityError, InvalidParameterError

# Largest sample size or count an entry point accepts: n uniforms, or a
# bincount up to the largest count, are then 80 MB, and more must fail first.
MAX_SAMPLE_SIZE = 10_000_000


@dataclass(frozen=True)
class SampleProfile:
    """Counts plus their sparse prevalences.

    ts holds the realized count values in increasing order (0 included
    exactly when some symbol is unseen); phi[i] is the number of symbols
    whose count equals ts[i], so every stored prevalence is positive.
    """

    k: int
    n: int
    counts: np.ndarray
    ts: np.ndarray
    phi: np.ndarray


def _check_sample_size(n: int) -> int:
    n = whole_number(n, "n")
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    if n > MAX_SAMPLE_SIZE:
        raise CapacityError(f"sample size n={n} exceeds cap {MAX_SAMPLE_SIZE}")
    return n


def profile_from_counts(counts) -> SampleProfile:
    """Build a profile directly from a per-symbol count vector of whole
    numbers; their sum, and so each count, may not exceed MAX_SAMPLE_SIZE."""
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size < 1 or counts.dtype.kind not in "iu":
        raise InvalidParameterError("counts must be a nonempty 1-d vector of whole numbers")
    if counts.min() < 0:
        raise InvalidParameterError("counts must be nonnegative")
    # the largest count goes first, so that the int64 sum cannot wrap
    _check_sample_size(int(counts.max()))
    n = _check_sample_size(int(counts.sum()))
    counts = counts.astype(np.int64, copy=False)
    occurrences = np.bincount(counts)
    ts = np.flatnonzero(occurrences)
    return SampleProfile(
        k=int(counts.size),
        n=n,
        counts=counts,
        ts=ts,
        phi=occurrences[ts],
    )


def class_totals(values, profile: SampleProfile) -> np.ndarray:
    """Per-count-class totals of an arbitrary per-symbol vector, aligned with
    profile.ts; for the true p these are the class masses S_t."""
    values = np.asarray(values, dtype=np.float64)
    if values.size != profile.k:
        raise InvalidParameterError(
            f"vector has {values.size} entries but profile expects {profile.k}"
        )
    return np.bincount(profile.counts, weights=values)[profile.ts]
