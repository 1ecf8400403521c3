"""Sample sufficient statistics.

Every estimator here is "natural": it assigns one probability per count
class. The statistics that matter are therefore the per-symbol counts, the
prevalence of each count value (how many symbols were seen exactly t times),
and, when the true distribution is known, the true probability mass sitting
in each count class. So a sample enters the library only as its count
vector, and profile_from_counts is the one way to profile it.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .distributions import check_size, whole_number
from .errors import InvalidParameterError


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


def profile_from_counts(counts) -> SampleProfile:
    """Build a profile from a per-symbol count vector of whole numbers, whatever
    its dtype; their sum may not exceed distributions.MAX_SAMPLE_SIZE."""
    counts = np.asarray(counts)
    kind = counts.dtype.kind
    if kind == "O" and counts.ndim == 1:  # numpy keeps entries beyond int64 as objects
        with suppress(InvalidParameterError):
            for count in counts:
                whole_number(count, "count")
            kind = "i"
    if counts.ndim != 1 or counts.size < 1 or kind not in "iu":
        raise InvalidParameterError("counts must be a nonempty 1-d vector of whole numbers")
    if counts.min() < 0:
        raise InvalidParameterError("counts must be nonnegative")
    # the largest count goes first, so that the int64 sum cannot wrap
    check_size(int(counts.max()), "n")
    n = check_size(int(counts.sum()), "n")
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
