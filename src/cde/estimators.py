"""The estimators under comparison.

Data-driven: empirical frequencies, the add-beta smoothing family (Laplace,
Krichevsky-Trofimov and Braess-Sauer presets, each a triple of betas), and a
per-count-class switch between Good-Turing and empirical estimates. Oracle
baselines that see the true distribution: the best natural estimator and a
permutation-averaged estimator for tiny alphabets.

All of them are natural: symbols with equal sample counts get equal
probability, so each estimator is one value per count class, aligned with
profile.ts. apply_estimator spreads those values over the k symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .distributions import parse_parameter, validate_distribution
from .errors import CapacityError, InvalidParameterError
from .profile import SampleProfile, class_totals

PERMUTATION_ORACLE_MAX_K = 6


@lru_cache(maxsize=PERMUTATION_ORACLE_MAX_K)
def _relabelings(k: int) -> np.ndarray:
    """Read-only (k!, k) table of the permutations of range(k) in lexicographic order, under the k! cap."""
    if k > PERMUTATION_ORACLE_MAX_K:
        raise CapacityError(f"enumerating k! relabelings of p; k={k} exceeds cap {PERMUTATION_ORACLE_MAX_K}")
    table = np.array(list(permutations(range(k))))
    table.flags.writeable = False
    return table


def _empirical(spec, profile: SampleProfile, p) -> np.ndarray:
    """Relative frequencies t/n; unseen symbols get exactly zero."""
    if profile.n == 0:
        raise InvalidParameterError("empirical estimate undefined for an empty sample")
    return profile.ts / profile.n


def _add_beta(spec, profile: SampleProfile, p) -> np.ndarray:
    """Smoothed counts (t + beta(t)) / N, N normalizing over all k symbols."""
    # spec.beta holds beta(0), beta(1), beta(t >= 2); clipping maps t >= 2 to the last
    betas = np.array(spec.beta).take(profile.ts, mode="clip")
    top = max(spec.beta)
    # sum(phi * beta) <= k * max(beta); where that bound overflows, dividing
    # every term by the largest beta gives the same estimate in range.
    if math.isinf(profile.n + profile.k * top):
        betas = betas / top
        return (profile.ts / top + betas) / (profile.n / top + float((profile.phi * betas).sum()))
    norm = profile.n + float((profile.phi * betas).sum())
    return (profile.ts + betas) / norm


def _competitive_gt(spec, profile: SampleProfile, p) -> np.ndarray:
    """Per-count-class switch between the empirical and Good-Turing estimates.

    A count-t symbol keeps its raw count t when t exceeds the prevalence of
    count t+1 (the Good-Turing correction would be noisier than the count
    itself); otherwise it gets the Good-Turing mass max(phi[t+1], 1) / phi[t]
    * (t+1). Unseen symbols are always on the Good-Turing side. Everything is
    normalized at the end.
    """
    if profile.n == 0:
        raise InvalidParameterError("competitive estimate undefined for an empty sample")
    ts = profile.ts
    phi = profile.phi.astype(np.float64)
    # prevalence of count t+1 for each realized t (0 when that count is absent)
    pos = np.minimum(np.searchsorted(ts, ts + 1), ts.size - 1)
    match = ts[pos] == ts + 1
    nxt = np.where(match, phi[pos], 0.0)
    unnormalized = np.where(ts > nxt, ts, np.maximum(nxt, 1.0) / phi * (ts + 1))
    norm = float((phi * unnormalized).sum())
    return unnormalized / norm


def _best_natural(spec, profile: SampleProfile, p) -> np.ndarray:
    """Oracle natural estimator: each count class shares its true mass equally.

    q_t = S_t / phi[t]. Count classes with zero true mass get zero, which
    never hurts the loss against the same p.
    """
    return class_totals(p, profile) / profile.phi


def _permutation_oracle(spec, profile: SampleProfile, p) -> np.ndarray:
    """Posterior mean over all relabelings of p, given the observed counts.

    Averages p(sigma(y)) over every permutation sigma of the alphabet,
    weighted by the sample's likelihood under the relabeled distribution.
    The likelihoods are compared in log space, so a large n cannot
    underflow them all to 0. Exact k! enumeration, so k is capped.
    """
    relabeled = p[_relabelings(p.size)]
    seen = profile.counts > 0
    with np.errstate(divide="ignore"):  # ln 0 = -inf rules out a relabeling
        log_weight = np.log(relabeled[:, seen]) @ profile.counts[seen]
    if not np.isfinite(log_weight).any():
        raise InvalidParameterError("sample has zero probability under every relabeling of p")
    weight = np.exp(log_weight - log_weight.max())
    numerator = weight @ relabeled
    # Equal-count symbols receive the same terms in a different order, which
    # can differ by an ulp; the class mean gives them one shared value.
    return class_totals(numerator, profile) / profile.phi / weight.sum()


_PER_CLASS = {
    "empirical": _empirical,
    "add-beta": _add_beta,
    "competitive-gt": _competitive_gt,
    "best-natural": _best_natural,
    "permutation-oracle": _permutation_oracle,
}
_ORACLE_KINDS = frozenset({"best-natural", "permutation-oracle"})


@dataclass(frozen=True)
class EstimatorSpec:
    """A named, parameterized estimator selection.

    Calling it with (profile, p) gives one probability per count class,
    aligned with profile.ts; oracle kinds expect p validated and of size k.
    An add-beta spec holds its smoother as beta = (beta(0), beta(1),
    beta(t >= 2)), three finite positive numbers.
    """

    kind: str
    name: str
    beta: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.kind not in _PER_CLASS:
            raise InvalidParameterError(f"unknown estimator kind '{self.kind}'")
        beta = self.beta if isinstance(self.beta, tuple) else ()
        if self.kind == "add-beta" and not (len(beta) == 3 and all(0.0 < b < math.inf for b in beta)):
            raise InvalidParameterError(
                f"add-beta estimator '{self.name}' needs three finite positive betas, got {self.beta!r}"
            )

    @property
    def requires_true_p(self) -> bool:
        return self.kind in _ORACLE_KINDS

    def __call__(self, profile: SampleProfile, p=None) -> np.ndarray:
        if p is None and self.requires_true_p:
            raise InvalidParameterError(f"estimator '{self.name}' needs the true distribution")
        return _PER_CLASS[self.kind](self, profile, p)


_NAMED = {
    "empirical": EstimatorSpec("empirical", "empirical"),
    "laplace": EstimatorSpec("add-beta", "laplace", beta=(1.0, 1.0, 1.0)),
    "kt": EstimatorSpec("add-beta", "kt", beta=(0.5, 0.5, 0.5)),
    "braess-sauer": EstimatorSpec("add-beta", "braess-sauer", beta=(0.5, 1.0, 0.75)),
    "competitive": EstimatorSpec("competitive-gt", "competitive"),
    "best-natural": EstimatorSpec("best-natural", "best-natural"),
    "perm-oracle": EstimatorSpec("permutation-oracle", "perm-oracle"),
}


def parse_estimator(name: str) -> EstimatorSpec:
    """Resolve an estimator name (empirical, laplace, kt, braess-sauer,
    competitive, best-natural, perm-oracle, add-beta:<const>) to its spec."""
    spec = _NAMED.get(name)
    if spec is not None:
        return spec
    if name.startswith("add-beta:"):
        const = parse_parameter("estimator", name, "beta")
        return EstimatorSpec("add-beta", name, beta=(const, const, const))
    raise InvalidParameterError(f"unknown estimator '{name}'")


def resolve_estimator(estimator):
    """The spec of an estimator name, an EstimatorSpec itself, or a custom
    callable (profile, p) -> per-class values wrapped so that each of its
    outputs is checked. Named specs are not checked."""
    if isinstance(estimator, str):
        return parse_estimator(estimator)
    if isinstance(estimator, EstimatorSpec):
        return estimator

    def checked(profile: SampleProfile, p=None) -> np.ndarray:
        q = np.asarray(estimator(profile, p), dtype=np.float64)
        # a NaN entry fails both comparisons, an infinite one the sum
        if q.shape == profile.ts.shape and q.min() >= 0.0:
            if abs(float(profile.phi @ q) - 1.0) <= 1e-9:
                return q
        raise InvalidParameterError(
            "a custom estimator must return one finite nonnegative value per count class"
            " (profile.ts), with sum(phi * q) = 1 within 1e-9"
        )

    return checked


def _expand(profile: SampleProfile, per_class: np.ndarray) -> np.ndarray:
    """Spread per-count-class values back onto the k symbols."""
    table = np.zeros(int(profile.ts[-1]) + 1)
    table[profile.ts] = per_class
    return table[profile.counts]


def apply_estimator(estimator, profile: SampleProfile, p=None) -> np.ndarray:
    """Evaluate an estimator on a profile as a probability vector over the k symbols.

    estimator may be an EstimatorSpec, a name string, or any callable
    (profile, p) -> per-class values aligned with profile.ts. Oracle kinds
    require the true p.
    """
    estimator = resolve_estimator(estimator)
    if isinstance(estimator, EstimatorSpec) and estimator.requires_true_p and p is not None:
        p = validate_distribution(p)
        if p.size != profile.k:
            raise InvalidParameterError(
                f"distribution has {p.size} entries but profile expects {profile.k}"
            )
    return _expand(profile, estimator(profile, p))
