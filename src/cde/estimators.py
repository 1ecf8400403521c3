"""The estimators under comparison.

Data-driven: empirical frequencies, the add-beta smoothing family (Laplace,
Krichevsky-Trofimov, Braess-Sauer presets), and a per-count-class switch
between Good-Turing and empirical estimates. Oracle baselines that see the
true distribution: the best natural estimator and a permutation-averaged
estimator for tiny alphabets.

All of them are natural: symbols with equal sample counts get equal
probability, so each estimator is one value per count class, aligned with
profile.ts. apply_estimator spreads those values over the k symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Optional

import numpy as np

from .distributions import parse_parameter, validate_distribution
from .errors import (
    CapacityError,
    ConfigurationError,
    InvalidParameterError,
    UndefinedEstimateError,
)
from .profile import SampleProfile, class_totals

# caps every k! walk over relabelings of p, here and in oracle.exact_class_regret
PERMUTATION_ORACLE_MAX_K = 6


def laplace_beta(t: int) -> float:
    return 1.0


def kt_beta(t: int) -> float:
    return 0.5


def braess_sauer_beta(t: int) -> float:
    if t == 0:
        return 0.5
    if t == 1:
        return 1.0
    return 0.75


def _empirical(spec, profile: SampleProfile, p) -> np.ndarray:
    """Relative frequencies t/n; unseen symbols get exactly zero."""
    if profile.n == 0:
        raise UndefinedEstimateError("empirical estimate undefined for an empty sample")
    return profile.ts / profile.n


def _add_beta(spec, profile: SampleProfile, p) -> np.ndarray:
    """Smoothed counts (t + beta(t)) / N, N normalizing over all k symbols."""
    betas = [float(spec.beta_fn(t)) for t in profile.ts.tolist()]
    if min(betas) <= 0.0 or float(spec.beta_fn(0)) <= 0.0:
        raise InvalidParameterError("beta(t) must be positive for every count value")
    top = max(betas)
    betas = np.array(betas)
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
        raise UndefinedEstimateError("competitive estimate undefined for an empty sample")
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
    k = p.size
    if k > PERMUTATION_ORACLE_MAX_K:
        raise CapacityError(
            f"permutation oracle enumerates k! relabelings; k={k} exceeds cap {PERMUTATION_ORACLE_MAX_K}"
        )
    relabeled = p[np.array(list(permutations(range(k))))]
    seen = profile.counts > 0
    with np.errstate(divide="ignore"):  # ln 0 = -inf rules out a relabeling
        log_weight = np.log(relabeled[:, seen]) @ profile.counts[seen]
    if not np.isfinite(log_weight).any():
        raise UndefinedEstimateError("sample has zero probability under every relabeling of p")
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
    """

    kind: str
    name: str
    beta_fn: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if self.kind not in _PER_CLASS:
            raise ConfigurationError(f"unknown estimator kind '{self.kind}'")
        if self.kind == "add-beta" and self.beta_fn is None:
            raise ConfigurationError("add-beta estimator needs a beta function")

    @property
    def requires_true_p(self) -> bool:
        return self.kind in _ORACLE_KINDS

    def __call__(self, profile: SampleProfile, p=None) -> np.ndarray:
        return _PER_CLASS[self.kind](self, profile, p)


_NAMED = {
    "empirical": EstimatorSpec("empirical", "empirical"),
    "laplace": EstimatorSpec("add-beta", "laplace", beta_fn=laplace_beta),
    "kt": EstimatorSpec("add-beta", "kt", beta_fn=kt_beta),
    "braess-sauer": EstimatorSpec("add-beta", "braess-sauer", beta_fn=braess_sauer_beta),
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
        return EstimatorSpec("add-beta", name, beta_fn=lambda t, c=const: c)
    raise ConfigurationError(f"unknown estimator '{name}'")


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
    if isinstance(estimator, str):
        estimator = parse_estimator(estimator)
    if isinstance(estimator, EstimatorSpec) and estimator.requires_true_p:
        if p is None:
            raise InvalidParameterError(f"estimator '{estimator.name}' needs the true distribution")
        p = validate_distribution(p)
        if p.size != profile.k:
            raise InvalidParameterError(
                f"distribution has {p.size} entries but profile expects {profile.k}"
            )
    return _expand(profile, estimator(profile, p))
