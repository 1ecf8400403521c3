import math

import numpy as np
import pytest

from cde import (
    InvalidParameterError,
    RngSeed,
    apply_estimator,
    build_profile,
    class_totals,
    cross_entropy,
    draw_sample,
    entropy,
    kl,
    parse_estimator,
    profile_from_counts,
    uniform,
)
from cde.divergence import natural_kl

from support import make_natural_estimator, random_distribution


def test_kl_identity_is_zero():
    rng = np.random.default_rng(3)
    for k in (1, 2, 5, 40):
        p = random_distribution(rng, k)
        assert kl(p, p) == 0.0


def test_kl_point_mass_against_fair_coin():
    assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)


def test_kl_support_violation_is_infinite():
    assert kl([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_kl_length_mismatch():
    with pytest.raises(InvalidParameterError):
        kl([0.5, 0.5], [1.0])


def test_kl_rejects_negative_q():
    # also where p is 0: a negative entry means q is no estimate at all
    for p, q in (([0.5, 0.5], [0.5, -0.5]), ([0.5, 0.5], [1.5, -0.5]), ([1.0, 0.0], [1.5, -0.5])):
        with pytest.raises(InvalidParameterError):
            kl(p, q)


def test_kl_nonnegative_fuzz():
    rng = np.random.default_rng(404)
    for _ in range(500):
        k = int(rng.integers(1, 30))
        p = random_distribution(rng, k)
        q = random_distribution(rng, k)
        assert kl(p, q) >= 0.0


def test_kl_zero_only_when_equal_on_support():
    rng = np.random.default_rng(405)
    for _ in range(200):
        k = int(rng.integers(2, 20))
        p = random_distribution(rng, k)
        q = random_distribution(rng, k)
        if kl(p, q) <= 1e-12:
            np.testing.assert_allclose(p, q, atol=1e-6)
    # zero entries in p are ignored entirely
    assert kl([0.6, 0.4, 0.0], [0.6, 0.4, 0.0]) == 0.0


def test_entropy_values():
    assert entropy(uniform(4)) == pytest.approx(math.log(4), abs=1e-15)
    assert entropy([1.0, 0.0]) == 0.0
    expected = -(0.5 * math.log(0.5) + 0.3 * math.log(0.3) + 0.2 * math.log(0.2))
    assert entropy([0.5, 0.3, 0.2]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.029653, abs=1e-6)


def test_cross_entropy_decomposes_as_entropy_plus_kl():
    rng = np.random.default_rng(406)
    for _ in range(100):
        k = int(rng.integers(2, 15))
        p = random_distribution(rng, k)
        q = random_distribution(rng, k)
        assert cross_entropy(p, q) == pytest.approx(entropy(p) + kl(p, q), abs=1e-12)


def test_loss_difference_equals_class_mass_divergence():
    # For a natural estimator q with class totals S_hat, the excess of its
    # log-loss over the oracle natural estimator's equals the class-mass KL.
    rng = np.random.default_rng(515)
    for case in range(200):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(1, 13))
        p = random_distribution(rng, k)
        sample = draw_sample(p, n, RngSeed(700, case))
        profile = build_profile(sample)
        q = apply_estimator(make_natural_estimator(case), profile, p)
        q_star = apply_estimator("best-natural", profile, p)
        lhs = cross_entropy(p, q) - cross_entropy(p, q_star)
        rhs = kl(class_totals(p, profile), class_totals(q, profile))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_natural_kl_matches_symbol_kl():
    # The count-class loss that simulate and exact use must equal the plain
    # k-symbol KL of the expanded estimate, for every built-in estimator.
    names = ("empirical", "laplace", "kt", "braess-sauer", "add-beta:2.5",
             "competitive", "best-natural", "perm-oracle")
    rng = np.random.default_rng(516)
    infinite = 0
    for case in range(300):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(1, 15))
        p = random_distribution(rng, k)
        if case % 3 == 0 and k > 1:
            p[rng.permutation(k)[: int(rng.integers(1, k))]] = 0.0
            p /= p.sum()
        profile = profile_from_counts(rng.multinomial(n, p))
        s, h = class_totals(p, profile), entropy(p)
        for name in names:
            expected = kl(p, apply_estimator(name, profile, p))
            got = natural_kl(s, parse_estimator(name)(profile, p), h)
            if math.isinf(expected):
                assert got == math.inf, (case, name)
                infinite += 1
            else:
                assert abs(got - expected) <= 1e-12, (case, name, got, expected)
    assert infinite > 50  # empirical leaves unseen symbols with positive mass
