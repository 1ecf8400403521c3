import itertools
import math

import numpy as np
import pytest

import cde.oracle
from cde import (
    CapacityError,
    InvalidParameterError,
    exact_class_regret,
    exact_expected_kl,
    exact_natural_regret,
    step,
    uniform,
)

from support import (
    expected_kl_add_constant,
    expected_kl_by_sequences,
    make_natural_estimator,
    natural_regret_by_sequences,
    random_distribution,
)


def test_point_mass_competitive_single_draw():
    result = exact_expected_kl([1.0, 0.0], "competitive", 1)
    assert result.expected_kl == pytest.approx(math.log(2), abs=1e-15)
    # only the all-ones sequence is reachable
    assert result.sequences_enumerated == 1
    assert result.mass_covered == pytest.approx(1.0, abs=1e-15)


def test_point_mass_best_natural_is_exact():
    for n in (1, 2, 4):
        assert exact_expected_kl([1.0, 0.0], "best-natural", n).expected_kl == 0.0


def test_fair_coin_laplace_single_draw():
    # both sequences give the estimate (2/3, 1/3) up to relabeling
    result = exact_expected_kl([0.5, 0.5], "laplace", 1)
    assert result.expected_kl == pytest.approx(0.5 * math.log(9 / 8), abs=1e-12)
    assert result.sequences_enumerated == 2


def test_full_support_enumeration_diagnostics():
    rng = np.random.default_rng(12)
    p = random_distribution(rng, 3)
    result = exact_expected_kl(p, "kt", 4)
    assert result.sequences_enumerated == 3**4
    assert result.mass_covered == pytest.approx(1.0, abs=1e-12)


def test_natural_regret_degenerate_cases():
    for n in (1, 2, 3):
        assert exact_natural_regret([1.0, 0.0], n) == 0.0
    assert exact_natural_regret([0.5, 0.5], 1) == pytest.approx(0.0, abs=1e-15)


def test_natural_regret_biased_coin_two_draws():
    # By hand: sequences 11 (w=.49) and 22 (w=.09) leave singleton classes, so
    # the inner sum is H(p); sequences 12 and 21 (w=.42) merge both symbols
    # into the count-1 class, giving ln 2. Regret = E[inner] - H(p).
    h = -(0.7 * math.log(0.7) + 0.3 * math.log(0.3))
    expected = (0.49 + 0.09) * h + 0.42 * math.log(2) - h
    value = exact_natural_regret([0.7, 0.3], 2)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.034559, abs=1e-5)


def test_count_vector_enumeration_matches_raw_sequences():
    rng = np.random.default_rng(31)
    estimators = ["laplace", "kt", "braess-sauer", "competitive", "best-natural", "perm-oracle"]
    for k in (2, 3):
        for n in (1, 2, 3, 4):
            p = random_distribution(rng, k)
            name = estimators[(k + n) % len(estimators)]
            fast = exact_expected_kl(p, name, n).expected_kl
            slow = expected_kl_by_sequences(p, name, n)
            assert fast == pytest.approx(slow, abs=1e-12)


def test_add_constant_closed_form_matches_enumeration():
    # criterion 4c pins the flagship add-beta curves to this closed form
    for k in (2, 4):
        for p in (uniform(k), step(k)):
            for n in range(1, 7):
                for name, beta in (("laplace", 1.0), ("kt", 0.5), ("add-beta:2.5", 2.5)):
                    closed = expected_kl_add_constant(p, beta, n)
                    enumerated = exact_expected_kl(p, name, n).expected_kl
                    assert closed == pytest.approx(enumerated, abs=1e-12), (k, n, name)


def test_raw_sequence_agreement_with_partial_support():
    p = np.array([0.6, 0.4, 0.0])
    fast = exact_expected_kl(p, "laplace", 3)
    slow = expected_kl_by_sequences(p, "laplace", 3)
    assert fast.expected_kl == pytest.approx(slow, abs=1e-12)
    assert fast.sequences_enumerated == 2**3  # only support sequences counted
    assert fast.mass_covered == pytest.approx(1.0, abs=1e-12)


def test_empirical_expected_kl_is_infinite_with_unseen_symbols():
    assert exact_expected_kl([0.5, 0.5], "empirical", 1).expected_kl == math.inf


def test_capacity_cap():
    with pytest.raises(CapacityError):
        exact_expected_kl(uniform(10), "laplace", 50)
    with pytest.raises(CapacityError):
        exact_natural_regret(uniform(10), 50)
    # 2**24 sequences exceed the cap; 2**23 fit (test_capacity_cap_admits_instances_near_it)
    with pytest.raises(CapacityError):
        exact_expected_kl(uniform(2), "laplace", 24)


def test_capacity_cap_bounds_n_for_every_k(monkeypatch):
    def never(k, n):
        raise AssertionError(f"enumerated k={k}, n={n}")

    monkeypatch.setattr(cde.oracle, "_count_vectors", never)
    # k = 1 has a single count vector, yet n must stay bounded
    with pytest.raises(CapacityError):
        exact_expected_kl([1.0], "laplace", 10**8)
    with pytest.raises(CapacityError):
        exact_natural_regret([1.0], 10**8)
    with pytest.raises(CapacityError):
        exact_expected_kl(uniform(10), "laplace", 10**18)
    with pytest.raises(InvalidParameterError):
        exact_expected_kl(uniform(3), "laplace", -1)
    with pytest.raises(InvalidParameterError):
        exact_natural_regret([1.0], -1)


def test_enumeration_cache_keeps_only_the_latest_count_vectors():
    exact_expected_kl(uniform(3), "laplace", 4)
    exact_natural_regret(uniform(4), 2)
    assert cde.oracle._count_vectors.cache_info().currsize == 1


def test_capacity_cap_admits_instances_near_it():
    assert exact_expected_kl([1.0], "laplace", 23).expected_kl == 0.0
    for k, n in ((6, 8), (5, 9), (4, 11), (3, 14)):
        assert exact_expected_kl(uniform(k), "laplace", n).sequences_enumerated == k**n


def test_best_natural_matches_natural_regret_spot():
    rng = np.random.default_rng(32)
    for k in (2, 3, 4):
        for n in (1, 2, 3, 4):
            p = random_distribution(rng, k)
            value = exact_natural_regret(p, n)
            assert value == exact_expected_kl(p, "best-natural", n).expected_kl
            assert value == pytest.approx(natural_regret_by_sequences(p, n), abs=1e-12)


def test_natural_estimators_cannot_beat_natural_regret_spot():
    rng = np.random.default_rng(33)
    for case in range(20):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        p = random_distribution(rng, k)
        floor = exact_natural_regret(p, n)
        rival = exact_expected_kl(p, make_natural_estimator(case), n).expected_kl
        assert rival >= floor - 1e-12


def test_class_regret_point_mass():
    value = exact_class_regret([1.0, 0.0], "competitive", 1)
    assert value == pytest.approx(math.log(2), abs=1e-15)


def test_class_regret_uniform_is_singleton():
    p = uniform(3)
    assert exact_class_regret(p, "kt", 2) == exact_expected_kl(p, "kt", 2).expected_kl


def test_class_regret_equals_plain_for_equivariant_estimators():
    rng = np.random.default_rng(34)
    for case in range(10):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        p = random_distribution(rng, k)
        for name in ("laplace", "competitive", "best-natural", "perm-oracle"):
            klass = exact_class_regret(p, name, n)
            plain = exact_expected_kl(p, name, n).expected_kl
            assert klass == pytest.approx(plain, abs=1e-10)


def test_class_regret_walks_relabelings_for_order_reading_estimators():
    # make_natural_estimator hashes the count vector, so it is natural (equal
    # counts get equal mass) but scores differently on relabelings of p
    p = [0.6, 0.3, 0.1]
    natural = make_natural_estimator(7)
    klass = exact_class_regret(p, natural, 3)
    plain = exact_expected_kl(p, natural, 3).expected_kl
    assert klass == pytest.approx(0.5086, abs=1e-4)
    assert plain == pytest.approx(0.3106, abs=1e-4)
    assert klass > plain + 0.1
    relabeled = [exact_expected_kl(q, natural, 3).expected_kl for q in itertools.permutations(p)]
    assert klass == max(relabeled)


def test_class_regret_alphabet_cap():
    with pytest.raises(CapacityError):
        exact_class_regret(uniform(7), "laplace", 1)


def test_permutation_oracle_minimax_optimal_at_tiny_scale():
    # Worst-case expected KL over each relabeling class: the permutation
    # oracle should not be beaten by any candidate estimator.
    rng = np.random.default_rng(35)
    for k, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)):
        for rep in range(3):
            p = random_distribution(rng, k)
            target = exact_class_regret(p, "perm-oracle", n)
            candidates = ["laplace", "kt", "braess-sauer", "competitive"]
            candidates += [make_natural_estimator(1000 + 10 * rep + i) for i in range(5)]
            for candidate in candidates:
                assert target <= exact_class_regret(p, candidate, n) + 1e-10
