import pickle

import numpy as np
import pytest

from cde import (
    CapacityError,
    EstimatorSpec,
    InvalidParameterError,
    RngSeed,
    apply_estimator,
    cross_entropy,
    exact_expected_kl,
    kl,
    monte_carlo_regret,
    parse_estimator,
    profile_from_counts,
    uniform,
)

from support import make_natural_estimator, random_distribution, sampled_profile, symbol_profile


def test_empirical_relative_frequencies():
    np.testing.assert_allclose(
        apply_estimator("empirical", symbol_profile([1, 1, 2], 3)), [2 / 3, 1 / 3, 0.0], rtol=1e-15
    )
    np.testing.assert_array_equal(apply_estimator("empirical", symbol_profile([1], 2)), [1.0, 0.0])


def test_empirical_undefined_for_empty_sample():
    with pytest.raises(InvalidParameterError):
        apply_estimator("empirical", symbol_profile([], 3))


def test_add_beta_presets_by_hand():
    profile = symbol_profile([1, 1, 2], 3)
    # Laplace: (t + 1) / (n + k)
    np.testing.assert_allclose(apply_estimator("laplace", profile), [3 / 6, 2 / 6, 1 / 6], rtol=1e-15)
    # Krichevsky-Trofimov: (t + 1/2) / (n + k/2)
    np.testing.assert_allclose(apply_estimator("kt", profile), np.array([2.5, 1.5, 0.5]) / 4.5, rtol=1e-15)
    # Braess-Sauer: beta(0) = 1/2, beta(1) = 1, beta(t>1) = 3/4
    np.testing.assert_allclose(
        apply_estimator("braess-sauer", profile), np.array([2.75, 2.0, 0.5]) / 5.25, rtol=1e-15
    )
    # a custom triple: beta(0) = 2, beta(1) = 1/4, beta(t >= 2) = 3 on counts (2, 1, 0, 5)
    spec = EstimatorSpec("add-beta", "custom", beta=(2.0, 0.25, 3.0))
    q = apply_estimator(spec, profile_from_counts([2, 1, 0, 5]))
    np.testing.assert_allclose(q, np.array([5.0, 1.25, 2.0, 8.0]) / 16.25, rtol=1e-15)


def test_add_beta_huge_constant_stays_finite():
    # k * beta overflows a float64; the estimate is then within an ulp of uniform
    p = uniform(100)
    profile = sampled_profile(p, 5, RngSeed(48, 0))
    q = apply_estimator("add-beta:1e308", profile)
    np.testing.assert_allclose(q, p, rtol=1e-14)
    loss = kl(p, q)
    assert 0.0 <= loss <= 1e-12


def test_add_beta_rejects_nonpositive_beta():
    for beta in (None, (0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, float("nan")),
                 (1.0, 1.0, float("inf")), (1.0, 1.0), (1.0, 1.0, 1.0, 1.0), 0.5, [1.0, 1.0, 1.0]):
        with pytest.raises(InvalidParameterError, match="three finite positive betas"):
            EstimatorSpec("add-beta", "bad", beta=beta)


def test_competitive_hand_examples():
    np.testing.assert_allclose(
        apply_estimator("competitive", symbol_profile([1, 1, 2], 3)), [0.4, 0.4, 0.2], rtol=1e-15
    )
    # all counts 1 and no pair class: every symbol takes its raw count
    np.testing.assert_allclose(
        apply_estimator("competitive", symbol_profile([1, 2, 3], 3)), [1 / 3, 1 / 3, 1 / 3], rtol=1e-15
    )
    # single observation: seen symbol keeps count 1, unseen gets max(phi1,1)/phi0
    np.testing.assert_allclose(apply_estimator("competitive", symbol_profile([1], 2)), [0.5, 0.5], rtol=1e-15)


def test_competitive_undefined_for_empty_sample():
    with pytest.raises(InvalidParameterError):
        apply_estimator("competitive", symbol_profile([], 2))


def test_competitive_unseen_class_value():
    rng = np.random.default_rng(88)
    for case in range(200):
        k = int(rng.integers(2, 30))
        n = int(rng.integers(1, 60))
        profile = sampled_profile(random_distribution(rng, k), n, RngSeed(61, case))
        phi0 = int((profile.counts == 0).sum())
        if phi0 == 0:
            continue
        q = apply_estimator("competitive", profile)
        unseen = q[profile.counts == 0]
        # every unseen symbol gets the same Good-Turing share
        assert np.all(unseen == unseen[0])
        norm = unseen[0] * phi0 / max(int((profile.counts == 1).sum()), 1)
        seen_mass = q[profile.counts > 0].sum()
        assert seen_mass + unseen.sum() == pytest.approx(1.0, abs=1e-12)
        assert norm > 0


def test_best_natural_hand_examples():
    profile = symbol_profile([1, 1, 2], 3)
    np.testing.assert_allclose(
        apply_estimator("best-natural", profile, [0.5, 0.3, 0.2]), [0.5, 0.3, 0.2], rtol=1e-15
    )
    np.testing.assert_array_equal(
        apply_estimator("best-natural", symbol_profile([1], 2), [1.0, 0.0]), [1.0, 0.0]
    )
    np.testing.assert_allclose(
        apply_estimator("best-natural", symbol_profile([1], 2), uniform(2)), [0.5, 0.5], rtol=1e-15
    )


def test_best_natural_dimension_mismatch():
    with pytest.raises(InvalidParameterError):
        apply_estimator("best-natural", symbol_profile([1, 1, 2], 3), [0.5, 0.5])


def test_permutation_oracle_hand_examples():
    # constant distribution is identified exactly from one draw
    np.testing.assert_array_equal(
        apply_estimator("perm-oracle", symbol_profile([1], 2), [1.0, 0.0]), [1.0, 0.0]
    )
    # both relabelings enumerated by hand: (0.49 + 0.09, 0.21 + 0.21)
    np.testing.assert_allclose(
        apply_estimator("perm-oracle", symbol_profile([1], 2), [0.7, 0.3]), [0.58, 0.42], rtol=1e-14
    )
    # at n = 3000 the true labeling outweighs every other by a factor above e**120
    p = np.array([0.2, 0.3, 0.5])
    q = apply_estimator("perm-oracle", profile_from_counts(np.array([600, 900, 1500])), p)
    np.testing.assert_allclose(q, p, rtol=0, atol=1e-12)


def test_permutation_oracle_uniform_is_uniform():
    rng = np.random.default_rng(5)
    for k in (2, 3, 4):
        # at n = 2000 every relabeling's likelihood underflows a float64
        for n in (int(rng.integers(1, 5)), 2000):
            profile = sampled_profile(uniform(k), n, RngSeed(21, k))
            np.testing.assert_allclose(
                apply_estimator("perm-oracle", profile, uniform(k)), uniform(k), rtol=1e-12
            )


def test_permutation_oracle_caps_alphabet():
    with pytest.raises(CapacityError):
        apply_estimator("perm-oracle", symbol_profile([1], 7), uniform(7))


def test_permutation_oracle_impossible_sample():
    with pytest.raises(InvalidParameterError):
        apply_estimator("perm-oracle", symbol_profile([1, 2], 2), [1.0, 0.0])


def test_parse_estimator_names():
    assert parse_estimator("empirical").kind == "empirical"
    assert parse_estimator("laplace").beta == (1.0, 1.0, 1.0)
    assert parse_estimator("kt").beta == (0.5, 0.5, 0.5)
    assert parse_estimator("braess-sauer").beta == (0.5, 1.0, 0.75)
    assert parse_estimator("competitive").kind == "competitive-gt"
    assert parse_estimator("best-natural").requires_true_p
    assert parse_estimator("perm-oracle").requires_true_p
    spec = parse_estimator("add-beta:0.25")
    assert spec.kind == "add-beta" and spec.beta == (0.25, 0.25, 0.25)


def test_parsed_estimators_are_values():
    # a spec is plain data: equal on a second parse and picklable
    for name in ("add-beta:0.5", *_ALL_NAMES):
        spec = parse_estimator(name)
        assert spec == parse_estimator(name) and hash(spec) == hash(parse_estimator(name))
        assert pickle.loads(pickle.dumps(spec)) == spec


def test_parse_estimator_unknown():
    with pytest.raises(InvalidParameterError, match="typo"):
        parse_estimator("typo")
    with pytest.raises(InvalidParameterError):
        parse_estimator("add-beta:0")
    with pytest.raises(InvalidParameterError):
        parse_estimator("add-beta:x")
    for text in ("inf", "nan", "-inf"):
        with pytest.raises(InvalidParameterError, match="beta must be finite and positive"):
            parse_estimator(f"add-beta:{text}")


def test_apply_estimator_oracle_requires_p():
    profile = symbol_profile([1, 1, 2], 3)
    with pytest.raises(InvalidParameterError):
        apply_estimator("best-natural", profile)
    with pytest.raises(InvalidParameterError):
        apply_estimator("perm-oracle", profile)
    q = apply_estimator("perm-oracle", profile, [0.5, 0.3, 0.2])
    assert abs(q.sum() - 1.0) <= 1e-9
    # the spec itself, not only apply_estimator, names the missing distribution
    for name in ("best-natural", "perm-oracle"):
        with pytest.raises(InvalidParameterError, match=f"'{name}' needs the true distribution"):
            parse_estimator(name)(profile_from_counts([3]))


# A custom estimator's output must be one finite nonnegative value per count
# class with sum(phi * q) = 1. Profile (1, 0, 2) has classes t = 0, 1, 2.
_BAD_OUTPUTS = {
    "one-value": lambda profile, p=None: np.array([0.5]),
    "negative": lambda profile, p=None: np.array([-0.5, 0.75, 0.75]),
    "nan": lambda profile, p=None: np.array([np.nan, 0.5, 0.5]),
    "infinite": lambda profile, p=None: np.array([np.inf, 0.0, 0.0]),
    "sum-above-one": lambda profile, p=None: np.full(profile.ts.shape, 2.0),
}


@pytest.mark.parametrize("name", sorted(_BAD_OUTPUTS))
def test_custom_estimator_output_checked(name):
    with pytest.raises(InvalidParameterError, match="custom estimator"):
        apply_estimator(_BAD_OUTPUTS[name], profile_from_counts([1, 0, 2]))


# Every length-3 sample from two symbols has two count classes.
_ENTRY_POINTS = {
    "apply_estimator": lambda est: apply_estimator(est, profile_from_counts([1, 2])),
    "exact_expected_kl": lambda est: exact_expected_kl([0.5, 0.5], est, 3),
    "monte_carlo_regret": lambda est: monte_carlo_regret([0.5, 0.5], est, n=3, trials=4, master_seed=0),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_custom_estimator_output_checked_on_every_path(entry):
    for bad in (_BAD_OUTPUTS["one-value"], _BAD_OUTPUTS["sum-above-one"]):
        with pytest.raises(InvalidParameterError, match="custom estimator"):
            _ENTRY_POINTS[entry](bad)
    # a natural estimate passes: per-class values (t + 1/2) / (n + k/2)
    _ENTRY_POINTS[entry](lambda profile, p=None: (profile.ts + 0.5) / (profile.n + 0.5 * profile.k))


_ALL_NAMES = ("empirical", "laplace", "kt", "braess-sauer", "competitive", "best-natural", "perm-oracle")


def test_outputs_are_distributions():
    rng = np.random.default_rng(99)
    for case in range(100):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 12))
        p = random_distribution(rng, k)
        profile = sampled_profile(p, n, RngSeed(44, case))
        for name in _ALL_NAMES:
            q = apply_estimator(name, profile, p)
            assert abs(q.sum() - 1.0) <= 1e-9
            assert np.all(q >= 0)
            if name != "empirical":
                assert np.all(q > 0)  # p is strictly positive here


def test_naturalness_exact():
    rng = np.random.default_rng(100)
    for case in range(100):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 12))
        p = random_distribution(rng, k)
        profile = sampled_profile(p, n, RngSeed(45, case))
        for name in _ALL_NAMES:
            q = apply_estimator(name, profile, p)
            for t in profile.ts:
                values = q[profile.counts == t]
                assert np.all(values == values[0])


def test_best_natural_minimizes_log_loss_per_sequence():
    rng = np.random.default_rng(101)
    for case in range(100):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 10))
        p = random_distribution(rng, k)
        profile = sampled_profile(p, n, RngSeed(46, case))
        oracle_loss = cross_entropy(p, apply_estimator("best-natural", profile, p))
        for tag in range(5):
            rival = apply_estimator(make_natural_estimator(case * 10 + tag), profile, p)
            assert oracle_loss <= cross_entropy(p, rival) + 1e-12


def test_permutation_equivariance():
    rng = np.random.default_rng(102)
    for case in range(60):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 9))
        p = random_distribution(rng, k)
        profile = sampled_profile(p, n, RngSeed(47, case))
        relabel = rng.permutation(k)  # 0-indexed: old i -> new relabel[i]
        p_new = np.empty(k)
        p_new[relabel] = p
        counts_new = np.empty(k, dtype=np.int64)
        counts_new[relabel] = profile.counts
        permuted = profile_from_counts(counts_new)
        for name in _ALL_NAMES:
            q = apply_estimator(name, profile, p)
            q_new = apply_estimator(name, permuted, p_new)
            np.testing.assert_allclose(q_new[relabel], q, rtol=1e-12, atol=1e-15)
