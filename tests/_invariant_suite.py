"""Invariant checks runnable standalone (test_invariants.py) and re-run as one
block by the acceptance gate.

Each check raises AssertionError on failure and returns a short summary
string on success.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from cde import (
    RngSeed,
    apply_estimator,
    class_totals,
    profile_from_counts,
    sample_dirichlet,
    step,
    uniform,
    zipf,
)
from cde.cli import main as cli_main

from support import random_distribution, sampled_profile

ESTIMATOR_NAMES = (
    "empirical",
    "laplace",
    "kt",
    "braess-sauer",
    "competitive",
    "best-natural",
    "perm-oracle",
)


def check_distribution_validity() -> str:
    cases = 0
    for k in (1, 2, 3, 10, 100, 10000):
        candidates = [uniform(k), zipf(k, 1.0), zipf(k, 1.5)]
        if k % 2 == 0:
            candidates.append(step(k))
        candidates.append(sample_dirichlet(k, 1.0, RngSeed(800, k)))
        candidates.append(sample_dirichlet(k, 0.5, RngSeed(801, k)))
        for p in candidates:
            assert np.all(p >= 0.0), f"negative entry for k={k}"
            assert abs(p.sum() - 1.0) <= 1e-9, f"sum off for k={k}"
            cases += 1
    rng = np.random.default_rng(802)
    for case in range(150):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 12))
        p = random_distribution(rng, k)
        profile = sampled_profile(p, n, RngSeed(803, case))
        for name in ESTIMATOR_NAMES:
            q = apply_estimator(name, profile, p)
            assert np.all(q >= 0.0)
            assert abs(q.sum() - 1.0) <= 1e-9
            if name != "empirical":
                assert np.all(q > 0.0), f"{name} produced a zero for positive p"
            cases += 1
    return f"{cases} distribution validity cases"


def check_naturalness() -> str:
    rng = np.random.default_rng(810)
    cases = 0
    for case in range(200):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 15))
        p = random_distribution(rng, k)
        profile = sampled_profile(p, n, RngSeed(811, case))
        for name in ESTIMATOR_NAMES:
            q = apply_estimator(name, profile, p)
            for t in profile.ts:
                values = q[profile.counts == t]
                assert np.all(values == values[0]), f"{name} not natural at t={t}"
            cases += 1
    return f"{cases} naturalness cases"


def check_permutation_equivariance() -> str:
    rng = np.random.default_rng(820)
    cases = 0
    for case in range(150):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 10))
        p = random_distribution(rng, k)
        profile = sampled_profile(p, n, RngSeed(821, case))
        relabel = rng.permutation(k)
        p_new = np.empty(k)
        p_new[relabel] = p
        counts_new = np.empty(k, dtype=np.int64)
        counts_new[relabel] = profile.counts
        permuted = profile_from_counts(counts_new)
        for name in ESTIMATOR_NAMES:
            q = apply_estimator(name, profile, p)
            q_new = apply_estimator(name, permuted, p_new)
            np.testing.assert_allclose(q_new[relabel], q, rtol=1e-12, atol=1e-15)
            cases += 1
    return f"{cases} equivariance cases"


def check_profile_identities() -> str:
    rng = np.random.default_rng(830)
    for case in range(1000):
        k = int(rng.integers(1, 51))
        n = int(rng.integers(0, 201))
        p = random_distribution(rng, k)
        profile = sampled_profile(p, n, RngSeed(831, case))
        assert profile.counts.sum() == n
        assert profile.phi.sum() == k
        assert int(np.sum(profile.ts * profile.phi)) == n
        assert np.all(profile.phi > 0)
        mass = class_totals(p, profile)
        assert abs(mass.sum() - 1.0) <= 1e-12
        assert np.all(mass >= 0.0)
    return "1000 profile identity cases"


def check_competitive_unseen_class() -> str:
    rng = np.random.default_rng(840)
    hit = 0
    for case in range(300):
        k = int(rng.integers(2, 40))
        n = int(rng.integers(1, 50))
        profile = sampled_profile(random_distribution(rng, k), n, RngSeed(841, case))
        if not (profile.counts == 0).any():
            continue
        q = apply_estimator("competitive", profile)
        unseen = q[profile.counts == 0]
        assert np.all(unseen == unseen[0])
        hit += 1
    assert hit > 50
    return f"{hit} unseen-class cases"


def check_seeded_csv_determinism() -> str:
    args = [
        "simulate",
        "--k", "8",
        "--n-grid", "3,6",
        "--trials", "15",
        "--seed", "42",
        "--estimators", "laplace,competitive,best-natural",
        "--distributions", "uniform,dir0.5",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        a = Path(tmp) / "a.csv"
        b = Path(tmp) / "b.csv"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), "same seed must give identical CSV bytes"
    return "byte-identical CSV rerun"


def check_sampling_determinism() -> str:
    for case in range(50):
        p = random_distribution(np.random.default_rng(case), 5)
        a = sampled_profile(p, 64, RngSeed(7, case))
        b = sampled_profile(p, 64, RngSeed(7, case))
        assert np.array_equal(a.counts, b.counts)
    return "50 sampling determinism cases"


def check_zipf_monotone() -> str:
    for k in (2, 10, 100, 5000):
        for s in (0.3, 1.0, 1.5, 2.5):
            assert np.all(np.diff(zipf(k, s)) <= 0.0)
    return "zipf monotone on grid"


ALL_CHECKS = (
    check_distribution_validity,
    check_naturalness,
    check_permutation_equivariance,
    check_profile_identities,
    check_competitive_unseen_class,
    check_seeded_csv_determinism,
    check_sampling_determinism,
    check_zipf_monotone,
)
