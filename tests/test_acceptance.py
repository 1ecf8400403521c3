"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The whole module takes a few minutes; the flagship-scale
grid (criteria 4a-4c) runs once and is shared by its three checks.
"""

import math
import time

import numpy as np
import pytest

import cde
from cde.cli import parse_n_grid

import _invariant_suite as suite
from support import (
    expected_kl_add_constant,
    make_natural_estimator,
    natural_regret_by_sequences,
    random_distribution,
    sampled_profile,
)


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion}: {detail}"


@pytest.mark.slow
def test_criterion_1_exact_identity_suite():
    """Oracle identities on a grid of random distributions, k in {2,3,4}, n in 1..6."""
    started = time.time()
    rng = np.random.default_rng(1001)
    distributions = 0
    natural_rivals = 0
    largest_gap = 0.0
    for index in range(51):
        k = (2, 3, 4)[index % 3]
        p = random_distribution(rng, k)
        distributions += 1
        for n in range(1, 7):
            # the floor against an independent sum over all k**n raw sequences
            floor = cde.exact_natural_regret(p, n)
            gap = abs(floor - natural_regret_by_sequences(p, n))
            assert gap <= 1e-12, (k, n, floor, gap)
            largest_gap = max(largest_gap, gap)
            for tag in range(20):
                rival = make_natural_estimator(index * 100 + tag)
                value = cde.exact_expected_kl(p, rival, n).expected_kl
                assert value >= floor - 1e-12, (k, n, tag, value, floor)
                natural_rivals += 1
            # per-sequence loss decomposition on a drawn sample
            profile = sampled_profile(p, n, cde.RngSeed(55, index * 7 + n))
            q = cde.apply_estimator(make_natural_estimator(index), profile, p)
            q_star = cde.apply_estimator("best-natural", profile, p)
            lhs = cde.cross_entropy(p, q) - cde.cross_entropy(p, q_star)
            rhs = cde.kl(cde.class_totals(p, profile), cde.class_totals(q, profile))
            assert abs(lhs - rhs) <= 1e-10, (k, n, lhs, rhs)
    elapsed = time.time() - started
    _report(
        "criterion 1 (exact identity suite)",
        elapsed < 60.0,
        f"{distributions} distributions x n=1..6, {natural_rivals} rival checks, "
        f"largest floor gap {largest_gap:.1e}, {elapsed:.1f}s",
    )


def test_criterion_2_hand_derived_exact_values():
    started = time.time()
    competitive = cde.exact_expected_kl([1.0, 0.0], "competitive", 1).expected_kl
    assert abs(competitive - math.log(2)) <= 1e-15, competitive
    laplace = cde.exact_expected_kl([0.5, 0.5], "laplace", 1).expected_kl
    assert abs(laplace - 0.5 * math.log(9 / 8)) <= 1e-12, laplace
    regret = cde.exact_natural_regret([0.7, 0.3], 2)
    assert abs(regret - 0.034559) <= 1e-5, regret
    elapsed = time.time() - started
    _report("criterion 2 (hand-derived exact values)", elapsed < 1.0, f"{elapsed:.3f}s")


@pytest.mark.slow
def test_criterion_3_monte_carlo_matches_oracle():
    started = time.time()
    rng = np.random.default_rng(3003)
    names = ("laplace", "kt", "braess-sauer", "competitive", "best-natural")
    worst = 0.0
    for cell in range(10):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 7))
        name = names[int(rng.integers(len(names)))]
        p = random_distribution(rng, k)
        exact = cde.exact_expected_kl(p, name, n).expected_kl
        record = cde.monte_carlo_regret(p, name, n, trials=100_000, master_seed=3100 + cell)
        budget = max(4 * record.stderr, 1e-12)  # zero-variance cells leave rounding only
        gap = abs(record.mean_kl - exact)
        assert gap <= budget, (name, k, n, gap, record.stderr)
        worst = max(worst, gap / budget)
    elapsed = time.time() - started
    _report(
        "criterion 3 (Monte Carlo vs oracle)",
        elapsed < 120.0,
        f"10 cells x 1e5 trials, worst gap {worst:.2f}x budget, {elapsed:.1f}s",
    )


N_GRID = parse_n_grid("1000:50000:10")
DISTRIBUTIONS = ("uniform", "step", "zipf1", "zipf1.5", "dir1", "dir0.5")
ESTIMATORS = ("laplace", "kt", "braess-sauer", "competitive", "best-natural")
ADD_BETA = ("laplace", "kt", "braess-sauer")
EXACT_BETA = {"laplace": 1.0, "kt": 0.5}


@pytest.fixture(scope="module")
def figure_scale_grid():
    started = time.time()
    config = cde.ExperimentConfig(
        k=10000,
        n_grid=N_GRID,
        trials=200,
        master_seed=7,
        distributions=DISTRIBUTIONS,
        estimators=ESTIMATORS,
    )
    records = cde.run_experiment(config)
    elapsed = time.time() - started
    print(f"[acceptance] flagship grid: {len(records)} records in {elapsed:.1f}s")
    return {(r.distribution, r.estimator, r.n): r for r in records}


@pytest.mark.slow
def test_criterion_4a_competitive_beats_add_beta(figure_scale_grid):
    worst = math.inf
    for dist in ("uniform", "step", "zipf1", "zipf1.5"):
        for n in N_GRID:
            if n < 5000:
                continue
            competitive = figure_scale_grid[(dist, "competitive", n)]
            for name in ADD_BETA:
                rival = figure_scale_grid[(dist, name, n)]
                band = 2 * math.hypot(competitive.stderr, rival.stderr)
                slack = rival.mean_kl + band - competitive.mean_kl
                worst = min(worst, slack)
                assert slack >= 0.0, (dist, name, n, competitive.mean_kl, rival.mean_kl)
    _report(
        "criterion 4a (competitive <= add-beta at scale)",
        True,
        f"worst slack {worst:.4f} nats",
    )


@pytest.mark.slow
def test_criterion_4b_oracle_dominance(figure_scale_grid):
    worst = math.inf
    for dist in DISTRIBUTIONS:
        for n in N_GRID:
            competitive = figure_scale_grid[(dist, "competitive", n)].mean_kl
            oracle = figure_scale_grid[(dist, "best-natural", n)].mean_kl
            worst = min(worst, competitive - oracle)
            assert competitive >= oracle - 1e-12, (dist, n, competitive, oracle)
    _report("criterion 4b (best-natural lower bounds competitive)", True, f"min gap {worst:.5f} nats")


@pytest.mark.slow
def test_criterion_4c_mean_kl_non_increasing_in_n(figure_scale_grid):
    # The paper's decrease in n is a worst-case statement: one add-beta curve
    # on a flat source rises while n approaches and passes k (see README). So
    # the decrease is checked on the worst case over sources, and the flat
    # sources' add-beta curves are pinned to their exact value instead.
    violations = []
    for name in ESTIMATORS:
        curve = [
            max((figure_scale_grid[(dist, name, n)] for dist in DISTRIBUTIONS), key=lambda r: r.mean_kl)
            for n in N_GRID
        ]
        for left, right in zip(curve, curve[1:]):
            band = 2 * math.hypot(left.stderr, right.stderr)
            excess = right.mean_kl - left.mean_kl - band
            if excess > 0.0:
                violations.append(("worst case rises", name, left.n, right.n, round(excess, 4)))
        first, last = curve[0], curve[-1]
        if first.mean_kl - last.mean_kl <= 2 * math.hypot(first.stderr, last.stderr):
            violations.append(("worst case does not fall", name, first.mean_kl, last.mean_kl))
    worst_ratio = 0.0
    for dist, p in (("uniform", cde.uniform(10000)), ("step", cde.step(10000))):
        for name, beta in EXACT_BETA.items():
            for n in N_GRID:
                record = figure_scale_grid[(dist, name, n)]
                gap = abs(record.mean_kl - expected_kl_add_constant(p, beta, n))
                worst_ratio = max(worst_ratio, gap / record.stderr)
                if gap > 4 * record.stderr:
                    violations.append(("off exact value", dist, name, n, gap, record.stderr))
    _report(
        "criterion 4c (worst-case mean KL non-increasing in n, flat add-beta curves exact)",
        not violations,
        f"{len(violations)} violations, e.g. {violations[:3]}"
        if violations
        else f"worst-case curves fall, worst |MC - exact| {worst_ratio:.2f} stderr",
    )


def test_criterion_5_min_max_diagnostic():
    # Diagnostic: a failure here warrants investigation, not automatic
    # rejection; the asymptotic value is loose at finite n, hence factor 3.
    target = 9 / 20000  # (k - 1) / (2n) for k=10, n=10000
    record = cde.monte_carlo_regret(cde.uniform(10), "braess-sauer", 10_000, 200, 5005)
    ratio = record.mean_kl / target
    _report(
        "criterion 5 (min-max sanity diagnostic)",
        1 / 3 <= ratio <= 3,
        f"mean {record.mean_kl:.3e} vs (k-1)/2n {target:.3e}, ratio {ratio:.2f}",
    )


def test_criterion_6_invariant_suites():
    started = time.time()
    summaries = [check() for check in suite.ALL_CHECKS]
    elapsed = time.time() - started
    _report(
        "criterion 6 (invariant suites)",
        elapsed < 60.0,
        f"{len(summaries)} suites, {elapsed:.1f}s",
    )
