"""The benchmark's workloads: inputs made from the seed, one timed pass, and
the checks on the pass's output.

Every workload is a closed loop: one client makes one call into cde at a
time and waits for it. A pass is a fixed amount of work, so passes of one
seed are comparable and must produce identical bytes.

Output records are text lines of comma-separated fields. A record fails if
its call raised, if it breaks an invariant that holds for every seed, or if
it differs from the stored reference (default seed, full size) by more than
summation-order rounding; a record whose bytes differ from the reference
but whose values agree is a changed row, not a failure.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cde
import cde.cli

from spans import ESTIMATOR_NAMES

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SOURCES = ("uniform", "step", "zipf1", "zipf1.5", "dir1", "dir0.5")
FLAGSHIP_K = 10_000
FLAGSHIP_N_GRID = "1000:50000:10"
FLAGSHIP_TRIALS = {False: 4, True: 1}  # keyed by quick

TINY_CELLS = {False: 40, True: 4}
TINY_TRIALS = {False: 500, True: 50}

EXACT_SMALL_P = {False: 12, True: 3}
EXACT_SMALL_N = {False: range(1, 7), True: range(1, 4)}
# (k, n) near the 1e7 sequence cap of the enumeration engine.
EXACT_CAP = {False: ((6, 8), (5, 9), (4, 11), (3, 14)), True: ((3, 14),)}
EXACT_CLASS = {
    False: ((3, 4, "competitive"), (4, 3, "laplace"), (5, 3, "braess-sauer")),
    True: ((3, 4, "competitive"),),
}

# Values may differ from the reference by summation-order rounding, seen
# through the CSV's 9 significant digits.
REL_TOL = 2e-8
ABS_TOL = 1e-12
# Chance that a correct tiny-mc cell fails its Hoeffding check.
HOEFFDING_DELTA = 1e-9


@dataclass
class PassResult:
    records: list[str]
    latencies_ms: list[float]
    errors: set[int] = field(default_factory=set)  # indices of records whose call raised
    header: list[str] = field(default_factory=list)

    def output(self) -> bytes:
        return ("\n".join(self.header + self.records) + "\n").encode()


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def _timed(latencies, fn, *args):
    started = time.perf_counter()
    try:
        return fn(*args)
    finally:
        latencies.append((time.perf_counter() - started) * 1e3)


class Flagship:
    """The paper's figure: `cde simulate` on the README grid, in-process."""

    def __init__(self, workers: int):
        self.workers = workers

    def setup(self, seed: int, quick: bool, tmpdir: str) -> dict:
        master = int(np.random.default_rng(seed).integers(2**32))
        trials = FLAGSHIP_TRIALS[quick]
        out = os.path.join(tmpdir, "flagship.csv")
        if self.workers > 1:
            os.environ["CDE_THREADS"] = str(self.workers)
        else:
            os.environ.pop("CDE_THREADS", None)
        argv = [
            "simulate", "--k", str(FLAGSHIP_K), "--n-grid", FLAGSHIP_N_GRID,
            "--trials", str(trials), "--seed", str(master),
            "--estimators", ",".join(ESTIMATOR_NAMES),
            "--distributions", ",".join(SOURCES), "--out", out,
        ]
        n_grid = cde.cli.parse_n_grid(FLAGSHIP_N_GRID)
        expected = [
            (d, e, n) for d in SOURCES for e in ESTIMATOR_NAMES for n in n_grid
        ]
        return {
            "argv": argv, "out": out, "master": master, "trials": trials,
            "expected": expected, "evals": trials * len(expected), "mc_evals": trials * len(expected),
        }

    def run(self, inp: dict) -> PassResult:
        latencies: list[float] = []
        try:
            code = _timed(latencies, cde.cli.main, inp["argv"])
        except Exception as exc:  # a raised call fails every row it owed
            code = f"raised {type(exc).__name__}"
        if code != 0:
            rows = [f"error,{code}"] * len(inp["expected"])
            return PassResult(rows, latencies, set(range(len(rows))))
        with open(inp["out"], encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        return PassResult(lines[1:], latencies, header=lines[:1])

    def attempted(self, inp: dict) -> int:
        return len(inp["expected"])

    def check(self, inp: dict, result: PassResult) -> set[int]:
        """Indices of rows that break an invariant."""
        if result.errors:
            return set(result.errors)
        expected = inp["expected"]
        rows = result.records
        if result.header != [cde.cli.CSV_HEADER] or len(rows) != len(expected):
            return set(range(len(expected)))
        bad = set()
        means = {}
        for i, (row, (d, e, n)) in enumerate(zip(rows, expected)):
            fields = row.split(",")
            if len(fields) != 9:
                bad.add(i)
                continue
            dist, est, k, n_text, trials, seed, mean, stderr, inf_trials = fields
            mean_v, stderr_v = float(mean), float(stderr)
            if (
                (dist, est, k, n_text, trials, seed, inf_trials)
                != (d, e, str(FLAGSHIP_K), str(n), str(inp["trials"]), str(inp["master"]), "0")
                or not (math.isfinite(mean_v) and mean_v >= 0.0)
                or not (math.isfinite(stderr_v) and stderr_v >= 0.0)
            ):
                bad.add(i)
            means[(d, e, n)] = (i, mean_v)
        # Paired samples: the best natural estimator is optimal on every
        # sample, so its mean can never exceed competitive's.
        for d, _, n in expected:
            if (d, "best-natural", n) in means and (d, "competitive", n) in means:
                ib, best = means[(d, "best-natural", n)]
                ic, comp = means[(d, "competitive", n)]
                if best > comp and not close(best, comp):
                    bad.update((ib, ic))
        return bad


class TinyMC:
    """Criterion-3-shaped cells through `cde.monte_carlo_regret`."""

    workers = 1

    def setup(self, seed: int, quick: bool, tmpdir: str) -> dict:
        rng = np.random.default_rng(seed)
        cells = []
        for _ in range(TINY_CELLS[quick]):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 7))
            name = ESTIMATOR_NAMES[int(rng.integers(len(ESTIMATOR_NAMES)))]
            p = rng.dirichlet(np.ones(k))
            master = int(rng.integers(2**32))
            cells.append((p, name, n, master))
        trials = TINY_TRIALS[quick]
        evals = trials * len(cells)
        return {"cells": cells, "trials": trials, "evals": evals, "mc_evals": evals}

    def run(self, inp: dict) -> PassResult:
        result = PassResult([], [])
        trials = inp["trials"]
        for i, (p, name, n, master) in enumerate(inp["cells"]):
            head = f"{p.size},{n},{name},{master},{trials}"
            try:
                r = _timed(result.latencies_ms, cde.monte_carlo_regret, p, name, n, trials, master)
            except Exception as exc:
                result.records.append(f"{head},error,{type(exc).__name__}")
                result.errors.add(i)
                continue
            result.records.append(f"{head},{r.trials},{r.mean_kl!r},{r.stderr!r},{r.inf_trials}")
        return result

    def attempted(self, inp: dict) -> int:
        return len(inp["cells"])

    def check(self, inp: dict, result: PassResult) -> set[int]:
        bad = set(result.errors)
        trials = inp["trials"]
        slack = math.sqrt(math.log(2 / HOEFFDING_DELTA) / (2 * trials))
        for i, (record, (p, name, n, _)) in enumerate(zip(result.records, inp["cells"])):
            if i in bad:
                continue
            fields = record.split(",")
            got_trials, mean, stderr, inf_trials = int(fields[5]), float(fields[6]), float(fields[7]), int(fields[8])
            losses, weights = _loss_table(p, name, n)
            lo, hi = min(losses), max(losses)
            exact = sum(w * loss for w, loss in zip(weights, losses))
            # Every trial's loss is one entry of the table, so the mean lies
            # in its range and, by Hoeffding, near the exact expectation.
            if (
                got_trials != trials
                or inf_trials != 0
                or not stderr >= 0.0
                or not lo - ABS_TOL <= mean <= hi + ABS_TOL
                or abs(mean - exact) > (hi - lo) * slack + ABS_TOL
            ):
                bad.add(i)
        return bad


class Exact:
    """Exact count-vector enumeration through `cde.oracle`."""

    workers = 1

    def setup(self, seed: int, quick: bool, tmpdir: str) -> dict:
        rng = np.random.default_rng(seed)
        calls = []  # (kind, p, estimator, n)
        for i in range(EXACT_SMALL_P[quick]):
            p = rng.dirichlet(np.ones((2, 3, 4)[i % 3]))
            for n in EXACT_SMALL_N[quick]:
                calls.extend(("kl", p, name, n) for name in ESTIMATOR_NAMES)
                calls.append(("regret", p, "-", n))
        for k, n in EXACT_CAP[quick]:
            p = rng.dirichlet(np.ones(k))
            calls.extend(("kl", p, name, n) for name in ESTIMATOR_NAMES)
            calls.append(("regret", p, "-", n))
        for k, n, name in EXACT_CLASS[quick]:
            calls.append(("class", rng.dirichlet(np.ones(k)), name, n))
        evals = 0
        for kind, p, _, n in calls:
            vectors = math.comb(n + p.size - 1, p.size - 1)
            evals += vectors * (math.factorial(p.size) if kind == "class" else 1)
        return {"calls": calls, "evals": evals, "mc_evals": 0}

    def run(self, inp: dict) -> PassResult:
        result = PassResult([], [])
        lat = result.latencies_ms
        for i, (kind, p, name, n) in enumerate(inp["calls"]):
            head = f"{kind},{p.size},{n},{name}"
            try:
                if kind == "kl":
                    r = _timed(lat, cde.exact_expected_kl, p, name, n)
                    tail = f"{r.expected_kl!r},{r.sequences_enumerated},{r.mass_covered!r}"
                elif kind == "regret":
                    tail = repr(_timed(lat, cde.exact_natural_regret, p, n))
                else:
                    tail = repr(_timed(lat, cde.exact_class_regret, p, name, n))
            except Exception as exc:
                result.records.append(f"{head},error,{type(exc).__name__}")
                result.errors.add(i)
                continue
            result.records.append(f"{head},{tail}")
        return result

    def attempted(self, inp: dict) -> int:
        return len(inp["calls"])

    def check(self, inp: dict, result: PassResult) -> set[int]:
        bad = set(result.errors)
        regret_at = {}  # (id(p), n) -> (record index, natural regret)
        for i, (kind, p, _, n) in enumerate(inp["calls"]):
            if kind == "regret" and i not in bad:
                regret_at[(id(p), n)] = (i, float(result.records[i].split(",")[4]))
        for i, (kind, p, name, n) in enumerate(inp["calls"]):
            if i in bad or kind == "regret":
                continue
            fields = result.records[i].split(",")
            value = float(fields[4])
            if kind == "class":
                floor = cde.exact_natural_regret(p, n)
                if not value >= floor - ABS_TOL:
                    bad.add(i)
                continue
            if int(fields[5]) != p.size**n or abs(float(fields[6]) - 1.0) > 1e-9:
                bad.add(i)
            j, floor = regret_at.get((id(p), n), (None, None))
            if floor is None:
                continue
            # Criterion 1: best-natural attains the natural regret, and no
            # natural estimator beats it.
            if name == "best-natural" and abs(value - floor) > 1e-10:
                bad.update((i, j))
            elif not value >= floor - ABS_TOL:
                bad.add(i)
        return bad


def _loss_table(p, name, n):
    """Loss and multinomial probability of every count vector of a tiny cell."""
    losses, weights = [], []
    for cut in itertools.combinations(range(n + p.size - 1), p.size - 1):
        bounds = (-1, *cut, n + p.size - 1)
        counts = np.array([b - a - 1 for a, b in zip(bounds, bounds[1:])])
        profile = cde.profile_from_counts(counts)
        losses.append(cde.kl(p, cde.apply_estimator(name, profile, p)))
        coefficient = math.factorial(n)
        for c in counts:
            coefficient //= math.factorial(int(c))
        weights.append(coefficient * float(np.prod(p**counts)))
    return losses, weights


WORKLOADS = {
    "flagship": Flagship(workers=1),
    "flagship-2w": Flagship(workers=min(2, len(os.sched_getaffinity(0)))),
    "tiny-mc": TinyMC(),
    "exact": Exact(),
}

# flagship-2w runs the same grid and inputs as flagship, so one reference
# serves both and also checks that threads leave the bytes unchanged.
REFERENCE_NAME = {"flagship": "flagship", "flagship-2w": "flagship", "tiny-mc": "tiny-mc", "exact": "exact"}


def load_reference(name: str) -> list[str]:
    """Reference output lines of a workload at DEFAULT_SEED and full size."""
    index = json.loads((REFERENCE_DIR / "index.json").read_text())
    entry = index[REFERENCE_NAME[name]]
    data = (REFERENCE_DIR / entry["file"]).read_bytes()
    if hashlib.sha256(data).hexdigest() != entry["sha256"]:
        raise RuntimeError(f"reference {entry['file']} does not match its SHA-256")
    return data.decode().splitlines()


def compare_to_reference(got: list[str], reference: list[str]) -> tuple[set[int], int]:
    """(indices of records that differ beyond rounding, count of rows whose bytes changed)."""
    if len(got) != len(reference):
        return set(range(len(got))), max(len(got), len(reference))
    bad, changed = set(), 0
    for i, (a, b) in enumerate(zip(got, reference)):
        if a == b:
            continue
        changed += 1
        fa, fb = a.split(","), b.split(",")
        if len(fa) != len(fb) or not all(x == y or _numbers_close(x, y) for x, y in zip(fa, fb)):
            bad.add(i)
    return bad, changed


def _numbers_close(x: str, y: str) -> bool:
    try:
        return close(float(x), float(y))
    except ValueError:
        return False
