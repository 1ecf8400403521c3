import contextlib
import csv
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cde
import cde.cli
import cde.distributions
import cde.oracle
import cde.simulation
from cde import CapacityError, DistributionSpec, ExperimentConfig, InvalidParameterError, run_experiment
from cde.cli import CSV_HEADER, main, parse_n_grid, _fmt12, _workers_from_env
from cde.distributions import MAX_ALPHABET, MAX_SAMPLE_SIZE, MAX_TRIALS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse flag errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


SIMULATE_ARGS = [
    "simulate",
    "--k", "6",
    "--n-grid", "4,8",
    "--trials", "10",
    "--seed", "5",
    "--estimators", "laplace,competitive",
    "--distributions", "uniform,zipf:1.2",
]


def test_simulate_csv_shape_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code, _, _ = run_cli(SIMULATE_ARGS + ["--out", str(out_a)], capsys)
    assert code == 0
    code, _, _ = run_cli(SIMULATE_ARGS + ["--out", str(out_b)], capsys)
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 2


def test_simulate_full_grid_row_count(tmp_path, capsys):
    # 6 distributions x 5 estimators x 10 sample sizes -> 300 rows + header
    out = tmp_path / "grid.csv"
    args = [
        "simulate",
        "--k", "10",
        "--n-grid", "2:20:10",
        "--trials", "3",
        "--seed", "7",
        "--estimators", "laplace,kt,braess-sauer,competitive,best-natural",
        "--distributions", "uniform,step,zipf1,zipf1.5,dir1,dir0.5",
        "--out", str(out),
    ]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 300


def csv_rows(path) -> list[dict]:
    """The rows of a `simulate --format csv` file, keyed by the header's columns."""
    with open(path, newline="", encoding="utf-8") as handle:
        assert handle.readline() == CSV_HEADER + "\n"
        return list(csv.DictReader(handle, fieldnames=CSV_HEADER.split(",")))


def test_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run_cli(SIMULATE_ARGS + ["--out", str(out)], capsys)
    assert code == 0
    rows = csv_rows(out)
    config = ExperimentConfig(
        k=6, n_grid=(4, 8), trials=10, master_seed=5,
        distributions=("uniform", "zipf:1.2"), estimators=("laplace", "competitive"),
    )
    direct = run_experiment(config)
    assert len(rows) == len(direct)
    for row, original in zip(rows, direct):
        assert (row["distribution"], row["estimator"], int(row["k"]), int(row["n"])) == (
            original.distribution, original.estimator, original.k, original.n,
        )
        assert (int(row["trials"]), int(row["seed"]), int(row["inf_trials"])) == (
            original.trials, original.master_seed, original.inf_trials,
        )
        # values survive modulo 9-significant-digit quantization
        assert float(row["mean_kl_nats"]) == float(f"{original.mean_kl:.9g}")
        assert float(row["stderr_nats"]) == float(f"{original.stderr:.9g}")


def test_simulate_json_format(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(SIMULATE_ARGS + ["--out", str(out), "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["paired_samples"] is True
    assert payload["metadata"]["seed"] == 5
    assert len(payload["records"]) == 8
    first = payload["records"][0]
    assert set(first) == {
        "distribution", "estimator", "k", "n", "trials", "seed",
        "mean_kl_nats", "stderr_nats", "inf_trials",
    }


def test_simulate_infinite_mean_serialized_as_inf(tmp_path, capsys):
    out = tmp_path / "inf.csv"
    args = [
        "simulate", "--k", "4", "--n-grid", "1", "--trials", "5", "--seed", "1",
        "--estimators", "empirical", "--distributions", "uniform", "--out", str(out),
    ]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[6] == "inf"
    assert int(row[8]) == 5
    parsed = csv_rows(out)
    assert math.isinf(float(parsed[0]["mean_kl_nats"]))


def test_simulate_unknown_estimator_exit_3_no_partial_file(tmp_path, capsys):
    out = tmp_path / "never.csv"
    args = [
        "simulate", "--k", "4", "--n-grid", "2", "--trials", "5", "--seed", "1",
        "--estimators", "typo", "--distributions", "uniform", "--out", str(out),
    ]
    code, _, err = run_cli(args, capsys)
    assert code == 3
    assert "typo" in err
    assert not out.exists()


def test_simulate_unknown_distribution_exit_3(tmp_path, capsys):
    args = [
        "simulate", "--k", "4", "--n-grid", "2", "--trials", "5", "--seed", "1",
        "--estimators", "laplace", "--distributions", "wat",
        "--out", str(tmp_path / "x.csv"),
    ]
    code, _, err = run_cli(args, capsys)
    assert code == 3 and "wat" in err


def test_simulate_bad_flag_exit_2(tmp_path, capsys):
    code, _, _ = run_cli(SIMULATE_ARGS[:-2] + ["--trials", "notanint", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    code, _, _ = run_cli(["simulate", "--bogus"], capsys)
    assert code == 2


HUGE_K = str(10**11)

EXIT_CODE_ROWS = [
    # (argv, environment, p-file text or bytes, exit code, stderr fragment);
    # {out}, {p} and {sample} stand for an output path, the p-file and a
    # valid sample file, and {p} in a fragment for the p-file too
    pytest.param(SIMULATE_ARGS + ["--out", "{out}", "--bogus"], {}, None, 2, "--bogus", id="bad-flag"),
    pytest.param(["simulate", "--k", "4", "--n-grid", "2", "--trials", "5", "--estimators", "typo",
                  "--distributions", "uniform", "--out", "{out}"], {}, None, 3, "typo",
                 id="unknown-estimator"),
    pytest.param(["simulate", "--k", "4", "--n-grid", "2", "--trials", "5", "--estimators", "laplace",
                  "--distributions", "wat", "--out", "{out}"], {}, None, 3, "wat",
                 id="unknown-distribution"),
    pytest.param(["exact", "--k", "2", "--n", "1", "--estimator", "laplace", "--p", "{p}"], {},
                 "nan\nnan\n", 3, "sums to nan", id="nan-p-file"),
    pytest.param(SIMULATE_ARGS + ["--out", "{out}"], {"CDE_THREADS": "abc"}, None, 3, "CDE_THREADS",
                 id="bad-threads"),
    pytest.param(["exact", "--k", "3", "--n", "-1", "--estimator", "laplace", "--dist", "uniform"], {},
                 None, 3, "n must be", id="negative-n"),
    pytest.param(["simulate", "--k", HUGE_K, "--n-grid", "5", "--trials", "2", "--estimators", "laplace",
                  "--distributions", "uniform", "--out", "{out}"], {}, None, 4, "alphabet size",
                 id="simulate-alphabet-cap"),
    pytest.param(["estimate", "--k", HUGE_K, "--estimator", "laplace", "--sample", "{p}"], {}, "1\n", 4,
                 "alphabet size", id="estimate-alphabet-cap"),
    pytest.param(["exact", "--k", HUGE_K, "--n", "1", "--estimator", "laplace", "--dist", "uniform"], {},
                 None, 4, "alphabet size", id="exact-alphabet-cap"),
    pytest.param(["exact", "--k", "100000", "--n", "1", "--estimator", "laplace", "--dist", "uniform"],
                 {}, None, 4, "count entries", id="count-entry-cap"),
    pytest.param(["exact", "--k", "2000", "--n", "1", "--estimator", "laplace", "--dist", "uniform"], {},
                 None, 0, "", id="large-k-single-draw"),
    pytest.param(["simulate", "--k", "4", "--n-grid", "2", "--trials", str(MAX_TRIALS + 1), "--estimators",
                  "laplace", "--distributions", "uniform", "--out", "{out}"], {}, None, 4, "trials",
                 id="trials-cap"),
    pytest.param(["simulate", "--k", "4", "--n-grid", str(MAX_SAMPLE_SIZE + 1), "--trials", "2", "--estimators",
                  "laplace", "--distributions", "uniform", "--out", "{out}"], {}, None, 4, "sample size",
                 id="sample-size-cap"),
    pytest.param(["simulate", "--k", "4", "--n-grid", "1:2:10000000000", "--trials", "2", "--estimators",
                  "laplace", "--distributions", "uniform", "--out", "{out}"], {}, None, 3, "count exceeds",
                 id="n-grid-count"),
    pytest.param(["simulate", "--k", "4", "--n-grid", "5", "--trials", "2", "--estimators", "laplace",
                  "--distributions", "dirichlet:1e-300", "--out", "{out}"], {}, None, 3, "alpha=1e-300",
                 id="dirichlet-underflow"),
    pytest.param(["simulate", "--k", "4", "--n-grid", "5", "--trials", "2", "--estimators", "add-beta:inf",
                  "--distributions", "uniform", "--out", "{out}"], {}, None, 3, "beta must be finite",
                 id="add-beta-inf"),
    # the Gamma sum overflows a float64 and is rescaled
    pytest.param(["simulate", "--k", "100", "--n-grid", "5", "--trials", "3", "--estimators", "laplace",
                  "--distributions", "dirichlet:1e308", "--out", "{out}"], {}, None, 0, "",
                 id="dirichlet-overflow"),
    pytest.param(["simulate", "--k", "0", "--n-grid", "5", "--trials", "2", "--estimators", "laplace",
                  "--distributions", "uniform", "--out", "{out}"], {}, None, 3, "k must be >= 1",
                 id="simulate-zero-k"),
    pytest.param(["estimate", "--k", "0", "--estimator", "laplace", "--sample", "{p}"], {}, "1\n", 3,
                 "k must be >= 1", id="estimate-zero-k"),
    pytest.param(["exact", "--k", "0", "--n", "1", "--estimator", "laplace", "--dist", "uniform"], {}, None, 3,
                 "k must be >= 1", id="exact-zero-k"),
    pytest.param(["estimate", "--k", "3", "--estimator", "laplace", "--sample", "{p}"], {}, b"\xff1\n", 3,
                 "{p}: not UTF-8", id="estimate-sample-not-utf8"),
    pytest.param(["estimate", "--k", "3", "--estimator", "best-natural", "--sample", "{sample}", "--p", "{p}"], {},
                 b"0.5\n\xff0.5\n", 3, "{p}: not UTF-8", id="estimate-p-not-utf8"),
    pytest.param(["exact", "--k", "2", "--n", "1", "--estimator", "laplace", "--p", "{p}"], {}, b"\xff0.5\n0.5\n",
                 3, "{p}: not UTF-8", id="exact-p-not-utf8"),
    pytest.param(["estimate", "--k", "3", "--estimator", "laplace", "--sample", "{p}"], {}, "1\n\nx\n", 3,
                 "{p}:3: not an integer: 'x'", id="sample-not-an-integer"),
    pytest.param(["exact", "--k", "2", "--n", "1", "--estimator", "laplace", "--p", "{p}"], {}, "0.5\n\nhalf\n", 3,
                 "{p}:3: not a number: 'half'", id="p-not-a-number"),
    pytest.param(["estimate", "--k", "2", "--estimator", "laplace", "--sample", "{p}"], {}, "\n1\n  \n2\n\n", 0,
                 "", id="sample-blank-lines"),
    pytest.param(["exact", "--k", "2", "--n", "1", "--estimator", "laplace", "--p", "{p}"], {}, "\n0.5\n \t\n0.5\n",
                 0, "", id="p-blank-lines"),
]


@pytest.mark.parametrize("argv, env, p_text, code, fragment", EXIT_CODE_ROWS)
def test_exit_code_contract(argv, env, p_text, code, fragment, tmp_path, capsys, monkeypatch):
    # Over-cap rows must fail before the allocation they guard: anything of
    # alphabet size, the enumerated count vectors, a cell's trials or its
    # sample size fails the test instead.
    realize, read_counts = DistributionSpec.realize, cde.cli._read_counts
    count_vectors, simulate_cell = cde.oracle._count_vectors, cde.simulation._simulate_cell

    def guarded_realize(self, k, rng=None):
        assert k <= MAX_ALPHABET, f"realized a distribution over k={k}"
        return realize(self, k, rng)

    def guarded_read_counts(path, k):
        assert k <= MAX_ALPHABET, f"counted a sample over k={k}"
        return read_counts(path, k)

    def guarded_count_vectors(k, n):
        assert k * math.comb(n + k - 1, n) <= cde.oracle.MAX_SEQUENCES, (k, n)
        return count_vectors(k, n)

    def guarded_simulate_cell(*args, **kwargs):
        arguments = inspect.signature(simulate_cell).bind(*args, **kwargs).arguments
        assert arguments["trials"] <= MAX_TRIALS, f"simulated {arguments['trials']} trials"
        assert arguments["n"] <= MAX_SAMPLE_SIZE, f"simulated n={arguments['n']}"
        return simulate_cell(*args, **kwargs)

    monkeypatch.setattr(DistributionSpec, "realize", guarded_realize)
    monkeypatch.setattr(cde.cli, "_read_counts", guarded_read_counts)
    monkeypatch.setattr(cde.oracle, "_count_vectors", guarded_count_vectors)
    monkeypatch.setattr(cde.simulation, "_simulate_cell", guarded_simulate_cell)
    monkeypatch.delenv("CDE_THREADS", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    p_file = tmp_path / "p.txt"
    if p_text is not None:
        p_file.write_bytes(p_text if isinstance(p_text, bytes) else p_text.encode())
    sample = tmp_path / "sample.txt"
    sample.write_text("1\n2\n")
    out = tmp_path / "out.csv"
    argv = [arg.format(out=out, p=p_file, sample=sample) for arg in argv]
    got, stdout, err = run_cli(argv, capsys)
    assert got == code, err
    assert fragment.format(p=p_file) in err
    if code:
        assert stdout == "" and not out.exists()
    elif argv[0] == "simulate":
        assert math.isfinite(float(out.read_text().splitlines()[1].split(",")[6]))
    elif argv[0] == "exact":
        assert math.isfinite(float(stdout))
    else:  # estimate prints "i\tq_i" for i = 1..k
        rows = [line.split("\t") for line in stdout.splitlines()]
        assert [int(i) for i, _ in rows] == list(range(1, int(argv[argv.index("--k") + 1]) + 1))
        q = [float(v) for _, v in rows]
        assert all(math.isfinite(v) for v in q) and math.isclose(sum(q), 1.0)


def test_python_m_cde_reports_non_utf8_sample_without_traceback(tmp_path):
    sample = tmp_path / "s.txt"
    sample.write_bytes(b"\xff1\n")
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    result = subprocess.run(
        [sys.executable, "-m", "cde", "estimate", "--k", "3", "--estimator", "laplace", "--sample", str(sample)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (result.returncode, result.stdout) == (3, ""), result.stderr
    assert "s.txt: not UTF-8" in result.stderr and "Traceback" not in result.stderr


def test_estimate_sample_above_the_size_cap_exits_4(tmp_path, capsys, monkeypatch):
    # a profile's bincount spans the largest count, so a sample file longer
    # than the cap fails as simulate does for such an n
    monkeypatch.setattr(cde.distributions, "MAX_SAMPLE_SIZE", 3)
    sample = tmp_path / "s.txt"
    sample.write_text("1\n2\n1\n")
    argv = ["estimate", "--estimator", "laplace", "--k", "2", "--sample", str(sample)]
    assert run_cli(argv, capsys)[0] == 0
    sample.write_text("1\n2\n1\n1\n")
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (4, "") and "sample size n=4 exceeds cap 3" in err


def test_read_counts_memory_does_not_grow_with_the_file(tmp_path):
    # a list of every symbol would take about 36 bytes a line, 7 MB here
    k, lines = 1000, 200_000
    sample = tmp_path / "s.txt"
    sample.write_text("".join(f"{1 + (i * 7919) % k}\n" for i in range(lines)))
    tracemalloc.start()
    try:
        counts = cde.cli._read_counts(str(sample), k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == lines and (counts == lines // k).all()
    assert peak < 1_000_000, f"peak {peak} bytes"


def test_estimate_memory_per_symbol_does_not_grow_with_k(tmp_path):
    # q, the counts and their reading take about 25 bytes a symbol and the
    # chunk being written about 0.3 MB; joining all k output lines into one
    # string took about 130 bytes a symbol. Tracing slows the formatting of
    # every line about sevenfold, so k stays small.
    k = 50_000
    sample = tmp_path / "s.txt"
    sample.write_text("1\n1\n2\n")
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["estimate", "--k", str(k), "--estimator", "laplace", "--sample", str(sample)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 40 * k, f"peak {peak} bytes, {peak / k:.1f} a symbol"


def test_estimate_output_written_in_chunks_matches_one_string(tmp_path, capsys):
    # 4096 lines are written at a time; k spans a partial third chunk
    k = 2 * 4096 + 5
    sample = tmp_path / "s.txt"
    sample.write_text("".join(f"{1 + (i * 7919) % k}\n" for i in range(3 * k)))
    code, out, _ = run_cli(
        ["estimate", "--k", str(k), "--estimator", "competitive", "--sample", str(sample)], capsys
    )
    profile = cde.profile_from_counts(cde.cli._read_counts(str(sample), k))
    q = cde.apply_estimator("competitive", profile)
    assert code == 0
    assert out == "\n".join(f"{i}\t{v:.9g}" for i, v in enumerate(q.tolist(), start=1)) + "\n"


def test_out_naming_a_directory_exits_3_without_leftovers(tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    code, stdout, err = run_cli(SIMULATE_ARGS + ["--out", str(target)], capsys)
    assert (code, stdout) == (3, "") and str(target) in err
    assert target.is_dir() and not list(target.iterdir())
    assert not list(tmp_path.glob(".cde-*.tmp"))


def test_parse_n_grid():
    assert parse_n_grid("5,10,20") == (5, 10, 20)
    assert parse_n_grid("1000:50000:10") == (
        1000, 6444, 11889, 17333, 22778, 28222, 33667, 39111, 44556, 50000,
    )
    assert parse_n_grid("7:7:1") == (7,)
    with pytest.raises(InvalidParameterError):
        parse_n_grid("5,abc")
    with pytest.raises(InvalidParameterError):
        parse_n_grid("1:2:3:4")
    # a count above the integers in the range would repeat a value
    assert parse_n_grid("5:10:6") == (5, 6, 7, 8, 9, 10)
    with pytest.raises(InvalidParameterError, match="count exceeds"):
        parse_n_grid("5:10:7")
    with pytest.raises(InvalidParameterError, match="count exceeds"):
        parse_n_grid("10:5:7")
    assert parse_n_grid(f"1:{MAX_SAMPLE_SIZE}:2") == (1, MAX_SAMPLE_SIZE)
    for grid in (f"1:{MAX_SAMPLE_SIZE + 1}:2", f"{MAX_SAMPLE_SIZE + 1}:1:2", f"{10**12}:{10**12}:1"):
        with pytest.raises(CapacityError):
            parse_n_grid(grid)


def test_estimate_competitive(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_text("1\n1\n2\n")
    code, out, _ = run_cli(
        ["estimate", "--estimator", "competitive", "--k", "3", "--sample", str(sample)],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["1\t0.4", "2\t0.4", "3\t0.2"]


def test_estimate_laplace_formatting(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_text("1\n1\n2\n")
    code, out, _ = run_cli(
        ["estimate", "--estimator", "laplace", "--k", "3", "--sample", str(sample)],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["1\t0.5", "2\t0.333333333", "3\t0.166666667"]


def test_estimate_probabilities_sum_to_one(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_text("\n".join(str(1 + i % 5) for i in range(40)) + "\n")
    for name in ("kt", "braess-sauer", "competitive"):
        code, out, _ = run_cli(
            ["estimate", "--estimator", name, "--k", "9", "--sample", str(sample)], capsys
        )
        assert code == 0
        values = [float(line.split("\t")[1]) for line in out.splitlines()]
        assert len(values) == 9
        # the estimate itself sums to 1 within 1e-9; each printed line adds
        # up to half an ulp of 9-significant-digit quantization on top
        assert abs(sum(values) - 1.0) <= 1e-9 + 9 * 5e-10


def test_estimate_empty_sample_competitive_exit_3(tmp_path, capsys):
    sample = tmp_path / "empty.txt"
    sample.write_text("")
    code, _, err = run_cli(
        ["estimate", "--estimator", "competitive", "--k", "3", "--sample", str(sample)],
        capsys,
    )
    assert code == 3 and "undefined" in err


def test_estimate_symbol_out_of_range_exit_3(tmp_path, capsys):
    # symbols are 1-indexed, so 0 is as far out of range as k + 1
    for text in ("1\n4\n", "0\n1\n"):
        sample = tmp_path / "bad.txt"
        sample.write_text(text)
        code, out, err = run_cli(
            ["estimate", "--estimator", "laplace", "--k", "3", "--sample", str(sample)],
            capsys,
        )
        assert (code, out) == (3, ""), text
        assert "outside [1..3]" in err, text


def test_estimate_oracle_needs_true_distribution(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_text("1\n1\n2\n")
    code, _, err = run_cli(
        ["estimate", "--estimator", "best-natural", "--k", "3", "--sample", str(sample)],
        capsys,
    )
    assert code == 3 and "--p" in err

    p_file = tmp_path / "p.txt"
    p_file.write_text("0.5\n0.3\n0.2\n")
    code, out, _ = run_cli(
        [
            "estimate", "--estimator", "best-natural", "--k", "3",
            "--sample", str(sample), "--p", str(p_file),
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["1\t0.5", "2\t0.3", "3\t0.2"]


def test_estimate_oracle_with_named_distribution(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_text("2\n2\n1\n")
    code, out, _ = run_cli(
        [
            "estimate", "--estimator", "perm-oracle", "--k", "3",
            "--sample", str(sample), "--dist", "zipf1",
        ],
        capsys,
    )
    assert code == 0
    values = [float(line.split("\t")[1]) for line in out.splitlines()]
    assert abs(sum(values) - 1.0) <= 1e-9


def test_exact_competitive_point_mass(tmp_path, capsys):
    p_file = tmp_path / "p.txt"
    p_file.write_text("1.0\n0.0\n")
    code, out, _ = run_cli(
        ["exact", "--k", "2", "--n", "1", "--estimator", "competitive", "--p", str(p_file)],
        capsys,
    )
    assert code == 0
    assert out.strip() == "0.693147180560"

    code, out, _ = run_cli(
        ["exact", "--k", "2", "--n", "1", "--estimator", "best-natural", "--p", str(p_file)],
        capsys,
    )
    assert code == 0
    assert float(out.strip()) == 0.0


def test_exact_capacity_exit_4(capsys):
    code, _, err = run_cli(
        ["exact", "--k", "10", "--n", "50", "--estimator", "laplace", "--dist", "uniform"],
        capsys,
    )
    assert code == 4 and "cap" in err


def test_exact_rejects_prior_distribution_names(capsys):
    code, _, err = run_cli(
        ["exact", "--k", "3", "--n", "2", "--estimator", "laplace", "--dist", "dir1"],
        capsys,
    )
    assert code == 3 and "--p" in err


def test_exact_p_file_must_match_k(tmp_path, capsys):
    p_file = tmp_path / "p.txt"
    p_file.write_text("0.5\n0.5\n")
    code, _, err = run_cli(
        ["exact", "--k", "3", "--n", "1", "--estimator", "laplace", "--p", str(p_file)],
        capsys,
    )
    assert code == 3 and "--k" in err


def test_p_file_must_be_distribution(tmp_path, capsys):
    p_file = tmp_path / "p.txt"
    p_file.write_text("0.9\n0.3\n")
    code, _, err = run_cli(
        ["exact", "--k", "2", "--n", "1", "--estimator", "laplace", "--p", str(p_file)],
        capsys,
    )
    assert code == 3 and "sums" in err


def test_exact_non_finite_p_file_exit_3(tmp_path, capsys):
    for name, text in (("nan", "nan\nnan\n"), ("half-nan", "0.5\nnan\n"), ("inf", "inf\n0\n")):
        p_file = tmp_path / f"{name}.txt"
        p_file.write_text(text)
        code, out, err = run_cli(
            ["exact", "--k", "2", "--n", "1", "--estimator", "laplace", "--p", str(p_file)],
            capsys,
        )
        assert (code, out) == (3, ""), name
        assert "sums to nan" in err or "sums to inf" in err


def test_exact_negative_n_exit_3(capsys):
    code, _, err = run_cli(
        ["exact", "--k", "3", "--n", "-1", "--estimator", "laplace", "--dist", "uniform"],
        capsys,
    )
    assert code == 3 and "n must be" in err


def test_exact_single_symbol_huge_n_exit_4(capsys):
    code, _, err = run_cli(
        ["exact", "--k", "1", "--n", "100000000", "--estimator", "laplace", "--dist", "uniform"],
        capsys,
    )
    assert code == 4 and "cap" in err


def test_cde_threads_capped_at_usable_cores(monkeypatch):
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    monkeypatch.setenv("CDE_THREADS", "100000")
    assert _workers_from_env() == cores
    monkeypatch.setenv("CDE_THREADS", "1")
    assert _workers_from_env() == 1
    monkeypatch.setenv("CDE_THREADS", "-3")
    assert _workers_from_env() == 1
    monkeypatch.delenv("CDE_THREADS")
    assert _workers_from_env() == 1


def test_cde_threads_cap_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("CDE_THREADS", "100000")
    assert _workers_from_env() == 3


GOLDEN_COMMON = ["--trials", "300", "--seed", "2024", "--n-grid", "2,6,40,1500", "--k", "8"]
GOLDEN_ESTIMATORS = "laplace,kt,braess-sauer,competitive,best-natural"


@pytest.mark.parametrize(
    "name, args",
    [
        # fixed sources and a per-trial prior; n = 2 and 6 are memo-sized, 40 and 1500 are not
        ("simulate_small.csv", GOLDEN_COMMON + [
            "--estimators", GOLDEN_ESTIMATORS, "--distributions", "uniform,zipf1,dir0.5",
        ]),
        ("simulate_small_fixed_prior.csv", GOLDEN_COMMON + [
            "--estimators", GOLDEN_ESTIMATORS, "--distributions", "dir0.5", "--fixed-prior",
        ]),
        ("simulate_large_k.csv", [
            "--k", "1000", "--n-grid", "50,5000", "--trials", "20", "--seed", "2024",
            "--estimators", "laplace,competitive,best-natural", "--distributions", "zipf1.5,dir1",
        ]),
    ],
)
def test_simulate_matches_golden_csv(name, args, tmp_path, capsys, monkeypatch):
    """The stored CSVs pin the Monte Carlo output byte for byte, so any change
    to how trials consume their streams shows up here."""
    monkeypatch.delenv("CDE_THREADS", raising=False)
    out = tmp_path / name
    assert run_cli(["simulate", *args, "--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_cde_threads_env_does_not_change_output(tmp_path, capsys, monkeypatch):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    monkeypatch.delenv("CDE_THREADS", raising=False)
    assert run_cli(SIMULATE_ARGS + ["--out", str(out_a)], capsys)[0] == 0
    monkeypatch.setenv("CDE_THREADS", "4")
    assert run_cli(SIMULATE_ARGS + ["--out", str(out_b)], capsys)[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_fmt12_rendering():
    assert _fmt12(math.log(2)) == "0.693147180560"
    assert _fmt12(0.05889151782819173) == "0.0588915178282"
    assert _fmt12(math.inf) == "inf"
    assert _fmt12(123456.789) == "123456.789000"
    assert _fmt12(-math.log(2)) == "-0.693147180560"

