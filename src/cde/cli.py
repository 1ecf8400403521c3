"""Command-line frontend.

Subcommands: `simulate` runs a Monte Carlo experiment grid and writes CSV or
JSON, `estimate` prints a single estimate for a sample file, and `exact`
evaluates the exact expected KL for small instances.

Exit codes: 0 success, 2 flag errors (argparse), 3 bad input values or
unknown names, 4 capacity limits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .distributions import check_size, parse_distribution, validate_distribution
from .errors import CapacityError, CdeError, InvalidParameterError
from .estimators import apply_estimator, parse_estimator
from .oracle import exact_expected_kl
from .profile import profile_from_counts
from .simulation import ExperimentConfig, RegretRecord, run_experiment

CSV_HEADER = "distribution,estimator,k,n,trials,seed,mean_kl_nats,stderr_nats,inf_trials"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (CdeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cde",
        description="Compare discrete-distribution estimators under expected KL loss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment grid")
    sim.add_argument("--k", type=int, required=True, help="alphabet size")
    sim.add_argument(
        "--n-grid",
        required=True,
        help="sample sizes: comma list (1000,2000) or start:stop:count (1000:50000:10)",
    )
    sim.add_argument("--trials", type=int, required=True, help="Monte Carlo trials per cell")
    sim.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sim.add_argument("--estimators", required=True, help="comma list of estimator names")
    sim.add_argument("--distributions", required=True, help="comma list of distribution names")
    sim.add_argument("--out", required=True, help="output path")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument(
        "--fixed-prior",
        action="store_true",
        help="draw each prior-based distribution once, for every n, instead of per trial",
    )
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="print one estimate for a sample file")
    est.add_argument("--estimator", required=True)
    est.add_argument("--k", type=int, required=True)
    est.add_argument("--sample", required=True, help="file with one symbol index per line")
    est.add_argument("--dist", help="true distribution name (oracle estimators)")
    est.add_argument("--p", help="file with one probability per line (oracle estimators)")
    est.set_defaults(func=_cmd_estimate)

    exact = sub.add_parser("exact", help="exact expected KL by enumeration")
    exact.add_argument("--k", type=int, required=True)
    exact.add_argument("--n", type=int, required=True)
    exact.add_argument("--estimator", required=True)
    exact.add_argument("--dist", help="distribution name")
    exact.add_argument("--p", help="file with one probability per line")
    exact.set_defaults(func=_cmd_exact)

    return parser


def _cmd_simulate(args) -> int:
    config = ExperimentConfig(
        k=args.k,
        n_grid=parse_n_grid(args.n_grid),
        trials=args.trials,
        master_seed=args.seed,
        distributions=tuple(args.distributions.split(",")),
        estimators=tuple(args.estimators.split(",")),
        redraw_prior_per_trial=not args.fixed_prior,
    )
    records = run_experiment(config, workers=_workers_from_env())
    if args.format == "csv":
        text = format_csv(records)
    else:
        text = format_json(records, config)
    _write_atomic(args.out, text)
    return 0


def _cmd_estimate(args) -> int:
    check_size(args.k, "k")
    spec = parse_estimator(args.estimator)
    profile = profile_from_counts(_read_counts(args.sample, args.k))
    p = None
    if spec.requires_true_p:
        p = _resolve_true_p(args)
    q = apply_estimator(spec, profile, p)
    # written 4096 lines at a time, so the memory beyond q does not grow with k
    for start in range(0, q.size, 4096):
        values = q[start : start + 4096].tolist()
        sys.stdout.write("".join(f"{i}\t{v:.9g}\n" for i, v in enumerate(values, start + 1)))
    return 0


def _cmd_exact(args) -> int:
    check_size(args.k, "k")
    spec = parse_estimator(args.estimator)
    p = _resolve_true_p(args)
    result = exact_expected_kl(p, spec, args.n)
    print(_fmt12(result.expected_kl))
    return 0


def parse_n_grid(text: str) -> tuple[int, ...]:
    """Parse an n-grid flag: comma list, or start:stop:count for an evenly
    spaced inclusive grid rounded to integers."""
    try:
        if ":" in text:
            start_s, stop_s, count_s = text.split(":")
            start, stop, count = int(start_s), int(stop_s), int(count_s)
            if count < 1:
                raise ValueError("count must be >= 1")
            check_size(max(start, stop), "n")
            if count > abs(stop - start) + 1:
                raise ValueError(f"count exceeds the {abs(stop - start) + 1} integers from start to stop")
            if count == 1:
                return (start,)
            return tuple(int(np.rint(v)) for v in np.linspace(start, stop, count))
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidParameterError(f"bad n-grid {text!r}: {exc}") from None


def _workers_from_env() -> int:
    """CDE_THREADS clamped to [1, usable cores]; unset means 1."""
    raw = os.environ.get("CDE_THREADS", "").strip()
    if not raw:
        return 1
    try:
        requested = int(raw)
    except ValueError:
        raise InvalidParameterError(f"CDE_THREADS must be an integer, got {raw!r}") from None
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return max(1, min(requested, cores))


def _read_lines(path: str, parse, what: str):
    """(lineno, parse(line)) for each nonblank line of a UTF-8 text file; a
    line that parse rejects is reported as path:lineno."""
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    value = parse(text)
                except ValueError:
                    raise InvalidParameterError(f"{path}:{lineno}: not {what}: {text!r}") from None
                yield lineno, value
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"{path}: not UTF-8 text: {exc.reason}") from None


def _read_counts(path: str, k: int) -> np.ndarray:
    """Per-symbol counts of a file holding one symbol in [1..k] per line,
    counted as it is read so that memory does not grow with the file."""
    counts = [0] * (k + 1)
    for lineno, value in _read_lines(path, int, "an integer"):
        if not 1 <= value <= k:
            raise InvalidParameterError(f"{path}:{lineno}: symbol {value} outside [1..{k}]")
        counts[value] += 1
    return np.array(counts[1:], dtype=np.int64)


def _resolve_true_p(args) -> np.ndarray:
    if args.p:
        p = validate_distribution([value for _, value in _read_lines(args.p, float, "a number")])
        if p.size != args.k:
            raise InvalidParameterError(
                f"probability file has {p.size} entries but --k is {args.k}"
            )
        return p
    if args.dist:
        spec = parse_distribution(args.dist)
        if spec.is_prior:
            raise InvalidParameterError(
                f"distribution '{args.dist}' is a prior; supply a fixed vector via --p"
            )
        return spec.realize(args.k)
    raise InvalidParameterError("a true distribution is required: pass --dist or --p")


def _fmt12(value: float) -> str:
    """Positional rendering with exactly 12 significant digits."""
    if math.isinf(value):
        return "inf"
    from decimal import Decimal  # imported here so that `import cde` does not load it

    return format(Decimal(format(value, ".11e")), "f")


def format_csv(records: list[RegretRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.distribution},{r.estimator},{r.k},{r.n},{r.trials},{r.master_seed},"
            f"{r.mean_kl:.9g},{r.stderr:.9g},{r.inf_trials}"
        )
    return "\n".join(lines) + "\n"


def format_json(records: list[RegretRecord], config: ExperimentConfig) -> str:
    payload = {
        "metadata": {
            "k": config.k,
            "n_grid": list(config.n_grid),
            "trials": config.trials,
            "seed": config.master_seed,
            "distributions": list(config.distributions),
            "estimators": list(config.estimators),
            "redraw_prior_per_trial": config.redraw_prior_per_trial,
            "paired_samples": True,
        },
        "records": [_record_to_json(r) for r in records],
    }
    return json.dumps(payload, indent=2) + "\n"


def _record_to_json(r: RegretRecord) -> dict:
    return {
        "distribution": r.distribution,
        "estimator": r.estimator,
        "k": r.k,
        "n": r.n,
        "trials": r.trials,
        "seed": r.master_seed,
        "mean_kl_nats": "inf" if math.isinf(r.mean_kl) else float(f"{r.mean_kl:.9g}"),
        "stderr_nats": float(f"{r.stderr:.9g}"),
        "inf_trials": r.inf_trials,
    }


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".cde-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


if __name__ == "__main__":
    sys.exit(main())
