"""Run one workload of the cde benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs in a fresh Python process (perfbench/worker.py) that imports
cde from ./src, so every pass pays interpreter start-up, `import cde` and
the first-call caches, as a user's process does. Passes run one after
another until their measured time reaches --seconds. With --trace 0 the
last line of standard output holds the end-to-end metrics; with --trace 1
traced and untraced passes alternate and the last line holds the per-layer
metrics. The line before it records the machine, the build, the output
checks and the tail latency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
WORKER_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="Run one workload of the cde benchmark.")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="minimal sizes, for the self-check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    return args


def run_worker(args, trace: bool) -> dict:
    job = {
        "root": str(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "trace": trace,
        "launched": time.monotonic(),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {args.workload} pass ran longer than {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"a {args.workload} pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_passes(args) -> list[dict]:
    """Untraced passes (and, with --trace 1, traced ones in alternation)
    until each kind has measured its share of --seconds; --quick runs only
    the minimum number of passes."""
    kinds = (False, True) if args.trace else (False,)
    budget = 0.0 if args.quick else args.seconds / len(kinds)
    minimum = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    passes: list[dict] = []
    measured = dict.fromkeys(kinds, 0.0)
    count = dict.fromkeys(kinds, 0)
    while any(measured[k] < budget or count[k] < minimum for k in kinds):
        for kind in kinds:
            report = run_worker(args, kind)
            passes.append(report)
            measured[kind] += report["wall_s"]
            count[kind] += 1
    return passes


def tail_latency(values: list[float]) -> dict | None:
    """The highest percentile with at least ten calls beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return {
        "percentile": 100.0 * (index + 1) / len(ordered),
        "value_ms": ordered[index],
        "beyond": len(ordered) - index - 1,
        "samples": len(ordered),
    }


def end_to_end(passes: list[dict]) -> dict[str, float]:
    wall = statistics.median(p["wall_s"] for p in passes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": wall,
        "evals_per_s": passes[0]["evals"] / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "call_p50_ms": statistics.median(v for p in passes for v in p["latencies_ms"]),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["trace"]]
    untraced = [p for p in passes if not p["trace"]]
    values = {
        name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]
    }
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    return values


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    if not (ROOT / "src" / "cde" / "__init__.py").is_file():
        print(f"error: no cde source tree at {ROOT / 'src' / 'cde'}", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["trace"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["output_sha256"] for p in passes}
    changed = [p["changed_rows"] for p in passes if p["changed_rows"] is not None]
    if args.trace:
        values, specs = per_layer(passes), bench["per_layer"]
    else:
        values, specs = end_to_end(untraced), bench["end_to_end"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(passes) - len(untraced)},
        "pass_wall_s": [round(p["wall_s"], 4) for p in untraced],
        "facts": {
            "nproc": len(os.sched_getaffinity(0)),
            **untraced[0]["facts"],
            "git_commit": git_commit(),
            "src_sha256": source_digest(),
        },
        "fail_ratio": failed / attempted,
        "changed_rows": max(changed) if changed else None,
        "checked_against": "reference" if changed else "invariants",
        "outputs_identical": len(digests) == 1,
        "output_sha256": sorted(digests),
        "call_tail_ms": tail_latency([v for p in untraced for v in p["latencies_ms"]]),
    }
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
