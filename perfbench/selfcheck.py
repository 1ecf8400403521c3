"""Quick self-check of the benchmark itself.

Usage, from the root of a checkout: python3 perfbench/selfcheck.py

1. BENCHMARK.json keeps the shape the benchmark contract fixes, and
   layers.json names only metrics that BENCHMARK.json defines.
2. Every workload runs at minimal size, untraced and traced; each prints a
   correct result whose metric names and units match BENCHMARK.json, and
   the traced passes' output is byte-identical to the untraced passes'.
3. In a directory holding only BENCHMARK.json and the benchmark's own
   files, the command exits non-zero without printing a result.

Exits 0 when every check passes; otherwise lists the failures and exits 1.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 180


def check_manifest(bench: dict, raw_size: int) -> list[str]:
    errors = []

    def need(ok, message):
        if not ok:
            errors.append(message)

    need(raw_size <= 64 * 1024, "BENCHMARK.json is larger than 64 KiB")
    need(set(bench) == TOP_KEYS, f"BENCHMARK.json keys are {sorted(bench)}")
    command = bench.get("command", [])
    need(1 <= len(command) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in command), "bad command")
    need(not any(c.startswith("/") or ".." in c.split("/") for c in command), "command leaves the checkout")
    paths = bench.get("paths", [])
    need(1 <= len(paths) <= 16, "paths must hold 1 to 16 entries")
    for p in paths:
        need(PATH.fullmatch(p) is not None and ".." not in p.split("/"), f"bad path {p!r}")
        need((ROOT / p).is_dir(), f"path {p!r} is not a directory")
        need(not any(f.is_symlink() for f in (ROOT / p).rglob("*")), f"path {p!r} holds a link")
    run_seconds = bench.get("run_seconds")
    need(isinstance(run_seconds, int) and 1 <= run_seconds <= 60, "run_seconds must be a whole number in 1..60")
    names = []
    workloads = bench.get("workloads", [])
    need(2 <= len(workloads) <= 8, "need 2 to 8 workloads")
    for w in workloads:
        need(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        need(len(w.get("why", "")) <= 200 and "\n" not in w.get("why", ""), f"why of {w.get('name')} is not one short line")
        names.append(w.get("name", ""))
    for section, keys, low, high in (
        ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
        ("per_layer", {"name", "unit", "better"}, 1, 128),
    ):
        metrics = bench.get(section, [])
        need(low <= len(metrics) <= high, f"{section} must hold {low} to {high} metrics")
        for m in metrics:
            need(set(m) == keys, f"{section} metric keys {sorted(m)}")
            need(UNIT.fullmatch(m.get("unit", "")) is not None, f"bad unit {m.get('unit')!r}")
            need(m.get("better") in ("lower", "higher"), f"bad better {m.get('better')!r}")
            if "bound" in keys:
                need(0 < m.get("bound", 0) <= 0.25, f"bound of {m.get('name')} must lie in (0, 0.25]")
            names.append(m.get("name", ""))
    need(all(NAME.fullmatch(n) for n in names), "a name breaks the naming rule")
    need(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in bench.get("end_to_end", []) if m.get("name") == "setup_s"]
    need(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s must be in s, lower")
    return errors


def check_layers_map(bench: dict) -> list[str]:
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]} | {m["name"] for m in bench["per_layer"]}
    errors = []
    for entry in layers["layer_metrics"]:
        for name in entry["metrics"] + entry["should_move"]:
            if name not in metrics:
                errors.append(f"layers.json names unknown metric {name!r}")
        for name in entry["on"] + entry["no_change_on"]:
            if name not in workloads:
                errors.append(f"layers.json names unknown workload {name!r}")
    if set(layers["primary_layer"]) != workloads:
        errors.append("layers.json primary_layer must cover every workload")
    mapped = {name for entry in layers["layer_metrics"] for name in entry["metrics"]}
    for m in bench["per_layer"]:
        if m["name"] not in mapped:
            errors.append(f"per-layer metric {m['name']!r} is missing from layers.json")
    return errors


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
               "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def check_runs(bench: dict) -> list[str]:
    errors = []
    for w in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} --trace {trace}"
            proc = run(ROOT, w["name"], trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            summary, result = json.loads(lines[-2]), json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: v.get("unit") for name, v in result.get("metrics", {}).items()}
            if set(result) != RESULT_KEYS:
                errors.append(f"{label}: result keys {sorted(result)}")
            elif not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{label}: incorrect result {result['attempted']} attempted, {result['failed']} failed")
            if got != expected:
                errors.append(f"{label}: metrics {sorted(got)} differ from BENCHMARK.json {section}")
            if not all(isinstance(v.get("value"), (int, float)) for v in result.get("metrics", {}).values()):
                errors.append(f"{label}: a metric value is not a number")
            if not summary.get("outputs_identical"):
                errors.append(f"{label}: passes (traced and untraced) produced different output")
            print(f"selfcheck: {label}: {len(got)} metrics, {result['attempted']} records")
    return errors


def check_isolated(bench: dict) -> list[str]:
    """Without the program's sources the command must fail and print no result."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-selfcheck-", dir=ROOT) as tmp:
        shutil.copy2(ROOT / "BENCHMARK.json", tmp)
        for p in bench["paths"]:
            shutil.copytree(ROOT / p, Path(tmp) / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(tmp), bench["workloads"][0]["name"], 0)
    if proc.returncode == 0 or any(line.startswith('{"correct"') for line in proc.stdout.splitlines()):
        return ["the benchmark ran without the program's sources"]
    return []


def main() -> int:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    bench = json.loads(raw)
    errors = check_manifest(bench, len(raw))
    if not errors:
        errors = check_layers_map(bench) + check_isolated(bench) + check_runs(bench)
    for message in errors:
        print(f"selfcheck: FAIL {message}")
    print("selfcheck: ok" if not errors else f"selfcheck: {len(errors)} failures")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
