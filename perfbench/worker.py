"""One pass of one workload, in a fresh Python process.

Usage: python3 perfbench/worker.py '<job JSON>'

The job names the checkout root, the workload, the seed, whether to use the
minimal (quick) size, whether to trace, and the parent's time.monotonic()
at launch. The worker imports cde from <root>/src, makes the inputs from the
seed, runs one timed pass, checks its output and prints one JSON line.
Set-up time runs from the launch to inputs ready, so it includes
interpreter start-up and `import cde`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path


def import_cde(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import cde

    if Path(cde.__file__).resolve() != (src / "cde" / "__init__.py").resolve():
        raise RuntimeError(f"cde was imported from {cde.__file__}, not from {src}")
    return cde


def peak_rss_mb() -> float:
    # VmHWM is this process's own high-water mark; ru_maxrss can carry the
    # parent's resident size across fork and exec.
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(job: dict, compare_reference: bool = True) -> tuple[dict, bytes]:
    root = Path(job["root"])
    cde = import_cde(root)
    import numpy as np

    import spans
    import workloads

    workload = workloads.WORKLOADS[job["workload"]]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmpdir:
        inputs = workload.setup(job["seed"], job["quick"], tmpdir)
        setup_s = time.monotonic() - job["launched"]
        tracer = spans.Tracer() if job["trace"] else None
        with tracer or contextlib.nullcontext():
            started = time.perf_counter()
            result = workload.run(inputs)
            wall_s = time.perf_counter() - started

    bad = workload.check(inputs, result)
    changed_rows = None
    if compare_reference and job["seed"] == workloads.DEFAULT_SEED and not job["quick"]:
        reference = workloads.load_reference(job["workload"])
        h = len(result.header)
        if result.header != reference[:h]:
            ref_bad, changed_rows = set(range(workload.attempted(inputs))), workload.attempted(inputs)
        else:
            ref_bad, changed_rows = workloads.compare_to_reference(result.records, reference[h:])
        bad |= ref_bad

    output = result.output()
    report = {
        "trace": bool(job["trace"]),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_ms": result.latencies_ms,
        "evals": inputs["evals"],
        "attempted": workload.attempted(inputs),
        "failed": len(bad),
        "changed_rows": changed_rows,
        "output_sha256": hashlib.sha256(output).hexdigest(),
        "peak_rss_mb": peak_rss_mb(),
        "facts": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cde_version": getattr(cde, "__version__", "unknown"),
            "workers": workload.workers,
        },
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(inputs["mc_evals"], workload.workers)
    return report, output


def main() -> int:
    job = json.loads(sys.argv[1])
    report, _ = run_pass(job)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
