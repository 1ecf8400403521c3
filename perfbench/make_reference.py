"""Regenerate the stored reference outputs at the default seed.

Usage, from the root of a checkout: python3 perfbench/make_reference.py

Runs one full-size, untraced pass of flagship, tiny-mc and exact at
workloads.DEFAULT_SEED and writes each output with its SHA-256 under
perfbench/reference/. A change that alters any output byte must say which
rows changed and why before it regenerates these files.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

from worker import import_cde, run_pass

ROOT = Path(__file__).resolve().parent.parent
FILES = {"flagship": "flagship.csv", "tiny-mc": "tiny-mc.txt", "exact": "exact.txt"}


def main() -> int:
    import_cde(ROOT)
    import workloads

    index = {}
    for name, filename in FILES.items():
        job = {
            "root": str(ROOT),
            "workload": name,
            "seed": workloads.DEFAULT_SEED,
            "quick": False,
            "trace": False,
            "launched": time.monotonic(),
        }
        report, output = run_pass(job, compare_reference=False)
        if report["failed"]:
            print(f"error: {name} failed {report['failed']} invariant checks", file=sys.stderr)
            return 1
        (workloads.REFERENCE_DIR / filename).write_bytes(output)
        index[name] = {
            "file": filename,
            "seed": workloads.DEFAULT_SEED,
            "sha256": hashlib.sha256(output).hexdigest(),
        }
        print(f"{name}: {report['attempted']} records -> reference/{filename}")
    (workloads.REFERENCE_DIR / "index.json").write_text(json.dumps(index, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
