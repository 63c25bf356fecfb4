"""Checker self-test: a corrupted reference must make the benchmark fail.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs ``run.py --corrupt-reference`` on each workload (default: every
workload in ``BENCHMARK.json``) and expects exit code 1 with
``"correct": false`` on the last line. Exits 0 only if every run failed
that way.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    workloads = argv or [
        w["name"]
        for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())[
            "workloads"
        ]
    ]
    ok = True
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--corrupt-reference"],
            capture_output=True, text=True, cwd=str(HERE.parent),
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        failed = proc.returncode == 1 and result.get("correct") is False
        print(f"{workload}: exit {proc.returncode}, correct="
              f"{result.get('correct')} -> "
              f"{'fails as it must' if failed else 'DID NOT FAIL'}")
        ok = ok and failed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
