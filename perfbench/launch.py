"""Start the program under test the way its users start it.

Two modes::

    python3 perfbench/launch.py serve [repro serve flags...]
    python3 perfbench/launch.py library

``serve`` runs ``repro serve`` unchanged. ``library`` is an architect's
script over the engine: it builds the default knowledge base, prints
``{"ready": ...}`` and then answers commands read from stdin, one per
line, with one JSON line each:

- ``synthesize`` — ``ReasoningEngine(kb).synthesize(inference_case_study())``
  on a fresh engine, timed around that call (wall and CPU time);
- ``quit`` — report peak RSS and exit.

When ``PERFBENCH_TRACE_DIR`` is set, the timing wrappers of
``tracing.py`` are installed here, at module top level, before the
program runs. Solver workers started with the ``spawn`` method import
this file as their main module, so they are traced too. Each traced
process writes its spans into that directory when it ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))

import tracing  # noqa: E402

_TRACE_DIR = os.environ.get(tracing.TRACE_DIR_ENV)
_RECORDER = tracing.install("main", _TRACE_DIR) if _TRACE_DIR else None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _library() -> int:
    from repro.core.engine import ReasoningEngine
    from repro.knowledge import default_knowledge_base
    from repro.knowledge.casestudy import inference_case_study

    kb = default_knowledge_base()
    kb.validate_or_raise()
    _emit({"ready": True})
    for line in sys.stdin:
        command = line.strip()
        if command == "synthesize":
            request = inference_case_study()
            start, cpu = time.monotonic(), time.process_time()
            outcome = ReasoningEngine(kb).synthesize(request)
            latency = time.monotonic() - start
            cpu = time.process_time() - cpu
            solution = outcome.solution
            _emit({
                "start": start,
                "latency_s": latency,
                "cpu_s": cpu,
                "feasible": outcome.feasible,
                "systems": sorted(solution.systems) if solution else None,
                "hardware": dict(solution.hardware) if solution else None,
                "objective_costs": (
                    dict(solution.objective_costs) if solution else None
                ),
                "cost_usd": solution.cost_usd if solution else None,
            })
        elif command == "quit":
            break
    _emit({"peak_rss_mb": _peak_rss_mb()})
    return 0


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in ("serve", "library"):
        print("usage: launch.py serve [flags] | launch.py library",
              file=sys.stderr)
        return 2
    try:
        if argv[0] == "library":
            return _library()
        from repro.cli import main as repro_main

        return repro_main(["serve", *argv[1:]])
    finally:
        if _RECORDER is not None:
            _RECORDER.dump(_TRACE_DIR)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
