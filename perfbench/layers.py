"""Per-layer metrics from the spans of a traced run.

Spans come from every traced process (daemon, solver workers, library
driver) plus the benchmark's own feeder. Only spans that start inside
the measured window count.

Definitions:

- ``busy_s`` of a layer: summed duration of its outermost spans;
  ``self_s``: summed duration minus the time covered by nested spans.
- ``serve.transport_s``: client-observed HTTP latency minus the
  daemon's ``handle`` time, summed over requests.
- ``serve.workers.pipe_s``: the supervisor's ``submit`` self time minus
  the workers' ``_execute`` time — pipe transfer and queueing.
- ``unattributed_share``: request wall time not covered by transport,
  pipe or the self time of any named layer, over request wall time.
  Container spans (``handle``, ``_run``, ``submit``) are not named
  layers here: their self time is hand-off glue, and it is what this
  share reports.
- ``trace_overhead_share``: traced mean request latency over untraced,
  minus one, from the two passes of the traced run.

Every metric is a count or sum of what the wrappers observed.
:func:`load_spans` refuses a span directory that lacks the program's
main process or any solver worker it started, so a layer that reads 0
had its wrapper installed, in every process, and never called. Ratios
whose base can be zero (hit share, affinity share, solver calls per
diagnosis) are reported by :func:`ratios`, which leaves a ratio out
when its base is 0 rather than writing 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

CONTAINERS = ("serve.daemon", "serve.daemon.run", "serve.workers.submit")

#: name -> unit, in the order they are reported.
METRICS = {
    "sat.solver.calls": "count",
    "sat.solver.busy_s": "s",
    "sat.solver.conflicts": "count",
    "sat.solver.conflicts_per_s": "1/s",
    "sat.solver.props_per_s": "1/s",
    "sat.preprocess.busy_s": "s",
    "opt.linear.busy_s": "s",
    "opt.linear.probes": "count",
    "opt.linear.unsat_probes": "count",
    "opt.linear.unsat_probe_s": "s",
    "opt.linear.max_probe_s": "s",
    "opt.linear.max_probe_conflicts": "count",
    "opt.lexicographic.busy_s": "s",
    "core.diagnose.busy_s": "s",
    "core.diagnose.calls": "count",
    "core.diagnose.solver_calls": "count",
    "core.executor.self_s": "s",
    "core.session.view_s": "s",
    "core.session.compiles": "count",
    "core.session.adopted": "count",
    "core.session.patched": "count",
    "core.session.rebases": "count",
    "core.compile.busy_s": "s",
    "serve.protocol.busy_s": "s",
    "serve.daemon.handle_s": "s",
    "serve.transport_s": "s",
    "serve.admission.shed": "count",
    "serve.pool.checkout_s": "s",
    "serve.pool.checkouts": "count",
    "serve.pool.hits": "count",
    "serve.pool.rekeyed": "count",
    "serve.pool.evictions": "count",
    "serve.workers.pipe_s": "s",
    "serve.workers.routed": "count",
    "serve.workers.affinity": "count",
    "serve.workers.kb_delta_shipped": "count",
    "serve.workers.kb_shipped": "count",
    "serve.workers.lost": "count",
    "kb.registry.apply_s": "s",
    "kb.registry.copy_s": "s",
    "kb.registry.validate_s": "s",
    "kb.store.append_s": "s",
    "extraction.sheet_to_delta_s": "s",
    "unattributed_share": "share",
    "trace_overhead_share": "share",
}


class MissingSpans(RuntimeError):
    """A traced process ended without writing its spans."""


def load_spans(directory: Path) -> tuple[list[list], dict[str, int]]:
    """Every span written to *directory*, and the span files per role.

    Raises :class:`MissingSpans` unless the program's main process (the
    daemon or the library driver) and every solver worker it started
    wrote their spans: without them a layer would read 0, not absent.
    """
    spans: list[list] = []
    roles: dict[str, int] = defaultdict(int)
    pids: set[int] = set()
    started: list[int] = []
    for path in sorted(directory.glob("spans-*.json")):
        dump = json.loads(path.read_text())
        spans.extend(dump["spans"])
        roles[dump["role"]] += 1
        pids.add(dump["pid"])
        if dump["role"] == "main":
            started.extend(dump["workers"])
    if roles["main"] != 1:
        raise MissingSpans(
            f"{roles['main']} span files of the program's main process")
    missing = sorted(set(started) - pids)
    if missing:
        raise MissingSpans(f"solver workers {missing} wrote no spans")
    return spans, dict(roles)


class Spans:
    """Spans of one traced pass, indexed by layer."""

    def __init__(self, spans: list[list], window: tuple[float, float]):
        lo, hi = window
        self.by_layer: dict[str, list[list]] = defaultdict(list)
        for span in spans:
            if lo <= span[1] <= hi:
                self.by_layer[span[0]].append(span)

    def of(self, layer: str) -> list[list]:
        return self.by_layer.get(layer, [])

    def busy(self, layer: str) -> float:
        return sum(s[2] for s in self.of(layer) if s[5])

    def self_time(self, layer: str) -> float:
        return sum(s[3] for s in self.of(layer))

    def info(self, layer: str, key: str) -> float:
        return sum((s[6] or {}).get(key) or 0 for s in self.of(layer))

    def probes(self) -> list[list]:
        return [s for s in self.of("sat.solver") if (s[6] or {}).get("probe")]


def per_layer(spans: Spans, wall_s: float, http_s: float,
              overhead_share: float) -> dict[str, float]:
    """Every metric of :data:`METRICS`.

    *wall_s* is the summed client-observed time of every request in the
    traced pass; *http_s* the part of it spent on HTTP round trips.
    """
    solver = spans.of("sat.solver")
    solver_busy = spans.busy("sat.solver")
    probes = spans.probes()
    unsat = [s for s in probes if s[6]["sat"] is False]
    handle_s = sum(s[2] for s in spans.of("serve.daemon"))
    pipe_s = (
        spans.self_time("serve.workers.submit")
        - sum(s[2] for s in spans.of("serve.workers.execute"))
    )
    transport_s = http_s - handle_s
    named_self = sum(
        spans.self_time(layer) for layer in spans.by_layer
        if layer not in CONTAINERS
    )
    unattributed_s = wall_s - transport_s - pipe_s - named_self
    rate = (lambda n: n / solver_busy) if solver_busy > 0 else (lambda n: 0.0)
    out = {
        "sat.solver.calls": len(solver),
        "sat.solver.busy_s": solver_busy,
        "sat.solver.conflicts": spans.info("sat.solver", "conflicts"),
        "sat.solver.conflicts_per_s": rate(
            spans.info("sat.solver", "conflicts")),
        "sat.solver.props_per_s": rate(spans.info("sat.solver", "props")),
        "sat.preprocess.busy_s": spans.busy("sat.preprocess"),
        "opt.linear.busy_s": spans.busy("opt.linear"),
        "opt.linear.probes": len(probes),
        "opt.linear.unsat_probes": len(unsat),
        "opt.linear.unsat_probe_s": sum(s[2] for s in unsat),
        "opt.linear.max_probe_s": max((s[2] for s in probes), default=0.0),
        "opt.linear.max_probe_conflicts": max(
            (s[6]["conflicts"] for s in probes), default=0),
        "opt.lexicographic.busy_s": spans.busy("opt.lexicographic"),
        "core.diagnose.busy_s": spans.busy("core.diagnose"),
        "core.diagnose.calls": sum(
            1 for s in spans.of("core.diagnose") if s[5]),
        "core.diagnose.solver_calls": sum(
            1 for s in solver if s[4] == "core.diagnose"),
        "core.executor.self_s": spans.self_time("core.executor"),
        "core.session.view_s": spans.busy("core.session"),
        "core.session.compiles": spans.info("core.compile", "compiles"),
        "core.session.adopted": spans.info("core.session", "adopted"),
        "core.session.patched": spans.info("core.session", "patched"),
        "core.session.rebases": spans.info("core.session", "rebases"),
        "core.compile.busy_s": spans.busy("core.compile"),
        "serve.protocol.busy_s": spans.busy("serve.protocol"),
        "serve.daemon.handle_s": handle_s,
        "serve.transport_s": transport_s,
        "serve.admission.shed": spans.info("serve.admission", "shed"),
        "serve.pool.checkout_s": spans.busy("serve.pool.checkout"),
        "serve.pool.checkouts": len(spans.of("serve.pool.checkout")),
        "serve.pool.hits": spans.info("serve.pool.checkout", "hit"),
        "serve.pool.rekeyed": spans.info("serve.pool.checkout", "rekeyed"),
        "serve.pool.evictions": (
            spans.info("serve.pool.checkout", "evictions")
            + spans.info("serve.pool.checkin", "evictions")),
        "serve.workers.pipe_s": pipe_s,
        "serve.workers.routed": len(spans.of("serve.workers.submit")),
        "serve.workers.affinity": spans.info("serve.workers", "affinity"),
        "serve.workers.kb_delta_shipped": spans.info(
            "serve.workers", "kb_delta_shipped"),
        "serve.workers.kb_shipped": spans.info("serve.workers", "kb_shipped"),
        "serve.workers.lost": len(spans.of("serve.workers.lost")),
        "kb.registry.apply_s": spans.busy("kb.registry.apply"),
        "kb.registry.copy_s": spans.busy("kb.registry.copy"),
        "kb.registry.validate_s": spans.busy("kb.registry.validate"),
        "kb.store.append_s": spans.busy("kb.store"),
        "extraction.sheet_to_delta_s": spans.busy("extraction"),
        "unattributed_share": unattributed_s / wall_s if wall_s else 0.0,
        "trace_overhead_share": overhead_share,
    }
    return out


def ratios(metrics: dict[str, float]) -> dict[str, float]:
    """Shares and per-call ratios, left out when their base is zero."""
    out = {}
    for name, num, base in (
        ("serve.pool.hit_share", "serve.pool.hits", "serve.pool.checkouts"),
        ("serve.workers.affinity_share", "serve.workers.affinity",
         "serve.workers.routed"),
        ("core.diagnose.solver_calls_per_diagnosis",
         "core.diagnose.solver_calls", "core.diagnose.calls"),
    ):
        if metrics[base]:
            out[name] = metrics[num] / metrics[base]
    return out


def probe_table(spans: Spans) -> list[dict]:
    """One row per capex bisection probe, in call order."""
    rows = []
    for index, span in enumerate(
        sorted(spans.probes(), key=lambda s: s[1])
    ):
        info = span[6]
        rows.append({
            "probe": index,
            "bound": info["bound"],
            "verdict": "sat" if info["sat"] else "unsat",
            "conflicts": info["conflicts"],
            "seconds": span[2],
        })
    return rows
