"""The repository benchmark: the program driven from outside, as users do.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``WORKLOADS.md`` has the full rationale):

- ``casestudy_synthesize`` — the §2.3 flagship ``synthesize`` through the
  library engine, one caller, closed loop;
- ``ingest_daemon`` — ``repro serve --workers 2 --kb-store``, one
  architect plus a spec-sheet feeder that ``PUT``s a KB delta before
  every query.

A run measures whole units of work: ``synthesize`` calls until
``--seconds`` have passed (at least one), or whole passes over the
architect's stream until ``--seconds`` have passed (at least two). The
window is therefore the longer of that minimum and ``--seconds``
rounded up to a whole unit.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` the workload runs twice, untraced then traced (each
for half of ``--seconds`` and at least one pass), and the last line
holds the per-layer metrics. The line before it is a detail
report: per-verb latencies, error and wrong-answer counts, ratios with
their bases, span files per traced process role and, for the case
study, the synthesize CPU time and the bisection probe table.

The program is started through ``launch.py``; every process the
benchmark starts is stopped and waited for before it prints. Temporary
files live under ``<checkout>/.perfbench``. Answers are checked against
fresh-engine references (``checker.py``); a wrong or failed answer makes
``correct`` false and the exit code 1. ``--corrupt-reference`` is the
checker self-test: it spoils every reference, so the run must fail.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Program launches per run whose set-up time is measured (median taken).
#: One daemon launch varies by about 20% (IQR/median, 2-core box), most
#: of it in interpreter start-up and imports.
SETUP_REPEATS = 5
#: Timed passes over the architect's stream, at the least. A pass's latencies
#: depend on the order the seed picks; over five seeds the ingest spreads
#: were 10-15% with one pass and 5-8% with two (2-core box, where one
#: pass takes 13-21 s).
MIN_PASSES = 2
#: Solver worker processes of the ingest daemon (``serve --workers``).
INGEST_WORKERS = 2
#: Seconds the benchmark waits for the program before giving up.
PROGRAM_TIMEOUT = 60.0

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, round(p * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


# -- the program's processes --------------------------------------------------------


def _children() -> dict[int, list[int]]:
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def process_tree(pid: int) -> list[int]:
    """*pid* and all its live descendants."""
    tree = _children()
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(tree.get(current, ()))
    return out


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def peak_rss_mb(pids: list[int]) -> float:
    """Summed peak resident set (VmHWM) of *pids*, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A process the program starts and leaves behind (a helper of
    ``multiprocessing``, say) is re-parented to this process instead of
    to init, so :func:`reap_leftovers` can stop it before the benchmark
    exits.
    """
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_leftovers(grace: float = 10.0) -> None:
    """Wait for every remaining child of this process to end (SIGKILL
    after *grace* seconds) and reap it."""
    me = os.getpid()
    pids = [pid for pid in _children().get(me, ()) if pid != me]
    deadline = time.monotonic() + grace
    for pid in pids:
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


class Program:
    """One launched process of the program under test."""

    def __init__(self, ctx: "Context", argv: list[str],
                 trace_dir: Path | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(ctx.rundir)
        env.pop("PERFBENCH_TRACE_DIR", None)
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), *argv],
            cwd=str(ROOT), env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self.stderr: list[str] = []
        self.port: int | None = None
        self._port_seen = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr,
                                        daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._port_seen.set()
        self._port_seen.set()

    def fail(self, what: str) -> RuntimeError:
        tail = "".join(self.stderr[-20:])
        return RuntimeError(f"{what}; program stderr:\n{tail}")

    # library driver ------------------------------------------------------------

    def read_json(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=PROGRAM_TIMEOUT)
            raise self.fail("library driver exited early")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.read_json()

    def quit(self) -> float:
        """End the library driver; returns its peak RSS in MiB.

        Waits for a normal exit, so a traced driver writes its spans.
        """
        rss = self.command("quit")["peak_rss_mb"]
        self.proc.wait(timeout=PROGRAM_TIMEOUT)
        return rss

    # daemon ----------------------------------------------------------------------

    def wait_serving(self, workers: int) -> float:
        """Block until the daemon answers; returns seconds since launch.

        Ready means the HTTP transport answers ``/healthz`` and every one
        of the *workers* solver processes has answered a ``/stats`` ping.
        """
        if not self._port_seen.wait(PROGRAM_TIMEOUT) or self.port is None:
            raise self.fail("daemon never reported its port")
        client = Http(self.port)
        try:
            status, body = client.call("GET", "/healthz")
            if status != 200 or not body.get("ok"):
                raise self.fail(f"/healthz answered {status} {body}")
            while True:
                status, body = client.call("GET", "/stats")
                live = [w for w in body.get("workers", [])
                        if w.get("alive") and
                        w.get("last_pong_age_s") is not None]
                if len(live) == workers:
                    break
                if time.monotonic() - self.started > PROGRAM_TIMEOUT:
                    raise self.fail("solver workers never came up")
        finally:
            client.close()
        return time.monotonic() - self.started

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then wait for the whole tree."""
        if self.proc.poll() is None:
            tree = process_tree(self.proc.pid)
            if self.proc.stdin:
                try:
                    self.proc.stdin.close()
                except OSError:
                    pass
            self.proc.send_signal(signal.SIGTERM)
        else:
            tree = [self.proc.pid]
        try:
            self.proc.wait(timeout=PROGRAM_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 15.0
        for pid in tree[1:]:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self._reader.join(timeout=5.0)


class Http:
    """One keep-alive HTTP connection to the daemon."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=PROGRAM_TIMEOUT)

    def call(self, method: str, path: str, body: bytes | None = None):
        self.conn.request(method, path, body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


# -- one pass of load ----------------------------------------------------------------


@dataclass
class Record:
    """One request as the client saw it."""

    kind: str  # check | diagnose | put_kb | synthesize
    latency: float
    error: str | None = None
    index: int = -1  # query index within the architect's stream
    result: object = None  # the answer's wire result
    op: dict | None = None  # put_kb: the delta op sent
    http_s: float = 0.0  # part of latency spent on the HTTP round trip


@dataclass
class Pass:
    """What one run of the load produced."""

    records: list[Record] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)
    peak_rss_mb: float = 0.0
    wrong: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.error is not None)


@dataclass
class Context:
    seed: int
    seconds: float
    corrupt: bool
    rundir: Path
    launches: int = 0
    min_passes: int = MIN_PASSES


def _query(http: Http, index: int, verb: str, body: bytes) -> Record:
    start = time.monotonic()
    try:
        status, payload = http.call("POST", "/query", body)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        return Record(verb, time.monotonic() - start, f"transport {exc!r}",
                      index)
    latency = time.monotonic() - start
    if not payload.get("ok"):
        code = (payload.get("error") or {}).get("code", f"http {status}")
        return Record(verb, latency, code, index, http_s=latency)
    return Record(verb, latency, None, index, payload.get("result"),
                  http_s=latency)


def _envelopes() -> list[tuple[str, object, bytes]]:
    import streams

    return [
        (verb, request, json.dumps({
            "verb": verb, "kb": "default", "client": "architect",
            "request": request.to_dict(),
        }).encode())
        for verb, request in streams.architect_queries()
    ]


def _whole_passes(passes, minimum: int, deadline: float):
    """Query indices of whole passes (so every query is answered equally
    often): at least *minimum*, then more until *deadline*."""
    for done, block in enumerate(passes, start=1):
        yield from block
        if done >= minimum and time.monotonic() >= deadline:
            return


def ingest_pass(ctx: Context, program: Program, seconds: float) -> Pass:
    """One architect plus a spec-sheet feeder.

    The architect sends whole seeded passes of its stream: at least
    ``ctx.min_passes``, and more until *seconds* have elapsed. Before
    every query the feeder turns one spec sheet into a delta op and
    ``PUT``s it, and the query waits for the acknowledgement: a re-issued
    sheet before a ``check`` (the session rebases), a refresh SKU before
    a ``diagnose`` (the session adopts the delta). Tying the delta kind
    to the verb keeps the work of a pass the same whatever order the
    seed picks.
    """
    import streams
    from repro.extraction import specsheet
    from repro.knowledge import default_knowledge_base

    queries = _envelopes()
    feed = streams.SheetFeed(default_knowledge_base(), ctx.seed)
    result = Pass()
    architect, feeder = Http(program.port), Http(program.port)
    try:
        start = time.monotonic()
        passes = streams.query_passes(ctx.seed, len(queries))
        for index in _whole_passes(passes, ctx.min_passes, start + seconds):
            verb, _, body = queries[index]
            kind, text = feed.reissue() if verb == "check" else feed.refresh()
            t0 = time.monotonic()
            op = specsheet.spec_sheet_to_delta_op(text, kind)
            envelope = json.dumps(
                {"verb": "put_kb", "kb": "default", "ops": [op]}
            ).encode()
            t1 = time.monotonic()
            try:
                status, payload = feeder.call("PUT", "/kb", envelope)
                error = None if payload.get("ok") else (
                    (payload.get("error") or {}).get("code", f"http {status}")
                )
            except (OSError, http.client.HTTPException, ValueError) as exc:
                error = f"transport {exc!r}"
            t2 = time.monotonic()
            result.records.append(Record("put_kb", t2 - t0, error, op=op,
                                         http_s=t2 - t1))
            result.records.append(_query(architect, index, verb, body))
        result.window = (start, time.monotonic())
    finally:
        architect.close()
        feeder.close()
    result.peak_rss_mb = peak_rss_mb(process_tree(program.proc.pid))
    return result


# -- correctness ---------------------------------------------------------------------


def check_daemon_pass(ctx: Context, run: Pass) -> None:
    """Verify every answer against its fresh-engine reference.

    KB deltas are applied to the checker's own KB copy at the same
    points in the schedule, so each reference sees the KB state the
    daemon answered on.
    """
    import checker
    import streams

    queries = streams.architect_queries()
    ops: list[dict] = []
    answers, records = [], []
    for record in run.records:
        if record.error is not None:
            continue
        if record.kind == "put_kb":
            ops.append(record.op)
            continue
        verb, request = queries[record.index]
        answers.append((len(ops), verb, request, record.result))
        records.append(record)
    problems = checker.verify_answers(ops, answers, ctx.corrupt)
    for record, problem in zip(records, problems):
        if problem is not None:
            run.wrong.append(f"#{record.index} {record.kind}: {problem}")


# -- workloads -----------------------------------------------------------------------


def ingest_workload(ctx: Context, repeats: int, seconds: float,
                    trace_dir: Path | None = None):
    """Launch ``repro serve --workers 2 --kb-store`` *repeats* times
    (set-up, each on a new store), run :func:`ingest_pass` on the last
    launch, stop it and check the answers.

    Returns ``(pass, setup seconds of every launch)``.
    """
    setups = []
    for i in range(repeats):
        ctx.launches += 1
        store = ctx.rundir / f"kb-{ctx.launches}.sqlite"
        program = Program(
            ctx, ["serve", "--port", "0", "--workers", str(INGEST_WORKERS),
                  "--kb-store", str(store)],
            trace_dir if i == repeats - 1 else None)
        try:
            setups.append(program.wait_serving(INGEST_WORKERS))
            if i == repeats - 1:
                run = ingest_pass(ctx, program, seconds)
        finally:
            program.stop()
    check_daemon_pass(ctx, run)
    return run, setups


def library_pass(ctx: Context, repeats: int, seconds: float,
                 trace_dir: Path | None = None):
    """Launch the library driver *repeats* times (set-up), then run
    ``synthesize`` closed-loop on the last one for *seconds* (at least
    once)."""
    import checker
    from repro.knowledge import default_knowledge_base
    from repro.knowledge.casestudy import inference_case_study

    setups = []
    for i in range(repeats):
        program = Program(ctx, ["library"],
                          trace_dir if i == repeats - 1 else None)
        try:
            program.read_json()
        except BaseException:
            program.stop()
            raise
        setups.append(time.monotonic() - program.started)
        if i < repeats - 1:
            program.quit()
            program.stop()
    run = Pass()
    try:
        deadline = time.monotonic() + seconds
        answers = []
        while not answers or time.monotonic() < deadline:
            answers.append(program.command("synthesize"))
        run.peak_rss_mb = program.quit()
    finally:
        program.stop()
    run.window = (answers[0]["start"],
                  answers[-1]["start"] + answers[-1]["latency_s"])
    kb = default_knowledge_base()
    for i, answer in enumerate(answers):
        run.records.append(Record("synthesize", answer["latency_s"],
                                  result=answer))
        for problem in checker.check_casestudy(
            kb, inference_case_study(), answer, ctx.corrupt
        ):
            run.wrong.append(f"synthesize #{i}: {problem}")
    return run, setups


def run_workload(ctx: Context, name: str, repeats: int, seconds: float,
                 trace_dir: Path | None = None):
    if name == "casestudy_synthesize":
        return library_pass(ctx, repeats, seconds, trace_dir)
    return ingest_workload(ctx, repeats, seconds, trace_dir)


WORKLOADS = ("casestudy_synthesize", "ingest_daemon")


# -- reporting -----------------------------------------------------------------------


def _p50(records: list[Record], kind: str) -> float | None:
    values = [r.latency for r in records if r.kind == kind and not r.error]
    return statistics.median(values) if values else None


def detail_report(run: Pass) -> dict:
    ok = [r for r in run.records if r.error is None]
    kinds = sorted({r.kind for r in run.records})
    out = {
        "requests": len(run.records),
        "errors": run.failed,
        "error_rate": run.failed / len(run.records),
        "wrong_answers": len(run.wrong),
        "wrong_detail": run.wrong[:10],
        "error_detail": sorted({r.error for r in run.records if r.error})[:10],
        "samples": {k: sum(1 for r in ok if r.kind == k) for k in kinds},
    }
    for kind in kinds:
        value = _p50(ok, kind)
        if value is not None:
            label = "ingest" if kind == "put_kb" else kind
            out[f"{label}_p50_s"] = value
    answers = _answer_latencies(run)
    if len(answers) >= 20:
        # The highest percentile with ten answers beyond it.
        p = 1 - 10 / len(answers)
        out["latency_tail"] = {"percentile": round(p, 3),
                               "seconds": percentile(answers, p),
                               "answers": len(answers)}
    synth = [r.result for r in ok if r.kind == "synthesize"]
    if synth:
        out["design_capex_usd"] = synth[0]["cost_usd"]
        out["synthesize_cpu_s"] = statistics.median(
            a["cpu_s"] for a in synth)
    return out


def _answer_latencies(run: Pass) -> list[float]:
    """Answered queries (not the feeder's ``PUT /kb`` round trips, which
    are ``ingest_p50_s``)."""
    return [r.latency for r in run.records
            if r.error is None and r.kind != "put_kb"]


def end_to_end(run: Pass, setups: list[float]) -> dict[str, float]:
    answers = _answer_latencies(run)
    wall = run.window[1] - run.window[0]
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_s": percentile(answers, 0.50),
        "throughput_qps": len(answers) / wall,
        "peak_rss_mb": run.peak_rss_mb,
    }


def traced(ctx: Context, name: str) -> tuple[dict, dict, list[Pass]]:
    """Untraced pass, then traced pass; per-layer metrics of the latter."""
    import layers
    import tracing

    half = ctx.seconds / 2
    ctx.min_passes = 1
    plain, _ = run_workload(ctx, name, 1, half)
    trace_dir = ctx.rundir / "spans"
    feeder = tracing.Recorder("feeder")
    from repro.extraction import specsheet

    specsheet.spec_sheet_to_delta_op = feeder.wrap(
        "extraction", specsheet.spec_sheet_to_delta_op)
    run, _ = run_workload(ctx, name, 1, half, trace_dir)
    feeder.dump(str(trace_dir))
    found, span_files = layers.load_spans(trace_dir)
    spans = layers.Spans(found, run.window)

    def mean_latency(p: Pass) -> float:
        values = [r.latency for r in p.records if r.error is None]
        return sum(values) / len(values)

    metrics = layers.per_layer(
        spans,
        wall_s=sum(r.latency for r in run.records),
        http_s=sum(r.http_s for r in run.records),
        overhead_share=mean_latency(run) / mean_latency(plain) - 1.0,
    )
    detail = {"span_files": span_files, "ratios": layers.ratios(metrics)}
    if name == "casestudy_synthesize":
        detail["probe_table"] = layers.probe_table(spans)
    return metrics, detail, [plain, run]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="checker self-test: spoil every reference")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    rundir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    ctx = Context(seed=args.seed, seconds=args.seconds,
                  corrupt=args.corrupt_reference, rundir=rundir)
    import layers

    become_subreaper()
    try:
        if args.trace:
            metrics, detail, passes = traced(ctx, args.workload)
            units = layers.METRICS
        else:
            run, setups = run_workload(ctx, args.workload, SETUP_REPEATS,
                                       ctx.seconds)
            metrics, units = end_to_end(run, setups), E2E_UNITS
            detail = {"setup_samples_s": setups}
            passes = [run]
    except layers.MissingSpans as exc:
        print(f"error: traced run incomplete: {exc}", file=sys.stderr)
        return 1
    finally:
        reap_leftovers()
        shutil.rmtree(rundir, ignore_errors=True)
    for i, run in enumerate(passes):
        detail[f"pass{i}"] = detail_report(run)
    wrong = sum(len(p.wrong) for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": wrong == 0 and failed == 0,
        "attempted": sum(len(p.records) for p in passes),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
