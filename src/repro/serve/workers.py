"""Multi-process solver execution: a shape-affinity worker pool.

The threaded daemon runs every solve on one Python interpreter, so
aggregate throughput tops out near a single core no matter how many
clients connect. This module adds the scale-out path: a supervisor in
the asyncio front-end process forks N solver **worker processes**, each
owning its own warm :class:`~repro.serve.pool.SessionPool`, connected
over per-worker duplex pipes speaking the same canonical-JSON envelopes
as the public wire (:mod:`repro.serve.protocol`).

Layout::

    front-end process (asyncio)            worker process (x N)
    ---------------------------            -----------------------------
    parse / admit / rate-limit             worker_main():
    WorkerSupervisor.submit()                recv exec/ping/load_kb/...
      route by shape affinity   --pipe-->    SessionPool checkout
      reader+writer thread per  <--pipe--    execute_pooled() solve
      worker, frames dispatched              reply result / stream frames
      onto the event loop

Design rules:

1. **Affinity first, load second.** Requests are routed by a consistent
   hash of the session-pool key ``(kb_name, kb_fingerprint, shape)``, so
   repeat shapes land on the worker that already compiled them and warm
   sessions stay hot instead of being recompiled in every process. When
   the preferred worker's queue is deeper than ``spill_depth``, the
   request spills to the least-loaded worker (a cold compile beats
   convoying behind a deep queue).
2. **Streams relay incrementally.** Worker stream frames are forwarded
   to the transport as they arrive over the pipe — the supervisor never
   buffers a whole enumeration before the client sees the first item.
3. **A dead worker never hangs a client.** The per-worker reader thread
   detects pipe EOF (and the heartbeat monitor detects silent exits);
   every in-flight request on the dead worker fails with a structured
   ``worker_lost`` error and a replacement process is spawned into the
   same slot, preserving the routing ring.
4. **Spawn-safe.** Workers are started through a configurable
   ``multiprocessing`` context (``spawn`` by default): the entry point
   is a top-level function and knowledge bases are shipped as their
   JSON serialization, never pickled live objects. KB mutations in the
   front-end are re-shipped lazily, keyed by (version, fingerprint):
   when the front-end KB's mutation journal still covers the version a
   worker holds, only the changed entities travel as an ``apply_delta``
   op list instead of the whole KB.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import queue
import threading
import time
from dataclasses import dataclass

from repro.core.session import shape_key
from repro.errors import KnowledgeBaseError, QueryError
from repro.kb.registry import KnowledgeBase
from repro.obs.metrics import LatencyHistogram, MetricsRegistry
from repro.par.cache import QueryCache
from repro.serve.pool import SessionPool, execute_pooled
from repro.serve.protocol import (
    WireError,
    canonical_json,
    envelope_to_query,
    result_items,
    result_to_wire,
    stream_error_frame,
)

__all__ = ["StreamRelay", "WorkerSupervisor", "worker_main"]

#: Aggregatable (summable) fields of ``SessionPool.stats_dict()``.
_POOL_SUM_FIELDS = (
    "hits", "misses", "evictions", "stale_purged", "rekeyed",
    "discarded_poisoned", "discarded_overflow",
    "adopted", "patched", "rebased", "compiles",
    "idle", "in_use", "size", "distinct_keys",
)

#: Hash-ring points per worker slot. Enough that shapes spread evenly;
#: the ring only has to be *stable*, since the slot count is fixed for
#: the daemon's lifetime and respawned workers keep their slot.
_RING_REPLICAS = 16

#: A worker that dies within this many seconds of spawning "died fast" —
#: after _MAX_FAST_DEATHS consecutive fast deaths the slot is disabled
#: instead of respawned, so a persistent boot failure (bad interpreter,
#: OOM-on-import) cannot become a fork bomb.
_FAST_DEATH_S = 1.0
_MAX_FAST_DEATHS = 3


# -- worker side (runs in the child process) ---------------------------------------


def _worker_stats(pool: SessionPool, metrics: MetricsRegistry) -> dict:
    return {
        "pool": pool.stats_dict(),
        "counters": metrics.as_dict().get("counters", {}),
        "histograms": metrics.histogram_states(),
    }


def _execute(conn, msg: dict, kbs: dict, pool: SessionPool,
             metrics: MetricsRegistry) -> None:
    """Answer one ``exec`` message with result / stream / error frames.

    Error classification mirrors ``ReasoningDaemon.handle`` exactly
    (``str`` for query/KB errors, ``repr`` for internal ones) so
    process-mode error payloads are byte-identical to threaded-mode
    ones.
    """
    rid = msg.get("rid")
    try:
        kb_name, query, stream = envelope_to_query(msg["envelope"])
        kb = kbs.get(kb_name)
        if kb is None:
            raise WireError(
                "internal", f"worker was never shipped kb {kb_name!r}"
            )
        start = time.perf_counter()
        pooled = pool.checkout(kb_name, kb, query)
        try:
            result = execute_pooled(pooled, query)
        finally:
            pool.checkin(pooled)
        elapsed = time.perf_counter() - start
        if stream:
            items = result_items(query.verb, result)
            frames = [{"kind": "stream_start", "rid": rid,
                       "verb": query.verb}]
            frames.extend({"kind": "item", "rid": rid, "item": item}
                          for item in items)
            frames.append({"kind": "stream_end", "rid": rid,
                           "count": len(items), "elapsed": elapsed})
        else:
            frames = [{"kind": "result", "rid": rid,
                       "wire": result_to_wire(query.verb, result),
                       "elapsed": elapsed}]
        metrics.incr(f"queries.{query.verb}")
        metrics.observe_histogram(f"solve_latency.{query.verb}", elapsed)
    except WireError as exc:
        metrics.incr(f"errors.{exc.code}")
        frames = [{"kind": "error", "rid": rid, "code": exc.code,
                   "message": exc.message}]
    except (QueryError, KnowledgeBaseError) as exc:
        metrics.incr("errors.bad_request")
        frames = [{"kind": "error", "rid": rid, "code": "bad_request",
                   "message": str(exc)}]
    except Exception as exc:  # noqa: BLE001 - the wire gets a repr, never a traceback
        metrics.incr("errors.internal")
        frames = [{"kind": "error", "rid": rid, "code": "internal",
                   "message": repr(exc)}]
    for frame in frames:
        conn.send_bytes(canonical_json(frame))


def worker_main(conn, slot: int, kb_blobs: dict, pool_size: int,
                preprocess: bool, cache_size: int = 0) -> None:
    """Entry point of one solver worker process (spawn-safe).

    Serves messages from the supervisor pipe serially: ``exec`` (solve a
    query on the worker-local session pool), ``ping`` (heartbeat —
    answered with a full stats snapshot), ``load_kb`` (replace a KB from
    its JSON serialization after a front-end mutation), ``apply_delta``
    (mutate a KB in place from a front-end delta — warm sessions keyed
    on unchanged entity scopes survive), ``shutdown``. Exits on pipe EOF
    so an orphaned worker can never outlive its daemon.
    """
    kbs = {
        name: KnowledgeBase.from_dict(blob)
        for name, blob in kb_blobs.items()
    }
    cache = QueryCache(cache_size) if cache_size > 0 else None
    pool = SessionPool(max_sessions=pool_size, preprocess=preprocess,
                       cache=cache)
    metrics = MetricsRegistry()
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            msg = json.loads(data)
        except ValueError:
            continue
        kind = msg.get("kind")
        try:
            if kind == "shutdown":
                break
            if kind == "ping":
                conn.send_bytes(canonical_json({
                    "kind": "pong", "seq": msg.get("seq", 0), "slot": slot,
                    "stats": _worker_stats(pool, metrics),
                }))
            elif kind == "load_kb":
                kbs[msg["name"]] = KnowledgeBase.from_dict(msg["payload"])
                if cache is not None:
                    cache.clear()
                metrics.incr("kb_loads")
            elif kind == "apply_delta":
                kb = kbs.get(msg["name"])
                if kb is not None:
                    changed = kb.apply_entity_delta(
                        msg["ops"], strict=False
                    )
                    if cache is not None:
                        cache.invalidate_entities(changed)
                    metrics.incr("kb_deltas")
            elif kind == "exec":
                _execute(conn, msg, kbs, pool, metrics)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


# -- supervisor side (runs in the daemon process) ----------------------------------


class StreamRelay:
    """One streaming response being relayed from a worker, frame by frame.

    The supervisor pushes events (item / end / error) as they arrive
    over the pipe; the transport consumes :meth:`aiter_frames`, which
    yields bytes identical to the threaded daemon's buffered
    ``StreamReply.frames()`` — the parity suite pins this.
    """

    status = 200

    def __init__(self, request_id, verb: str):
        self.request_id = request_id
        self.verb = verb
        self._events: asyncio.Queue = asyncio.Queue()

    def _push(self, kind: str, value) -> None:
        self._events.put_nowait((kind, value))

    async def aiter_frames(self):
        yield canonical_json({
            "id": self.request_id, "ok": True, "verb": self.verb,
            "stream": True,
        })
        seq = 0
        while True:
            kind, value = await self._events.get()
            if kind == "item":
                yield canonical_json({"item": value, "seq": seq})
                seq += 1
            elif kind == "end":
                yield canonical_json({"done": True, "count": value})
                return
            else:  # error (worker died mid-stream)
                code, message = value
                yield canonical_json(stream_error_frame(code, message))
                return


@dataclass
class _Pending:
    """Book-keeping for one request assigned to a worker."""

    rid: int
    verb: str
    stream: bool
    future: asyncio.Future
    relay: StreamRelay | None = None
    #: Fires exactly once when a *started* stream finishes or dies:
    #: ``on_complete(elapsed_s, error_code_or_None)``. Unary requests
    #: and streams that fail before their first frame resolve through
    #: ``future`` instead.
    on_complete: object = None
    started: bool = False


class _WorkerHandle:
    """Supervisor-side state for one worker slot (survives respawns)."""

    def __init__(self, slot: int):
        self.slot = slot
        self.process = None
        self.conn = None
        self.send_q: queue.Queue | None = None
        self.pending: dict[int, _Pending] = {}
        #: kb name -> (version, fingerprint) the worker currently holds.
        self.shipped: dict[str, tuple[int, str]] = {}
        self.restarts = 0
        self.fast_deaths = 0
        self.started_at: float | None = None
        self.last_pong: float | None = None
        self.last_stats: dict = {}

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def load(self) -> int:
        return len(self.pending)


@dataclass
class SupervisorConfig:
    """The process-pool knobs (split out of ``DaemonConfig``)."""

    workers: int = 2
    #: Idle warm sessions retained *per worker*.
    pool_size: int = 8
    #: Worker-local result-cache entries (0 disables caching).
    cache_size: int = 0
    preprocess: bool = True
    #: Queue depth on the affinity-preferred worker beyond which a
    #: request spills to the least-loaded worker.
    spill_depth: int = 2
    #: Seconds between heartbeat pings (each pong refreshes that
    #: worker's cached stats snapshot).
    heartbeat_interval: float = 2.0
    #: ``multiprocessing`` start method; ``spawn`` is the safe default
    #: (workers rebuild state from JSON, nothing is forked mid-mutation).
    start_method: str = "spawn"
    #: Seconds stop() waits for workers to exit before terminating them.
    shutdown_timeout: float = 5.0


class WorkerSupervisor:
    """Owns N solver worker processes and routes queries to them.

    Lives on the daemon's event loop. All public coroutines must be
    awaited from that loop; frame dispatch from the per-worker reader
    threads is marshalled onto it with ``call_soon_threadsafe``.
    """

    def __init__(self, kbs: dict[str, KnowledgeBase],
                 config: SupervisorConfig,
                 metrics: MetricsRegistry | None = None):
        if config.workers < 1:
            raise ValueError("need at least one worker process")
        self.kbs = kbs
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self.ctx = multiprocessing.get_context(config.start_method)
        self.workers = [_WorkerHandle(slot) for slot in
                        range(config.workers)]
        self._ring = self._build_ring(config.workers)
        self._rid = 0
        self._ping_seq = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._monitor_task: asyncio.Task | None = None
        self._stats_waiters: dict[tuple, asyncio.Future] = {}
        self._stopping = False
        self.lost_total = 0

    @property
    def started(self) -> bool:
        return self._loop is not None

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        if self.started:
            return
        self._loop = asyncio.get_running_loop()
        for handle in self.workers:
            self._spawn(handle)
        self._monitor_task = asyncio.ensure_future(self._monitor())

    async def stop(self) -> None:
        """Shut every worker down; pending requests fail as ``draining``."""
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            await asyncio.gather(self._monitor_task, return_exceptions=True)
        for handle in self.workers:
            if handle.send_q is not None:
                self._enqueue(handle, {"kind": "shutdown"})
        deadline = time.monotonic() + self.config.shutdown_timeout
        for handle in self.workers:
            if handle.process is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            await self._loop.run_in_executor(
                None, handle.process.join, remaining
            )
            if handle.process.is_alive():
                handle.process.terminate()
                await self._loop.run_in_executor(
                    None, handle.process.join, 2.0
                )
                if handle.process.is_alive():  # pragma: no cover - last resort
                    handle.process.kill()
            self._teardown_transport(handle)
            for pending in list(handle.pending.values()):
                self._fail_pending(
                    pending, "draining", "daemon is shutting down"
                )
            handle.pending.clear()

    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        blobs = {name: kb.to_dict() for name, kb in self.kbs.items()}
        handle.shipped = {
            name: (kb.version, kb.fingerprint())
            for name, kb in self.kbs.items()
        }
        process = self.ctx.Process(
            target=worker_main,
            args=(child_conn, handle.slot, blobs, self.config.pool_size,
                  self.config.preprocess, self.config.cache_size),
            name=f"repro-serve-worker-{handle.slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.send_q = queue.Queue()
        handle.started_at = time.monotonic()
        handle.last_pong = None
        threading.Thread(
            target=self._writer_loop, args=(parent_conn, handle.send_q),
            name=f"repro-serve-w{handle.slot}-send", daemon=True,
        ).start()
        threading.Thread(
            target=self._reader_loop, args=(handle, parent_conn),
            name=f"repro-serve-w{handle.slot}-recv", daemon=True,
        ).start()

    def _teardown_transport(self, handle: _WorkerHandle) -> None:
        if handle.send_q is not None:
            handle.send_q.put(None)
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass

    # -- pipe I/O threads ---------------------------------------------------------

    def _writer_loop(self, conn, send_q: queue.Queue) -> None:
        """Drain the outbound queue so the event loop never blocks on a
        full pipe buffer. One writer per worker generation keeps sends
        ordered."""
        while True:
            data = send_q.get()
            if data is None:
                return
            try:
                conn.send_bytes(data)
            except (BrokenPipeError, OSError):
                # The reader thread's EOF (or the monitor) handles the
                # loss; just stop writing.
                return

    def _reader_loop(self, handle: _WorkerHandle, conn) -> None:
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                msg = json.loads(data)
            except ValueError:
                continue
            self._call_on_loop(self._dispatch, handle, conn, msg)
        self._call_on_loop(self._on_reader_eof, handle, conn)

    def _call_on_loop(self, fn, *args) -> None:
        try:
            self._loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:  # loop already closed (daemon torn down)
            pass

    # -- event-loop callbacks -----------------------------------------------------

    def _dispatch(self, handle: _WorkerHandle, conn, msg: dict) -> None:
        if conn is not handle.conn:
            return  # frame from a dead worker generation
        kind = msg.get("kind")
        if kind == "pong":
            handle.last_pong = time.monotonic()
            handle.last_stats = msg.get("stats") or {}
            waiter = self._stats_waiters.pop(
                (msg.get("seq"), handle.slot), None
            )
            if waiter is not None and not waiter.done():
                waiter.set_result(None)
            return
        pending = handle.pending.get(msg.get("rid"))
        if pending is None:
            return
        if kind == "result":
            del handle.pending[pending.rid]
            if not pending.future.done():
                pending.future.set_result(
                    (msg.get("wire"), msg.get("elapsed", 0.0))
                )
        elif kind == "error":
            del handle.pending[pending.rid]
            self._fail_pending(pending, msg.get("code", "internal"),
                               msg.get("message", ""))
        elif kind == "stream_start":
            pending.started = True
            if not pending.future.done():
                pending.future.set_result(pending.relay)
        elif kind == "item":
            pending.relay._push("item", msg.get("item"))
        elif kind == "stream_end":
            del handle.pending[pending.rid]
            pending.relay._push("end", msg.get("count", 0))
            if pending.on_complete is not None:
                pending.on_complete(msg.get("elapsed", 0.0), None)

    def _fail_pending(self, pending: _Pending, code: str,
                      message: str) -> None:
        if pending.stream and pending.started:
            pending.relay._push("error", (code, message))
            if pending.on_complete is not None:
                pending.on_complete(0.0, code)
        elif not pending.future.done():
            pending.future.set_exception(WireError(code, message))

    def _on_reader_eof(self, handle: _WorkerHandle, conn) -> None:
        if conn is not handle.conn or self._stopping:
            return
        self._handle_loss(handle)

    def _handle_loss(self, handle: _WorkerHandle) -> None:
        """Fail everything in flight on a dead worker and respawn it."""
        self.lost_total += 1
        self.metrics.incr("workers.lost")
        lost = list(handle.pending.values())
        handle.pending.clear()
        message = (
            f"solver worker {handle.slot} (pid {handle.pid}) died with "
            f"{len(lost)} request(s) in flight; a replacement was spawned"
        )
        for pending in lost:
            self._fail_pending(pending, "worker_lost", message)
        for key in [k for k in self._stats_waiters if k[1] == handle.slot]:
            waiter = self._stats_waiters.pop(key)
            if not waiter.done():
                waiter.set_result(None)
        self._teardown_transport(handle)
        if handle.process is not None:
            handle.process.join(timeout=0.2)  # reap; it is already dead
        lifetime = (
            time.monotonic() - handle.started_at
            if handle.started_at is not None else 0.0
        )
        if lifetime < _FAST_DEATH_S:
            handle.fast_deaths += 1
        else:
            handle.fast_deaths = 0
        if self._stopping:
            return
        if handle.fast_deaths >= _MAX_FAST_DEATHS:
            # Persistent boot failure: disable the slot rather than
            # respawning in a tight loop. Routing skips disabled slots.
            handle.process = None
            handle.conn = None
            self.metrics.incr("workers.disabled")
            return
        handle.restarts += 1
        self.metrics.incr("workers.respawned")
        self._spawn(handle)

    async def _monitor(self) -> None:
        """Heartbeat: detect silent worker exits, refresh stats snapshots."""
        try:
            while True:
                await asyncio.sleep(self.config.heartbeat_interval)
                if self._stopping:
                    return
                for handle in self.workers:
                    if handle.process is None:
                        continue
                    if not handle.alive:
                        # Fallback path: pipe EOF normally catches this
                        # first; a second call after respawn is a no-op
                        # because the process is alive again.
                        self._handle_loss(handle)
                    else:
                        self._enqueue(handle, {"kind": "ping", "seq": 0})
        except asyncio.CancelledError:
            return

    # -- routing ------------------------------------------------------------------

    @staticmethod
    def _hash(data: str) -> int:
        return int.from_bytes(
            hashlib.sha256(data.encode()).digest()[:8], "big"
        )

    def _build_ring(self, workers: int) -> list[tuple[int, int]]:
        """(point, slot) pairs, sorted — a classic consistent-hash ring."""
        ring = [
            (self._hash(f"slot:{slot}:replica:{i}"), slot)
            for slot in range(workers)
            for i in range(_RING_REPLICAS)
        ]
        ring.sort()
        return ring

    def route(self, kb_name: str, kb: KnowledgeBase, query) -> _WorkerHandle:
        """Affinity-first routing with least-loaded spillover.

        Affinity hashes ``(kb_name, shape_key(request))``, not the KB
        fingerprint (*kb* is not read): a delta must not move a shape
        away from the worker whose warm session can absorb it.
        """
        live = [h for h in self.workers if h.process is not None]
        if not live:
            raise WireError(
                "internal",
                "all solver worker slots are disabled after repeated "
                "crashes; restart the daemon",
            )
        point = self._hash(repr((kb_name, shape_key(query.request))))
        # First ring entry clockwise of the key's point.
        lo, hi = 0, len(self._ring)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._ring[mid][0] < point:
                lo = mid + 1
            else:
                hi = mid
        slot = self._ring[lo % len(self._ring)][1]
        preferred = self.workers[slot]
        if preferred.process is None:
            self.metrics.incr("route.spill")
            return min(live, key=lambda h: h.load)
        if preferred.load > self.config.spill_depth:
            least = min(live, key=lambda h: h.load)
            if least.load < preferred.load:
                self.metrics.incr("route.spill")
                return least
        self.metrics.incr("route.affinity")
        return preferred

    # -- submission ---------------------------------------------------------------

    def _enqueue(self, handle: _WorkerHandle, payload: dict) -> None:
        handle.send_q.put(canonical_json(payload))

    def _ship_kb(self, handle: _WorkerHandle, kb_name: str,
                 kb: KnowledgeBase) -> None:
        """Bring the worker's copy of *kb_name* up to date, cheaply.

        When the KB's mutation journal still reaches back to the version
        the worker holds, only the changed entities are shipped as an
        ``apply_delta`` op list — the worker mutates its KB in place and
        its warm sessions survive. The full JSON serialization is the
        fallback (first ship, journal overflow, or an untracked
        mutation).
        """
        fingerprint = kb.fingerprint()
        held = handle.shipped.get(kb_name)
        if held is not None and held[1] == fingerprint:
            return
        handle.shipped[kb_name] = (kb.version, fingerprint)
        changed = (
            kb.changed_entities(held[0]) if held is not None else None
        )
        if changed is not None:
            self.metrics.incr("workers.kb_delta_shipped")
            self._enqueue(handle, {
                "kind": "apply_delta", "name": kb_name,
                "ops": kb.delta_ops_for(changed),
            })
            return
        self.metrics.incr("workers.kb_shipped")
        self._enqueue(handle, {
            "kind": "load_kb", "name": kb_name, "payload": kb.to_dict(),
        })

    async def submit(self, request_id, kb_name: str, kb: KnowledgeBase,
                     query, stream: bool, on_complete=None):
        """Run *query* on a worker.

        Returns ``(result_wire, elapsed_s)`` for unary requests, or a
        :class:`StreamRelay` (already past its first frame) for
        streaming ones. Raises :class:`WireError` — including code
        ``worker_lost`` if the assigned worker dies first.
        """
        handle = self.route(kb_name, kb, query)
        self._ship_kb(handle, kb_name, kb)
        self._rid += 1
        rid = self._rid
        future = self._loop.create_future()
        pending = _Pending(
            rid=rid, verb=query.verb, stream=stream, future=future,
            relay=StreamRelay(request_id, query.verb) if stream else None,
            on_complete=on_complete,
        )
        handle.pending[rid] = pending
        self._enqueue(handle, {
            "kind": "exec",
            "rid": rid,
            "envelope": {
                "verb": query.verb,
                "kb": kb_name,
                "request": query.request.to_dict(),
                "options": {
                    "class_limit": query.class_limit,
                    "completions_limit": query.completions_limit,
                    "limit": query.limit,
                },
                "stream": stream,
            },
        })
        return await future

    # -- stats --------------------------------------------------------------------

    async def refresh_stats(self, timeout: float = 1.0) -> None:
        """Ping every live worker and wait (bounded) for fresh snapshots.

        A worker that is mid-solve will not answer within the timeout;
        its last heartbeat snapshot is used instead — ``/stats`` must
        never block behind a long solve.
        """
        self._ping_seq += 1
        seq = self._ping_seq
        waiters = []
        for handle in self.workers:
            if not handle.alive:
                continue
            future = self._loop.create_future()
            self._stats_waiters[(seq, handle.slot)] = future
            self._enqueue(handle, {"kind": "ping", "seq": seq})
            waiters.append(future)
        if waiters:
            await asyncio.wait(waiters, timeout=timeout)
        for key in [k for k in self._stats_waiters if k[0] == seq]:
            self._stats_waiters.pop(key)

    def _worker_info(self, handle: _WorkerHandle) -> dict:
        now = time.monotonic()
        return {
            "slot": handle.slot,
            "pid": handle.pid,
            "alive": handle.alive,
            "pending": handle.load,
            "restarts": handle.restarts,
            "uptime_s": (
                round(now - handle.started_at, 3)
                if handle.started_at is not None else 0.0
            ),
            "last_pong_age_s": (
                round(now - handle.last_pong, 3)
                if handle.last_pong is not None else None
            ),
            "pool": handle.last_stats.get("pool"),
            "counters": handle.last_stats.get("counters"),
        }

    def stats(self) -> dict:
        """Aggregate view: summed pools, merged latency histograms,
        per-worker detail. Served under ``/stats`` in process mode."""
        pools = [
            handle.last_stats.get("pool") for handle in self.workers
            if handle.last_stats.get("pool")
        ]
        pool = {name: sum(p.get(name, 0) for p in pools)
                for name in _POOL_SUM_FIELDS}
        lookups = pool["hits"] + pool["misses"]
        pool["hit_rate"] = (
            round(pool["hits"] / lookups, 4) if lookups else 0.0
        )
        pool["max_sessions"] = self.config.pool_size * len(self.workers)
        merged: dict[str, LatencyHistogram] = {}
        for handle in self.workers:
            states = handle.last_stats.get("histograms") or {}
            for name, state in states.items():
                hist = LatencyHistogram.from_state(state)
                if name in merged:
                    merged[name].merge(hist)
                else:
                    merged[name] = hist
        return {
            "pool": pool,
            "histograms": {
                name: hist.as_dict() for name, hist in sorted(merged.items())
            },
            "workers": [self._worker_info(h) for h in self.workers],
            "lost_total": self.lost_total,
        }
