"""The compile-as-a-service daemon: an asyncio front door.

Architecture (the paper's access/execute split, applied to serving):

* **Access** — the event loop owns intake: a JSON-lines unix-socket
  listener plus an optional localhost HTTP listener parse and validate
  requests, answer control ops inline, and *admit* compute ops into a
  bounded pending queue.  Admission is where the two serving-layer
  optimizations live:

  - **single-flight dedup**: requests with equal
    :func:`~repro.serve.protocol.canonical_key` coalesce onto one
    in-flight future — N concurrent identical requests cost one
    execution and N cheap response copies;
  - **backpressure**: a full queue refuses immediately
    (``error: "overloaded"``) instead of buffering without bound, and
    a draining daemon refuses with ``error: "draining"`` — clients
    always get a prompt, honest answer.

* **Execute** — a single dispatcher task takes whatever is pending
  (up to ``batch_max`` requests, with no collection window) the moment
  it is free and hands the batch to the one execution object, a
  :class:`~repro.perf.supervisor.SupervisedPool`: two fork workers by
  default when the host has the cores for it (or ``force_pool``), zero
  workers — each item inline on the daemon's executor thread — on one
  CPU or with ``workers=0``.  While
  a batch runs on workers, a worker that falls idle takes the next
  pending request straight away (the pool's ``feed``), so the workers
  stay busy however requests arrive.  The pool owns worker fault
  tolerance — heartbeats, per-op timeouts that kill-and-replace rather
  than wedge, max-jobs recycling, jittered-backoff restarts, and a
  circuit breaker that degrades to serialized inline service instead
  of refusing — and guarantees exactly one response per item, so
  requests are never lost to a worker death.  Each response is
  released the moment it exists, the way a WM FIFO hands each operand
  on as soon as it arrives: a memory-tier hit never waits for a
  compile that runs after it in the same batch.

* **Deadlines** — a request carrying ``deadline_ms`` is shed at
  dispatch-pick time once its budget expires: a terminal
  ``deadline_exceeded`` refusal instead of a late execution.  Shedding
  happens before the batch ships, so queue storms drain at refusal
  speed, not at execution speed.

Shutdown is a drain: new compute work is refused, queued work
completes, every in-flight response is delivered, and only then do the
listeners close (``shutdown`` control requests are answered with the
post-drain queue state as proof).

Per-request-type latency (p50/p95/p99) and throughput counters are
kept in a daemon-owned :class:`~repro.obs.metrics.MetricsRegistry`
(separate from the process-global registry, which CLI handlers reset
per invocation) and published by the ``stats`` control op and the
``serve.*`` metric names.  Cache and store traffic happens in whichever
process executed a request, so each response brings back the counts
of its own execution (``cache_events``) and the daemon adds them up:
``stats``' ``cache`` section and the ``store.*`` gauges on
``/metrics`` report those sums, inline or pooled.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import sys
import tempfile
import threading
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..obs.flight import FlightRecorder
from ..obs.metrics import LogLinearHistogram, MetricsRegistry, \
    global_registry
from ..perf.cache import CACHE_DIR_ENV, configure_disk_store, \
    event_counts, events_since, get_disk_store
from ..perf.store import EVENT_COUNTERS, publish_gauges
from ..perf.supervisor import STATE_HEALTHY, SupervisedPool, \
    SupervisorConfig, describe_exception
from .handlers import EXIT_INTERNAL, worker_task
from .protocol import (
    MAX_FRAME_BYTES, ProtocolError, Request, canonical_key, decode_line,
    encode_line, error_response, new_trace_id, parse_request,
)
from .tracing import build_request_trace, follower_trace

__all__ = ["ServeConfig", "Daemon", "DaemonHandle", "start_daemon_thread"]

#: Latency-histogram bucket bounds in milliseconds.
_LATENCY_BOUNDS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)

#: Longest the executor thread waits, after an inline item, for the
#: event loop to send its response before starting the next item.
_SEND_WAIT_S = 0.05


@dataclass
class ServeConfig:
    """Daemon knobs; defaults favor a small single-box deployment."""

    socket_path: str
    #: localhost HTTP listener; ``None`` disables, 0 picks an ephemeral
    #: port (recorded on ``Daemon.http_port`` once bound)
    http_port: Optional[int] = None
    http_host: str = "127.0.0.1"
    #: supervised-pool workers: >=2 on a multi-core host (or with
    #: ``force_pool``) runs requests in forked workers, each request
    #: bounded by ``op_timeout_s``; 0/1, or a single CPU, runs each
    #: inline on the daemon's executor thread, with no time bound.  Two
    #: workers serve two concurrent connections without either waiting
    #: on the other; a worker beyond the concurrent requests buys
    #: nothing and costs a process's memory.
    workers: int = 2
    #: pending-queue bound — admission control, not buffering
    queue_depth: int = 256
    #: micro-batch size cap: the dispatcher ships whatever is pending,
    #: up to this many, as soon as it is free (idle pool workers then
    #: take one request each as it arrives)
    batch_max: int = 16
    #: persistent artifact store root (``None``: honor REPRO_CACHE_DIR)
    cache_dir: Optional[str] = None
    #: spool directory for inline sources (``None``: fresh temp dir)
    spool_dir: Optional[str] = None
    #: where flight-recorder dumps land (``None``: the socket's dir);
    #: the ring's capacity is REPRO_FLIGHT_CAPACITY's
    blackbox_dir: Optional[str] = None
    #: a refusal *burst* — this many refusals inside the window — is a
    #: dump trigger: the black box preserves what led up to the storm
    refusal_burst: int = 32
    refusal_burst_window_s: float = 5.0
    #: minimum seconds between automatic dumps (0: dump every trigger)
    blackbox_cooldown_s: float = 30.0
    #: per-op execution bound in the supervised pool: a job past this
    #: gets its worker killed and an ``op_timeout`` error (0 disables)
    op_timeout_s: float = 120.0
    #: supervised-pool worker recycling and liveness knobs (breaker
    #: and backoff keep their ``SupervisorConfig`` defaults)
    max_jobs_per_worker: int = 256
    heartbeat_timeout_s: float = 10.0
    #: fork pool workers even on a single-CPU host, where ``workers``
    #: alone would run inline (chaos/tests need the worker-death
    #: machinery regardless of core count)
    force_pool: bool = False
    #: periodic persistent-store GC sweep (seconds; 0 disables)
    gc_interval_s: float = 0.0


@dataclass
class _Pending:
    """One admitted compute request, from queue to resolution."""

    key: tuple
    payload: dict
    op: str
    future: asyncio.Future
    enqueued_at: float = field(default_factory=time.monotonic)
    #: minted trace id when the request asked for tracing
    trace_id: Optional[str] = None
    #: dispatcher pop instant (ends queue.wait) and pool handoff
    #: instant (ends batch.assemble) — trace span boundaries
    picked_at: float = 0.0
    shipped_at: float = 0.0
    #: monotonic instant past which the request must not be dispatched
    #: (``deadline_ms`` requests only); the dispatcher sheds expired
    #: items with a ``deadline_exceeded`` refusal at pick time
    deadline_at: Optional[float] = None
    #: requests picked together with this one (its batch)
    batch_size: int = 1


class Daemon:
    """One serving instance.  ``task`` (tests only) replaces the pool's
    per-item task, ``callable(payload) -> response``."""

    def __init__(self, config: ServeConfig,
                 task: Optional[Callable] = None) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self.http_port: Optional[int] = None
        self.spool_dir: Optional[str] = config.spool_dir
        self._task = task
        self._pending: deque[_Pending] = deque()
        self._pending_event = asyncio.Event()
        self._inflight: dict[tuple, asyncio.Future] = {}
        #: per-op log-linear latency histograms: bounded memory no
        #: matter the request volume, percentiles by bucket
        #: interpolation (the previous exact sample lists were O(n))
        self._latency: dict[str, LogLinearHistogram] = {}
        #: the always-on black box; dumped on fault/burst/signal
        self.flight = FlightRecorder()
        #: cache and store events summed over every execution, inline
        #: or pooled, plus this process's own store work (startup
        #: recovery, GC sweeps): ``event_counts()`` keys
        self._cache_events: Counter = Counter()
        self._refusal_times: deque[float] = deque(
            maxlen=max(1, config.refusal_burst))
        self._last_dump_at: Optional[float] = None
        self._dump_seq = 0
        self._outstanding = 0            # queued + executing requests
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        self._draining = False
        self._stopped = asyncio.Event()
        self._started_at = time.monotonic()
        self._servers: list[asyncio.AbstractServer] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._dispatcher_task: Optional[asyncio.Task] = None
        self._gc_task: Optional[asyncio.Task] = None
        #: the execute plane, built in start(): ``_pool_size()`` fork
        #: workers, or none (each item then runs on the executor thread)
        self._pool: Optional[SupervisedPool] = None
        # One executor thread: handler capture swaps process-global
        # stdout, so inline items must serialize per process.
        self._thread_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-exec")

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self.config.cache_dir:
            store = configure_disk_store(self.config.cache_dir)
            # Opening the store recovered a crashed predecessor's
            # wreckage: this daemon's own store work.
            self._cache_events.update({
                f"disk.{name}": count
                for name, count in store.counters().items() if count})
            # Belt and braces for the pool workers: forked children
            # inherit the configured store anyway, but spawn-started
            # ones (non-Linux) pick it up from the environment.
            os.environ[CACHE_DIR_ENV] = self.config.cache_dir
        if self.spool_dir is None:
            self.spool_dir = tempfile.mkdtemp(prefix="repro-serve-")
        else:
            os.makedirs(self.spool_dir, exist_ok=True)
        self._started_at = time.monotonic()
        if os.path.exists(self.config.socket_path):
            os.unlink(self.config.socket_path)   # stale from a dead daemon
        self._servers.append(await asyncio.start_unix_server(
            self._serve_jsonl, path=self.config.socket_path,
            limit=MAX_FRAME_BYTES))
        if self.config.http_port is not None:
            server = await asyncio.start_server(
                self._serve_http, host=self.config.http_host,
                port=self.config.http_port)
            self._servers.append(server)
            self.http_port = server.sockets[0].getsockname()[1]
        self._pool = SupervisedPool(
            self._task or worker_task(self.spool_dir),
            SupervisorConfig(
                workers=self._pool_size(),
                max_jobs_per_worker=self.config.max_jobs_per_worker,
                job_timeout_s=self.config.op_timeout_s,
                heartbeat_timeout_s=self.config.heartbeat_timeout_s),
            on_event=self._on_pool_event)
        if self.config.gc_interval_s > 0:
            self._gc_task = asyncio.ensure_future(self._gc_loop())
        self._dispatcher_task = asyncio.ensure_future(self._dispatch())

    async def run(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`shutdown`)."""
        await self._stopped.wait()
        await self.aclose()

    async def shutdown(self, reason: str = "drain") -> None:
        """Graceful drain: refuse new work, finish everything admitted.

        ``reason`` tags the stop in the flight recorder; a signal-driven
        stop (``reason="sigterm"``) also dumps the black box so the
        daemon's last moments survive the process.
        """
        self._draining = True
        self.flight.record("daemon.drain", reason=reason)
        await self._idle_event.wait()
        if reason == "sigterm":
            self._dump_blackbox("sigterm")
        self._stopped.set()
        self._pending_event.set()         # wake the dispatcher to exit

    def _dump_blackbox(self, reason: str) -> Optional[str]:
        """Write the flight-recorder ring to disk (rate-limited).

        Never raises: the black box is a best-effort diagnostic and must
        not take down the serving path that triggered it.
        """
        now = time.monotonic()
        cooldown = self.config.blackbox_cooldown_s
        if self._last_dump_at is not None and \
                now - self._last_dump_at < cooldown:
            return None
        self._last_dump_at = now
        self._dump_seq += 1
        directory = self.config.blackbox_dir or \
            os.path.dirname(self.config.socket_path) or "."
        path = os.path.join(
            directory,
            f"repro-blackbox-{os.getpid()}-{self._dump_seq}.json")
        try:
            self.flight.dump(path, reason=reason)
        except OSError:
            return None
        self.metrics.counter("serve.blackbox.dumps").inc()
        print(f"repro-serve: flight recorder dumped to {path} "
              f"({reason})", file=sys.stderr)
        return path

    async def aclose(self) -> None:
        self._stopped.set()
        self._pending_event.set()
        if self._gc_task is not None:
            self._gc_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._gc_task
            self._gc_task = None
        if self._dispatcher_task is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher_task
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        # Connections idling in readline() survive server.close(); the
        # drain already delivered every response, so cut them loose.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
        self._conn_tasks.clear()
        with contextlib.suppress(OSError):
            os.unlink(self.config.socket_path)
        self._thread_pool.shutdown(wait=True)
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # -- admission (the "access" side) ---------------------------------------

    async def handle_payload(self, payload: object) -> dict:
        """Decode-validate-admit one request; always returns a response."""
        try:
            request = parse_request(payload)
        except ProtocolError as exc:
            self.metrics.counter("serve.protocol_errors").inc()
            request_id = payload.get("id") \
                if isinstance(payload, dict) else None
            return error_response(str(exc), request_id)
        if request.is_control:
            return await self._handle_control(request)
        self.metrics.counter("serve.requests.total").inc()
        self.metrics.counter(f"serve.requests.{request.op}").inc()
        key = canonical_key(request)
        shared = self._inflight.get(key)
        if shared is not None:
            # Single-flight: ride the execution already in progress.
            self.metrics.counter("serve.coalesced").inc()
            self.flight.record("request.coalesced", op=request.op)
            wait_start = time.monotonic()
            result = await asyncio.shield(shared)
            response = {**result, "id": request.id}
            if request.trace:
                # The follower never executed: its trace is one
                # synthetic span pointing at the leader's trace id.
                leader_id = result.get("trace", {}) \
                    .get("otherData", {}).get("trace_id")
                response["trace"] = follower_trace(
                    new_trace_id(), leader_id,
                    time.monotonic() - wait_start, request.op)
            return response
        if self._draining:
            self.metrics.counter("serve.refused.draining").inc()
            self._note_refusal("draining", request.op)
            return error_response("draining", request.id)
        if len(self._pending) >= self.config.queue_depth:
            self.metrics.counter("serve.refused.overloaded").inc()
            self._note_refusal("overloaded", request.op)
            return error_response("overloaded", request.id)
        trace_id = new_trace_id() if request.trace else None
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        payload_out = {"op": request.op, "args": list(request.args),
                       "source": request.source}
        if trace_id is not None:
            payload_out["trace_id"] = trace_id
        deadline_at = None
        if request.deadline_ms is not None:
            deadline_at = time.monotonic() + request.deadline_ms / 1e3
        self._pending.append(_Pending(key=key, payload=payload_out,
                                      op=request.op, future=future,
                                      trace_id=trace_id,
                                      deadline_at=deadline_at))
        self._outstanding += 1
        self._idle_event.clear()
        self.metrics.gauge("serve.queue.depth").set(len(self._pending))
        self.flight.record("request.admitted", op=request.op,
                           depth=len(self._pending),
                           traced=trace_id is not None)
        self._pending_event.set()
        self._pool.wake()               # an idle worker may take it now
        result = await asyncio.shield(future)
        return {**result, "id": request.id}

    def _note_refusal(self, reason: str, op: str) -> None:
        """Flight-record one refusal; a burst is a dump trigger."""
        self.flight.record("request.refused", reason=reason, op=op)
        self._bump_refusal_window()

    def _bump_refusal_window(self) -> None:
        now = time.monotonic()
        times = self._refusal_times
        times.append(now)
        if len(times) == times.maxlen and \
                now - times[0] <= self.config.refusal_burst_window_s:
            self._dump_blackbox("refusal-burst")

    def _shed_expired(self, item: _Pending, now: float) -> None:
        """Resolve a queue-expired request with ``deadline_exceeded``.

        The shed is a *terminal response*, not a dropped request: the
        item's future (and every coalesced follower awaiting it)
        resolves, the single-flight slot clears, and the outstanding
        count falls — the exactly-one-response invariant holds on this
        path like any other.  Counts toward the refusal-burst dump
        trigger: a deadline storm is a story the black box should tell.
        """
        waited_ms = round((now - item.enqueued_at) * 1e3, 3)
        self.metrics.counter("serve.refused.deadline_exceeded").inc()
        self.flight.record("deadline_exceeded", op=item.op,
                           waited_ms=waited_ms)
        self._bump_refusal_window()
        self._settle(item, {"ok": False, "error": "deadline_exceeded",
                            "waited_ms": waited_ms})

    def _settle(self, item: _Pending, response: dict) -> None:
        """Resolve one admitted request: its future (and every
        coalesced follower) gets ``response``, its single-flight slot
        clears, and the outstanding count falls."""
        self._inflight.pop(item.key, None)
        if not item.future.done():
            item.future.set_result(response)
        self._outstanding -= 1
        if self._outstanding == 0:
            self._idle_event.set()

    async def _handle_control(self, request: Request) -> dict:
        if request.op == "ping":
            return {"id": request.id, "ok": True, "pong": True,
                    "pid": os.getpid(), "draining": self._draining}
        if request.op == "stats":
            return {"id": request.id, "ok": True,
                    "stats": self.stats_snapshot()}
        # shutdown: drain fully, then report the (empty) post-drain
        # state as proof of a clean stop.
        await self.shutdown()
        return {"id": request.id, "ok": True, "stopped": True,
                "queue_depth": len(self._pending),
                "inflight": len(self._inflight)}

    # -- dispatch (the "execute" side) ---------------------------------------

    async def _dispatch(self) -> None:
        while True:
            await self._pending_event.wait()
            if self._stopped.is_set() and not self._pending:
                return
            batch = self._take(self.config.batch_max, self._shed_expired)
            if not self._pending:
                self._pending_event.clear()
            self.metrics.gauge("serve.queue.depth").set(len(self._pending))
            if batch:
                await self._run_batch(batch)

    def _take(self, limit: int, shed: Callable) -> list[_Pending]:
        """Pop up to ``limit`` pending requests as one batch, handing
        each expired one to ``shed`` instead.

        Runs on the event loop (the dispatcher) or, while a batch runs,
        on the executor thread (the pool's ``feed``) — never both at
        once, and the deque's pops are thread-safe against admission's
        appends."""
        batch: list[_Pending] = []
        while len(batch) < limit:
            try:
                item = self._pending.popleft()
            except IndexError:
                break
            now = time.monotonic()
            if item.deadline_at is not None and now >= item.deadline_at:
                shed(item, now)
                continue
            item.picked_at = now                    # ends queue.wait
            batch.append(item)
        for item in batch:
            item.batch_size = len(batch)
        if batch:
            self.metrics.histogram("serve.batch.size",
                                   bounds=(1, 2, 4, 8, 16, 32)) \
                .record(len(batch))
        return batch

    async def _run_batch(self, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        shipped_at = time.monotonic()       # ends batch.assemble
        for item in batch:
            item.shipped_at = shipped_at

        def feed(room: int) -> list:
            # Executor thread, a pool worker idle: top it up with what
            # queued since the batch left, one request per idle worker.
            if not self._pending:
                return []
            more = self._take(room, lambda item, now: loop
                              .call_soon_threadsafe(self._shed_expired,
                                                    item, now))
            for item in more:
                item.shipped_at = item.picked_at
            batch.extend(more)
            return [item.payload for item in more]

        def on_result(index: int, response: dict, inline: bool) -> None:
            # Executor thread: hand the response to the event loop the
            # moment it exists.
            sent = threading.Event() if inline else None
            loop.call_soon_threadsafe(self._respond, batch[index], response,
                                      "inline" if inline else "pool", sent)
            if sent is not None:
                # The next inline item would hold the GIL the loop needs
                # to send this response, and the two threads would trade
                # it one switch interval at a time: pause until the loop
                # has sent it (bounded, should the loop be stalled).
                sent.wait(_SEND_WAIT_S)

        try:
            await loop.run_in_executor(
                self._thread_pool, self._pool.run_batch,
                [item.payload for item in batch], on_result, feed)
        except Exception as exc:
            error = describe_exception(exc)
            self.flight.record("batch.error", batch=len(batch),
                               error=error)
            await asyncio.sleep(0)    # responses already queued land first
            for item in batch:
                if not item.future.done():
                    self._respond(item, {"ok": False, "error": error},
                                  "error")

    def _respond(self, item: _Pending, response: dict, mode: str,
                 sent: Optional[threading.Event] = None) -> None:
        """Account for one executed request and release its response.

        ``sent`` is set once the connections have written it: each
        awaits the request's future through ``asyncio.shield``, whose
        done-callback runs one loop iteration after the future resolves
        and wakes the connection's task, which writes in the next."""
        now = time.monotonic()
        latency_ms = (now - item.enqueued_at) * 1e3
        self._latency.setdefault(item.op, LogLinearHistogram()) \
            .record(latency_ms)
        self.metrics.histogram(f"serve.latency_ms.{item.op}",
                               bounds=_LATENCY_BOUNDS) \
            .record(latency_ms)
        ok = bool(response.get("ok"))
        self.metrics.counter(
            "serve.responses.ok" if ok else "serve.responses.error").inc()
        worker_events = response.pop("trace_events", None)
        self._cache_events.update(response.pop("cache_events", ()))
        if item.trace_id is not None:
            response["trace"] = build_request_trace(
                item.trace_id,
                enqueued_at=item.enqueued_at,
                picked_at=item.picked_at or item.enqueued_at,
                shipped_at=item.shipped_at or item.enqueued_at,
                done_at=now, op=item.op, mode=mode,
                batch_size=item.batch_size, worker_events=worker_events)
        if not ok or response.get("exit_code") == EXIT_INTERNAL:
            # Handler fault: the request crashed inside the execute
            # plane (not a CLI-mapped error exit).
            self.flight.record(
                "handler.fault", op=item.op,
                error=str(response.get("error", ""))[:200],
                exit_code=response.get("exit_code"))
            self._dump_blackbox("handler-fault")
        else:
            self.flight.record("response.sent", op=item.op,
                               latency_ms=round(latency_ms, 3))
        self._settle(item, response)
        if sent is not None:
            loop = asyncio.get_running_loop()
            loop.call_soon(loop.call_soon, loop.call_soon, sent.set)

    def _pool_size(self) -> int:
        """Fork workers for the execute plane: ``workers`` (2 by
        default) on a host with two CPUs or with ``force_pool``.  None
        — each request then runs inline — when ``workers`` is below 2
        or the host has one CPU."""
        workers = self.config.workers
        if workers >= 2 and ((os.cpu_count() or 1) >= 2
                             or self.config.force_pool):
            return workers
        return 0

    def _on_pool_event(self, kind: str, fields: dict) -> None:
        """Pool lifecycle events → flight ring + metrics.

        Runs on the executor thread mid-batch: ``FlightRecorder``
        appends are GIL-atomic and counter increments are safe under
        the GIL, so no hop to the event loop is needed.  A breaker
        opening is a dump trigger — the ring at that moment holds the
        death spiral that tripped it.
        """
        self.flight.record(kind, **fields)
        self.metrics.counter(f"serve.supervisor.{kind}").inc()
        if kind == "breaker_open":
            self._dump_blackbox("breaker-open")

    async def _gc_loop(self) -> None:
        """Periodic persistent-store GC: tombstone sweep + compaction.

        Runs on the daemon's single executor thread (serialized behind
        batches — a sweep never races this daemon's own inline I/O;
        concurrent *other* daemons are what the store's rename/grace
        discipline is for).
        """
        loop = asyncio.get_running_loop()
        while not self._stopped.is_set():
            try:
                await asyncio.wait_for(self._stopped.wait(),
                                       self.config.gc_interval_s)
                return
            except asyncio.TimeoutError:
                pass
            store = get_disk_store()
            if store is None:
                continue

            def sweep() -> tuple:
                before = event_counts()
                return store.sweep(), events_since(before)

            try:
                summary, events = await loop.run_in_executor(
                    self._thread_pool, sweep)
            except Exception:
                continue              # GC must never take the daemon down
            self._cache_events.update(events)
            self.metrics.counter("serve.store.sweeps").inc()
            self.flight.record("store.sweep", **summary)

    # -- introspection -------------------------------------------------------

    def stats_snapshot(self) -> dict:
        latency = {}
        for op, hist in sorted(self._latency.items()):
            latency[op] = {
                "count": hist.count,
                "p50_ms": round(hist.percentile(0.50), 3),
                "p95_ms": round(hist.percentile(0.95), 3),
                "p99_ms": round(hist.percentile(0.99), 3),
                "mean_ms": round(hist.mean, 3),
                "max_ms": round(hist.maximum or 0.0, 3),
            }
        return {
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "workers": self._pool_size(),
            "state": (self._pool.state() if self._pool is not None
                      else STATE_HEALTHY),
            "supervisor": (self._pool.stats() if self._pool is not None
                           else None),
            "draining": self._draining,
            "queue": {
                "depth": len(self._pending),
                "capacity": self.config.queue_depth,
                "high_water":
                    self.metrics.gauge("serve.queue.depth").high_water,
            },
            "inflight": len(self._inflight),
            "latency_ms": latency,
            "metrics": self.metrics.to_dict(),
            "cache": self.cache_stats(),
            "flight": {
                "recorded": self.flight.recorded,
                "dropped": self.flight.dropped,
                "capacity": self.flight.capacity,
            },
        }

    def cache_stats(self) -> dict:
        """The cache and store traffic of every request this daemon
        executed, inline or on workers, plus its own store work: the
        memory tier's ``hits``/``misses`` and, with a store, ``disk``'s
        event counters beside a fresh census of the store directory
        (``entries``, ``bytes``, ``tombstones``).  A worker killed
        mid-request takes that request's counts with it.  Each process
        has its own memory tier, so its size is not reported."""
        events = self._cache_events
        store = get_disk_store()
        disk = None
        if store is not None:
            disk = {name: events[f"disk.{name}"] for name in EVENT_COUNTERS}
            disk.update(store.census())
        return {"hits": events["hits"], "misses": events["misses"],
                "disk": disk}

    def metrics_exposition(self) -> str:
        """Prometheus text for ``GET /metrics``: the daemon's registry
        plus the process-global one, with point-in-time gauges — the
        ``store.*`` ones from :meth:`cache_stats` — refreshed at scrape
        time."""
        disk = self.cache_stats()["disk"]
        if disk is not None:
            publish_gauges(disk, disk["entries"], disk["bytes"])
        self.metrics.gauge("serve.uptime_seconds").set(
            round(time.monotonic() - self._started_at, 3))
        self.metrics.gauge("serve.queue.depth").set(len(self._pending))
        self.metrics.gauge("serve.inflight").set(len(self._inflight))
        self.metrics.gauge("serve.flight.recorded").set(
            self.flight.recorded)
        return self.metrics.to_prometheus(prefix="repro") + \
            global_registry().to_prometheus(prefix="repro")

    # -- JSON-lines transport ------------------------------------------------

    async def _serve_jsonl(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Longer than MAX_FRAME_BYTES: the rest of the
                    # frame is unread, so answer once and hang up.
                    writer.write(encode_line(
                        error_response("request too large")))
                    await writer.drain()
                    break
                except ConnectionError:
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    payload = decode_line(line)
                except ProtocolError as exc:
                    response = error_response(str(exc))
                else:
                    response = await self.handle_payload(payload)
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass                                   # client went away
        except asyncio.CancelledError:
            # Only aclose() cancels connection tasks (post-drain, every
            # response delivered); finish normally so 3.11's stream
            # protocol callback doesn't trip over a cancelled task.
            pass
        finally:
            writer.close()
            # CancelledError included: a cancellation landing while we
            # await the close handshake must not leave the task
            # "cancelled" (3.11's stream-protocol callback would log a
            # spurious traceback per connection at shutdown).
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    # -- minimal localhost HTTP transport ------------------------------------

    async def _serve_http(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            status, body, content_type = await self._http_one(reader)
            writer.write(
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n".encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    _JSON_CT = "application/json"
    #: Prometheus text exposition format version header
    _PROM_CT = "text/plain; version=0.0.4; charset=utf-8"

    async def _http_one(self, reader: asyncio.StreamReader) -> \
            tuple[str, bytes, str]:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("ascii", "replace").split()
            if len(parts) < 2:
                return ("400 Bad Request",
                        b'{"ok":false,"error":"bad request"}',
                        self._JSON_CT)
            method, path = parts[0].upper(), parts[1]
            content_length = 0
            while (header := await reader.readline()) not in \
                    (b"\r\n", b"\n", b""):
                name, _sep, value = header.decode("ascii", "replace") \
                    .partition(":")
                if name.strip().lower() != "content-length":
                    continue
                # Checked as it arrives, before any body byte is read.
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = -1
                if content_length < 0:
                    return ("400 Bad Request",
                            b'{"ok":false,"error":"bad content-length"}',
                            self._JSON_CT)
                if content_length > MAX_FRAME_BYTES:
                    return ("413 Payload Too Large",
                            b'{"ok":false,"error":"request too large"}',
                            self._JSON_CT)
        except ValueError:        # a line past the listener's line limit
            return ("431 Request Header Fields Too Large",
                    b'{"ok":false,"error":"request too large"}',
                    self._JSON_CT)
        if method == "GET" and path == "/metrics":
            # The scrape plane: Prometheus text, no JSON envelope.
            body = self.metrics_exposition().encode("utf-8")
            return "200 OK", body, self._PROM_CT
        if method == "GET" and path in ("/v1/ping", "/v1/stats"):
            response = await self.handle_payload({"op": path[4:]})
            return ("200 OK", encode_line(response).rstrip(b"\n"),
                    self._JSON_CT)
        if method == "POST" and path == "/v1/request":
            body = await reader.readexactly(content_length) \
                if content_length else b""
            try:
                payload = decode_line(body)
            except ProtocolError as exc:
                return ("400 Bad Request",
                        encode_line(error_response(str(exc))).rstrip(b"\n"),
                        self._JSON_CT)
            response = await self.handle_payload(payload)
            status = "200 OK" if response.get("ok") else "400 Bad Request"
            return (status, encode_line(response).rstrip(b"\n"),
                    self._JSON_CT)
        return ("404 Not Found", b'{"ok":false,"error":"not found"}',
                self._JSON_CT)


# -- embedded daemon (tests, benchmarks) --------------------------------------

class DaemonHandle:
    """A daemon running on a background thread's event loop."""

    def __init__(self, daemon: Daemon, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.daemon = daemon
        self.loop = loop
        self.thread = thread

    @property
    def socket_path(self) -> str:
        return self.daemon.config.socket_path

    @property
    def http_port(self) -> Optional[int]:
        return self.daemon.http_port

    def stop(self, timeout: float = 30.0) -> None:
        """Drain gracefully and join the serving thread."""
        if self.thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.daemon.shutdown(), self.loop).result(timeout)
        self.thread.join(timeout)


def start_daemon_thread(config: ServeConfig,
                        task: Optional[Callable] = None,
                        timeout: float = 30.0) -> DaemonHandle:
    """Start a daemon on a fresh event loop in a background thread.

    Returns once the listeners are bound — the caller can connect
    immediately.  Startup failures re-raise in the caller.
    """
    daemon = Daemon(config, task=task)
    started = threading.Event()
    state: dict = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        state["loop"] = loop
        try:
            loop.run_until_complete(daemon.start())
        except BaseException as exc:           # surface bind errors
            state["error"] = exc
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_until_complete(daemon.run())
        finally:
            loop.close()

    thread = threading.Thread(target=runner, name="repro-serve",
                              daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise TimeoutError("serve daemon failed to start in time")
    if "error" in state:
        raise state["error"]
    return DaemonHandle(daemon, state["loop"], thread)
