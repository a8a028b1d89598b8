"""Supervised worker pool: the one execute plane for serve and tables.

Everything that runs work off the caller's thread goes through
:class:`SupervisedPool` — the serve daemon's micro-batches and
:func:`repro.perf.parallel.run_jobs`'s table jobs alike.  Workers are
plain ``multiprocessing`` fork children talking over pipes; no
futures, no shared queues, so there is no executor-level state a dying
worker can poison, and a death costs one job retry, not a pool
rebuild:

* **Zero workers is inline.**  ``workers=0`` forks nothing: every item
  runs in the caller through the same error handling (the daemon
  serves this way on a one-CPU host or with ``--workers 0``).
* **Per-worker heartbeats.**  Each worker runs a daemon thread that
  beats on its pipe every ``heartbeat_interval_s``; a busy worker that
  goes silent for ``heartbeat_timeout_s`` is declared hung, killed and
  replaced, and its job is retried once on a healthy worker.
* **Per-op timeouts.**  A job that exceeds ``job_timeout_s`` gets its
  worker killed and an ``op_timeout`` error result — the caller is
  never wedged behind one pathological item.  Timeouts are not retried
  (the job already burned its budget); deaths are retried once.
* **Max-jobs recycling.**  A worker that has completed
  ``max_jobs_per_worker`` jobs is retired gracefully and replaced,
  bounding any slow leak in task-touched global state.
* **Backoff restarts.**  Respawns after a death are delayed by
  jittered exponential backoff (``base * 2^consecutive_deaths``,
  capped, jittered to 0.5–1.5x) so a crash loop cannot turn the
  supervisor into a fork bomb.
* **Circuit breaker.**  ``breaker_threshold`` deaths inside
  ``breaker_window_s`` open the breaker: the pool reports
  ``cache-only`` and :meth:`SupervisedPool.run_batch` serves inline
  (serialized, cache-backed) instead of refusing, emitting one
  ``batch.degraded`` event per batch.  After ``breaker_reset_s`` the
  breaker goes half-open — one probe batch on a single worker; a clean
  probe closes it, another death re-arms the cooldown.

The pool never loses a job: every item passed to ``run_batch`` comes
back in order as either the task's own return value or an error result
built by ``error_factory`` — exactly-one-result is the contract the
chaos harness leans on — and ``on_result`` hands each result over the
moment it exists, so a fast item never waits for a slow batch-mate.
``run_batch`` is synchronous and single-caller by design (the daemon
funnels batches through one executor thread); its ``feed`` tops up
workers that fall idle mid-batch, and :meth:`SupervisedPool.wake`, the
one thread-safe method, cuts a supervision wait short.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import random
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Optional

__all__ = [
    "SupervisorConfig", "SupervisedPool", "describe_exception",
    "STATE_HEALTHY", "STATE_DEGRADED", "STATE_CACHE_ONLY",
]

#: Full worker complement alive, breaker closed, no backoff pending.
STATE_HEALTHY = "healthy"
#: Short on workers (deaths pending respawn / backoff / half-open
#: probe) but still executing on what remains.
STATE_DEGRADED = "degraded"
#: Breaker open: pooled execution suspended, service continues inline
#: off the compile cache until the half-open probe succeeds.
STATE_CACHE_ONLY = "cache-only"


def describe_exception(exc: BaseException) -> str:
    """One-line ``TypeName: message`` summary, the form every retry /
    quarantine / supervisor path reports failures in."""
    return f"{type(exc).__name__}: {exc}"


@dataclass
class SupervisorConfig:
    """Tunables for :class:`SupervisedPool` (all times in seconds)."""

    #: forked workers; 0 runs every item inline in the caller
    workers: int = 2
    max_jobs_per_worker: int = 256
    #: per-job bound; 0 disables it
    job_timeout_s: float = 120.0
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 10.0
    restart_backoff_base_s: float = 0.05
    restart_backoff_cap_s: float = 2.0
    breaker_threshold: int = 5
    breaker_window_s: float = 30.0
    breaker_reset_s: float = 5.0
    #: jitter RNG seed — deterministic backoff schedules under test
    seed: int = 0


def _worker_main(conn, task, heartbeat_interval_s: float) -> None:
    """Worker child body: serve jobs off the pipe until told to exit.

    A daemon thread heartbeats on the same pipe (serialized by a lock —
    ``Connection.send`` is not atomic under concurrent writers).  Task
    exceptions come back as structured ``("error", seq, text)`` frames;
    only a genuine process death severs the pipe.
    """
    send_lock = threading.Lock()
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat_interval_s):
            try:
                with send_lock:
                    conn.send(("hb", os.getpid()))
            except Exception:
                return

    threading.Thread(target=_beat, daemon=True).start()
    try:
        while True:
            message = conn.recv()
            if message[0] == "exit":
                break
            _kind, seq, item = message
            try:
                reply = ("result", seq, task(item))
            except BaseException as exc:
                reply = ("error", seq, describe_exception(exc))
            with send_lock:
                conn.send(reply)
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        stop.set()


class _Worker:
    """Parent-side handle to one worker process."""

    __slots__ = ("process", "conn", "pid", "jobs_done", "last_seen",
                 "job")

    def __init__(self, ctx, task, heartbeat_interval_s: float) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, task, heartbeat_interval_s),
            daemon=True)
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.pid = self.process.pid
        self.jobs_done = 0
        self.last_seen = time.monotonic()
        #: in-flight assignment: (index, attempts, deadline, started)
        self.job: Optional[tuple] = None


def _default_error_result(message: str) -> dict:
    return {"ok": False, "error": message}


class SupervisedPool:
    """A self-healing pool of fork workers (or none) running one ``task``.

    ``task(item) -> result`` runs in a forked worker or, inline, in the
    caller; its items and results cross a pipe, so they must pickle.
    ``on_event(kind, fields)`` receives lifecycle events
    (``worker_restart``, ``worker_recycle``, ``worker_timeout``,
    ``worker_hung``, ``worker_died``, ``breaker_open``,
    ``breaker_close``, ``batch.degraded``) — the daemon wires it to the
    flight recorder.  ``error_factory(message)`` builds the result of
    an item the task raised on or the pool could not complete
    (timeout, double death).
    """

    def __init__(self, task: Callable, config: SupervisorConfig,
                 on_event: Optional[Callable[[str, dict], None]] = None,
                 error_factory: Callable[[str], object]
                 = _default_error_result) -> None:
        self._task = task
        self._config = config
        self._on_event = on_event
        self._error_factory = error_factory
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:            # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context()
        self._workers: list[_Worker] = []
        self._rng = random.Random(config.seed)
        self._backoff_until = 0.0
        self._consecutive_deaths = 0
        self._death_times: deque[float] = deque()
        self._breaker_open = False
        self._breaker_opened_at = 0.0
        self._spawn_failures = 0
        self._closed = False
        #: wake-up line for :meth:`wake` (worker pools only: an inline
        #: pool never waits on anything)
        self._wake_rx: Optional[socket.socket] = None
        self._wake_tx: Optional[socket.socket] = None
        if config.workers:
            self._wake_rx, self._wake_tx = socket.socketpair()
            self._wake_rx.setblocking(False)
            self._wake_tx.setblocking(False)
        self.deaths = 0
        self.restarts = 0
        self.recycles = 0
        self.timeouts = 0
        self.completed = 0
        self.inline_runs = 0
        for _ in range(config.workers):
            self._spawn(initial=True)

    # -- events --------------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        if self._on_event is not None:
            try:
                self._on_event(kind, fields)
            except Exception:
                pass                  # observers never break supervision

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, initial: bool = False) -> None:
        worker = _Worker(self._ctx, self._task,
                         self._config.heartbeat_interval_s)
        self._workers.append(worker)
        if not initial:
            self.restarts += 1
            self._emit("worker_restart", pid=worker.pid,
                       consecutive_deaths=self._consecutive_deaths)

    def _discard(self, worker: _Worker) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _terminate(self, worker: _Worker) -> None:
        self._discard(worker)
        try:
            worker.process.kill()
            worker.process.join(timeout=2.0)
        except (OSError, ValueError):
            pass

    def _retire(self, worker: _Worker) -> None:
        """Graceful replacement after ``max_jobs_per_worker`` (planned
        recycle, not a death: no backoff, no breaker accounting)."""
        self.recycles += 1
        self._emit("worker_recycle", pid=worker.pid,
                   jobs=worker.jobs_done)
        try:
            worker.conn.send(("exit",))
        except OSError:
            pass
        self._discard(worker)
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():   # pragma: no cover - stuck exit
            worker.process.kill()

    def _record_death(self, reason: str, pid: Optional[int]) -> None:
        now = time.monotonic()
        self.deaths += 1
        self._consecutive_deaths += 1
        self._death_times.append(now)
        window = self._config.breaker_window_s
        while self._death_times and now - self._death_times[0] > window:
            self._death_times.popleft()
        exponent = min(self._consecutive_deaths - 1, 10)
        delay = min(self._config.restart_backoff_cap_s,
                    self._config.restart_backoff_base_s * (2 ** exponent))
        delay *= 0.5 + self._rng.random()      # jitter: 0.5x – 1.5x
        self._backoff_until = max(self._backoff_until, now + delay)
        self._emit("worker_died", pid=pid, reason=reason,
                   deaths_in_window=len(self._death_times))
        if (not self._breaker_open
                and len(self._death_times)
                >= self._config.breaker_threshold):
            self._breaker_open = True
            self._breaker_opened_at = now
            self._emit("breaker_open",
                       deaths_in_window=len(self._death_times),
                       window_s=window)
        elif self._breaker_open:
            # a death during the half-open probe re-arms the cooldown
            self._breaker_opened_at = now

    def _maintain(self, now: float) -> None:
        """Respawn missing workers when policy allows."""
        if self._closed or now < self._backoff_until:
            return
        if self._breaker_open:
            if now - self._breaker_opened_at < self._config.breaker_reset_s:
                return
            target = 1                # half-open: one probe lane
        else:
            target = self._config.workers
        while len(self._workers) < target:
            try:
                self._spawn()
            except Exception:
                # Fork/pipe failure: count it, hold off a second, and
                # let run_batch degrade inline if it persists.
                self._spawn_failures += 1
                self._backoff_until = max(self._backoff_until,
                                          now + 1.0)
                return
        self._spawn_failures = 0

    # -- batch execution -----------------------------------------------------

    def run_batch(self, items: list, on_result: Optional[Callable] = None,
                  feed: Optional[Callable[[int], list]] = None) -> list:
        """Run every item through ``task``; exactly one result per item,
        in order, no exceptions.

        On workers, a death retries the job once on another worker;
        timeouts and double deaths produce ``error_factory`` results.
        Items run inline in the caller instead when the pool has no
        workers, while the breaker is open, or when spawning keeps
        failing — degraded, never refused.  ``on_result(index, result,
        inline)`` is called as each result exists, before the rest of
        the batch has run.  ``feed(room)``, when given, is asked for up
        to ``room`` more items whenever that many workers sit idle with
        nothing left to assign; its items join the batch (indexes
        continue past ``items``), and the call returns once everything
        has run and ``feed`` has nothing more."""
        if self._closed:
            raise RuntimeError("supervised pool is closed")
        items = list(items)
        results: list = [None] * len(items)

        def deliver(index: int, result, inline: bool = False) -> None:
            results[index] = result
            if on_result is not None:
                on_result(index, result, inline)

        pending: deque[tuple[int, int]] = deque(
            (i, 0) for i in range(len(items)))
        mark = (self.deaths, self.completed)
        degraded = False
        while True:
            now = time.monotonic()
            self._maintain(now)
            if feed is not None and not pending:
                room = sum(1 for w in self._workers if w.job is None)
                fed = feed(room) if room else ()
                if fed:
                    # Each top-up starts a new health segment, so a
                    # half-open probe closes the breaker on its first
                    # clean job rather than when the run ends.
                    mark = self._note_progress(mark)
                for item in fed:
                    pending.append((len(items), 0))
                    items.append(item)
                    results.append(None)
            self._assign(items, pending, now)
            busy = [w for w in self._workers if w.job is not None]
            if not pending and not busy:
                break
            if not busy:
                # Nothing running and nothing assigned.  A post-death
                # backoff is waited out (delays are capped, and inline
                # execution would forfeit timeout protection); a
                # zero-worker pool, an open breaker (cache-only
                # service) or a broken spawn path serves inline.
                cache_only = self._breaker_open \
                    and not self.breaker_allows()
                if not cache_only and self._spawn_failures < 3 \
                        and self._backoff_until > now:
                    time.sleep(min(self._backoff_until - now, 0.05))
                    continue
                if cache_only and not degraded:
                    degraded = True
                    self._emit("batch.degraded", batch=len(items))
                index, _attempts = pending.popleft()
                deliver(index, self._run_inline(items[index]), True)
                continue
            self._pump(deliver, pending)
        self._note_progress(mark)
        return results

    def _note_progress(self, mark: tuple) -> tuple:
        """Close a health segment begun at ``mark`` (deaths, completed).
        Worker jobs completed with zero deaths reset the failure
        bookkeeping, a clean half-open probe closes the breaker, and
        the full complement is restored now that policy allows it.
        Returns the mark of the next segment."""
        if self.deaths == mark[0] and self.completed > mark[1]:
            self._consecutive_deaths = 0
            self._backoff_until = 0.0
            if self._breaker_open:
                self._breaker_open = False
                self._death_times.clear()
                self._emit("breaker_close", restarts=self.restarts)
            self._maintain(time.monotonic())
        return self.deaths, self.completed

    def _assign(self, items: list, pending: deque, now: float) -> None:
        job_timeout = self._config.job_timeout_s
        for worker in list(self._workers):
            if not pending:
                return
            if worker.job is not None:
                continue
            index, attempts = pending[0]
            try:
                worker.conn.send(("job", index, items[index]))
            except (OSError, ValueError):
                self._discard(worker)
                self._record_death("send-failed", worker.pid)
                continue
            pending.popleft()
            deadline = now + job_timeout if job_timeout else None
            worker.job = (index, attempts, deadline, now)

    def _pump(self, deliver: Callable, pending: deque) -> None:
        """One supervision turn: collect replies, detect deaths,
        enforce timeouts and heartbeat liveness."""
        conn_map = {w.conn: w for w in self._workers}
        waitables = list(conn_map)
        if self._wake_rx is not None:
            waitables.append(self._wake_rx)
        try:
            ready = _connection_wait(waitables, timeout=0.05)
        except OSError:
            ready = []
        for conn in ready:
            if conn is self._wake_rx:
                with contextlib.suppress(OSError):
                    while self._wake_rx.recv(4096):
                        pass
                continue
            worker = conn_map[conn]
            if worker not in self._workers:
                continue              # removed while draining a sibling
            self._drain(worker, deliver, pending)
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.job is None:
                continue
            index, attempts, deadline, started = worker.job
            if deadline is not None and now >= deadline:
                self.timeouts += 1
                self._emit("worker_timeout", pid=worker.pid,
                           elapsed_s=round(now - started, 3))
                self._terminate(worker)
                self._record_death("timeout", worker.pid)
                deliver(index, self._error_factory(
                    f"op_timeout: no result within "
                    f"{self._config.job_timeout_s}s"))
                continue
            if (now - worker.last_seen
                    >= self._config.heartbeat_timeout_s):
                self._emit("worker_hung", pid=worker.pid,
                           silent_s=round(now - worker.last_seen, 3))
                self._terminate(worker)
                self._record_death("hung", worker.pid)
                self._requeue(index, attempts, deliver, pending,
                              "worker hung twice running this job")

    def _drain(self, worker: _Worker, deliver: Callable,
               pending: deque) -> None:
        """Consume every buffered message from one worker; an EOF means
        the process died (buffered replies are still delivered first,
        so a worker that answered and *then* died loses nothing)."""
        while True:
            try:
                if worker.job is None and not worker.conn.poll():
                    return
                message = worker.conn.recv() if worker.conn.poll() \
                    else None
            except (EOFError, OSError):
                job = worker.job
                self._discard(worker)
                self._record_death("died", worker.pid)
                if job is not None:
                    index, attempts, _deadline, _started = job
                    self._requeue(index, attempts, deliver, pending,
                                  "worker died twice running this job")
                return
            if message is None:
                return
            worker.last_seen = time.monotonic()
            kind = message[0]
            if kind == "hb":
                continue
            if kind in ("result", "error") and worker.job is not None \
                    and worker.job[0] == message[1]:
                worker.job = None
                worker.jobs_done += 1
                self.completed += 1
                deliver(message[1], message[2] if kind == "result"
                        else self._error_factory(message[2]))
                if worker.jobs_done >= self._config.max_jobs_per_worker:
                    self._retire(worker)
                    return

    def _requeue(self, index: int, attempts: int, deliver: Callable,
                 pending: deque, give_up_message: str) -> None:
        if attempts == 0:
            pending.append((index, 1))
        else:
            deliver(index, self._error_factory(give_up_message))

    def _run_inline(self, item) -> object:
        self.inline_runs += 1
        try:
            return self._task(item)
        except BaseException as exc:
            return self._error_factory(describe_exception(exc))

    # -- daemon-facing surface ----------------------------------------------

    def wake(self) -> None:
        """Cut the running batch's supervision wait short, so it asks
        its ``feed`` again now.  Safe from any thread; a no-op on an
        inline pool and once the pool is closed."""
        tx = self._wake_tx
        if tx is not None:
            with contextlib.suppress(OSError):   # full: a wake is queued
                tx.send(b"\0")

    def breaker_allows(self) -> bool:
        """May a batch run on workers right now?  ``False`` only while
        the breaker is open and the half-open cooldown has not elapsed
        — :meth:`run_batch` then serves inline."""
        if not self._breaker_open:
            return True
        return (time.monotonic() - self._breaker_opened_at
                >= self._config.breaker_reset_s)

    def state(self) -> str:
        """The supervisor state machine's current state:
        ``healthy`` → ``degraded`` → ``cache-only``."""
        if self._breaker_open:
            return (STATE_DEGRADED if self.breaker_allows()
                    else STATE_CACHE_ONLY)
        live = sum(1 for w in list(self._workers)
                   if w.process.is_alive())
        if (live < self._config.workers
                or time.monotonic() < self._backoff_until):
            return STATE_DEGRADED
        return STATE_HEALTHY

    def worker_pids(self) -> list[int]:
        """Live worker pids (the chaos harness kills these)."""
        return [w.pid for w in list(self._workers)
                if w.process.is_alive()]

    def stats(self) -> dict:
        return {
            "state": self.state(),
            "workers": [{"pid": w.pid, "jobs": w.jobs_done,
                         "busy": w.job is not None}
                        for w in list(self._workers)],
            "deaths": self.deaths,
            "restarts": self.restarts,
            "recycles": self.recycles,
            "timeouts": self.timeouts,
            "completed": self.completed,
            "inline_runs": self.inline_runs,
            "breaker": {
                "open": self._breaker_open,
                "deaths_in_window": len(self._death_times),
                "consecutive_deaths": self._consecutive_deaths,
            },
        }

    def close(self) -> None:
        """Stop every worker (graceful exit, then kill stragglers)."""
        self._closed = True
        for end in (self._wake_tx, self._wake_rx):
            if end is not None:
                end.close()
        workers, self._workers = list(self._workers), []
        for worker in workers:
            try:
                worker.conn.send(("exit",))
            except OSError:
                pass
        for worker in workers:
            worker.process.join(timeout=0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
