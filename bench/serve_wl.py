"""``serve``: a ``repro serve`` daemon driven over two closed-loop
connections.

The daemon runs in its own process at its default settings (inline
execution, 2 ms batch window), with a fresh empty store per set-up.
Each connection sends whole passes of 24 requests in a seeded order:

* 13 fresh: a fixed program behind a comment never sent before
  (6 ``run``, 5 ``compile``, 2 ``explain``) -- every cache tier misses,
  the compile runs and the store is written;
* 10 hot: ``run``/``compile`` of the connection's 3 hot programs --
  memory-tier hits;
* 1 disk: ``run`` of disk program ``pass % 8`` -- a disk-tier hit.
  Set-up writes the disk programs to the store and then pushes them out
  of the memory tier (64 entries) with tiny filler compiles; after
  that, 7 passes of this connection alone insert more keys than the
  memory tier holds, so each later request for it is a disk hit again.

Hot and disk programs differ between the connections and fresh
sources are unique, so no key is ever in flight on both at once and
nothing coalesces.  Both connections make the same number of passes.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from typing import NamedTuple

from common import (TMP, Calibrator, HostSpeed, Metrics, References,
                    add_setup_s, child_env, p50, p95, peak_rss_mb,
                    seeded_order, set_up)
from inputs import (SERVE_DISK_SEEDS, SERVE_FRESH_SEEDS, SERVE_HOT_SEEDS,
                    serve_programs)
from layers import SERVE_SPANS, emit_per_layer

CONNECTIONS = 2
FRESH_OPS = ("run",) * 6 + ("compile",) * 5 + ("explain",) * 2
HOT_REQUESTS = 10
MIN_OPS = 200
#: passes per connection replayed untraced for the cache counts
COUNT_PASSES = 3
#: distinct tiny compiles that push the disk set out of the memory tier
FILLERS = 72
#: plan slots (indices before the seeded shuffle) audited in every pass,
#: per connection: connection 0's first fresh compile and first fresh
#: explain, connection 1's first fresh run and a hot compile
AUDIT_SLOTS = ((6, 11), (0, 14))
CLI_SAMPLE = 6
_RESULT = re.compile(r"^result: (-?\d+) ", re.M)
_CYCLES = re.compile(r"^cycles: (\d+)$", re.M)


class Record(NamedTuple):
    """One request as sent and answered."""
    conn: int
    pass_no: int
    slot: int           # index in the plan before the seeded shuffle
    kind: str           # fresh, hot or disk
    op: str
    name: str           # the program's reference name
    source: str
    response: dict
    start: float
    seconds: float


def plan(seed: int, conn: int, pass_no: int, programs: dict) -> list:
    """The requests of one pass of one connection: (slot, kind, op,
    name, source) in seeded order."""
    reqs = []
    for j, (s, op) in enumerate(zip(SERVE_FRESH_SEEDS[conn], FRESH_OPS)):
        salt = f"/* fresh seed {seed} conn {conn} pass {pass_no} #{j} */\n"
        reqs.append(("fresh", op, f"gen{s}", salt + programs[f"gen{s}"]))
    for i in range(HOT_REQUESTS):
        s = SERVE_HOT_SEEDS[conn][i % len(SERVE_HOT_SEEDS[conn])]
        reqs.append(("hot", "run" if i % 2 == 0 else "compile", f"gen{s}",
                     programs[f"gen{s}"]))
    disk = SERVE_DISK_SEEDS[conn]
    s = disk[pass_no % len(disk)]
    reqs.append(("disk", "run", f"gen{s}", programs[f"gen{s}"]))
    return seeded_order(seed, f"{conn}/{pass_no}",
                        [(slot, *req) for slot, req in enumerate(reqs)])


class Daemon:
    """A ``repro serve`` child process with its own store and spool."""

    def __init__(self) -> None:
        base = os.path.join(TMP, "serve")
        self.socket = base + ".sock"
        self.spool = os.path.join(base, "spool")
        os.makedirs(base, exist_ok=True)
        self.log = open(base + ".log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             self.socket, "--cache-dir", os.path.join(base, "cache"),
             "--spool-dir", self.spool],
            env=child_env(), stdout=self.log, stderr=subprocess.STDOUT)
        from repro.serve.client import request
        deadline = time.monotonic() + 60
        while True:
            try:
                if request({"op": "ping"}, self.socket, timeout=10)["ok"]:
                    return
            except (ConnectionError, FileNotFoundError):
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("serve daemon did not start")
            time.sleep(0.01)

    def stats(self) -> dict:
        from repro.serve.client import request
        return request({"op": "stats"}, self.socket, timeout=30)["stats"]

    def stop(self) -> None:
        from repro.serve.client import request
        try:
            if self.proc.poll() is None:
                request({"op": "shutdown"}, self.socket, timeout=60)
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired, ConnectionError):
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class State:
    def __init__(self) -> None:
        self.programs = serve_programs()
        self.refs = References(self.programs)
        self.errors = list(self.refs.errors)
        self.daemon = Daemon()
        try:
            self.prime_store()
        except BaseException:
            self.daemon.stop()
            raise

    def prime_store(self) -> None:
        """Write the disk set to the store, then push it out of the
        memory tier with distinct tiny compiles."""
        from repro.serve.client import Client
        disk = [f"gen{s}" for conn in SERVE_DISK_SEEDS for s in conn]
        sources = [self.programs[name] for name in disk] + [
            f"int main(void) {{ return {k}; }}\n" for k in range(FILLERS)]
        with Client(self.daemon.socket, timeout=120) as client:
            for source in sources:
                response = client.request({"op": "compile",
                                           "args": ["{source}"],
                                           "source": source})
                if response.get("exit_code") != 0:
                    self.errors.append(f"set-up compile failed: {response}")


def drive(state: State, seed: int, speed: HostSpeed, passes=None,
          seconds=None, trace=False, first_pass=0) -> tuple[list, float]:
    """Both connections send whole passes, the same number each:
    ``passes`` of them, or (with ``seconds``) as many as it takes for
    that long to pass and MIN_OPS requests to complete.  A Calibrator
    process feeds ``speed`` meanwhile.  Returns the Records and the
    elapsed time."""
    from repro.serve.client import Client
    records: list = []
    failures: list = []
    lock = threading.Lock()
    started = [0] * CONNECTIONS
    target = passes

    def next_pass(conn: int) -> int | None:
        """The pass ``conn`` starts next, or None when it is done.  Once
        time is up the pass count is fixed at the most either
        connection has started."""
        nonlocal target
        with lock:
            if target is None and len(records) >= MIN_OPS and \
                    time.perf_counter() - start >= seconds:
                target = max(started)
            if target is not None and started[conn] >= target:
                return None
            started[conn] += 1
            return first_pass + started[conn] - 1

    def loop(conn: int) -> None:
        try:
            with Client(state.daemon.socket, timeout=120) as client:
                while (pass_no := next_pass(conn)) is not None:
                    for slot, kind, op, name, source in plan(
                            seed, conn, pass_no, state.programs):
                        payload = {"op": op, "args": ["{source}"],
                                   "source": source}
                        if trace:
                            payload["trace"] = True
                        t0 = time.perf_counter()
                        response = client.request(payload)
                        dt = time.perf_counter() - t0
                        with lock:
                            records.append(Record(conn, pass_no, slot, kind,
                                                  op, name, source,
                                                  response, t0, dt))
        except Exception as exc:        # reported, never swallowed
            failures.append(f"connection {conn}: {type(exc).__name__}: "
                            f"{exc}")

    calibrator = Calibrator(speed)
    threads = [threading.Thread(target=loop, args=(c,))
               for c in range(CONNECTIONS)]
    start = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    finally:
        calibrator.stop()
    state.errors.extend(failures)
    return records, elapsed


def check_response(state: State, record: Record) -> str | None:
    op, name, response = record.op, record.name, record.response
    if not response.get("ok") or response.get("exit_code") != 0:
        return (f"{op} {name}: ok={response.get('ok')} "
                f"exit={response.get('exit_code')} "
                f"{response.get('error', '')}{response.get('stderr', '')}")
    if op == "run":
        match = _RESULT.search(response["stdout"])
        if match is None:
            return f"run {name}: no result line"
        return state.refs.check(name, int(match.group(1)))
    return None


def audit_in_fork(argv: list) -> tuple:
    """``execute_argv(argv)`` -- ``repro.cli.main`` in-process, output
    captured -- in a fork of this process.  Every audit so starts from
    the same compiler state, as a ``repro`` command run on its own
    does; this process compiles nothing through the optimizer."""
    from repro.serve.handlers import execute_argv
    if threading.active_count() != 1:
        raise RuntimeError("audit forks: no other thread may be running")
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:                        # child: report and exit at once
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as fh:
                fh.write(json.dumps(execute_argv(argv)))
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return tuple(json.loads(data)) if data else (None, "", "no output")


def audit(state: State, records: list) -> list:
    """Re-run the requests at AUDIT_SLOTS of every pass through the
    CLI with the same argv (the daemon's spooled file) and compare
    exit code, stdout and stderr byte for byte.  Returns the records
    that differ."""
    from repro.serve.handlers import spool_source
    differ = []
    for record in sorted(records, key=lambda r: (r.pass_no, r.conn,
                                                  r.slot)):
        if record.slot not in AUDIT_SLOTS[record.conn]:
            continue
        argv = [record.op, spool_source(record.source, state.daemon.spool)]
        response = record.response
        if audit_in_fork(argv) != (response.get("exit_code"),
                                   response.get("stdout"),
                                   response.get("stderr")):
            differ.append(record)
    return differ


def pass_zero_counts(records: list) -> tuple[int, int]:
    """Simulated cycles of the run requests and listed instructions of
    the compile requests in both connections' first pass."""
    cycles = size = 0
    for record in records:
        if record.pass_no != 0:
            continue
        stdout = record.response.get("stdout", "")
        if record.op == "run":
            match = _CYCLES.search(stdout)
            cycles += int(match.group(1)) if match else 0
        elif record.op == "compile":
            size += sum(1 for line in stdout.splitlines()
                        if line[:1].isspace() and line.strip())
    return cycles, size


def run(args, start: float) -> None:
    state, own_setup_s = set_up(State, args, start)
    if own_setup_s is None:
        state.daemon.stop()
        return
    speed = HostSpeed()
    try:
        if args.trace:
            return run_traced(args, state, speed)
        records, elapsed = drive(state, args.seed, speed,
                                 seconds=args.seconds)
        problems = {id(r): p for r in records
                    if (p := check_response(state, r))}
        state.errors.extend(problems.values())
        differ = audit(state, records)
        failed = set(problems) | {id(r) for r in differ}
        rss = peak_rss_mb(state.daemon.proc.pid)
        stats = state.daemon.stats()
    finally:
        state.daemon.stop()
    counters = stats["metrics"]["counters"]
    cycles, size = pass_zero_counts(records)
    out = Metrics()
    out.add_scaled("throughput", len(records) / elapsed, "1/s",
                   len(records), speed)
    out.add_latencies([(r.start, r.seconds) for r in records], speed)
    add_setup_s(out, args, own_setup_s)
    out.add("peak_rss_mb", rss, "MB", 1)
    out.add("sim_cycles", cycles, "count", 1)
    out.add("code_size", size, "count", 1)
    passes = max(r.pass_no for r in records) + 1
    audited = sum(len(slots) for slots in AUDIT_SLOTS) * passes
    notes = [f"{len(records)} requests, {passes} passes on each of "
             f"{CONNECTIONS} connections, in {elapsed:.2f} s; host "
             f"slowdown {speed.slowdown():.3f} ({len(speed.samples)} "
             f"calibrations)",
             f"coalesced {counters.get('serve.coalesced', 0)}; audited "
             f"{audited} requests against the CLI, {len(differ)} differ: "
             + (", ".join(sorted({f"{r.op} {r.name}" for r in differ}))
                or "none")]
    notes += [f"error: {e}" for e in state.errors[:20]]
    out.emit(not state.errors, len(records), len(failed), notes)


def span_ms(records: list) -> dict:
    """Daemon-side span durations (ms) of traced responses, by span."""
    out = {name: [] for name in SERVE_SPANS}
    for record in records:
        for event in record.response.get("trace", {}).get("traceEvents",
                                                           []):
            if event.get("ph") == "X" and event["name"] in out:
                out[event["name"]].append(event["dur"] / 1e3)
    return out


def cli_overhead(state: State, records: list, seed: int) -> tuple:
    """Per sampled warm request: in-process ``cli.main`` time minus the
    library calls it makes (compile_cached, then run_oracle + simulate
    or listing), medians of 5 calls each, in ms; and the whole
    ``cli.main`` time of each."""
    from repro.opt import OptOptions
    from repro.perf.cache import compile_cached
    from repro.serve.handlers import execute_argv, spool_source
    sample = [r for r in records if r.op in ("run", "compile")]
    out, whole = [], []
    for record in random.Random(seed).sample(sample, CLI_SAMPLE):
        op, source = record.op, record.source
        argv = [op, spool_source(source, state.daemon.spool)]
        execute_argv(argv)                   # warm the in-process cache

        def library() -> None:
            result = compile_cached(source, "wm", OptOptions())
            if op == "run":
                result.run_oracle()
                result.simulate()
            else:
                result.listing()
        cli_t, lib_t = [], []
        for _ in range(5):
            t0 = time.perf_counter()
            execute_argv(argv)
            t1 = time.perf_counter()
            library()
            t2 = time.perf_counter()
            cli_t.append(t1 - t0)
            lib_t.append(t2 - t1)
        out.append((p50(cli_t) - p50(lib_t)) * 1e3)
        whole.append(p50(cli_t) * 1e3)
    return out, whole


def run_traced(args, state: State, speed: HostSpeed) -> None:
    measured = {}
    # Untraced replay of a fixed number of passes: cache tiers and
    # batch sizes from the daemon's stats reply.
    before = state.daemon.stats()
    records, _elapsed = drive(state, args.seed, speed, passes=COUNT_PASSES)
    after = state.daemon.stats()

    def delta(*path) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b
    disk_hits = delta("cache", "disk", "hits")
    measured["cache.memory_hits"] = (delta("cache", "hits"), len(records))
    measured["cache.disk_hits"] = (disk_hits, len(records))
    measured["cache.compiles"] = (delta("cache", "misses") - disk_hits,
                                  len(records))
    measured["store.writes"] = (delta("cache", "disk", "writes"),
                                len(records))
    batch = ("metrics", "histograms", "serve.batch.size")
    batches = delta(*batch, "count")
    measured["serve.batch_size.mean"] = (delta(*batch, "sum") / batches,
                                         batches)
    # Traced passes: the daemon's spans of every request.
    traced, elapsed = drive(state, args.seed, speed, seconds=args.seconds,
                            trace=True, first_pass=COUNT_PASSES)
    spans = span_ms(traced)
    for span, name in SERVE_SPANS.items():
        measured[f"{name}.p50"] = (p50(spans[span]), len(spans[span]))
    waits = spans["queue.wait"]
    measured["serve.queue_wait_ms.p95"] = (p95(waits), len(waits))
    measured["trace.throughput"] = (len(traced) / elapsed, len(traced))
    overhead, whole = cli_overhead(state, records, args.seed)
    measured["serve.cli_ms.p50"] = (p50(overhead), len(overhead))
    problems = [p for r in records + traced
                for p in [check_response(state, r)] if p]
    state.daemon.stop()
    warm = p50([r.seconds * 1e3 for r in records if r.kind == "hot"])
    share = p50([o / w for o, w in zip(overhead, whole)])
    notes = [f"warm request executed in-process: cli.main p50 "
             f"{p50(whole):.2f} ms, of which the CLI layer "
             f"{100 * share:.0f}%; hot requests as served: client "
             f"latency p50 {warm:.2f} ms"]
    notes += [f"error: {e}" for e in (state.errors + problems)[:20]]
    emit_per_layer(measured, speed, not (state.errors or problems),
                   len(records) + len(traced), len(problems), notes)
