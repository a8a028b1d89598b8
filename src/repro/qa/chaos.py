"""Seeded chaos harness for the serve tier.

``repro chaos`` starts a real daemon (supervised worker pool, persistent
artifact store, flight recorder — the production wiring, not a mock)
and attacks it with a deterministic, seeded fault plan while closed-loop
clients keep real traffic flowing:

* **worker kills** — SIGKILL a random pool worker at a seeded cadence,
  exercising death-retry, backoff restarts, and the circuit breaker;
* **torn / slow store I/O** — a :class:`repro.perf.store.StoreFaults`
  hook truncates a fraction of artifact writes and delays a fraction of
  store operations, exercising read-path quarantine and GC;
* **socket resets** — clients drop connections mid-request, exercising
  the daemon's write-error paths;
* **deadline storms** — a fraction of requests carry near-impossible
  ``deadline_ms`` budgets (drawn from a nonce source pool disjoint from
  normal traffic, so coalescing cannot leak a shed onto a patient
  request), exercising dispatch-time shedding;
* **refusal bursts** — periodic queue-saturating walls of doomed
  requests, exercising overload refusal and the black-box burst trigger.

The harness is a *verdict machine*, not a demo: every response is
checked against mechanical invariants, and the run fails loudly (with a
flight-recorder dump) on the first class of violation:

1. every awaited request gets exactly one terminal response, echoing
   its unique id;
2. every ``ok`` response is **byte-identical** (exit code, stdout,
   stderr) to running the same command through the local CLI;
3. every error response is from the allowed fault vocabulary
   (``overloaded`` / ``draining`` / ``deadline_exceeded`` /
   ``op_timeout`` / worker-death give-ups);
4. the daemon's own ledger balances:
   ``total == ok + error + refused + coalesced``;
5. after the agitators stop, the daemon recovers to ``healthy``;
6. after the drain, nothing is orphaned (empty queue, no in-flight
   futures, zero outstanding);
7. the store held the line: ``read_errors == quarantined`` (every
   torn artifact was quarantined, never served) and
   ``evicted_young == 0`` (the min-age floor was honored), counted
   over the store traffic of every request the daemon executed, in
   whichever worker it ran.

Same seed, same plan: the kill cadence, fault coin-flips, request mix,
and burst schedule all derive from per-role ``random.Random`` streams
keyed off the plan seed, so a failing run is re-runnable.
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from random import Random
from typing import Optional

__all__ = ["ChaosPlan", "ChaosReport", "run_chaos", "format_chaos_report"]

#: Manifest format version (plan round-trip stability).
_PLAN_VERSION = 1

#: Error vocabulary a chaos run is allowed to produce.  Anything else
#: in a response's ``error`` field is an invariant violation.
_ALLOWED_ERRORS = frozenset(
    {"overloaded", "draining", "deadline_exceeded"})
_ALLOWED_ERROR_PREFIXES = ("op_timeout", "worker died twice")

#: Normal-traffic corpus: (op, args, source).  Small programs with
#: distinct sources so the cache and coalescer both see repeats and
#: variety.  Byte-identity expectations are computed per run through
#: the local CLI, so the corpus needs no golden files.
_CORPUS: tuple = (
    ("run", (), "int main(void) { return 6 * 7; }\n"),
    ("run", (), "int main(void) {\n"
                "  int i; int s;\n"
                "  s = 0;\n"
                "  for (i = 0; i < 10; i = i + 1) { s = s + i; }\n"
                "  return s;\n"
                "}\n"),
    ("compile", (), "int main(void) { return 1 + 2; }\n"),
    ("compile", ("--opt", "none"),
     "int main(void) { return 9 - 4; }\n"),
)

#: Deadline-storm nonce sources: disjoint from the corpus by
#: construction, so a storm request can never coalesce with (and shed)
#: a patient one.
_NONCE_POOL = tuple(
    ("run", (), f"int main(void) {{ return {100 + k}; }}\n")
    for k in range(8))


@dataclass(frozen=True)
class ChaosPlan:
    """One seeded, frozen fault schedule.  Same plan, same chaos."""

    seed: int = 0
    duration_s: float = 20.0
    clients: int = 4
    workers: int = 2
    kill_interval_s: float = 2.0
    socket_reset_rate: float = 0.05
    torn_rate: float = 0.05
    slow_rate: float = 0.1
    deadline_storm_rate: float = 0.15
    refusal_burst_s: float = 6.0

    def manifest(self) -> dict:
        """A JSON-safe description that round-trips the plan."""
        return {"version": _PLAN_VERSION, **asdict(self)}

    @classmethod
    def from_manifest(cls, document: dict) -> "ChaosPlan":
        if document.get("version") != _PLAN_VERSION:
            raise ValueError(
                f"unsupported chaos-plan version "
                f"{document.get('version')!r}")
        fields = {k: v for k, v in document.items() if k != "version"}
        return cls(**fields)

    def rng(self, role: str) -> Random:
        """An independent deterministic stream for one agitator role."""
        return Random(f"{self.seed}:{role}")


#: Alias for the report dict ``run_chaos`` returns (documented shape,
#: not a class: it must stay trivially JSON-serializable).
ChaosReport = dict


def _allowed_error(error: object) -> bool:
    if not isinstance(error, str):
        return False
    return error in _ALLOWED_ERRORS or \
        error.startswith(_ALLOWED_ERROR_PREFIXES)


def _expected_outputs(requests: tuple, spool_dir: str) -> dict:
    """Ground truth: each corpus entry run through the local CLI.

    Uses the same spool directory the daemon will use, so outputs that
    embed the spooled source path are byte-stable between the local run
    and the served run.
    """
    from ..serve.handlers import execute_argv, resolve_args
    expected = {}
    for op, args, source in requests:
        argv = resolve_args(tuple(args), source, spool_dir)
        expected[(op, tuple(args), source)] = execute_argv([op, *argv])
    return expected


class _Ledger:
    """Thread-shared outcome accounting for every awaited request."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.sent = 0
        self.ok = 0
        self.byte_identical = 0
        self.errors: dict[str, int] = {}
        self.transport_errors = 0
        self.resets_injected = 0
        self.violations: list[dict] = []

    def violate(self, invariant: str, detail: str) -> None:
        with self.lock:
            if len(self.violations) < 50:      # keep the report bounded
                self.violations.append(
                    {"invariant": invariant, "detail": detail})


def _check_response(ledger: _Ledger, request_id: str, payload: dict,
                    response: dict, expected: dict,
                    corpus_key: tuple) -> None:
    """Apply the per-response invariants (1)-(3)."""
    if response.get("id") != request_id:
        ledger.violate(
            "one-response-per-id",
            f"sent id {request_id!r}, response echoed "
            f"{response.get('id')!r}")
        return
    if response.get("ok"):
        want_code, want_out, want_err = expected[corpus_key]
        got = (response.get("exit_code"), response.get("stdout"),
               response.get("stderr"))
        if got == (want_code, want_out, want_err):
            with ledger.lock:
                ledger.ok += 1
                ledger.byte_identical += 1
        else:
            with ledger.lock:
                ledger.ok += 1
            ledger.violate(
                "byte-identity",
                f"op={payload['op']} id={request_id}: served "
                f"(exit={got[0]}) differs from local CLI "
                f"(exit={want_code})")
        return
    error = response.get("error")
    with ledger.lock:
        label = error if isinstance(error, str) else repr(error)
        ledger.errors[label] = ledger.errors.get(label, 0) + 1
    if not _allowed_error(error):
        ledger.violate(
            "allowed-errors",
            f"op={payload['op']} id={request_id}: unexpected error "
            f"{error!r}")


def _client_loop(index: int, plan: ChaosPlan, socket_path: str,
                 expected: dict, ledger: _Ledger,
                 stop_at: float) -> None:
    """One closed-loop client: seeded request mix, checked responses."""
    import socket as socket_module

    from ..serve.client import request
    from ..serve.protocol import encode_line

    rng = plan.rng(f"client:{index}")
    sequence = 0
    while time.monotonic() < stop_at:
        sequence += 1
        request_id = f"c{index}-{sequence}"
        storm = rng.random() < plan.deadline_storm_rate
        op, args, source = rng.choice(
            _NONCE_POOL if storm else _CORPUS)
        payload: dict = {"op": op, "args": list(args), "source": source,
                         "id": request_id}
        if storm:
            payload["deadline_ms"] = rng.uniform(0.01, 0.2)
        if rng.random() < plan.socket_reset_rate:
            # Fault injection, not a request we await: connect, send,
            # hang up before the response — the daemon must shrug.
            with ledger.lock:
                ledger.resets_injected += 1
            try:
                sock = socket_module.socket(socket_module.AF_UNIX,
                                            socket_module.SOCK_STREAM)
                sock.settimeout(5.0)
                sock.connect(socket_path)
                sock.sendall(encode_line(payload))
                sock.close()
            except OSError:
                pass
            continue
        with ledger.lock:
            ledger.sent += 1
        try:
            response = request(payload, socket_path, timeout=60.0,
                               retries=2)
        except (ConnectionError, TimeoutError, OSError) as exc:
            # The daemon never restarts during a run, so a transport
            # failure on an awaited request is itself a violation.
            with ledger.lock:
                ledger.transport_errors += 1
            ledger.violate(
                "one-response-per-id",
                f"id={request_id}: transport failure "
                f"{type(exc).__name__}: {exc}")
            continue
        _check_response(ledger, request_id, payload, response,
                        expected, (op, tuple(args), source))


def _killer_loop(plan: ChaosPlan, pool, stop_at: float) -> None:
    """SIGKILL a random pool worker at a seeded, jittered cadence."""
    rng = plan.rng("kill")
    if plan.kill_interval_s <= 0:
        return
    while time.monotonic() < stop_at:
        time.sleep(min(stop_at - time.monotonic() + 0.01,
                       rng.uniform(0.5, 1.5) * plan.kill_interval_s))
        if time.monotonic() >= stop_at:
            return
        pids = pool.worker_pids()
        if not pids:
            continue
        try:
            os.kill(rng.choice(pids), signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def _burst_loop(plan: ChaosPlan, socket_path: str, expected: dict,
                ledger: _Ledger, queue_depth: int,
                stop_at: float) -> None:
    """Periodic queue-saturating walls of doomed-deadline requests."""
    rng = plan.rng("burst")
    if plan.refusal_burst_s <= 0:
        return
    burst_seq = 0
    while time.monotonic() < stop_at:
        time.sleep(min(stop_at - time.monotonic() + 0.01,
                       rng.uniform(0.5, 1.5) * plan.refusal_burst_s))
        if time.monotonic() >= stop_at:
            return
        burst_seq += 1
        threads = []
        for lane in range(queue_depth * 2):
            op, args, source = rng.choice(_NONCE_POOL)
            payload = {"op": op, "args": list(args), "source": source,
                       "id": f"b{burst_seq}-{lane}",
                       "deadline_ms": 0.05}
            threads.append(threading.Thread(
                target=_burst_one,
                args=(payload, socket_path, expected, ledger,
                      (op, tuple(args), source)),
                daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)


def _burst_one(payload: dict, socket_path: str, expected: dict,
               ledger: _Ledger, corpus_key: tuple) -> None:
    from ..serve.client import request
    with ledger.lock:
        ledger.sent += 1
    try:
        response = request(payload, socket_path, timeout=60.0,
                           retries=2)
    except (ConnectionError, TimeoutError, OSError) as exc:
        with ledger.lock:
            ledger.transport_errors += 1
        ledger.violate("one-response-per-id",
                       f"id={payload['id']}: transport failure "
                       f"{type(exc).__name__}: {exc}")
        return
    _check_response(ledger, payload["id"], payload, response,
                    expected, corpus_key)


def run_chaos(seed: int = 0, duration_s: float = 20.0, clients: int = 4,
              workers: int = 2, kill_interval_s: float = 2.0,
              socket_reset_rate: float = 0.05, torn_rate: float = 0.05,
              slow_rate: float = 0.1, deadline_storm_rate: float = 0.15,
              refusal_burst_s: float = 6.0,
              blackbox_dir: Optional[str] = None,
              queue_depth: int = 16) -> ChaosReport:
    """One full chaos run; returns the machine-readable report.

    ``report["ok"]`` is the verdict; ``report["violations"]`` lists
    what broke (first 50), and ``report["blackbox"]`` names the
    flight-recorder dump written when anything did.
    """
    from ..perf.cache import clear_cache, configure_disk_store
    from ..perf.store import StoreFaults
    from ..serve.daemon import ServeConfig, start_daemon_thread

    plan = ChaosPlan(
        seed=seed, duration_s=duration_s, clients=clients,
        workers=workers, kill_interval_s=kill_interval_s,
        socket_reset_rate=socket_reset_rate, torn_rate=torn_rate,
        slow_rate=slow_rate, deadline_storm_rate=deadline_storm_rate,
        refusal_burst_s=refusal_burst_s)
    root = tempfile.mkdtemp(prefix="repro-chaos-")
    spool_dir = os.path.join(root, "spool")
    cache_dir = os.path.join(root, "cache")
    dump_dir = blackbox_dir or os.path.join(root, "blackbox")
    os.makedirs(spool_dir, exist_ok=True)

    # Ground truth first (no faults installed yet, warm = deterministic
    # fast), then arm the store: workers fork from this process, so the
    # fault hook rides into every (re)spawned worker.  Clearing the
    # in-memory compile cache afterwards matters — forked workers would
    # otherwise inherit it warm and never touch the faulted disk tier.
    expected = _expected_outputs(_CORPUS + _NONCE_POOL, spool_dir)
    clear_cache()
    store = configure_disk_store(cache_dir)
    store.faults = StoreFaults(seed, slow_rate=plan.slow_rate,
                               slow_s=0.002, torn_rate=plan.torn_rate)

    config = ServeConfig(
        socket_path=os.path.join(root, "chaos.sock"),
        workers=plan.workers, queue_depth=queue_depth, batch_max=8,
        spool_dir=spool_dir,
        blackbox_dir=dump_dir, force_pool=True, op_timeout_s=30.0,
        heartbeat_timeout_s=5.0, gc_interval_s=1.0,
        blackbox_cooldown_s=5.0)
    handle = start_daemon_thread(config)
    daemon = handle.daemon
    ledger = _Ledger()
    started = time.monotonic()
    stop_at = started + plan.duration_s

    threads = [
        threading.Thread(target=_client_loop,
                         args=(i, plan, config.socket_path, expected,
                               ledger, stop_at),
                         name=f"chaos-client-{i}", daemon=True)
        for i in range(plan.clients)
    ]
    threads.append(threading.Thread(
        target=_burst_loop,
        args=(plan, config.socket_path, expected, ledger, queue_depth,
              stop_at),
        name="chaos-burst", daemon=True))
    threads.append(threading.Thread(
        target=_killer_loop, args=(plan, daemon._pool, stop_at),
        name="chaos-killer", daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=plan.duration_s + 120.0)

    # Invariant (5): with the agitators gone, the daemon must find its
    # way back to healthy — a little traffic drives the breaker's
    # half-open probes.
    recovered_state = _await_recovery(plan, config.socket_path, daemon,
                                      ledger, expected)
    if recovered_state != "healthy":
        ledger.violate("recovery",
                       f"state {recovered_state!r} after agitation "
                       f"stopped (expected 'healthy')")

    final_stats = daemon.stats_snapshot()
    handle.stop(timeout=60.0)
    # The workers did the store traffic; the daemon sums what each
    # execution reports (this process's store object saw none of it).
    store_stats = daemon.cache_stats()["disk"]

    # Invariant (6): the drain left nothing orphaned.
    if daemon._pending or daemon._inflight or daemon._outstanding:
        ledger.violate(
            "no-orphans",
            f"post-drain queue={len(daemon._pending)} "
            f"inflight={len(daemon._inflight)} "
            f"outstanding={daemon._outstanding}")

    # Invariant (4): the daemon's ledger balances.
    counters = final_stats["metrics"]["counters"]
    total = counters.get("serve.requests.total", 0)
    accounted = (counters.get("serve.responses.ok", 0)
                 + counters.get("serve.responses.error", 0)
                 + counters.get("serve.refused.overloaded", 0)
                 + counters.get("serve.refused.draining", 0)
                 + counters.get("serve.refused.deadline_exceeded", 0)
                 + counters.get("serve.coalesced", 0))
    if total != accounted:
        ledger.violate("ledger-balance",
                       f"requests.total {total} != accounted "
                       f"{accounted} (ok+error+refused+coalesced)")

    # Invariant (7): the store held the line under torn writes.
    if store_stats["read_errors"] != store_stats["quarantined"]:
        ledger.violate(
            "store-quarantine",
            f"read_errors {store_stats['read_errors']} != "
            f"quarantined {store_stats['quarantined']}")
    if store_stats["evicted_young"]:
        ledger.violate("store-min-age",
                       f"{store_stats['evicted_young']} entries "
                       f"evicted younger than the min-age floor")

    ok = not ledger.violations
    blackbox_path = None
    if not ok:
        # Preserve the last moments for post-mortem, bypassing the
        # daemon's cooldown: a failing chaos run always gets its dump.
        try:
            blackbox_path = daemon.flight.dump(
                os.path.join(dump_dir,
                             f"repro-chaos-{os.getpid()}.json"),
                reason="chaos-violation")
        except OSError:
            blackbox_path = None

    return {
        "ok": ok,
        "plan": plan.manifest(),
        "duration_s": round(time.monotonic() - started, 3),
        "requests": {
            "sent": ledger.sent,
            "ok": ledger.ok,
            "byte_identical": ledger.byte_identical,
            "errors": dict(sorted(ledger.errors.items())),
            "transport_errors": ledger.transport_errors,
            "resets_injected": ledger.resets_injected,
        },
        "daemon": {
            "state": final_stats["state"],
            "supervisor": final_stats["supervisor"],
            "counters": {key: value for key, value in sorted(
                counters.items()) if key.startswith("serve.")},
        },
        "store": store_stats,
        "violations": ledger.violations,
        "blackbox": blackbox_path,
    }


def _await_recovery(plan: ChaosPlan, socket_path: str, daemon,
                    ledger: _Ledger, expected: dict,
                    timeout_s: float = 45.0) -> str:
    """Poll (with nudging traffic) until the daemon reports healthy."""
    from ..serve.client import request

    deadline = time.monotonic() + timeout_s
    state = daemon.stats_snapshot()["state"]
    probe = 0
    while state != "healthy" and time.monotonic() < deadline:
        probe += 1
        op, args, source = _CORPUS[probe % len(_CORPUS)]
        payload = {"op": op, "args": list(args), "source": source,
                   "id": f"recover-{probe}"}
        with ledger.lock:
            ledger.sent += 1
        try:
            response = request(payload, socket_path, timeout=60.0,
                               retries=2)
        except (ConnectionError, TimeoutError, OSError):
            with ledger.lock:
                ledger.transport_errors += 1
            ledger.violate("one-response-per-id",
                           f"id=recover-{probe}: transport failure "
                           f"during recovery")
            break
        _check_response(ledger, payload["id"], payload, response,
                        expected, (op, tuple(args), source))
        time.sleep(0.25)
        state = daemon.stats_snapshot()["state"]
    return state


def format_chaos_report(report: ChaosReport) -> str:
    """Human-readable verdict: one summary block, then violations."""
    plan = report["plan"]
    requests = report["requests"]
    lines = [
        f"chaos run — seed {plan['seed']}  "
        f"{report['duration_s']:.1f}s  "
        f"verdict {'PASS' if report['ok'] else 'FAIL'}",
        f"  requests: {requests['sent']} sent, {requests['ok']} ok "
        f"({requests['byte_identical']} byte-identical), "
        f"{sum(requests['errors'].values())} refused/errored, "
        f"{requests['resets_injected']} resets injected",
    ]
    if requests["errors"]:
        lines.append("  errors: " + ", ".join(
            f"{kind} x{count}"
            for kind, count in requests["errors"].items()))
    supervisor = report["daemon"]["supervisor"]
    if supervisor:
        lines.append(
            f"  supervisor: state {report['daemon']['state']}  "
            f"deaths {supervisor.get('deaths', 0)}  "
            f"restarts {supervisor.get('restarts', 0)}  "
            f"timeouts {supervisor.get('timeouts', 0)}  "
            f"recycles {supervisor.get('recycles', 0)}")
    store = report["store"]
    lines.append(
        f"  store: {store['entries']} entries on disk, "
        f"{store['writes']} writes, {store['hits']} hits, "
        f"{store['quarantined']} quarantined, "
        f"{store['tombstoned']} tombstoned, "
        f"{store['gc_removed']} gc-removed")
    for violation in report["violations"]:
        lines.append(f"  VIOLATION [{violation['invariant']}] "
                     f"{violation['detail']}")
    if report["blackbox"]:
        lines.append(f"  flight recorder dumped to "
                     f"{report['blackbox']}")
    return "\n".join(lines)
