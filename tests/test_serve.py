"""The compile service: protocol, handlers, daemon, clients.

The contract under test is the serving tentpole's acceptance criteria:
served responses byte-identical to the CLI, single-flight dedup of
concurrent identical requests, bounded-queue backpressure, graceful
drain, and the seed matrix: served output equals the CLI's under each
pinned PYTHONHASHSEED (via separate processes here).
"""

import asyncio
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

from repro.perf.supervisor import SupervisedPool, SupervisorConfig
from repro.serve import (
    Client, ProtocolError, ServeConfig, canonical_key, http_get,
    parse_request, request, start_daemon_thread,
)
from repro.serve.daemon import Daemon
from repro.serve.handlers import (
    execute_argv, resolve_args, spool_source, worker_task,
)
from repro.serve.protocol import MAX_FRAME_BYTES, decode_line, encode_line

REPO = pathlib.Path(__file__).resolve().parent.parent
LIVERMORE5 = str(REPO / "examples" / "livermore5.c")
SRC_DIR = str(REPO / "src")


@pytest.fixture(autouse=True)
def fresh_cache():
    from repro.perf import cache as cache_mod, clear_cache
    clear_cache()
    cache_mod.configure_disk_store(None)
    yield
    clear_cache()
    cache_mod._disk = None
    cache_mod._disk_configured = False


class TestProtocol:
    def test_parse_minimal(self):
        req = parse_request({"op": "ping"})
        assert req.is_control
        assert req.args == ()

    def test_parse_full(self):
        req = parse_request({"op": "run", "args": ["f.c", "--json"],
                             "source": "int main(void){return 0;}",
                             "id": 7})
        assert not req.is_control
        assert req.id == 7
        assert canonical_key(req) == (
            "run", ("f.c", "--json"), "int main(void){return 0;}", False)

    def test_trace_flag_parses_and_splits_identity(self):
        traced = parse_request({"op": "run", "args": ["f.c"],
                                "trace": True})
        plain = parse_request({"op": "run", "args": ["f.c"]})
        # A traced request must never coalesce onto an untraced
        # execution (whose merged trace would not exist).
        assert canonical_key(traced) != canonical_key(plain)
        with pytest.raises(ProtocolError, match="'trace'"):
            parse_request({"op": "run", "trace": "yes"})

    @pytest.mark.parametrize("payload,fragment", [
        ("not a dict", "JSON object"),
        ({}, "'op'"),
        ({"op": 3}, "'op'"),
        ({"op": "nonesuch"}, "unknown op"),
        ({"op": "run", "args": "f.c"}, "list of strings"),
        ({"op": "run", "args": [1]}, "list of strings"),
        ({"op": "run", "args": ["x"] * 65}, "too many args"),
        ({"op": "run", "source": 5}, "'source'"),
        ({"op": "run", "source": "x" * (1 << 21)}, "too large"),
        ({"op": "run", "id": {"a": 1}}, "scalar"),
    ])
    def test_rejections(self, payload, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            parse_request(payload)

    def test_id_never_affects_identity(self):
        one = parse_request({"op": "run", "args": ["f.c"], "id": 1})
        two = parse_request({"op": "run", "args": ["f.c"], "id": 2})
        assert canonical_key(one) == canonical_key(two)
        assert one == two                 # id excluded from equality

    def test_framing_round_trip(self):
        frame = encode_line({"op": "run", "id": None})
        assert frame.endswith(b"\n")
        assert decode_line(frame) == {"op": "run", "id": None}

    def test_decode_garbage(self):
        with pytest.raises(ProtocolError, match="malformed JSON"):
            decode_line(b"{nope")


class TestHandlers:
    def test_spool_is_idempotent_and_content_named(self, tmp_path):
        spool = str(tmp_path)
        a = spool_source("int main(void) { return 3; }", spool)
        b = spool_source("int main(void) { return 3; }", spool)
        c = spool_source("int main(void) { return 4; }", spool)
        assert a == b != c
        assert a.endswith(".c")
        assert open(a).read() == "int main(void) { return 3; }"

    def test_resolve_args_placeholder_and_append(self, tmp_path):
        spool = str(tmp_path)
        source = "int main(void) { return 0; }"
        subst = resolve_args(("{source}", "--json"), source, spool)
        assert subst[0].endswith(".c") and subst[1] == "--json"
        appended = resolve_args(("--json",), source, spool)
        assert appended[0] == "--json" and appended[1] == subst[0]
        untouched = resolve_args(("f.c", "--json"), None, spool)
        assert untouched == ["f.c", "--json"]

    def test_execute_argv_matches_cli_main(self, capsys):
        from repro.cli import main
        code, out, err = execute_argv(["run", LIVERMORE5])
        assert code == main(["run", LIVERMORE5])
        captured = capsys.readouterr()
        assert out == captured.out
        assert err == captured.err

    def test_execute_argv_usage_error_is_captured(self):
        code, out, err = execute_argv(["run"])     # missing file arg
        assert code == 2
        assert "usage:" in err
        assert out == ""

    def test_execute_argv_pins_sys_argv(self):
        saved = list(sys.argv)
        code, out, _err = execute_argv(
            ["run", LIVERMORE5, "--json"])
        assert code == 0
        assert sys.argv == saved                   # restored
        manifest = json.loads(out)["manifest"]
        assert manifest["argv"] == ["repro", "run", LIVERMORE5,
                                    "--json"]

    def test_run_batch_quarantines_failures(self, tmp_path):
        # The daemon's execute plane with zero workers: every request
        # runs inline, and a failing one fills only its own slot.
        good = {"op": "run", "args": [LIVERMORE5], "source": None}
        bad = {"op": "run", "args": None, "source": None}
        pool = SupervisedPool(worker_task(str(tmp_path)),
                              SupervisorConfig(workers=0))
        try:
            responses = pool.run_batch([good, bad, good])
        finally:
            pool.close()
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["error"].startswith("TypeError")
        assert responses[0]["stdout"] == responses[2]["stdout"]


def _drive(coro):
    """Run one async daemon scenario to completion on a fresh loop."""
    return asyncio.run(coro)


def _ok(stdout: str = "") -> dict:
    return {"ok": True, "exit_code": 0, "stdout": stdout, "stderr": ""}


def _gated_task(payload: dict) -> dict:
    """Per-item task for forked pool workers: an arg ``gate:<path>``
    blocks the item until that file exists (10 s at most)."""
    for arg in payload["args"]:
        if arg.startswith("gate:"):
            deadline = time.monotonic() + 10
            while not os.path.exists(arg[5:]) and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
    return _ok(" ".join(payload["args"]))


class TestDaemonQueueing:
    """Admission-control behavior, probed with an injected task.

    A task that waits on a ``threading`` gate runs inline
    (``workers=0``): a forked worker could not see the gate open.  The
    access side under test is the same under either execute plane."""

    def _config(self, tmp_path, **overrides) -> ServeConfig:
        settings = dict(socket_path=str(tmp_path / "d.sock"),
                        queue_depth=256)
        settings.update(overrides)
        return ServeConfig(**settings)

    def test_single_flight_coalesces_identical_requests(self, tmp_path):
        release = threading.Event()
        executed = []

        def task(payload):
            executed.append(payload)
            release.wait(10)
            return _ok("shared")

        async def scenario():
            daemon = Daemon(self._config(tmp_path, workers=0), task=task)
            await daemon.start()
            tasks = [asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": ["f.c"], "id": idx}))
                for idx in range(5)]
            await asyncio.sleep(0.2)       # let dispatch pick it up
            release.set()
            responses = await asyncio.gather(*tasks)
            stats = daemon.stats_snapshot()
            await daemon.aclose()
            return responses, stats

        responses, stats = _drive(scenario())
        assert len(executed) == 1                  # one execution
        assert [r["id"] for r in responses] == [0, 1, 2, 3, 4]
        assert {r["stdout"] for r in responses} == {"shared"}
        assert stats["metrics"]["counters"]["serve.coalesced"] == 4

    def test_distinct_requests_batch_together(self, tmp_path):
        async def scenario():
            daemon = Daemon(self._config(tmp_path, batch_max=8),
                            task=lambda payload: _ok())
            await daemon.start()
            # All three are admitted before the dispatcher next runs,
            # so it finds them pending together.
            tasks = [asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": [f"f{idx}.c"], "id": idx}))
                for idx in range(3)]
            responses = await asyncio.gather(*tasks)
            stats = daemon.stats_snapshot()
            await daemon.aclose()
            return responses, stats

        responses, stats = _drive(scenario())
        assert all(r["ok"] for r in responses)
        sizes = stats["metrics"]["histograms"]["serve.batch.size"]
        assert (sizes["count"], sizes["sum"]) == (1, 3)  # one batch of 3

    def _fast_then_slow(self, daemon: Daemon, slow_args: list,
                        release) -> tuple:
        """Admit [fast, slow] as one batch; return fast's response
        (awaited while slow is still blocked), slow's, and stats."""
        async def scenario():
            await daemon.start()
            fast = asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": ["fast.c"], "id": "fast"}))
            slow = asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": slow_args, "id": "slow"}))
            try:
                first = await asyncio.wait_for(asyncio.shield(fast), 5)
                slow_pending = not slow.done()
            finally:
                release()
            second = await slow
            stats = daemon.stats_snapshot()
            await daemon.aclose()
            return first, slow_pending, second, stats

        return _drive(scenario())

    def test_each_response_released_before_its_batch_finishes(
            self, tmp_path):
        gate = threading.Event()

        def task(payload):
            if payload["args"] == ["slow.c"]:
                gate.wait(10)
            return _ok(payload["args"][0])

        daemon = Daemon(self._config(tmp_path, workers=0), task=task)
        fast, slow_pending, slow, stats = self._fast_then_slow(
            daemon, ["slow.c"], gate.set)
        assert fast["id"] == "fast" and fast["stdout"] == "fast.c"
        assert slow_pending                 # released ahead of 'slow'
        assert slow["stdout"] == "slow.c"
        sizes = stats["metrics"]["histograms"]["serve.batch.size"]
        assert (sizes["count"], sizes["sum"]) == (1, 2)
        assert stats["supervisor"]["inline_runs"] == 2

    def test_pooled_response_released_before_its_batch_finishes(
            self, tmp_path):
        gate = tmp_path / "gate"
        daemon = Daemon(self._config(tmp_path, workers=2,
                                     force_pool=True),
                        task=_gated_task)
        fast, slow_pending, slow, stats = self._fast_then_slow(
            daemon, [f"gate:{gate}"], gate.touch)
        assert fast["stdout"] == "fast.c"
        assert slow_pending
        assert slow["stdout"] == f"gate:{gate}"
        sizes = stats["metrics"]["histograms"]["serve.batch.size"]
        assert (sizes["count"], sizes["sum"]) == (1, 2)
        assert stats["supervisor"]["completed"] == 2
        assert stats["supervisor"]["inline_runs"] == 0

    def test_idle_worker_takes_a_request_queued_behind_a_batch(
            self, tmp_path):
        gate = tmp_path / "gate"

        async def scenario():
            daemon = Daemon(self._config(tmp_path, workers=2,
                                         force_pool=True),
                            task=_gated_task)
            await daemon.start()
            slow = asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": [f"gate:{gate}"], "id": "slow"}))
            await asyncio.sleep(0.3)       # 'slow' now holds one worker
            try:
                fast = await asyncio.wait_for(daemon.handle_payload(
                    {"op": "run", "args": ["fast.c"], "id": "fast"}), 5)
                slow_pending = not slow.done()
            finally:
                gate.touch()
            await slow
            stats = daemon.stats_snapshot()
            await daemon.aclose()
            return fast, slow_pending, stats

        fast, slow_pending, stats = _drive(scenario())
        assert fast["stdout"] == "fast.c"
        assert slow_pending            # ran beside 'slow', not after it
        sizes = stats["metrics"]["histograms"]["serve.batch.size"]
        assert (sizes["count"], sizes["sum"]) == (2, 2)
        assert stats["supervisor"]["completed"] == 2

    @pytest.mark.parametrize("workers", [0, 3], ids=["inline", "pool"])
    def test_concurrent_traffic_loses_and_repeats_nothing(self, tmp_path,
                                                          workers):
        # Admission appends to the pending queue on the loop while the
        # executor thread takes from it (the pool's feed) and hands
        # responses back; a tiny switch interval interleaves the two
        # threads almost everywhere.  Three workers outnumber the cores
        # of a small host.
        async def scenario():
            daemon = Daemon(self._config(tmp_path, workers=workers,
                                         force_pool=True),
                            task=_gated_task)
            await daemon.start()

            async def client(c):
                return [await daemon.handle_payload(
                    {"op": "run", "args": [f"c{c}n{n}.c"],
                     "id": f"{c}/{n}"}) for n in range(25)]

            responses = await asyncio.wait_for(asyncio.gather(
                *(client(c) for c in range(8))), 120)
            stats = daemon.stats_snapshot()
            await daemon.aclose()
            return responses, stats

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            responses, stats = _drive(scenario())
        finally:
            sys.setswitchinterval(interval)
        for c, out in enumerate(responses):
            assert [(r["id"], r["stdout"]) for r in out] == \
                [(f"{c}/{n}", f"c{c}n{n}.c") for n in range(25)]
        counters = stats["metrics"]["counters"]
        assert counters["serve.responses.ok"] == 200
        # every request was picked exactly once and ran exactly once
        assert stats["metrics"]["histograms"]["serve.batch.size"]["sum"] \
            == 200
        assert stats["supervisor"]["completed" if workers
                                   else "inline_runs"] == 200
        assert stats["inflight"] == 0 and stats["queue"]["depth"] == 0

    def test_overload_refuses_promptly(self, tmp_path):
        release = threading.Event()

        def task(payload):
            release.wait(10)
            return _ok()

        async def scenario():
            daemon = Daemon(
                self._config(tmp_path, workers=0, queue_depth=1,
                             batch_max=1),
                task=task)
            await daemon.start()
            first = asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": ["a.c"], "id": "a"}))
            await asyncio.sleep(0.2)       # 'a' now executing
            second = asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": ["b.c"], "id": "b"}))
            await asyncio.sleep(0.05)      # 'b' fills the queue
            refused = await daemon.handle_payload(
                {"op": "run", "args": ["c.c"], "id": "c"})
            release.set()
            ok = await asyncio.gather(first, second)
            await daemon.aclose()
            return refused, ok

        refused, ok = _drive(scenario())
        assert refused == {"id": "c", "ok": False, "error": "overloaded"}
        assert all(r["ok"] for r in ok)

    def test_drain_finishes_queued_work_and_refuses_new(self, tmp_path):
        release = threading.Event()

        def task(payload):
            release.wait(10)
            return _ok("done")

        async def scenario():
            daemon = Daemon(self._config(tmp_path, workers=0), task=task)
            await daemon.start()
            inflight = asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": ["a.c"], "id": "a"}))
            await asyncio.sleep(0.2)
            drain = asyncio.ensure_future(daemon.shutdown())
            await asyncio.sleep(0.05)
            assert not drain.done()        # blocked on in-flight work
            late = await daemon.handle_payload(
                {"op": "run", "args": ["late.c"], "id": "z"})
            release.set()
            served = await inflight
            await drain
            await daemon.aclose()
            return late, served

        late, served = _drive(scenario())
        assert late == {"id": "z", "ok": False, "error": "draining"}
        assert served["stdout"] == "done"


@pytest.fixture(scope="module")
def live_daemon(tmp_path_factory):
    socket_path = str(tmp_path_factory.mktemp("serve") / "repro.sock")
    handle = start_daemon_thread(ServeConfig(socket_path=socket_path,
                                             http_port=0))
    yield handle
    handle.stop()


class TestPoolDefault:
    """Two pool workers by default wherever the host has two CPUs."""

    @pytest.mark.parametrize("cpus,workers", [(2, 2), (1, 0)])
    def test_default_pool_size_follows_the_cpus(self, tmp_path,
                                                monkeypatch, cpus,
                                                workers):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        daemon = Daemon(ServeConfig(socket_path=str(tmp_path / "d.sock")))
        assert daemon._pool_size() == workers


class TestCacheCounts:
    """Cache and store traffic is counted in the process that did it
    and summed by the daemon, so a pooled daemon reports what its
    workers did exactly as an inline one reports its own."""

    SOURCE = "int main(void) { return 6 * 7; }\n"

    @pytest.mark.parametrize("settings", [
        {"workers": 0}, {"workers": 2, "force_pool": True}],
        ids=["inline", "pool"])
    def test_three_runs_of_one_source(self, tmp_path, settings):
        handle = start_daemon_thread(ServeConfig(
            socket_path=str(tmp_path / "d.sock"), http_port=0,
            cache_dir=str(tmp_path / "cache"), **settings))
        try:
            for idx in range(3):
                served = request({"op": "run", "args": [],
                                  "source": self.SOURCE, "id": idx},
                                 handle.socket_path)
                assert served["ok"] and "cache_events" not in served
            cache = request({"op": "stats"},
                            handle.socket_path)["stats"]["cache"]
            _status, _ct, body = http_get("/metrics", handle.http_port)
        finally:
            handle.stop()
        assert cache["hits"] + cache["misses"] == 3
        assert cache["misses"] >= 1
        disk = cache["disk"]
        assert disk["writes"] == 1 and disk["entries"] == 1
        assert disk["hits"] + disk["misses"] == cache["misses"]
        assert "repro_store_writes 1\n" in body
        assert "repro_store_entries 1\n" in body


class TestDaemonEndToEnd:
    OPS = [("compile", [LIVERMORE5, "--opt", "baseline"]),
           ("run", [LIVERMORE5]),
           ("explain", [LIVERMORE5]),
           ("profile", [LIVERMORE5])]

    @pytest.mark.parametrize("op,args", OPS,
                             ids=[op for op, _args in OPS])
    def test_served_matches_cli(self, live_daemon, capsys, op, args):
        from repro.cli import main
        served = request({"op": op, "args": args},
                         live_daemon.socket_path)
        code = main([op, *args])
        local = capsys.readouterr()
        assert served["ok"]
        assert served["exit_code"] == code
        assert served["stdout"] == local.out
        assert served["stderr"] == local.err

    def test_inline_source_round_trip(self, live_daemon):
        source = "int main(void) { return 6 * 7; }\n"
        served = request({"op": "run", "args": [], "source": source},
                         live_daemon.socket_path)
        assert served["ok"]
        assert served["exit_code"] == 0
        assert "result: 42  (oracle 42: OK)" in served["stdout"]

    def test_http_listener_parity(self, live_daemon):
        from repro.serve import http_request
        served = http_request({"op": "run", "args": [LIVERMORE5]},
                              live_daemon.http_port)
        via_socket = request({"op": "run", "args": [LIVERMORE5]},
                             live_daemon.socket_path)
        assert served["stdout"] == via_socket["stdout"]
        assert served["exit_code"] == via_socket["exit_code"]

    def test_http_control_endpoints(self, live_daemon):
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1",
                                          live_daemon.http_port,
                                          timeout=30)
        try:
            conn.request("GET", "/v1/ping")
            ping = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        assert ping["ok"] and ping["pong"]

    def test_malformed_line_answered_not_fatal(self, live_daemon):
        import socket as socket_mod
        sock = socket_mod.socket(socket_mod.AF_UNIX,
                                 socket_mod.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(live_daemon.socket_path)
        try:
            sock.sendall(b"{this is not json}\n")
            reply = json.loads(sock.makefile().readline())
            assert reply["ok"] is False
            assert "malformed JSON" in reply["error"]
            # connection still serves afterwards
            sock.sendall(encode_line({"op": "ping", "id": 9}))
            pong = json.loads(sock.makefile().readline())
            assert pong["pong"]
        finally:
            sock.close()

    def test_large_inline_source_fits_a_frame(self, live_daemon):
        # 100 KB of source is past asyncio's 64 KiB default line limit.
        source = "/*" + "x" * 100_000 + "*/\nint main(void) { return 5; }\n"
        served = request({"op": "compile", "args": [], "source": source},
                         live_daemon.socket_path)
        assert served["ok"], served
        assert served["exit_code"] == 0
        assert served["stdout"]

    def test_over_bound_line_is_refused_then_closed(self, live_daemon,
                                                     caplog):
        import socket as socket_mod
        sock = socket_mod.socket(socket_mod.AF_UNIX,
                                 socket_mod.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(live_daemon.socket_path)
        try:
            sock.sendall(b"x" * (MAX_FRAME_BYTES + 1))
            reader = sock.makefile("rb")
            reply = json.loads(reader.readline())
            assert reply == {"id": None, "ok": False,
                             "error": "request too large"}
            assert reader.readline() == b""        # connection closed
        finally:
            sock.close()
        assert request({"op": "ping"}, live_daemon.socket_path)["pong"]
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    @pytest.mark.parametrize("length,status", [
        ("-5", "400"), ("lots", "400"), (str(MAX_FRAME_BYTES + 1), "413"),
        ("9" * 70_000, "431"),         # header line past the line limit
    ], ids=["negative", "non-numeric", "over-bound", "over-long-line"])
    def test_http_content_length_is_bounded(self, live_daemon, length,
                                            status):
        import socket as socket_mod
        # No body follows: an answer at all proves none was read.
        with socket_mod.create_connection(
                ("127.0.0.1", live_daemon.http_port), timeout=30) as sock:
            sock.sendall(f"POST /v1/request HTTP/1.1\r\n"
                         f"Content-Length: {length}\r\n\r\n"
                         .encode("ascii"))
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1].decode() == status

    @pytest.mark.parametrize("head,status", [
        (b"NONSENSE\r\n", "400"),
        (b"POST /v1/request HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 1000
         + f"Content-Length: {MAX_FRAME_BYTES + 1}\r\n".encode("ascii"),
         "413"),
    ], ids=["bad-request-line", "content-length-past-bound"])
    def test_http_refusal_needs_no_end_of_headers(self, live_daemon, head,
                                                  status):
        import socket as socket_mod
        # The head is left unterminated: an answer proves each line was
        # judged as it arrived.
        with socket_mod.create_connection(
                ("127.0.0.1", live_daemon.http_port), timeout=30) as sock:
            sock.sendall(head)
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1].decode() == status

    def test_concurrent_mixed_requests(self, live_daemon):
        variants = [("run", [LIVERMORE5]),
                    ("compile", [LIVERMORE5]),
                    ("compile", [LIVERMORE5, "--opt", "none"]),
                    ("explain", [LIVERMORE5])]
        results: dict[int, dict] = {}

        def worker(idx):
            op, args = variants[idx % len(variants)]
            with Client(live_daemon.socket_path) as client:
                results[idx] = client.request(
                    {"op": op, "args": args, "id": idx})

        threads = [threading.Thread(target=worker, args=(idx,))
                   for idx in range(64)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert len(results) == 64
        assert all(r["ok"] for r in results.values())
        # Identical requests produced identical bytes.
        for offset in range(len(variants)):
            group = {results[idx]["stdout"]
                     for idx in range(offset, 64, len(variants))}
            assert len(group) == 1

    def test_stats_shape(self, live_daemon):
        stats = request({"op": "stats"}, live_daemon.socket_path)["stats"]
        assert stats["queue"]["capacity"] == 256
        assert stats["queue"]["depth"] == 0
        assert "run" in stats["latency_ms"]
        for summary in stats["latency_ms"].values():
            assert summary["p50_ms"] <= summary["p99_ms"] <= \
                summary["max_ms"] + 1e-9
        assert stats["metrics"]["counters"]["serve.requests.total"] >= 1
        assert "cache" in stats


class TestDeadlines:
    """``deadline_ms``: dispatch-time shedding with a distinct refusal.
    Gated tasks run inline, as in :class:`TestDaemonQueueing`."""

    def test_protocol_accepts_and_excludes_from_identity(self):
        fast = parse_request({"op": "run", "args": ["f.c"],
                              "deadline_ms": 5.0})
        slow = parse_request({"op": "run", "args": ["f.c"],
                              "deadline_ms": 60000})
        plain = parse_request({"op": "run", "args": ["f.c"]})
        assert fast.deadline_ms == 5.0
        # Deadline is an impatience setting, not an identity: all three
        # coalesce onto the same execution.
        assert canonical_key(fast) == canonical_key(slow) \
            == canonical_key(plain)

    @pytest.mark.parametrize("bad", [0, -5, True, "100", float("nan"),
                                     10**9])
    def test_protocol_rejects_bad_deadlines(self, bad):
        with pytest.raises(ProtocolError, match="deadline_ms"):
            parse_request({"op": "run", "args": ["f.c"],
                           "deadline_ms": bad})

    def test_expired_request_is_shed_not_executed(self, tmp_path):
        release = threading.Event()
        executed = []

        def task(payload):
            executed.append(payload["args"])
            release.wait(10)
            return _ok()

        async def scenario():
            daemon = Daemon(ServeConfig(
                socket_path=str(tmp_path / "d.sock"), workers=0,
                batch_max=1),
                task=task)
            await daemon.start()
            blocker = asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": ["slow.c"], "id": "slow"}))
            await asyncio.sleep(0.2)       # 'slow' now executing
            doomed = asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": ["doomed.c"], "id": "doomed",
                 "deadline_ms": 1.0}))
            await asyncio.sleep(0.2)       # deadline expires in queue
            release.set()
            shed = await doomed
            served = await blocker
            stats = daemon.stats_snapshot()
            await daemon.aclose()
            return shed, served, stats

        shed, served, stats = _drive(scenario())
        assert served["ok"]
        assert shed["ok"] is False
        assert shed["error"] == "deadline_exceeded"
        assert shed["waited_ms"] >= 1.0
        assert shed["id"] == "doomed"
        # The doomed request never reached the execution tier.
        assert ["doomed.c"] not in executed
        counters = stats["metrics"]["counters"]
        assert counters["serve.refused.deadline_exceeded"] == 1

    def test_generous_deadline_executes_normally(self, tmp_path):
        async def scenario():
            daemon = Daemon(ServeConfig(
                socket_path=str(tmp_path / "d.sock")),
                task=lambda payload: _ok("ran"))
            await daemon.start()
            response = await daemon.handle_payload(
                {"op": "run", "args": ["f.c"], "id": 1,
                 "deadline_ms": 60000})
            await daemon.aclose()
            return response

        response = _drive(scenario())
        assert response["ok"]
        assert response["stdout"] == "ran"

    def test_coalesced_followers_share_a_shed_leaders_fate(
            self, tmp_path):
        release = threading.Event()

        def task(payload):
            release.wait(10)
            return _ok()

        async def scenario():
            daemon = Daemon(ServeConfig(
                socket_path=str(tmp_path / "d.sock"), workers=0,
                batch_max=1),
                task=task)
            await daemon.start()
            blocker = asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": ["slow.c"], "id": "slow"}))
            await asyncio.sleep(0.2)
            leader = asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": ["shared.c"], "id": "leader",
                 "deadline_ms": 1.0}))
            await asyncio.sleep(0.05)
            follower = asyncio.ensure_future(daemon.handle_payload(
                {"op": "run", "args": ["shared.c"], "id": "follower"}))
            await asyncio.sleep(0.2)
            release.set()
            results = await asyncio.gather(leader, follower, blocker)
            await daemon.aclose()
            return results

        leader, follower, _blocker = _drive(scenario())
        assert leader["error"] == "deadline_exceeded"
        # The follower rode the leader's flight and shares its fate —
        # the documented cost of keeping deadline_ms out of identity.
        assert follower["error"] == "deadline_exceeded"
        assert follower["id"] == "follower"


class TestRequestCliExitCodes:
    """``repro request``: transient refusals exit 6 with a diagnostic."""

    def test_deadline_exceeded_exits_unavailable(self, tmp_path,
                                                 capsys):
        from repro.cli import EXIT_UNAVAILABLE, main
        release = threading.Event()

        def task(payload):
            release.wait(10)
            return _ok()

        socket_path = str(tmp_path / "cli.sock")
        handle = start_daemon_thread(
            ServeConfig(socket_path=socket_path, workers=0, batch_max=1),
            task=task)
        try:
            blocker = threading.Thread(
                target=request,
                args=({"op": "run", "args": ["slow.c"]}, socket_path))
            blocker.start()
            time.sleep(0.3)                # 'slow' now executing
            # 'doomed' expires queued behind it; 'slow' ends a second on
            threading.Timer(1.0, release.set).start()
            code = main(["request", "--socket", socket_path,
                         "--deadline-ms", "1", "run", "doomed.c"])
            release.set()
            blocker.join(30)
        finally:
            release.set()
            handle.stop()
        captured = capsys.readouterr()
        assert code == EXIT_UNAVAILABLE
        assert "unavailable:" in captured.err
        assert "deadline_exceeded" in captured.err

    def test_ordinary_failure_still_exits_mismatch(self, tmp_path,
                                                   capsys):
        from repro.cli import EXIT_MISMATCH, main
        code = main(["request", "--socket",
                     str(tmp_path / "nope.sock"), "ping"])
        captured = capsys.readouterr()
        assert code == EXIT_MISMATCH
        assert "cannot reach serve daemon" in captured.err


_SEED_SERVER_SCRIPT = """
import json, sys, tempfile, os
from repro.serve import ServeConfig, start_daemon_thread, request

ops = json.loads(sys.argv[1])
sock = os.path.join(tempfile.mkdtemp(), "s.sock")
handle = start_daemon_thread(ServeConfig(socket_path=sock))
responses = [request({"op": op, "args": args}, sock)
             for op, args in ops]
request({"op": "shutdown"}, sock)
handle.thread.join(30)
print(json.dumps(responses))
"""


class TestSeedMatrix:
    """Served output equals CLI output under each pinned hash seed:
    a daemon and a CLI process under the same seed agree
    byte-for-byte (the code itself is the same under every seed; see
    tests/test_determinism.py).
    """

    OPS = [["compile", [LIVERMORE5]],
           ["run", [LIVERMORE5]],
           ["explain", [LIVERMORE5]],
           ["profile", [LIVERMORE5]]]

    @pytest.mark.parametrize("seed", ["0", "1", "7"])
    def test_served_equals_cli_per_seed(self, seed):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": SRC_DIR}
        env.pop("REPRO_CACHE_DIR", None)
        server = subprocess.run(
            [sys.executable, "-c", _SEED_SERVER_SCRIPT,
             json.dumps(self.OPS)],
            capture_output=True, text=True, env=env, timeout=300)
        assert server.returncode == 0, server.stderr
        responses = json.loads(server.stdout)
        for (op, args), served in zip(self.OPS, responses):
            cli = subprocess.run(
                [sys.executable, "-m", "repro", op, *args],
                capture_output=True, text=True, env=env, timeout=300)
            assert served["ok"], (op, served)
            assert served["exit_code"] == cli.returncode, op
            assert served["stdout"] == cli.stdout, op
            assert served["stderr"] == cli.stderr, op

    def test_served_compile_after_others_equals_fresh_cli(self, tmp_path):
        # A daemon that compiled other programs first must still list
        # this one exactly as a fresh `repro compile` does (block labels
        # are numbered per function, not per process).
        from repro.qa.genprog import gen_program
        paths = []
        for seed in [*range(100, 120), 106]:
            path = tmp_path / f"gen{seed}.c"
            path.write_text(gen_program(seed))
            paths.append(str(path))
        env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": SRC_DIR}
        env.pop("REPRO_CACHE_DIR", None)
        ops = [["compile", [path]] for path in paths]
        server = subprocess.run(
            [sys.executable, "-c", _SEED_SERVER_SCRIPT, json.dumps(ops)],
            capture_output=True, text=True, env=env, timeout=300)
        assert server.returncode == 0, server.stderr
        served = json.loads(server.stdout)[-1]
        cli = subprocess.run(
            [sys.executable, "-m", "repro", "compile", paths[-1]],
            capture_output=True, text=True, env=env, timeout=300)
        assert served["ok"], served
        assert served["exit_code"] == cli.returncode == 0
        assert served["stdout"] == cli.stdout
