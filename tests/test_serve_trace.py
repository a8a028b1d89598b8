"""End-to-end request tracing through the serve tier.

The tentpole contract under test: a served request with ``trace: true``
comes back with ONE merged Chrome trace — daemon-side synthetic spans
(queue.wait, batch.assemble, pool.dispatch), handler-side execution
spans (handler.execute, cache.lookup, compile passes), and simulation
tracks — all stamped with one trace id; a single-flight follower
instead gets a synthetic ``serve.coalesced`` span referencing its
leader's trace id; and tracing never changes the response bytes.
"""

import asyncio
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest

from repro.serve import (
    ServeConfig, request, start_daemon_thread, trace_span_names,
)
from repro.serve.daemon import Daemon
from repro.serve.tracing import build_request_trace, follower_trace

REPO = pathlib.Path(__file__).resolve().parent.parent
LIVERMORE5 = str(REPO / "examples" / "livermore5.c")
SRC_DIR = str(REPO / "src")

#: The daemon-side synthetic spans every traced request must carry.
DAEMON_SPANS = {"serve.request", "queue.wait", "batch.assemble",
                "pool.dispatch"}


@pytest.fixture(autouse=True)
def fresh_cache():
    from repro.perf import cache as cache_mod, clear_cache
    clear_cache()
    cache_mod.configure_disk_store(None)
    yield
    clear_cache()
    cache_mod._disk = None
    cache_mod._disk_configured = False


@pytest.fixture(scope="module")
def live_daemon(tmp_path_factory):
    socket_path = str(tmp_path_factory.mktemp("trace") / "repro.sock")
    handle = start_daemon_thread(ServeConfig(socket_path=socket_path,
                                             http_port=0))
    yield handle
    handle.stop()


def _trace_ids(trace: dict) -> set:
    return {event["args"].get("trace_id")
            for event in trace["traceEvents"]
            if event.get("ph") != "M"}


class TestMergedTrace:
    def test_traced_run_returns_one_merged_trace(self, live_daemon):
        response = request(
            {"op": "run", "args": [LIVERMORE5], "trace": True, "id": 1},
            live_daemon.socket_path)
        assert response["ok"] and response["exit_code"] == 0
        trace = response["trace"]
        assert trace["displayTimeUnit"] == "ms"
        names = trace_span_names(trace)
        assert DAEMON_SPANS <= names
        assert "handler.execute" in names
        assert "cache.lookup" in names

    def test_every_span_shares_the_trace_id(self, live_daemon):
        response = request(
            {"op": "run", "args": [LIVERMORE5], "trace": True, "id": 2},
            live_daemon.socket_path)
        trace = response["trace"]
        trace_id = trace["otherData"]["trace_id"]
        assert len(trace_id) == 16
        assert _trace_ids(trace) == {trace_id}

    def test_tracing_never_changes_response_bytes(self, live_daemon):
        args = [LIVERMORE5, "--opt", "baseline"]
        plain = request({"op": "run", "args": args, "id": 3},
                        live_daemon.socket_path)
        traced = request({"op": "run", "args": args, "trace": True,
                          "id": 4}, live_daemon.socket_path)
        assert traced["stdout"] == plain["stdout"]
        assert traced["stderr"] == plain["stderr"]
        assert traced["exit_code"] == plain["exit_code"]
        assert "trace" not in plain

    def test_span_nesting_is_ordered(self, live_daemon):
        """queue.wait ends where batch.assemble starts; pool.dispatch
        covers the handler; the root span covers everything."""
        response = request(
            {"op": "compile", "args": [LIVERMORE5], "trace": True,
             "id": 5}, live_daemon.socket_path)
        spans = {event["name"]: event
                 for event in response["trace"]["traceEvents"]
                 if event.get("ph") == "X"}
        root = spans["serve.request"]
        wait, assemble = spans["queue.wait"], spans["batch.assemble"]
        dispatch = spans["pool.dispatch"]
        assert root["ts"] == 0.0
        assert wait["ts"] == 0.0
        assert assemble["ts"] == pytest.approx(
            wait["ts"] + wait["dur"], abs=1.0)
        assert dispatch["ts"] == pytest.approx(
            assemble["ts"] + assemble["dur"], abs=1.0)
        assert dispatch["ts"] + dispatch["dur"] <= \
            root["ts"] + root["dur"] + 1.0

    def test_cache_lookup_span_names_tier(self, live_daemon):
        # Same compile twice: second traced run must see a memory hit.
        args = [LIVERMORE5, "--opt", "full"]
        request({"op": "run", "args": args, "trace": True, "id": 6},
                live_daemon.socket_path)
        response = request({"op": "run", "args": args, "trace": True,
                            "id": 7}, live_daemon.socket_path)
        lookups = [event for event
                   in response["trace"]["traceEvents"]
                   if event.get("name") == "cache.lookup"]
        assert lookups
        assert lookups[0]["args"]["tier"] in \
            {"memory", "disk", "compile"}
        assert lookups[0]["args"]["outcome"] in {"hit", "miss"}


class TestCoalescedFollower:
    def test_follower_gets_synthetic_span_referencing_leader(
            self, live_daemon):
        args = [LIVERMORE5, "--opt", "none"]
        results = {}

        def go(idx):
            results[idx] = request(
                {"op": "run", "args": args, "trace": True, "id": idx},
                live_daemon.socket_path)

        threads = [threading.Thread(target=go, args=(idx,))
                   for idx in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        full = [r for r in results.values()
                if "serve.request" in trace_span_names(r["trace"])]
        followers = [r for r in results.values()
                     if trace_span_names(r["trace"]) ==
                     {"serve.coalesced"}]
        assert len(full) == 1
        assert len(followers) == 2
        leader_id = full[0]["trace"]["otherData"]["trace_id"]
        for follower in followers:
            other = follower["trace"]["otherData"]
            assert other["leader_trace_id"] == leader_id
            assert other["trace_id"] != leader_id
            span = follower["trace"]["traceEvents"][0]
            assert span["args"]["leader_trace_id"] == leader_id
            # Follower bytes still identical to the leader's.
            assert follower["stdout"] == full[0]["stdout"]


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="pool execution tier needs >= 2 CPUs")
class TestPooledTrace:
    def test_trace_survives_the_process_pool(self, tmp_path):
        """Worker events cross the pickle boundary and merge."""
        socket_path = str(tmp_path / "pool.sock")
        handle = start_daemon_thread(
            ServeConfig(socket_path=socket_path, workers=2))
        try:
            response = request(
                {"op": "run", "args": [LIVERMORE5], "trace": True,
                 "id": 1}, socket_path, timeout=120.0)
            assert response["ok"]
            names = trace_span_names(response["trace"])
            assert DAEMON_SPANS <= names
            assert "handler.execute" in names
            trace_id = response["trace"]["otherData"]["trace_id"]
            assert _trace_ids(response["trace"]) == {trace_id}
        finally:
            handle.stop()


class TestTraceAssembly:
    """Unit coverage of the merge itself (no daemon needed)."""

    def test_build_request_trace_shifts_worker_wall_events(self):
        worker = [
            {"name": "handler.execute", "ph": "X", "ts": 10.0,
             "dur": 50.0, "pid": 1, "tid": 1, "args": {}},
            {"name": "wm.cycles", "ph": "X", "ts": 0.0, "dur": 100.0,
             "pid": 2, "tid": 1, "args": {}},
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "wall"}},
        ]
        trace = build_request_trace(
            "ab" * 8, enqueued_at=100.0, picked_at=100.001,
            shipped_at=100.002, done_at=100.100, op="run",
            mode="inline", batch_size=1, worker_events=worker)
        by_name = {e["name"]: e for e in trace["traceEvents"]
                   if e.get("ph") == "X"}
        # Wall event shifted by the dispatch offset (2000 us), onto
        # the handler pid lane.
        assert by_name["handler.execute"]["pid"] == 3
        assert by_name["handler.execute"]["ts"] == \
            pytest.approx(2010.0, abs=0.1)
        # Sim-track event unshifted (virtual time), its own lane.
        assert by_name["wm.cycles"]["pid"] == 4
        assert by_name["wm.cycles"]["ts"] == 0.0
        assert all(e["args"]["trace_id"] == "ab" * 8
                   for e in trace["traceEvents"] if e.get("ph") != "M")

    def test_follower_trace_shape(self):
        trace = follower_trace("f" * 16, "1" * 16, 0.25, "run")
        assert trace_span_names(trace) == {"serve.coalesced"}
        span = trace["traceEvents"][0]
        assert span["dur"] == pytest.approx(250000.0)
        assert span["args"]["leader_trace_id"] == "1" * 16


def _failing_task(payload):
    return {"ok": False, "error": "boom"}


class TestFaultDump:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_handler_fault_dumps_the_black_box(self, tmp_path):
        async def scenario():
            daemon = Daemon(ServeConfig(
                socket_path=str(tmp_path / "fault.sock"),
                blackbox_dir=str(tmp_path), blackbox_cooldown_s=0.0),
                task=_failing_task)
            await daemon.start()
            response = await daemon.handle_payload(
                {"op": "run", "args": ["x.c"], "id": 1})
            await daemon.aclose()
            return response

        response = self._run(scenario())
        assert response["ok"] is False
        dumps = list(tmp_path.glob("repro-blackbox-*.json"))
        assert len(dumps) == 1
        document = json.loads(dumps[0].read_text())
        assert document["reason"] == "handler-fault"
        kinds = {kind for _ts, kind, _f in document["events"]}
        assert "handler.fault" in kinds
        assert "request.admitted" in kinds

    def test_refusal_burst_dumps_the_black_box(self, tmp_path):
        async def scenario():
            daemon = Daemon(ServeConfig(
                socket_path=str(tmp_path / "burst.sock"),
                blackbox_dir=str(tmp_path), blackbox_cooldown_s=0.0,
                refusal_burst=4, refusal_burst_window_s=60.0))
            daemon._draining = True      # every compute op refused
            for idx in range(4):
                response = await daemon.handle_payload(
                    {"op": "run", "args": ["x.c"], "id": idx})
                assert response["error"] == "draining"

        self._run(scenario())
        dumps = list(tmp_path.glob("repro-blackbox-*.json"))
        assert len(dumps) == 1
        document = json.loads(dumps[0].read_text())
        assert document["reason"] == "refusal-burst"
        assert sum(1 for _ts, kind, _f in document["events"]
                   if kind == "request.refused") == 4

    def test_cooldown_rate_limits_dumps(self, tmp_path):
        async def scenario():
            daemon = Daemon(ServeConfig(
                socket_path=str(tmp_path / "cool.sock"),
                blackbox_dir=str(tmp_path),
                blackbox_cooldown_s=3600.0),
                task=_failing_task)
            await daemon.start()
            for idx in range(3):
                await daemon.handle_payload(
                    {"op": "run", "args": [f"x{idx}.c"], "id": idx})
            await daemon.aclose()

        self._run(scenario())
        assert len(list(tmp_path.glob("repro-blackbox-*.json"))) == 1


class TestRequestTraceOutCLI:
    def test_request_trace_out_writes_merged_trace(self, tmp_path):
        socket_path = str(tmp_path / "cli.sock")
        handle = start_daemon_thread(ServeConfig(socket_path=socket_path))
        try:
            trace_path = str(tmp_path / "req.trace.json")
            env = {**os.environ, "PYTHONPATH": SRC_DIR}
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "request",
                 "--socket", socket_path, "--trace-out", trace_path,
                 "run", LIVERMORE5],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert "request trace written" in proc.stderr
            trace = json.loads(open(trace_path).read())
            assert DAEMON_SPANS <= trace_span_names(trace)
        finally:
            handle.stop()
