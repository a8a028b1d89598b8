"""repro.serve — compile-as-a-service.

A long-running asyncio daemon that serves the CLI's compute commands
(``compile`` / ``run`` / ``explain`` / ``profile`` / ``fuzz``) over a
unix socket (JSON-lines) and optionally localhost HTTP, with
single-flight request dedup, micro-batched dispatch onto a supervised
worker pool (two workers by default on a multi-core host; zero: inline)
that releases each response as soon as it exists, bounded-queue
backpressure, graceful drain, and per-request-type latency metrics.  Responses are byte-identical to the
equivalent CLI invocation.

Layering: :mod:`~repro.serve.protocol` (wire format and validation),
:mod:`~repro.serve.handlers` (CLI-equivalent execution, the pool's
per-item task), :mod:`~repro.serve.daemon` (event loop, queueing, serving),
:mod:`~repro.serve.client` (synchronous clients).
"""

from .client import Client, http_get, http_request, is_idempotent, request
from .daemon import Daemon, DaemonHandle, ServeConfig, start_daemon_thread
from .protocol import (
    COMPUTE_OPS, CONTROL_OPS, ProtocolError, Request, canonical_key,
    new_trace_id, parse_request,
)
from .tracing import build_request_trace, follower_trace, trace_span_names

__all__ = [
    "COMPUTE_OPS", "CONTROL_OPS", "Client", "Daemon", "DaemonHandle",
    "ProtocolError", "Request", "ServeConfig", "build_request_trace",
    "canonical_key", "follower_trace", "http_get", "http_request",
    "is_idempotent", "new_trace_id", "parse_request", "request",
    "start_daemon_thread", "trace_span_names",
]
