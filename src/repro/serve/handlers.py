"""Request execution: CLI-equivalent output, computed anywhere.

The service's contract is that a served response is **byte-identical**
to running the same CLI command — the cheapest way to guarantee that
is to *be* the CLI: :func:`execute_argv` invokes
:func:`repro.cli.main` with stdout/stderr captured and ``sys.argv``
pinned to the canonical ``["repro", ...]`` vector (the run manifest
embeds ``sys.argv``, so a served ``--json`` export names the request's
own command line, not the daemon's).

Everything here is synchronous and picklable-in/picklable-out:
:func:`worker_task` is the per-item task of the daemon's
:class:`~repro.perf.supervisor.SupervisedPool`, run in a forked worker
or, with zero workers, inline on the daemon's executor thread.
Because capture swaps the process-global ``sys.stdout``, at most one
request may execute per *process* at a time — the daemon has one
executor thread, and each pool worker runs one job at a time.

A response also carries ``cache_events``, the cache and store events
of its own execution: the counters live in whichever process did the
work, so the daemon adds these up (and removes the field before it
replies) to report what its pool workers did.

Inline ``source`` payloads are spooled to a content-named file
(``<sha>.c``) so identical sources resolve to identical paths —
keeping outputs that embed the path (``explain``/``profile`` reports)
deterministic, and making spooling idempotent across workers.
"""

from __future__ import annotations

import functools
import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from typing import Optional

from ..perf.cache import event_counts, events_since
from .protocol import SOURCE_PLACEHOLDER

__all__ = ["execute_argv", "run_request", "spool_source", "worker_task",
           "EXIT_INTERNAL"]

#: Exit code reported when the handler itself fails (an exception the
#: CLI does not map to a structured exit code).  Mirrors BSD EX_SOFTWARE.
EXIT_INTERNAL = 70


def spool_source(source: str, spool_dir: str) -> str:
    """Write inline source to a content-named file; return its path.

    Content naming makes the write idempotent (concurrent spools of the
    same source race to an identical file) and the path deterministic,
    so reports that embed the source path stay byte-stable.
    """
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:24]
    path = os.path.join(spool_dir, f"{digest}.c")
    if not os.path.exists(path):
        os.makedirs(spool_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=spool_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(source)
        os.replace(tmp_path, path)
    return path


def resolve_args(args: tuple, source: Optional[str],
                 spool_dir: str) -> list[str]:
    """The final CLI argument vector, with inline source spooled."""
    argv = list(args)
    if source is not None:
        path = spool_source(source, spool_dir)
        if SOURCE_PLACEHOLDER in argv:
            argv = [path if a == SOURCE_PLACEHOLDER else a for a in argv]
        else:
            argv.append(path)
    return argv


def execute_argv(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI invocation in-process; (exit_code, stdout, stderr).

    Exactly mirrors a ``repro ...`` shell invocation: ``SystemExit``
    with a message (argparse errors, unknown targets) lands on stderr
    with exit code 2/1 just as the interpreter would report it, and an
    unexpected exception becomes a one-line internal error with
    :data:`EXIT_INTERNAL` rather than a traceback across the wire.
    """
    from ..cli import main as cli_main
    out, err = io.StringIO(), io.StringIO()
    saved_argv = sys.argv
    sys.argv = ["repro", *argv]
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                if exc.code is None:
                    code = 0
                elif isinstance(exc.code, int):
                    code = exc.code
                else:
                    print(exc.code, file=sys.stderr)
                    code = 1
            except Exception as exc:          # no tracebacks over the wire
                print(f"error: internal: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                code = EXIT_INTERNAL
    finally:
        sys.argv = saved_argv
    return code, out.getvalue(), err.getvalue()


def run_request(payload: dict, spool_dir: str) -> dict:
    """Execute one compute-request payload; a response dict sans id.

    ``payload`` is the picklable ``{"op", "args", "source"}`` shape the
    daemon builds from a validated :class:`~repro.serve.protocol.Request`.
    A ``trace_id`` entry (minted by the daemon for ``trace: true``
    requests) runs the CLI under a recording tracer: the handler opens
    a ``handler.execute`` span, the instrumented compile pipeline and
    cache layer record their own spans into the same tracer, and the
    resulting Chrome events ride back on ``trace_events`` for the
    daemon to merge with its queue/batch/dispatch spans.  Tracing never
    changes the response bytes — stdout/stderr/exit code stay
    byte-identical to the untraced invocation (the observability
    layer's standing no-behavior-change guarantee).  ``cache_events``
    counts the cache and store events of this execution.
    """
    before = event_counts()
    argv = resolve_args(tuple(payload["args"]), payload.get("source"),
                        spool_dir)
    trace_id = payload.get("trace_id")
    if not trace_id:
        code, stdout, stderr = execute_argv([payload["op"], *argv])
        return {"ok": True, "exit_code": code, "stdout": stdout,
                "stderr": stderr, "cache_events": events_since(before)}
    from ..obs.export import chrome_trace
    from ..obs.tracer import Tracer, use_tracer
    tracer = Tracer()
    with use_tracer(tracer):
        with tracer.span("handler.execute", category="serve",
                         op=payload["op"], trace_id=trace_id) as span:
            code, stdout, stderr = execute_argv([payload["op"], *argv])
            if span is not None and span.args is not None:
                span.args["exit_code"] = code
    return {"ok": True, "exit_code": code, "stdout": stdout,
            "stderr": stderr,
            "trace_events": chrome_trace(tracer)["traceEvents"],
            "cache_events": events_since(before)}


def worker_task(spool_dir: str):
    """The supervised-pool task: one payload in, one response out.

    A partial of :func:`run_request` binding the daemon's spool
    directory (fork-inheritable, picklable).  The pool turns an
    exception into an ``ok: false`` response in the request's slot, so
    one failing request never takes down its batch, and the only way a
    worker dies is a genuine process death.
    """
    return functools.partial(run_request, spool_dir=spool_dir)
