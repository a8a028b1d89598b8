"""Command-line driver: ``python -m repro <command> ...``.

Commands
--------

``compile FILE``
    Compile a Mini-C file and print the assembly listing.

``run FILE``
    Compile and execute: on WM via the cycle simulator, on scalar
    targets via the cost-weighted executor; prints the result and the
    performance counters, and cross-checks against the IR oracle.
    ``--json`` emits the counters machine-readably instead.

``trace TARGET``
    Compile (and on WM, simulate) with full observability on and write
    a Chrome trace-event JSON (open in ``chrome://tracing`` or
    https://ui.perfetto.dev).  TARGET is a Mini-C file, a directory of
    ``.c`` files, or a benchmark name from the suite (e.g. ``lloop5``).

``explain FILE``
    Compile with optimization remarks on and report, per loop, every
    memory reference's final disposition (streamed, rotated, or the
    stable reason code for why not) with its decision chain.
    ``--json`` / ``--sarif`` for tooling, ``--asm`` appends the
    provenance-annotated assembly.

``figures``
    Print the regenerated Figures 4-7.

``tables``
    Regenerate every paper artifact at its fixed size — Tables I, II
    and III/IV, the detection study, Figures 4-7 and the ablations —
    and print the tables as the markdown blocks EXPERIMENTS.md embeds.
    ``--golden DIR`` writes one golden JSON per artifact, ``--check
    DIR`` compares with them (exit 1, one line per differing field);
    ``--workers N`` fans the underlying runs out over processes.

``fuzz``
    Differentially test generated Mini-C programs (every backend vs
    the IR oracle at every optimization level).  ``--seed``/``--count``
    select the seed range; ``--out DIR`` writes a reproducer bundle
    per failure; ``--replay FILE`` re-checks one program instead.

``reduce``
    Delta-debug a failing program (a bundle directory from ``fuzz
    --out``, or a bare ``.c`` file) down to a minimal reproducer.

``serve``
    Run the compile service daemon: JSON-lines over a unix socket
    (``--http PORT`` adds a localhost HTTP listener) serving the
    compute commands with single-flight dedup, micro-batched dispatch,
    bounded-queue backpressure, and a graceful drain on shutdown.
    Requests execute on two supervised pool workers on a multi-core
    host (``--workers N``; ``--workers 0`` runs them inline in the
    daemon process).  ``--cache-dir DIR`` (or ``REPRO_CACHE_DIR``)
    enables the persistent compile-artifact store.

``request``
    Send one request to a running daemon and replay its response
    faithfully — same stdout, stderr, and exit code as the local
    command (``--raw`` prints the JSON envelope instead).
    ``--deadline-ms`` bounds how long the daemon may sit on the
    request before refusing it; ``--retries N`` retries refused
    connections with jittered backoff (idempotent ops only).

``chaos``
    Start a daemon under seeded fault injection (worker kills, torn
    store writes, socket resets, deadline storms, refusal bursts) and
    mechanically verify the fault-tolerance invariants: every accepted
    request gets exactly one terminal response, successful responses
    are byte-identical to the local CLI, and the daemon recovers.

Options: ``--target {wm,m68020,sun3/280,hp9000/345,vax8600,m88100,
generic-risc}``, ``--opt {none,baseline,recurrence,full}``,
``--function NAME`` (listing selection), and on most commands
``--json`` / ``--trace-out PATH``.

Exit codes are distinct per failure class: 0 success, 1 result
mismatch / fuzz findings / golden differences, 2 lex or parse error,
3 semantic error, 4 runtime failure (simulation/execution, or a
failed table job), 5 optimization-pass crash
(strict mode), 6 serve-daemon capacity refusal (overloaded, draining,
or deadline exceeded — retry with backoff).  Diagnostics are one-line
``error:`` messages on stderr — never raw tracebacks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .compiler import compile_source, scalar_options
from .frontend.lexer import LexError
from .frontend.parser import ParseError
from .frontend.types import TypeError_
from .ir.interp import TrapError
from .machine.base import Machine
from .machine.wm import WM
from .obs import (
    NULL_TRACER, RemarkCollector, RunCounters, Tracer, annotated_listing,
    build_explain_report, format_explain_report, format_run_counters,
    format_summary, get_tracer, metrics_json, run_manifest, sarif_report,
    use_remarks, use_tracer, write_chrome_trace,
)
from .opt import OptOptions, PassCrashError
from .perf.parallel import JobsFailed
from .sim.errors import SimError
from .sim.fifo import FifoError
from .sim.memory import MemError

__all__ = ["main"]

#: Distinct exit codes per failure class (documented in the module
#: docstring and README): tooling can branch on them without parsing
#: stderr.
EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_RUNTIME = 4
EXIT_PASS_CRASH = 5
#: The serve daemon refused the request for capacity reasons
#: (overloaded / draining / deadline_exceeded).  Distinct from
#: EXIT_MISMATCH so callers can retry-with-backoff on 6 without
#: misreading a genuine failure as transient.
EXIT_UNAVAILABLE = 6

#: Refusal reasons that map to :data:`EXIT_UNAVAILABLE`: the request
#: was well-formed, the daemon just couldn't serve it right now.
_TRANSIENT_REFUSALS = frozenset(
    {"overloaded", "draining", "deadline_exceeded"})


def _make_machine(name: str) -> Machine:
    if name == "wm":
        return WM()
    if name == "m68020":
        from .machine.m68020 import M68020
        return M68020()
    from .machine.scalar import MACHINES, make_machine
    if name in MACHINES:
        return make_machine(name)
    raise SystemExit(f"unknown target {name!r}")


def _make_options(level: str, machine: Machine) -> OptOptions:
    if isinstance(machine, WM):
        table = {
            "none": OptOptions.unoptimized(),
            "baseline": OptOptions.baseline(),
            "recurrence": OptOptions.no_streaming(),
            "full": OptOptions(),
        }
    else:
        table = {
            "none": OptOptions.unoptimized(),
            "baseline": OptOptions(recurrence=False, streaming=False,
                                   strength=True),
            "recurrence": scalar_options(),
            "full": scalar_options(),
        }
    return table[level]


def _outer_or_null() -> Tracer:
    """The already-installed tracer when it records, else the no-op one.

    A served ``trace: true`` request reaches the CLI with a recording
    tracer installed by the serve handler; re-installing the no-op
    tracer here would silently discard the request's compile/cache
    spans.  Nested enabled tracers are reused, never shadowed.
    """
    outer = get_tracer()
    return outer if outer.enabled else NULL_TRACER


def _tracer_for(args: argparse.Namespace) -> Tracer:
    """A recording tracer when any observability output was requested,
    the enclosing tracer (usually the shared no-op one) otherwise."""
    if getattr(args, "trace_out", None) or getattr(args, "json", False):
        return Tracer()
    return _outer_or_null()


def _finish_trace(tracer, args: argparse.Namespace) -> None:
    trace_out = getattr(args, "trace_out", None)
    if trace_out and tracer.enabled:
        write_chrome_trace(tracer, trace_out)
        print(f"trace written to {trace_out}", file=sys.stderr)


def _options_for(args: argparse.Namespace, machine: Machine) -> OptOptions:
    options = _make_options(args.opt, machine)
    if getattr(args, "strict", False):
        options.strict = True
    return options


def _compile_maybe_cached(source: str, target: str, options: OptOptions,
                          allow_cache: bool):
    """Compile, via the two-tier compile cache when nothing observes
    the compile itself.

    ``allow_cache`` is the caller's judgment that its output contains
    no compile-phase observability (tracer spans, live remarks) that a
    cache hit could not replay; an active remark sink always forces a
    real compile.  On a miss the cache compiles and remembers; with
    ``REPRO_CACHE_DIR`` set the artifact also persists, so repeated CLI
    invocations (and every serve-daemon worker) share one warm store.
    """
    from .obs import get_remark_sink
    if allow_cache and not get_remark_sink().enabled:
        from .perf.cache import compile_cached
        return compile_cached(source, target, options)
    machine = _make_machine(target)
    return compile_source(source, machine=machine, options=options)


def _cmd_compile(args: argparse.Namespace) -> int:
    source = open(args.file).read()
    machine = _make_machine(args.target)
    tracer = _tracer_for(args)
    with use_tracer(tracer):
        result = _compile_maybe_cached(
            source, args.target, _options_for(args, machine),
            # --json embeds per-pass spans/timings: those must come
            # from a live compile, not a replayed artifact.
            allow_cache=not tracer.enabled)
    if args.json:
        report = {
            "manifest": run_manifest(),
            "functions": {
                name: {
                    "passes": [{"name": p.name,
                                "seconds": round(p.seconds, 6),
                                "rtl_before": p.rtl_before,
                                "rtl_after": p.rtl_after}
                               for p in reports.passes],
                    "recurrences": [
                        {"loop": r.loop_header, "degree": r.degree,
                         "eliminated_loads": r.eliminated_loads}
                        for r in reports.recurrences],
                    "streams": [
                        {"loop": s.loop_header, "in": s.streams_in,
                         "out": s.streams_out, "infinite": s.infinite}
                        for s in reports.streams],
                }
                for name, reports in result.reports.items()
            },
            "metrics": metrics_json(tracer)["metrics"],
        }
        print(json.dumps(report, indent=2))
    else:
        print(result.listing(args.function))
        for name, reports in result.reports.items():
            for rec in reports.recurrences:
                print(f"; {name}: recurrence degree {rec.degree}, "
                      f"{rec.eliminated_loads} load(s) eliminated",
                      file=sys.stderr)
            for stream in reports.streams:
                print(f"; {name}: {stream.streams_in} stream(s) in, "
                      f"{stream.streams_out} out"
                      f"{' (infinite)' if stream.infinite else ''}",
                      file=sys.stderr)
    _finish_trace(tracer, args)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    source = open(args.file).read()
    machine = _make_machine(args.target)
    tracer = _tracer_for(args)
    telemetry = None
    with use_tracer(tracer):
        # --json exports counters and simulation telemetry, neither of
        # which observes the compile — only --trace-out (compile-phase
        # spans) needs a live compile.
        result = _compile_maybe_cached(
            source, args.target, _options_for(args, machine),
            allow_cache=not getattr(args, "trace_out", None))
        oracle = result.run_oracle()
        if isinstance(machine, WM):
            sim_kwargs: dict = {"telemetry": tracer.enabled}
            if args.max_cycles:
                sim_kwargs["max_cycles"] = args.max_cycles
            sim = result.simulate(**sim_kwargs)
            telemetry = sim.telemetry
            counters = RunCounters(
                value=sim.value, oracle=oracle.value, cycles=sim.cycles,
                instructions=sim.instructions,
                unit_instructions=sim.unit_instructions,
                memory_reads=sim.memory_reads,
                memory_writes=sim.memory_writes,
                stream_elements=sim.stream_elements)
        else:
            out = result.execute()
            counters = RunCounters(
                value=out.value, oracle=oracle.value, cycles=out.cycles,
                instructions=out.instructions,
                memory_refs=out.memory_refs, weighted=True)
    if telemetry is not None and tracer.enabled:
        telemetry.emit_spans(tracer)
    if args.json:
        data = {"manifest": run_manifest(), **counters.to_dict()}
        if telemetry is not None:
            data["telemetry"] = telemetry.to_dict()
        print(json.dumps(data, indent=2))
    else:
        print(format_run_counters(counters))
    _finish_trace(tracer, args)
    return 0 if counters.ok else 1


def _collect_sources(target: str,
                     scale: float) -> list[tuple[str, str]]:
    """Resolve a trace target into (name, Mini-C source) pairs."""
    if os.path.isdir(target):
        pairs = []
        for entry in sorted(os.listdir(target)):
            if entry.endswith(".c"):
                path = os.path.join(target, entry)
                pairs.append((os.path.splitext(entry)[0],
                              open(path).read()))
        if not pairs:
            raise SystemExit(f"no .c files found under {target!r}")
        return pairs
    if os.path.isfile(target):
        name = os.path.splitext(os.path.basename(target))[0]
        return [(name, open(target).read())]
    from .benchsuite import PROGRAMS, get_program
    if target in PROGRAMS:
        return [(target, get_program(target, scale=scale).source)]
    raise SystemExit(
        f"trace target {target!r} is not a file, a directory, or a "
        f"benchmark name (one of: {', '.join(sorted(PROGRAMS))})")


def _cmd_trace(args: argparse.Namespace) -> int:
    sources = _collect_sources(args.path, args.scale)
    multi = len(sources) > 1
    if args.out and multi:
        os.makedirs(args.out, exist_ok=True)
    machine_name = args.target
    for name, source in sources:
        machine = _make_machine(machine_name)
        tracer = Tracer()
        telemetry = None
        with use_tracer(tracer):
            result = compile_source(
                source, machine=machine,
                options=_make_options(args.opt, machine))
            if args.run and isinstance(machine, WM):
                sim = result.simulate(telemetry=True)
                telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.emit_spans(tracer)
        if args.out and multi:
            out_path = os.path.join(args.out, f"{name}.trace.json")
        elif args.out:
            out_path = args.out
        else:
            out_path = f"{name}.trace.json"
        write_chrome_trace(tracer, out_path)
        if args.json:
            data = {"manifest": run_manifest(), **metrics_json(tracer)}
            if telemetry is not None:
                data["telemetry"] = telemetry.to_dict()
            print(json.dumps({name: data}, indent=2))
        else:
            print(f"=== {name} -> {out_path} ===")
            print(format_summary(tracer))
            if telemetry is not None:
                print("\n".join(telemetry.summary_lines()))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    source = open(args.file).read()
    machine = _make_machine(args.target)
    if not isinstance(machine, WM):
        raise SystemExit("profile requires the wm target "
                         "(the cycle ledger lives in the WM simulator)")
    from .obs import build_profile_report, format_profile_report
    from .opt.bounds import compute_module_bounds
    tracer = Tracer() if getattr(args, "trace_out", None) \
        else _outer_or_null()
    with use_tracer(tracer):
        # Always a live compile: the report's %ff column observes the
        # superop engine's learned state, which a cache-shared module
        # would carry over from earlier runs in the same process.
        result = compile_source(source, machine=machine,
                                options=_options_for(args, machine))
        bounds = compute_module_bounds(result.rtl)
        sim_kwargs: dict = {"profile": True, "slow": args.slow}
        if args.max_cycles:
            sim_kwargs["max_cycles"] = args.max_cycles
        sim = result.simulate(**sim_kwargs)
        # Fast-forward coverage comes from an uninstrumented twin run:
        # profiled runs observe every cycle, so the superop engine is
        # keyed off for them and the closed form never engages there.
        ff_stats = None
        try:
            result.simulate(**{k: v for k, v in sim_kwargs.items()
                               if k == "max_cycles"})
            cache = getattr(result.rtl, "_superop_cache", None)
            if cache is not None:
                ff_stats = cache.last_ff_stats
        except Exception:
            pass
    report = build_profile_report(sim, bounds=bounds, source=args.file,
                                  target=args.target, opt=args.opt,
                                  ff_stats=ff_stats)
    if tracer.enabled:
        sim.telemetry.emit_spans(tracer)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_profile_report(report))
    _finish_trace(tracer, args)
    return 0 if report["invariant"]["ok"] else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    source = open(args.file).read()
    machine = _make_machine(args.target)
    collector = RemarkCollector()
    with use_remarks(collector):
        result = compile_source(source, machine=machine,
                                options=_make_options(args.opt, machine))
    remarks = collector.remarks
    if args.function:
        remarks = [r for r in remarks if r.function == args.function]
    if args.sarif:
        print(json.dumps(sarif_report(remarks, source=args.file), indent=2))
        return 0
    report = build_explain_report(remarks, source=args.file,
                                  target=args.target, opt=args.opt)
    if args.json:
        if args.asm:
            report["asm"] = annotated_listing(result, args.function)
        print(json.dumps(report, indent=2))
    else:
        print(format_explain_report(report))
        if args.asm:
            print("\n=== provenance-annotated assembly ===")
            print(annotated_listing(result, args.function))
    return 0


def _cmd_figures(_args: argparse.Namespace) -> int:
    from .reporting import figure4, figure5, figure6, figure7
    for title, text in (
            ("Figure 4 — unoptimized WM code", figure4()),
            ("Figure 5 — recurrences optimized", figure5(cleaned=False)),
            ("Figure 6 — Motorola 68020", figure6()),
            ("Figure 7 — stream instructions", figure7())):
        print(f"\n=== {title} ===")
        print(text)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .reporting import golden
    tracer = _tracer_for(args)
    with use_tracer(tracer):
        artifacts = golden.build(workers=args.workers)
    diffs = []
    if args.golden:
        for path in golden.write(artifacts, args.golden):
            print(f"wrote {path}")
    elif args.check:
        diffs = golden.compare(artifacts, args.check)
        print("\n".join(diffs)
              or f"{len(artifacts)} artifacts match {args.check}")
    elif args.json:
        data = {"manifest": run_manifest(), **artifacts}
        if tracer.enabled:
            data["spans"] = metrics_json(tracer)["spans"]
        print(json.dumps(data, indent=2))
    else:
        print("\n\n".join(golden.render(artifacts).values()))
    _finish_trace(tracer, args)
    return EXIT_MISMATCH if diffs else EXIT_OK


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .qa import check_program, run_fuzz
    from .qa.bundle import write_bundle
    if args.replay:
        source = open(args.replay).read()
        failure = check_program(source)
        if failure is None:
            print(f"{args.replay}: all backends agree")
            return EXIT_OK
        print(f"{args.replay}: {failure.kind} [{failure.config}] "
              f"{failure.detail}", file=sys.stderr)
        if args.out:
            bundle = write_bundle(args.out, failure)
            print(f"reproducer bundle written to {bundle}",
                  file=sys.stderr)
        return EXIT_MISMATCH

    def on_failure(failure):
        print(f"seed {failure.seed}: {failure.kind} [{failure.config}] "
              f"{failure.detail}", file=sys.stderr)
        if args.out:
            bundle = write_bundle(
                os.path.join(args.out, f"seed-{failure.seed}"), failure)
            print(f"  bundle: {bundle}", file=sys.stderr)

    def progress(done, total):
        if args.progress and done % args.progress == 0:
            print(f"fuzz: {done}/{total} programs checked",
                  file=sys.stderr)

    report = run_fuzz(args.count, seed=args.seed, on_failure=on_failure,
                      progress=progress)
    if args.json:
        print(json.dumps({
            "manifest": run_manifest(),
            "count": report.count,
            "seed": args.seed,
            "failures": [f.manifest() for f in report.failures],
        }, indent=2))
    else:
        verdict = "OK" if report.ok else \
            f"{len(report.failures)} failure(s)"
        print(f"fuzz: {report.count} program(s) from seed {args.seed}: "
              f"{verdict}")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_reduce(args: argparse.Namespace) -> int:
    from .qa import check_program, reduce_source
    from .qa.bundle import load_bundle, write_bundle
    from .qa.reduce import failure_predicate
    is_bundle = os.path.isdir(args.target)
    if is_bundle:
        source, _manifest = load_bundle(args.target)
    else:
        source = open(args.target).read()
    failure = check_program(source)
    if failure is None:
        print(f"error: {args.target} does not fail — nothing to reduce",
              file=sys.stderr)
        return EXIT_MISMATCH
    print(f"reducing {failure.kind} [{failure.config}]: {failure.detail}",
          file=sys.stderr)
    reduced = reduce_source(source, failure_predicate(failure),
                            max_tests=args.max_tests)
    final = check_program(reduced)
    if final is None:  # cannot happen (reducer verifies), but be safe
        final = failure
    final.source = reduced
    lines = len([ln for ln in reduced.splitlines() if ln.strip()])
    print(f"reduced to {lines} line(s)", file=sys.stderr)
    if is_bundle:
        write_bundle(args.target, final, original=source)
        print(f"bundle {args.target} updated", file=sys.stderr)
    elif args.out:
        write_bundle(args.out, final, original=source)
        print(f"reproducer bundle written to {args.out}", file=sys.stderr)
    print(reduced, end="")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import Daemon, ServeConfig

    settings = {} if args.workers is None else {"workers": args.workers}
    config = ServeConfig(
        socket_path=args.socket, http_port=args.http,
        queue_depth=args.queue_depth,
        batch_max=args.batch_max,
        cache_dir=args.cache_dir, spool_dir=args.spool_dir,
        blackbox_dir=args.blackbox_dir,
        op_timeout_s=args.op_timeout,
        max_jobs_per_worker=args.max_jobs_per_worker,
        gc_interval_s=args.gc_interval,
        force_pool=args.force_pool, **settings)

    async def _serve() -> None:
        daemon = Daemon(config)
        await daemon.start()
        loop = asyncio.get_running_loop()

        def _on_signal(signame: str) -> None:
            # Graceful drain on ^C / TERM: stop admitting, finish the
            # queue, deliver every response, then exit.  A TERM also
            # dumps the flight recorder — the orchestrator is killing
            # us, so preserve the last moments for post-mortem.
            reason = "sigterm" if signame == "SIGTERM" else "drain"
            asyncio.ensure_future(daemon.shutdown(reason=reason))

        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                sig, _on_signal, sig.name)
        listen = config.socket_path
        if daemon.http_port is not None:
            listen += (f" and http://{config.http_host}:"
                       f"{daemon.http_port}")
        print(f"repro serve: listening on {listen} "
              f"(pid {os.getpid()})", file=sys.stderr)
        await daemon.run()
        print("repro serve: drained, shut down", file=sys.stderr)

    asyncio.run(_serve())
    return EXIT_OK


def _cmd_request(args: argparse.Namespace) -> int:
    from .serve import request as serve_request
    from .serve.protocol import CONTROL_OPS

    payload: dict = {"op": args.op, "args": list(args.op_args)}
    if args.source_file:
        payload["source"] = open(args.source_file).read()
    if args.id is not None:
        payload["id"] = args.id
    if args.trace_out:
        payload["trace"] = True
    if args.deadline_ms is not None:
        payload["deadline_ms"] = args.deadline_ms
    try:
        response = serve_request(payload, args.socket,
                                 timeout=args.timeout,
                                 retries=args.retries)
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach serve daemon at {args.socket}: "
              f"{exc}", file=sys.stderr)
        return EXIT_MISMATCH
    if args.trace_out and response.get("trace") is not None:
        with open(args.trace_out, "w") as fh:
            json.dump(response["trace"], fh, indent=1)
        print(f"request trace written to {args.trace_out}",
              file=sys.stderr)
    if not response.get("ok") \
            and response.get("error") in _TRANSIENT_REFUSALS:
        # Capacity refusal, not a failure: the daemon is up and the
        # request was well-formed, it just couldn't be served in time.
        # A distinct exit code plus a one-line hint lets shell callers
        # `|| sleep && retry` without parsing JSON.
        reason = response["error"]
        print(f"unavailable: daemon refused request ({reason}); "
              f"retry with backoff"
              + (" or a larger --deadline-ms"
                 if reason == "deadline_exceeded" else ""),
              file=sys.stderr)
        if args.raw:
            print(json.dumps(response, indent=2, sort_keys=True))
        return EXIT_UNAVAILABLE
    if args.raw or args.op in CONTROL_OPS or not response.get("ok"):
        print(json.dumps(response, indent=2, sort_keys=True))
        return EXIT_OK if response.get("ok") else EXIT_MISMATCH
    # Replay the served invocation faithfully: same stdout, same
    # stderr, same exit code as running the command locally.
    sys.stdout.write(response["stdout"])
    sys.stderr.write(response["stderr"])
    return response["exit_code"]


def _cmd_blackbox(args: argparse.Namespace) -> int:
    from .obs.flight import format_dump, load_dump
    try:
        document = load_dump(args.dump)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(format_dump(document, tail=args.tail or None))
    return EXIT_OK


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .qa.chaos import format_chaos_report, run_chaos

    report = run_chaos(
        seed=args.seed, duration_s=args.duration,
        clients=args.clients, workers=args.workers,
        kill_interval_s=args.kill_interval,
        socket_reset_rate=args.socket_reset_rate,
        torn_rate=args.torn_rate, slow_rate=args.slow_rate,
        deadline_storm_rate=args.deadline_storm_rate,
        refusal_burst_s=args.refusal_burst,
        blackbox_dir=args.blackbox_dir)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_chaos_report(report))
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


def _format_top(stats: dict, rate: Optional[float] = None) -> str:
    """One ``repro top`` frame: the daemon's stats as a live table."""
    counters = stats.get("metrics", {}).get("counters", {})
    total = counters.get("serve.requests.total", 0)
    ok = counters.get("serve.responses.ok", 0)
    err = counters.get("serve.responses.error", 0)
    coalesced = counters.get("serve.coalesced", 0)
    refused = counters.get("serve.refused.overloaded", 0) + \
        counters.get("serve.refused.draining", 0) + \
        counters.get("serve.refused.deadline_exceeded", 0)
    uptime = stats.get("uptime_s", 0.0)
    if rate is None:
        rate = total / uptime if uptime else 0.0
    coalesce_pct = 100.0 * coalesced / total if total else 0.0
    queue = stats.get("queue", {})
    cache = stats.get("cache") or {}
    disk = cache.get("disk") or {}
    lines = [
        f"repro serve — pid {stats.get('pid')}  up {uptime:.1f}s  "
        f"workers {stats.get('workers')}  "
        f"state {stats.get('state', 'healthy')}  "
        f"draining {'yes' if stats.get('draining') else 'no'}",
        f"  req/s {rate:8.2f}   total {total}  ok {ok}  err {err}  "
        f"refused {refused}  coalesced {coalesced} "
        f"({coalesce_pct:.1f}%)",
        f"  queue {queue.get('depth', 0)}/{queue.get('capacity', 0)} "
        f"(high water {queue.get('high_water', 0)})  "
        f"inflight {stats.get('inflight', 0)}",
        f"  cache mem {cache.get('hits', 0)}h/{cache.get('misses', 0)}m"
        + (f"  disk {disk.get('hits', 0)}h/{disk.get('misses', 0)}m "
           f"{disk.get('bytes', 0)}B/{disk.get('entries', 0)} entries"
           if disk else "  disk off"),
    ]
    latency = stats.get("latency_ms", {})
    if latency:
        lines.append(f"  {'op':10s} {'count':>7s} {'p50ms':>9s} "
                     f"{'p95ms':>9s} {'p99ms':>9s} {'meanms':>9s} "
                     f"{'maxms':>9s}")
        for op, row in sorted(latency.items()):
            lines.append(
                f"  {op:10s} {row['count']:7d} {row['p50_ms']:9.2f} "
                f"{row['p95_ms']:9.2f} {row['p99_ms']:9.2f} "
                f"{row['mean_ms']:9.2f} {row['max_ms']:9.2f}")
    else:
        lines.append("  (no requests served yet)")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from .serve import request as serve_request

    def fetch() -> Optional[dict]:
        try:
            response = serve_request({"op": "stats"}, args.socket,
                                     timeout=args.timeout)
        except (ConnectionError, OSError) as exc:
            print(f"error: cannot reach serve daemon at {args.socket}: "
                  f"{exc}", file=sys.stderr)
            return None
        return response.get("stats")

    stats = fetch()
    if stats is None:
        return EXIT_MISMATCH
    print(_format_top(stats))
    if args.once:
        return EXIT_OK
    frames = 1
    prev_total = stats.get("metrics", {}).get("counters", {}) \
        .get("serve.requests.total", 0)
    prev_at = _time.monotonic()
    try:
        while args.count <= 0 or frames < args.count:
            _time.sleep(max(0.1, args.interval))
            stats = fetch()
            if stats is None:
                return EXIT_MISMATCH
            now = _time.monotonic()
            total = stats.get("metrics", {}).get("counters", {}) \
                .get("serve.requests.total", 0)
            rate = (total - prev_total) / (now - prev_at) \
                if now > prev_at else 0.0
            prev_total, prev_at = total, now
            print()
            print(_format_top(stats, rate=rate))
            frames += 1
    except KeyboardInterrupt:
        pass
    return EXIT_OK


#: Exception class -> (exit code, diagnostic label).  Order matters:
#: the first matching entry wins (LexError/ParseError before their
#: SyntaxError base would, say, shadow them).
_ERROR_EXITS: list = [
    (LexError, EXIT_PARSE, "lex error"),
    (ParseError, EXIT_PARSE, "parse error"),
    (TypeError_, EXIT_SEMANTIC, "semantic error"),
    (PassCrashError, EXIT_PASS_CRASH, "pass crash"),
    (SimError, EXIT_RUNTIME, "simulation error"),
    (FifoError, EXIT_RUNTIME, "simulation error"),
    (MemError, EXIT_RUNTIME, "simulation error"),
    (TrapError, EXIT_RUNTIME, "runtime trap"),
    (JobsFailed, EXIT_RUNTIME, "job failed"),
    # Unreadable input (missing file, permissions, a directory where a
    # file was expected): a one-line diagnostic, never a traceback.
    (OSError, 1, "i/o error"),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Benitez & Davidson (ASPLOS 1991) reproduction driver")
    sub = parser.add_subparsers(dest="command", required=True)

    targets = ["wm", "m68020", "sun3/280", "hp9000/345", "vax8600",
               "m88100", "generic-risc"]
    levels = ["none", "baseline", "recurrence", "full"]

    def add_obs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON on stdout")
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome trace-event JSON to PATH")

    def add_strict_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--strict", action="store_true",
                       help="a crashing optimization pass aborts the "
                            "compile (exit 5) instead of degrading to "
                            "the pre-pass IR")

    p_compile = sub.add_parser("compile", help="compile and print assembly")
    p_compile.add_argument("file")
    p_compile.add_argument("--target", choices=targets, default="wm")
    p_compile.add_argument("--opt", choices=levels, default="full")
    p_compile.add_argument("--function", default=None)
    add_strict_flag(p_compile)
    add_obs_flags(p_compile)
    p_compile.set_defaults(func=_cmd_compile)

    p_run = sub.add_parser("run", help="compile and execute")
    p_run.add_argument("file")
    p_run.add_argument("--target", choices=targets, default="wm")
    p_run.add_argument("--opt", choices=levels, default="full")
    p_run.add_argument("--max-cycles", type=int, default=None,
                       help="simulation cycle budget (exit 4 with a "
                            "structured report when exceeded)")
    add_strict_flag(p_run)
    add_obs_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_trace = sub.add_parser(
        "trace", help="compile+simulate with tracing; write Chrome trace")
    p_trace.add_argument("path", help="Mini-C file, directory of .c files, "
                                      "or benchmark name")
    p_trace.add_argument("--target", choices=targets, default="wm")
    p_trace.add_argument("--opt", choices=levels, default="full")
    p_trace.add_argument("--out", default=None, metavar="PATH",
                         help="trace output file (or directory when the "
                              "target expands to several programs)")
    p_trace.add_argument("--scale", type=float, default=0.2,
                         help="problem scale for benchmark-name targets")
    p_trace.add_argument("--json", action="store_true",
                         help="print metrics JSON instead of the summary")
    p_trace.add_argument("--no-run", dest="run", action="store_false",
                         help="compile only; skip the simulation")
    p_trace.set_defaults(func=_cmd_trace, run=True)

    p_profile = sub.add_parser(
        "profile",
        help="loop-level cycle profile: stall attribution, measured II "
             "vs ResMII/RecMII headroom")
    p_profile.add_argument("file")
    p_profile.add_argument("--target", choices=targets, default="wm")
    p_profile.add_argument("--opt", choices=levels, default="full")
    p_profile.add_argument("--max-cycles", type=int, default=None,
                           help="simulation cycle budget")
    p_profile.add_argument("--slow", action="store_true",
                           help="profile on the reference simulator loop "
                                "(attribution is bit-identical; this "
                                "only trades speed for auditability)")
    add_strict_flag(p_profile)
    add_obs_flags(p_profile)
    p_profile.set_defaults(func=_cmd_profile)

    p_explain = sub.add_parser(
        "explain",
        help="per-reference optimization decisions with reason codes")
    p_explain.add_argument("file")
    p_explain.add_argument("--target", choices=targets, default="wm")
    p_explain.add_argument("--opt", choices=levels, default="full")
    p_explain.add_argument("--function", default=None,
                           help="restrict the report to one function")
    p_explain.add_argument("--json", action="store_true",
                           help="emit the report as JSON")
    p_explain.add_argument("--sarif", action="store_true",
                           help="emit SARIF 2.1.0 (reason codes as rules)")
    p_explain.add_argument("--asm", action="store_true",
                           help="append the provenance-annotated assembly")
    p_explain.set_defaults(func=_cmd_explain)

    p_fig = sub.add_parser("figures", help="print Figures 4-7")
    p_fig.set_defaults(func=_cmd_figures)

    p_tab = sub.add_parser(
        "tables", help="regenerate Tables I-IV, the detection table and "
                       "the ablations; write or check their goldens")
    p_tab.add_argument("--workers", type=int, default=None,
                       help="fan runs out over N worker processes")
    golden_mode = p_tab.add_mutually_exclusive_group()
    golden_mode.add_argument("--golden", default=None, metavar="DIR",
                             help="write one golden JSON per artifact "
                                  "into DIR")
    golden_mode.add_argument("--check", default=None, metavar="DIR",
                             help="compare with the goldens in DIR; exit "
                                  "1 with one line per differing field")
    add_obs_flags(p_tab)
    p_tab.set_defaults(func=_cmd_tables)

    p_fuzz = sub.add_parser(
        "fuzz", help="differentially test generated Mini-C programs")
    p_fuzz.add_argument("--count", type=int, default=200,
                        help="number of programs to generate (default 200)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="first generator seed (seeds run "
                             "consecutively)")
    p_fuzz.add_argument("--out", default=None, metavar="DIR",
                        help="write a reproducer bundle per failure "
                             "under DIR (seed-N subdirectories)")
    p_fuzz.add_argument("--replay", default=None, metavar="FILE",
                        help="re-check one Mini-C file instead of "
                             "generating programs")
    p_fuzz.add_argument("--progress", type=int, default=0, metavar="N",
                        help="print progress every N programs (stderr)")
    p_fuzz.add_argument("--json", action="store_true",
                        help="emit the fuzz report as JSON")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_reduce = sub.add_parser(
        "reduce", help="delta-debug a failing program to a minimal "
                       "reproducer")
    p_reduce.add_argument("target",
                          help="a bundle directory (from fuzz --out) or "
                               "a Mini-C file")
    p_reduce.add_argument("--out", default=None, metavar="DIR",
                          help="write the reduced reproducer bundle to "
                               "DIR (file targets)")
    p_reduce.add_argument("--max-tests", type=int, default=2000,
                          help="reduction budget: maximum predicate "
                               "invocations")
    p_reduce.set_defaults(func=_cmd_reduce)

    default_socket = os.path.join(
        os.environ.get("TMPDIR", "/tmp"), "repro-serve.sock")

    p_serve = sub.add_parser(
        "serve", help="run the compile service daemon (unix socket "
                      "JSON-lines, optional localhost HTTP)")
    p_serve.add_argument("--socket", default=default_socket,
                         metavar="PATH",
                         help=f"unix socket path (default "
                              f"{default_socket})")
    p_serve.add_argument("--http", type=int, default=None, metavar="PORT",
                         help="also listen on localhost HTTP "
                              "(0 = ephemeral port)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="execute requests on N supervised pool "
                              "workers (default: ServeConfig's, two; "
                              "0/1, or a single CPU: inline in the "
                              "daemon process, with no --op-timeout "
                              "bound)")
    p_serve.add_argument("--queue-depth", type=int, default=256,
                         help="pending-queue bound before requests are "
                              "refused as overloaded")
    p_serve.add_argument("--batch-max", type=int, default=16,
                         help="micro-batch size cap")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persistent compile-artifact store "
                              "(default: REPRO_CACHE_DIR if set)")
    p_serve.add_argument("--spool-dir", default=None, metavar="DIR",
                         help="where inline request sources are spooled "
                              "(default: a fresh temp dir)")
    p_serve.add_argument("--blackbox-dir", default=None, metavar="DIR",
                         help="where flight-recorder dumps land "
                              "(default: the socket's directory)")
    p_serve.add_argument("--op-timeout", type=float, default=120.0,
                         metavar="S",
                         help="per-operation execution budget; a worker "
                              "stuck past it is killed and replaced "
                              "(0: unlimited; inline execution has no "
                              "bound)")
    p_serve.add_argument("--max-jobs-per-worker", type=int, default=256,
                         metavar="N",
                         help="recycle each pool worker after N jobs "
                              "(bounds leak accumulation)")
    p_serve.add_argument("--gc-interval", type=float, default=0.0,
                         metavar="S",
                         help="run a crash-safe artifact-store GC sweep "
                              "every S seconds (0: disabled)")
    p_serve.add_argument("--force-pool", action="store_true",
                         help="fork pool workers even on a single-CPU "
                              "host")
    p_serve.set_defaults(func=_cmd_serve)

    p_request = sub.add_parser(
        "request", help="send one request to a running serve daemon")
    p_request.add_argument("op",
                           help="compile/run/explain/profile/fuzz, or "
                                "ping/stats/shutdown")
    p_request.add_argument("op_args", nargs=argparse.REMAINDER,
                           help="argument vector for the served command")
    p_request.add_argument("--socket", default=default_socket,
                           metavar="PATH")
    p_request.add_argument("--source-file", default=None, metavar="FILE",
                           help="send FILE's text as inline source "
                                "(spooled server-side; substituted for "
                                "a {source} placeholder in the args, "
                                "else appended)")
    p_request.add_argument("--id", default=None,
                           help="request id echoed in the response")
    p_request.add_argument("--timeout", type=float, default=60.0)
    p_request.add_argument("--raw", action="store_true",
                           help="print the raw JSON response instead of "
                                "replaying stdout/stderr/exit code")
    p_request.add_argument("--trace-out", default=None, metavar="PATH",
                           help="request end-to-end tracing and write "
                                "the merged Chrome trace to PATH")
    p_request.add_argument("--deadline-ms", type=float, default=None,
                           metavar="MS",
                           help="give up on the request if the daemon "
                                "cannot start it within MS milliseconds "
                                "(refused as deadline_exceeded, exit 6)")
    p_request.add_argument("--retries", type=int, default=0, metavar="N",
                           help="retry a refused connection up to N "
                                "times with jittered backoff "
                                "(idempotent ops only)")
    p_request.set_defaults(func=_cmd_request)

    p_top = sub.add_parser(
        "top", help="live serve-daemon stats table (req/s, per-op "
                    "latency percentiles, queue depth, cache hit rates)")
    p_top.add_argument("--socket", default=default_socket, metavar="PATH")
    p_top.add_argument("--once", action="store_true",
                       help="print one frame and exit")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between frames")
    p_top.add_argument("--count", type=int, default=0, metavar="N",
                       help="stop after N frames (0: until interrupted)")
    p_top.add_argument("--timeout", type=float, default=10.0)
    p_top.set_defaults(func=_cmd_top)

    p_blackbox = sub.add_parser(
        "blackbox", help="pretty-print a serve-daemon flight-recorder "
                         "dump")
    p_blackbox.add_argument("dump", help="dump file written by the "
                                         "daemon (repro-blackbox-*.json)")
    p_blackbox.add_argument("--tail", type=int, default=0, metavar="N",
                            help="show only the last N events")
    p_blackbox.add_argument("--json", action="store_true",
                            help="print the raw dump document")
    p_blackbox.set_defaults(func=_cmd_blackbox)

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault-injection run against a live serve "
                      "daemon; asserts exactly-one-response and "
                      "CLI byte-identity invariants")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="chaos plan seed (same seed, same plan)")
    p_chaos.add_argument("--duration", type=float, default=20.0,
                         metavar="S", help="agitation run length")
    p_chaos.add_argument("--clients", type=int, default=4,
                         help="concurrent closed-loop client threads")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="daemon pool workers (supervised)")
    p_chaos.add_argument("--kill-interval", type=float, default=2.0,
                         metavar="S",
                         help="mean seconds between SIGKILLs of a "
                              "random pool worker (0: never)")
    p_chaos.add_argument("--socket-reset-rate", type=float, default=0.05,
                         metavar="P",
                         help="probability a client drops its "
                              "connection mid-response")
    p_chaos.add_argument("--torn-rate", type=float, default=0.05,
                         metavar="P",
                         help="probability a store write is torn "
                              "(truncated payload)")
    p_chaos.add_argument("--slow-rate", type=float, default=0.1,
                         metavar="P",
                         help="probability a store op is delayed")
    p_chaos.add_argument("--deadline-storm-rate", type=float,
                         default=0.15, metavar="P",
                         help="fraction of requests sent with "
                              "near-impossible deadlines")
    p_chaos.add_argument("--refusal-burst", type=float, default=6.0,
                         metavar="S",
                         help="mean seconds between queue-saturating "
                              "request bursts (0: never)")
    p_chaos.add_argument("--blackbox-dir", default=None, metavar="DIR",
                         help="where violation dumps land (default: "
                              "a fresh temp dir, printed on failure)")
    p_chaos.add_argument("--json", action="store_true",
                         help="emit the machine-readable report")
    p_chaos.set_defaults(func=_cmd_chaos)

    args = parser.parse_args(argv)
    # One process can serve several invocations (tests drive main()
    # directly): start each from a clean shared-metrics slate so counts
    # from one run cannot leak into the next run's report.
    NULL_TRACER.metrics.reset()
    try:
        return args.func(args)
    except Exception as exc:
        # Distinct exit codes, one-line diagnostics, no tracebacks.
        for klass, code, label in _ERROR_EXITS:
            if isinstance(exc, klass):
                print(f"error: {label}: {exc}", file=sys.stderr)
                if isinstance(exc, SimError):
                    print(json.dumps(exc.report(), sort_keys=True),
                          file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    raise SystemExit(main())
