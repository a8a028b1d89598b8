"""Shared pieces of the benchmark: statistics, references, the
second-hash-seed determinism child and the result line."""

from __future__ import annotations

import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: hash seed every process the benchmark starts runs under
HASH_SEED = "0"
#: hash seed of the determinism-check child
SECOND_HASH_SEED = "1"
#: scratch space of this run inside the checkout (removed at its end)
TMP = os.path.join(".bench_tmp", str(os.getpid()))
#: cold set-ups per run, each in its own process; set-up time is
#: their median
SETUPS = 3
#: one calibration unit's time (seconds) at the reference host speed,
#: about what it takes on the two-core 2.0 GHz Xeon VM the benchmark
#: was tuned on
CAL_REFERENCE_S = 0.005


def child_env(hash_seed: str = HASH_SEED) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.path.abspath("src")
    env.pop("REPRO_CACHE_DIR", None)
    return env


def p50(values) -> float:
    return statistics.median(values)


def p95(values) -> float:
    return statistics.quantiles(values, n=20)[18]


def _calibration_unit() -> tuple:
    """A fixed piece of pure-Python work: arithmetic, then the dict,
    tuple, string and sort traffic the compiler is made of."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    table = {}
    for i in range(2000):
        table[i * 7 % 1009, i & 15] = [i, str(i)]
    return total, sorted(table.items())[:1]


class HostSpeed:
    """How fast the host runs Python right now, against the reference.

    The box the benchmark shares with other tenants changes speed by up
    to 1.8x over tens of seconds, and compile and simulation times move
    with a fixed calibration unit run between operations.  Timings are
    reported at the reference speed: an operation's time is scaled by
    the calibrations around it (``scaled``), other times and rates by
    ``slowdown()``, the median unit time of the whole measured period
    relative to ``CAL_REFERENCE_S``.
    """

    #: seconds between calibrations
    INTERVAL_S = 0.2
    #: seconds either side of an operation whose calibrations scale it
    WINDOW_S = 1.0

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._times: list[float] = []
        #: seconds spent calibrating, to leave out of elapsed times
        self.spent = 0.0
        self._last = float("-inf")
        self._lock = threading.Lock()

    def add(self, start: float, took: float) -> None:
        """Record one calibration unit begun at ``start``."""
        with self._lock:
            self.samples.append(took)
            self._times.append(start)
            self.spent += took
            self._last = time.perf_counter()

    def sample(self, units: int = 1) -> None:
        for _ in range(units):
            start = time.perf_counter()
            _calibration_unit()
            self.add(start, time.perf_counter() - start)

    def maybe_sample(self) -> None:
        """Sample once if INTERVAL_S has passed since the last one."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def slowdown(self) -> float:
        return p50(self.samples) / CAL_REFERENCE_S

    def scaled(self, start: float, seconds: float) -> float:
        """An operation's ``seconds`` (begun at ``start``) at reference
        speed, by the calibrations within WINDOW_S of it (the whole
        run's when fewer than three)."""
        near = [took for at, took in zip(self._times, self.samples)
                if start - self.WINDOW_S <= at <= start + seconds
                + self.WINDOW_S]
        unit = p50(near) if len(near) >= 3 else p50(self.samples)
        return seconds * CAL_REFERENCE_S / unit


class Calibrator:
    """``calibrate.py`` in a process of its own, feeding ``speed`` a
    calibration unit every INTERVAL_S until ``stop()``.

    For a client whose connection threads time requests: calibrating
    on one of them would hold the GIL while the other's reply waits.
    Both processes read the same monotonic clock, so the units' start
    times place them beside the requests.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env())
        self.reader = threading.Thread(target=self._read, args=(speed,))
        self.reader.start()

    def _read(self, speed: HostSpeed) -> None:
        for line in self.proc.stdout:
            start, took = map(float, line.split())
            speed.add(start, took)

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join()


class Metrics:
    """Metric values in run order, each with its unit, sample count and
    the raw figure the readable report shows beside it."""

    TIME_UNITS = ("s", "ms")
    RATE_UNITS = ("1/s", "cycles/s")

    def __init__(self) -> None:
        self.rows: dict[str, tuple] = {}

    def add(self, name: str, value: float, unit: str, samples: int,
            raw: float | None = None) -> None:
        self.rows[name] = (value, unit, samples,
                           value if raw is None else raw)

    def add_scaled(self, name: str, raw: float, unit: str, samples: int,
                   speed: HostSpeed) -> None:
        """Add ``raw`` at the reference host speed: a time divided by the
        run's slowdown, a rate multiplied by it."""
        slow = speed.slowdown()
        value = raw / slow if unit in self.TIME_UNITS else \
            raw * slow if unit in self.RATE_UNITS else raw
        self.add(name, value, unit, samples, raw)

    def add_rate(self, ops: list, speed: HostSpeed) -> None:
        """``throughput`` of back-to-back ``ops`` ((start, seconds)
        pairs): operations per second of their summed time, each
        operation scaled by the calibrations around it."""
        raw = sum(seconds for _start, seconds in ops)
        scaled = sum(speed.scaled(start, seconds) for start, seconds in ops)
        self.add("throughput", len(ops) / scaled, "1/s", len(ops),
                 len(ops) / raw)

    def add_latencies(self, ops: list, speed: HostSpeed) -> None:
        """p50 and p95 of ``ops`` ((start, seconds) pairs), each
        operation scaled by the calibrations around it."""
        raw = [seconds * 1e3 for _start, seconds in ops]
        scaled = [speed.scaled(start, seconds) * 1e3
                  for start, seconds in ops]
        self.add("latency_ms.p50", p50(scaled), "ms", len(ops), p50(raw))
        self.add("latency_ms.p95", p95(scaled), "ms", len(ops), p95(raw))

    def emit(self, correct: bool, attempted: int, failed: int,
             notes=()) -> None:
        for note in notes:
            print(note)
        for name, (value, unit, samples, raw) in self.rows.items():
            print(f"{name:34s} {value:16.6f} {unit:9s} n={samples:<6d} "
                  f"raw {raw:.6f}")
        print(f"attempted {attempted}  failed {failed}  correct {correct}")
        print(json.dumps({
            "correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _n, _raw)
                        in self.rows.items()}}))


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of ``pid``, or of this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class References:
    """gcc-computed return values (refs.json) plus the IR interpreter's,
    computed at set-up."""

    def __init__(self, programs: dict[str, str]) -> None:
        from inputs import source_digest
        from repro.compiler import compile_to_ir
        from repro.ir import run as run_ir
        with open(os.path.join(HERE, "refs.json")) as fh:
            refs = json.load(fh)
        self.errors: list[str] = []
        self.ir_only = set(refs["ir_only"])
        self.gcc: dict[str, int] = {}
        self.ir: dict[str, int] = {}
        for name, source in programs.items():
            entry = refs["programs"].get(name)
            if entry is None or entry["sha256"] != source_digest(source):
                self.errors.append(f"{name}: refs.json is out of date "
                                   f"(rerun {refs['command']})")
                continue
            self.gcc[name] = entry["gcc"]
            self.ir[name] = run_ir(compile_to_ir(source)).value
            if name not in self.ir_only and self.ir[name] != self.gcc[name]:
                self.errors.append(f"{name}: IR interpreter gives "
                                   f"{self.ir[name]}, gcc {self.gcc[name]}")

    def check(self, name: str, value) -> str | None:
        """None when ``value`` matches every reference for ``name``."""
        if name not in self.ir:
            return f"{name}: no reference"
        if value != self.ir[name]:
            return f"{name}: got {value}, IR interpreter {self.ir[name]}"
        if name not in self.ir_only and value != self.gcc[name]:
            return f"{name}: got {value}, gcc {self.gcc[name]}"
        return None


#: block labels numbered from a process-global counter (opt/cfg.py)
_COUNTED_LABEL = re.compile(r"\b([A-Za-z_]\w*)\.([AB])(\d+)\b")


def canonical_labels(text: str) -> str:
    """``text`` with counter-numbered block labels renumbered in order
    of first appearance.  Their numbers depend on what the process
    compiled before, not on the program."""
    names: dict[str, str] = {}

    def rename(match: re.Match) -> str:
        return names.setdefault(
            match.group(0), f"{match.group(1)}.{match.group(2)}#{len(names)}")
    return _COUNTED_LABEL.sub(rename, text)


def listing_digest(result) -> str:
    import hashlib
    return hashlib.sha256(canonical_labels(result.listing())
                          .encode("utf-8")).hexdigest()


def code_size(result) -> int:
    """Static WM instructions of a compiled module."""
    return sum(len(fn.instrs) for fn in result.rtl.functions.values())


def second_seed_digests(items: list[dict]) -> dict[str, str]:
    """Listing digests of ``items`` ({name, source, config}) compiled in
    a child process under the second hash seed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "digest.py")],
        input=json.dumps(items), capture_output=True, text=True,
        env=child_env(SECOND_HASH_SEED), timeout=120, check=True)
    return json.loads(proc.stdout)


def options_for(config: str):
    from repro.opt import OptOptions
    return OptOptions.no_streaming() if config == "base" else OptOptions()


def set_up(build, args, start: float) -> tuple:
    """Build this run's state with ``build()`` and time the set-up,
    from ``start`` (before ``import repro``) to here, where the first
    timed operation starts, leaving out three calibrations taken before
    ``build()``; with those and three more taken after it, the time is
    scaled to the reference host speed.  Returns the state and
    (seconds at reference speed, raw seconds).  With ``--setup-only``
    the pair is printed as the last line instead and returned as None:
    the run ends there."""
    speed = HostSpeed()
    speed.sample(3)
    state = build()
    raw = time.perf_counter() - start - speed.spent
    speed.sample(3)
    timed = (raw / speed.slowdown(), raw)
    if args.setup_only:
        print(json.dumps({"setup_s": timed}))
        return state, None
    return state, timed


def add_setup_s(out: "Metrics", args, own: tuple) -> None:
    """Add ``setup_s``, the median of SETUPS cold set-ups: this
    process's (``own``, from ``set_up``) and SETUPS - 1 more, each
    in a fresh process (``run.py --setup-only``) started when this
    one's work is done.  Each process scales its own set-up by the
    calibrations just before and after it."""
    timed = [own]
    for _ in range(SETUPS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0",
             "--setup-only"],
            capture_output=True, text=True, env=child_env(), timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")
        timed.append(tuple(json.loads(proc.stdout.splitlines()[-1])
                           ["setup_s"]))
    out.add("setup_s", p50([t for t, _raw in timed]), "s", len(timed),
            p50([raw for _t, raw in timed]))


def run_passes(state, seed, seconds, one_pass, speed: HostSpeed,
               min_ops=1):
    """Whole passes until ``seconds`` have passed and ``min_ops``
    operations completed; returns (passes, elapsed seconds, leaving
    out calibration).  ``one_pass`` calls ``speed.maybe_sample()``
    between operations."""
    passes, ops = [], 0
    start = time.perf_counter()
    spent = speed.spent
    while True:
        passes.append(one_pass(state, seed, len(passes), speed))
        ops += len(passes[-1]["lat"])
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and ops >= min_ops:
            return passes, elapsed - (speed.spent - spent)


def seeded_order(seed: int, pass_no: int, items: list) -> list:
    order = list(items)
    random.Random(f"{seed}/{pass_no}").shuffle(order)
    return order
