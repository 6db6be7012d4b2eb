"""Closed-loop runner, host-speed probe, set-up clock, span tracer and
metric assembly. Run as ``python3 harness.py --probe-worker`` it is the
probe worker that ``HostSpeed`` starts.

One client in one process runs a workload's operations back to back. A
workload is a fixed list of operations built from the seed; one pass over
the list is a *cycle*. A run repeats whole cycles until it has measured for
the requested number of seconds and attempted at least ``MIN_OPS``
operations, so every run of a workload does the same mix of work and the
percentiles always fall on the same kinds of operation.

Each operation is a call into the library plus an expectation computed by
``oracle`` from first principles. The timed region is the call alone; the
check runs after it. An outcome that differs from the expectation counts as
failed. It is a *known defect* only when it matches the exact wrong
behaviour the operation names (an exception class, an exit code); any other
mismatch makes the run incorrect.
"""
from __future__ import annotations

import bisect
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

MIN_OPS = 100
SETUP_SAMPLES = 5
MB = 1024 * 1024

# Probe time of the reference host: a 2-vCPU VM running CPython 3.11.7.
NOMINAL_PROBE_S = 0.007
PROBE_TABLE_BYTES = 32 * MB
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 2.0

_NULL = contextlib.nullcontext()


_TABLE: list = []  # the memory part's table, made at the first probe


def probe_seconds() -> float:
    """Run the fixed probe work once; returns how long it took.

    A cache-resident part does pure-Python work; a memory part reads a
    32 MB table at fixed pseudo-random places, so the probe also slows when
    the host's caches and memory are under load, as the large operations do.
    """
    if not _TABLE:
        _TABLE.append(bytearray(PROBE_TABLE_BYTES))
        _TABLE.append([(i * 2654435761) % PROBE_TABLE_BYTES for i in range(20000)])
    table_bytes, places = _TABLE
    t0 = time.perf_counter()
    acc, table, blocks, h = Fraction(0), {}, [], 0.0
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 89 + 1)
        table[f"({i},{i >> 2})"] = (i * 2654435761) & 0xFFFFFF
        blocks.append(frozenset((i % 5, i % 3, i % 11)))
        p = (i % 13 + 1) / 14
        h -= p * math.log2(p)
    set().union(*blocks[::7])
    sorted(table, key=table.get)
    total = 0
    for i in places:
        total += table_bytes[i]
    return time.perf_counter() - t0


def serve_probes():
    """Probe worker: one probe per line read from stdin, its time on stdout."""
    for _ in sys.stdin:
        sys.stdout.write(f"{probe_seconds()!r}\n")
        sys.stdout.flush()


def pin_to_one_cpu():
    """Keep this process, and every process it starts, on one CPU, so the
    probe worker measures the CPU the operations run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """How fast the host runs Python right now, from a fixed probe.

    On a shared host the same work can take up to 1.6 times as long from
    one ten-second stretch to the next, and every time measured here slows
    with it. A small fixed piece of work (``probe_seconds``) runs every
    ``PROBE_EVERY_S`` between operations, in a worker process of its own,
    so the library's heap and caches cannot change its time. The caller
    waits while it runs. A time measured over [t0, t1] is scaled by
    NOMINAL_PROBE_S over the median probe time within ``PROBE_WINDOW_S`` of
    it, so it reads as the time the work would take on the reference host.
    Raw times are reported alongside.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.worker = subprocess.Popen([sys.executable, __file__, "--probe-worker"],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                       text=True)

    def probe(self):
        t0 = time.perf_counter()
        self.worker.stdin.write("\n")
        self.worker.stdin.flush()
        self.seconds.append(float(self.worker.stdout.readline()))
        self.starts.append(t0)

    def close(self):
        self.worker.stdin.close()
        self.worker.wait()
        self.worker.stdout.close()

    def due(self):
        if not self.starts or time.perf_counter() - self.starts[-1] > PROBE_EVERY_S:
            self.probe()

    def scale(self, t0, t1) -> float:
        """Factor that turns a raw duration over [t0, t1] into reference time."""
        i = bisect.bisect_left(self.starts, t0 - PROBE_WINDOW_S)
        j = bisect.bisect_right(self.starts, t1 + PROBE_WINDOW_S)
        i, j = max(0, min(i, j - 2)), max(j, i + 2)  # at least two probes
        return NOMINAL_PROBE_S / statistics.median(self.seconds[i:j])


class SetupClock:
    """Set-up time from process start, sampled ``samples`` times.

    A sample starts a fresh interpreter running ``argv``, which imports
    ``ordinal``, builds the workload's seeded inputs and fixtures in
    ``workdir`` and prints ``ready``; the sample is the time from the spawn
    to that line. Samples are spread evenly over the measuring time,
    between operations, so their median sees the same stretch of host
    speed as the operations do, and each is scaled to reference time. A
    traced run takes no samples, since it reports no set-up time.
    """

    def __init__(self, argv, workdir, host, samples=SETUP_SAMPLES):
        self.argv, self.workdir, self.host, self.samples = argv, workdir, host, samples
        self.scaled: list[float] = []
        self.raw: list[float] = []
        self.every = 0.0
        self.next_at = 0.0

    def start(self, seconds):
        self.every = seconds / max(self.samples, 1)
        self.next_at = time.perf_counter()

    def due(self):
        if len(self.raw) < self.samples and time.perf_counter() >= self.next_at:
            self.sample()
            self.next_at += self.every

    def finish(self):
        while len(self.raw) < self.samples:
            self.sample()

    def sample(self):
        self.host.probe()
        t0 = time.perf_counter()
        child = subprocess.Popen([*self.argv, str(self.workdir)], stdout=subprocess.PIPE,
                                 text=True)
        ready = child.stdout.readline()
        t1 = time.perf_counter()
        child.stdout.read()
        child.stdout.close()
        code = child.wait()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.host.probe()
        if ready != "ready\n" or code != 0:
            raise RuntimeError(f"set-up process exited {code}")
        self.raw.append(t1 - t0)
        self.scaled.append((t1 - t0) * self.host.scale(t0, t1))

    def seconds(self, reference=True) -> float:
        values = self.scaled if reference else self.raw
        return statistics.median(values) if values else math.nan


class NullTracer:
    """Stand-in used in untraced cycles: spans and counters cost one call."""

    enabled = False

    def span(self, name, calls=1):
        return _NULL

    def count(self, name, value=1):
        pass

    def high(self, name, value):
        pass

    def sample(self, name, seconds):
        pass


class Tracer(NullTracer):
    """Spans kept in memory: [name, start, end, parent index, operation id].

    ``span(name, calls=n)`` also adds n to the counter ``<name>.calls``, for
    a span that wraps a batch of n library calls. ``sample`` records a time
    measured elsewhere, such as inside a child process.
    """

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.highs: dict[str, float] = {}
        self.samples: list[tuple[str, float, float]] = []
        self._stack: list[int] = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name, calls=1):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        self.count(name + ".calls", calls)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def high(self, name, value):
        self.highs[name] = max(self.highs.get(name, value), value)

    def sample(self, name, seconds):
        self.samples.append((name, seconds, time.perf_counter()))

    def self_times(self, host) -> dict[str, float]:
        """Span duration minus the time its direct children cover, by name,
        in reference time."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = (end - start - covered[i]) * host.scale(start, end)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def dump(self, path, kinds):
        """Write the spans; operation id n ran ``kinds[n % len(kinds)]``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "kinds": kinds}, fh)


def resident_mb() -> float:
    """Current resident set size; falls back to the high-water mark."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / MB
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Raised:
    """Outcome of an operation that raised; compared by exception class name."""

    name: str


@dataclass
class Op:
    """One operation: ``call(tracer)`` does the library work and returns its
    raw result; ``expect(result)`` says whether it is right (a ``Raised``
    expectation matches an exception of that class instead). ``defect``
    names a known wrong behaviour and ``defect_sig(result)`` recognises it."""

    kind: str
    call: Callable[[Any], Any]
    expect: Any
    defect: str | None = None
    defect_sig: Callable[[Any], bool] | None = None

    def judge(self, result) -> str:
        """'ok', 'defect' (the named wrong behaviour) or 'wrong'. A check
        that raises on the result, say on empty stdout, counts as not met."""
        if isinstance(self.expect, Raised):
            good = isinstance(result, Raised) and result.name == self.expect.name
        else:
            good = not isinstance(result, Raised) and _holds(self.expect, result)
        if good:
            return "ok"
        if self.defect_sig is not None and _holds(self.defect_sig, result):
            return "defect"
        return "wrong"


def _holds(check, result) -> bool:
    try:
        return bool(check(result))
    except Exception:
        return False


class Run:
    """Everything one measurement collects."""

    def __init__(self, trace):
        self.trace = trace
        self.host = HostSpeed()
        self.tracer = Tracer()
        self.windows: list[tuple[float, float]] = []  # per operation
        self.cycles: list[tuple[bool, float, float]] = []  # traced, start, end
        self.tally = {"ok": 0, "defect": 0, "wrong": 0, "defects": {}}
        self.mismatches: list[dict] = []
        self.elapsed = 0.0

    def cycle(self, ops, tracer, setup):
        base = len(self.windows)
        for n, op in enumerate(ops):
            setup.due()
            self.host.due()
            tracer.op_id = base + n
            with tracer.span("op"):
                t0 = time.perf_counter()
                try:
                    result = op.call(tracer)
                except Exception as exc:  # the outcome under test, judged below
                    result = Raised(type(exc).__name__)
                self.windows.append((t0, time.perf_counter()))
            verdict = op.judge(result)
            self.tally[verdict] += 1
            if verdict == "defect":
                self.tally["defects"][op.defect] = self.tally["defects"].get(op.defect, 0) + 1
            if verdict != "ok" and len(self.mismatches) < 50:
                self.mismatches.append({"op": base + n, "kind": op.kind, "verdict": verdict,
                                        "defect": op.defect, "result": repr(result)[:300]})

    def measure(self, ops, seconds, setup):
        """Whole cycles, untraced, or alternating untraced and traced; set-up
        samples from ``setup`` (a SetupClock) in between operations."""
        null = NullTracer()
        # set-up garbage stays out of the collector's way during timing
        gc.collect()
        gc.freeze()
        for _ in range(3):
            self.host.probe()
        start = time.perf_counter()
        setup.start(seconds)
        while True:
            traced = self.trace and len(self.cycles) % 2 == 1
            c0 = time.perf_counter()
            self.cycle(ops, self.tracer if traced else null, setup)
            self.cycles.append((traced, c0, time.perf_counter()))
            self.elapsed = time.perf_counter() - start
            # a traced run needs an untraced cycle after the warm-up one
            if (self.elapsed >= seconds and len(self.windows) >= MIN_OPS
                    and (not self.trace or len(self.cycles) >= 3)):
                break
        setup.finish()
        for _ in range(3):
            self.host.probe()

    def latencies(self, reference=True):
        if not reference:
            return [t1 - t0 for t0, t1 in self.windows]
        return [(t1 - t0) * self.host.scale(t0, t1) for t0, t1 in self.windows]

    def median_ms_by_kind(self, kinds):
        """Median reference latency of each kind of operation, in ms."""
        by_kind: dict[str, list[float]] = {}
        for n, seconds in enumerate(self.latencies()):
            by_kind.setdefault(kinds[n % len(kinds)], []).append(seconds * 1e3)
        return {kind: statistics.median(v) for kind, v in sorted(by_kind.items())}

    def end_to_end(self, setup_s, reference=True):
        """ops_per_s counts library time only: no checks, no probes."""
        lat = self.latencies(reference)
        return {
            "setup_s": setup_s,
            "ops_per_s": len(lat) / math.fsum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }

    def per_layer(self):
        """Per traced cycle: self time per span name and counters; ``high``
        values are maxima over the run; and the cost of tracing itself."""
        host, tracer = self.host, self.tracer
        walls = {False: [], True: []}
        for traced, c0, c1 in self.cycles[1:]:  # cycle 0 warms up
            walls[traced].append((c1 - c0) * host.scale(c0, c1))
        k = len(walls[True])
        out = {name + ".busy_s": t / k for name, t in tracer.self_times(host).items()}
        out.update((name, value / k) for name, value in tracer.counters.items())
        out.update(tracer.highs)
        for name, seconds, at in tracer.samples:
            out[name] = out.get(name, 0.0) + seconds * host.scale(at, at) / k
        audited = out.get("valuation.audit.checked", 0) + out.get("valuation.audit.skipped", 0)
        audit_s = sum(v for name, v in out.items()
                      if name.startswith("valuation.audit.") and name.endswith(".busy_s"))
        out["valuation.audit.instances_per_s"] = audited / audit_s if audit_s else 0.0
        out["trace.overhead_pct"] = (statistics.mean(walls[True])
                                     / statistics.mean(walls[False]) - 1) * 100
        out["trace.spans"] = len(tracer.spans) / k
        return out


def environment(seed) -> dict:
    return {"seed": seed, "python": sys.version.split()[0], "nproc": os.cpu_count()}


if __name__ == "__main__" and sys.argv[1:] == ["--probe-worker"]:
    serve_probes()
