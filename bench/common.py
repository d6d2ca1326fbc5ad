"""Shared helpers of the benchmark: statistics, spans, child processes.

Nothing here imports frsense or numpy, so the orchestrating process stays
light and the arithmetic can be tested on its own (see test_bench.py).
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: Every child gets the same BLAS thread count.  One thread avoids the
#: bimodal first-eigh stall seen with two OpenBLAS threads and keeps
#: ``--threads 2`` at no more threads than cores on a 2-core machine.
BLAS_THREADS = 1
BLAS_ENV = {
    name: str(BLAS_THREADS)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

#: Seconds after which a child is killed and counted as failed.
CHILD_TIMEOUT = 150.0

#: The console script ``frsense = "frsense.cli:main"``, spelled out so the
#: benchmark needs no installed package.
CLI = ["-c", "import sys; from frsense.cli import main; sys.exit(main())"]


def child_env() -> dict:
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": SRC}


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "frsense", "__init__.py"))


# ---------------------------------------------------------------- statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values):
    """Highest order statistic with at least ten samples beyond it.

    For n sorted samples the k-th one (1-based) has n - k samples above it,
    so k = n - 10 and its percentile is 100 k / n.  Returns
    ``(percentile, value)``, or ``None`` when n < 20, where that order
    statistic would fall below the median and say nothing about the tail.
    """
    ordered = sorted(values)
    k = len(ordered) - 10
    if len(ordered) < 20:
        return None
    return 100.0 * k / len(ordered), float(ordered[k - 1])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ratio_note(num, num_label: str, den, den_label: str, scale: float = 1.0) -> str:
    """How a ratio was formed, with both of its numbers."""
    factor = "" if scale == 1.0 else f"{scale:g} x "
    return f"= {factor}{num_label} {num:.6g} / {den_label} {den:.6g}"


def ratio_text(name: str, value: float, unit: str, num, num_label, den, den_label) -> str:
    """A ratio line that always states its base."""
    return f"{name} = {value:.6g} {unit}  ({ratio_note(num, num_label, den, den_label)})"


# --------------------------------------------------------------------- spans


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    sid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stands in for a Tracer in the untraced passes: records nothing."""

    def span(self, name: str, run: str):
        return nullcontext()


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, run: str):
        return _SpanContext(self, name, run)

    def open(self, name: str, run: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), math.nan, parent, run, len(self.spans))
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.sid:
            raise RuntimeError(f"span {span.name} closed out of order")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)

    def durations(self, name: str) -> list:
        return [s.duration for s in self.spans if s.name == name]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, run: str):
        self.tracer, self.name, self.run = tracer, name, run

    def __enter__(self) -> Span:
        self.span = self.tracer.open(self.name, self.run)
        return self.span

    def __exit__(self, *exc):
        self.tracer.close(self.span)
        return False


def self_times(spans) -> dict:
    """Self time per span id: its duration minus what its children cover.

    Children of one span never overlap (they are opened and closed in
    stack order), so the covered part is the sum of their durations.
    """
    own = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


# ----------------------------------------------------------- child processes


@dataclass
class ChildResult:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(args, *, cwd: str = ROOT, timeout: float = CHILD_TIMEOUT) -> ChildResult:
    """Run one child and read its own peak RSS with ``os.wait4``.

    ``RUSAGE_CHILDREN`` keeps a running maximum over all children ever
    reaped, so it cannot give a per-child figure; ``wait4`` can.  Wall time
    runs from just before the spawn to the reap.
    """
    out_path = os.path.join(WORK, f".child-{os.getpid()}.out")
    err_path = os.path.join(WORK, f".child-{os.getpid()}.err")
    os.makedirs(WORK, exist_ok=True)
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=child_env(),
            stdout=out, stderr=err, stdin=subprocess.DEVNULL,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    os.remove(out_path)
    os.remove(err_path)
    # ru_maxrss is in KiB on Linux.
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


class Operations:
    """Counts operations and why any of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def exit_problems(label: str, child: ChildResult) -> list:
    if child.code == 0:
        return []
    tail = child.stderr.strip().splitlines()[-3:]
    return [f"{label} exited {child.code}: {' | '.join(tail)}"]


def last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("child printed nothing")
    return json.loads(lines[-1])
