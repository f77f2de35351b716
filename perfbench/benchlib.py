"""Helpers shared by the benchmark: spans and self time, percentiles and the
ten-samples-beyond rule for the tail, the speed probe that op times are
scaled by, output digests and the machine record.

Nothing here imports shorsim, so the helpers can be tested on their own.
"""
from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MIN_BEYOND = 10

# The speed probe.  On a shared VM each vCPU switches, within a minute,
# between a fast phase and one in which small numpy calls from Python run
# 1.8x slower, and the times of work in this process follow it.  The probe is
# a fixed kernel that touches nothing of shorsim; it returns its wall time
# over its time on the machine the benchmark was written on (2-vCPU Xeon VM
# at 2.0 GHz, in its fast phase): the machine's slowdown at that moment.
_PROBE_I = np.arange(1024)
_PROBE_X = np.random.default_rng(0).random(1024)


def _probe_kernel() -> None:
    x = _PROBE_X
    for _ in range(200):
        x = np.where(_PROBE_I & 1 == 1, x * 0.5, x + 1.0)[_PROBE_I ^ 1]


def slowdown() -> float:
    """200 rounds of small numpy calls from Python on 1,024-element arrays,
    the shape of the simulator's per-gate work: 2 ms at reference speed.
    The shortest of three runs counts, so that an interrupt does not."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - t0)
    return min(times) / 0.002


def at_reference_speed(seconds: list[float], slowdowns: list[float],
                       share: float) -> list[float]:
    """Times scaled to reference speed.  The probe runs before each timed
    interval and after the last one, so ``slowdowns`` has one entry more
    than ``seconds``.  ``share`` is the part of the work that slows as the
    probe does; each time is divided by ``share * s + 1 - share``, where s is
    the mean slowdown of the two probes around it."""
    if len(slowdowns) != len(seconds) + 1:
        raise ValueError("need one probe before each interval and one after")
    return [t / (share * (a + b) / 2.0 + 1.0 - share)
            for t, a, b in zip(seconds, slowdowns, slowdowns[1:])]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root span
    op_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans in memory; nothing is written until the caller asks."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op_id = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent, self.op_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


class NullTracer:
    """Same interface as Tracer, records nothing (the timed runs use it)."""

    enabled = False
    op_id = -1

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


def self_time_by_layer(spans: list[Span], exclude=frozenset()) -> dict[str, float]:
    """Self time summed per layer.  Spans named in ``exclude`` add nothing to
    any layer, yet still cover their parent: use it for a span that wraps
    work of other layers without child spans to say which."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        if s.name not in exclude:
            out[s.layer] = out.get(s.layer, 0.0) + t
    return out


def _rank(p: float, n: int) -> int:
    return max(1, math.ceil(p / 100.0 * n))


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the sample at rank ceil(p/100 * n)."""
    xs = sorted(samples)
    return xs[_rank(p, len(xs)) - 1]


def beyond(p: float, n: int) -> int:
    """How many of n samples rank above the p-th percentile."""
    return n - _rank(p, n)


def min_samples(p: float, min_beyond: int = MIN_BEYOND) -> int:
    """The fewest samples that leave ``min_beyond`` above the p-th percentile."""
    n = min_beyond + 1
    while beyond(p, n) < min_beyond:
        n += 1
    return n


def median(values) -> float:
    return float(statistics.median(values))


def sha256_hex(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def combined_digest(op_digests: list[str]) -> str:
    """One digest over per-op digests, in op order."""
    return sha256_hex(*(d.encode() for d in op_digests))


def child_env(root: Path) -> dict:
    """Environment for a child interpreter that imports shorsim from ``root``."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def machine_record(root: Path) -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_commit": _git_commit(root),
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in sorted((root / "src").rglob("*.py")))}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of ``root`` when ``root`` is itself a git work tree, else 'none'."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], text=True,
                              capture_output=True, timeout=10)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root.resolve():
            return "none"
        head = git("rev-parse", "HEAD")
        return head.stdout.strip() if head.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"
