"""Shared plumbing for the repo benchmark: hermetic set-up, /proc accounting,
inputs derived from the seed, percentiles and in-memory spans.

Every workload process imports this module first; it puts the checkout's
``src/`` on ``sys.path`` so the benchmark measures the code in the checkout
it runs from, never an installed copy.
"""

from __future__ import annotations

import gc
import json
import math
import os
import select
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Benchmark output (span files) stays inside the checkout.
OUT_DIR = ROOT / ".perfbench"

#: Environment switches that would turn a run into a cache hit, re-size the
#: pool, arm a fault hook, a sanitizer or a schedule explorer.
HERMETIC_UNSET = (
    "REPRO_PLAN_CACHE",
    "REPRO_RESULT_CACHE",
    "REPRO_POOL_WORKERS",
    "REPRO_POOL_DEADLINE",
    "REPRO_FAULTS",
    "REPRO_SANITIZE",
    "REPRO_SCHEDULE",
)

#: Transient per-answer flip probability of the noisy phase.
NOISE_RATE = 0.05

#: The datasets are the workloads' fixed input sets.  ``--seed`` draws the
#: sessions, schedules and noise on them; feeding it to ``build_datasets``
#: would regenerate the hierarchies, whose expected search cost alone
#: spreads 15% (tree) and 8% (DAG) between seeds 0-9, more than any bound
#: the benchmark could gate on.
DATASET_SEED = 0

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


class BenchError(Exception):
    """A run that must fail: bad set-up, a correctness mismatch, a limit."""


def hermetic_env() -> dict:
    """``os.environ`` minus every switch in :data:`HERMETIC_UNSET`, with the
    checkout's sources importable and string hashing fixed.

    A random hash seed lays out every dict and set of labels differently in
    each process, which moves CPU-bound timings by up to 25% from one child
    to the next; results never depend on it.
    """
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_UNSET}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def make_hermetic() -> None:
    """Scrub this process's environment and make the checkout importable."""
    for name in HERMETIC_UNSET:
        os.environ.pop(name, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def assert_no_defaults() -> None:
    """No plan cache, result cache or default pool may be installed."""
    from repro.engine import get_default_pool, get_default_result_cache
    from repro.plan import get_default_cache

    found = {
        "plan cache": get_default_cache(),
        "result cache": get_default_result_cache(),
        "pool": get_default_pool(),
    }
    armed = [name for name, value in found.items() if value is not None]
    if armed:
        raise BenchError(f"hermetic run found a default {', '.join(armed)}")


# ----------------------------------------------------------------------
# Inputs: everything the program sees is generated here from the seed
# ----------------------------------------------------------------------
def load_dataset(scale_name: str, which: str):
    """``(hierarchy, catalog distribution)`` of the Amazon or ImageNet stand-in."""
    from repro.experiments.datasets import build_datasets
    from repro.experiments.scale import get_scale

    amazon, imagenet = build_datasets(get_scale(scale_name), DATASET_SEED)
    dataset = amazon if which == "amazon" else imagenet
    return dataset.hierarchy, dataset.real_distribution


def draw_targets(hierarchy, distribution, rng, size: int) -> list:
    """``size`` target labels drawn from the catalog distribution."""
    probs = distribution.as_array(hierarchy)
    picks = rng.choice(hierarchy.n, size=size, p=probs / probs.sum())
    return [hierarchy.label(int(ix)) for ix in picks]


def freeze_heap() -> None:
    """Move every object alive now out of the collector's reach.

    Called once set-up is done, so a garbage collection during the measured
    work traverses what that work allocated, not the datasets and plans;
    otherwise where a full collection happens to land moves a timing by up
    to 20% from run to run.
    """
    gc.collect()
    gc.freeze()


def pin(role: str) -> None:
    """Pin this process to one CPU: the client to the first, the server to
    the last.

    Placing the two ends of the wire the same way every run keeps the
    cross-CPU wake-up cost of a round trip from changing between runs.
    With one CPU there is nothing to choose.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[0] if role == "client" else cpus[-1]})


# ----------------------------------------------------------------------
# Accounting from /proc
# ----------------------------------------------------------------------
def proc_cpu_s(pid: int | str = "self") -> float:
    """utime+stime of every thread of ``pid`` plus its reaped children."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3): utime is stat field 14.
    return sum(int(x) for x in fields[11:15]) / _CLK_TCK


def thread_cpu_s(pid: int | str, tid: int) -> float:
    """utime+stime of one thread."""
    with open(f"/proc/{pid}/task/{tid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def descendants(pid: int | str = "self") -> list[int]:
    """Live descendant pids of ``pid`` (children of every thread, recursively)."""
    out: list[int] = []
    stack = [str(pid)]
    while stack:
        current = stack.pop()
        try:
            tids = os.listdir(f"/proc/{current}/task")
        except FileNotFoundError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as fh:
                    kids = fh.read().split()
            except FileNotFoundError:
                continue
            out.extend(int(k) for k in kids)
            stack.extend(kids)
    return out


def _status_kb(pid: int | str, key: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key):
                return int(line.split()[1])
    raise BenchError(f"/proc/{pid}/status has no {key}")


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of one process, in MiB."""
    return _status_kb(pid, "VmHWM:") / 1024


def tree_peak_rss_mb(pid: int | str = "self") -> float:
    """Sum of VmHWM over ``pid`` and its live descendants, in MiB."""
    total = peak_rss_mb(pid)
    for child in descendants(pid):
        try:
            total += peak_rss_mb(child)
        except FileNotFoundError:
            pass
    return total


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """``q``-th percentile with linear interpolation; ``inf`` propagates."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]):
        return ordered[high] if rank > low else ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def median(values) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: ``(id, name, start_ns, end_ns, parent, session)``.

    Disabled tracers record nothing; ``begin`` returns ``0`` and ``end``
    ignores it, so untraced code pays one attribute test per call.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[list] = []

    def begin(self, name: str, parent: int = 0, session=None) -> int:
        if not self.enabled:
            return 0
        self.spans.append([len(self.spans) + 1, name, time.perf_counter_ns(),
                           0, parent, session])
        return len(self.spans)

    def end(self, span_id: int) -> None:
        if span_id:
            self.spans[span_id - 1][3] = time.perf_counter_ns()

    def record(self, name: str, start_ns: int, end_ns: int, parent: int = 0,
               session=None) -> int:
        """Add an already-timed span."""
        if not self.enabled:
            return 0
        self.spans.append([len(self.spans) + 1, name, start_ns, end_ns,
                           parent, session])
        return len(self.spans)

    def write(self, label: str) -> Path | None:
        """Write the spans as JSON lines under ``.perfbench/``."""
        if not self.spans:
            return None
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{label}-{os.getpid()}.jsonl"
        keys = ("id", "name", "start_ns", "end_ns", "parent", "session")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
        return path

    def summary(self) -> dict:
        """Per span name: ``{count, total_s, self_s}``.

        A span's self time is its duration minus the union of its
        children's intervals clipped to it.
        """
        children: dict[int, list] = {}
        for span in self.spans:
            if span[4]:
                children.setdefault(span[4], []).append((span[2], span[3]))
        out: dict[str, dict] = {}
        for span_id, name, start, end, _, _ in self.spans:
            covered = 0
            cursor = start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - covered) / 1e9
        return out


def merge_summaries(*summaries: dict) -> dict:
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out


def layer_table(summary: dict, extra: dict) -> str:
    """The traced run's human-readable layer table."""
    lines = [f"{'span':<28}{'count':>9}{'total_s':>11}{'self_s':>11}{'self_us/op':>12}"]
    for name in sorted(summary):
        row = summary[name]
        per = row["self_s"] / row["count"] * 1e6 if row["count"] else 0.0
        lines.append(f"{name:<28}{row['count']:>9}{row['total_s']:>11.4f}"
                     f"{row['self_s']:>11.4f}{per:>12.2f}")
    lines.append("")
    for key in sorted(extra):
        lines.append(f"{key:<44}{extra[key]:>16.6g}")
    return "\n".join(lines)


def emit_line(payload: dict, stream=None) -> None:
    """One JSON object on one line, flushed (the child-to-parent protocol)."""
    stream = stream or sys.stdout
    stream.write(json.dumps(payload) + "\n")
    stream.flush()


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Child:
    """A benchmark child process speaking JSON lines on its stdout.

    ``launched`` is taken just before the fork, so the time to the first
    line includes interpreter start-up and imports.
    """

    def __init__(self, script: str, *args: str) -> None:
        cmd = [sys.executable, str(Path(__file__).with_name(script)), *args]
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=hermetic_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._buffer = b""

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read(self, timeout: float) -> dict:
        """The next JSON-object line; :class:`BenchError` on EOF or timeout."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            line, sep, rest = self._buffer.partition(b"\n")
            if sep:
                self._buffer = rest
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(payload, dict):
                    return payload
                continue
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"child {self.pid} sent nothing for {timeout:g}s")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise BenchError(
                        f"child {self.pid} exited (code {self.proc.wait()})"
                    )
                self._buffer += chunk

    def send(self, command: str) -> None:
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()

    def ask(self, command: str, timeout: float = 30.0) -> dict:
        self.send(command)
        return self.read(timeout)

    def wait(self, timeout: float) -> int:
        """Wait for exit; kill past ``timeout``.  Returns the exit code."""
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()
        finally:
            for stream in (self.proc.stdin, self.proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.wait(10.0)


def time_to_ready(script: str, *args: str, timeout: float = 120.0) -> tuple:
    """Launch ``script``; return ``(child, seconds to its first line, line)``."""
    child = Child(script, *args)
    try:
        line = child.read(timeout)
    except BaseException:
        child.kill()
        raise
    return child, time.perf_counter() - child.launched, line
