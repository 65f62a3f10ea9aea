"""Shared plumbing for the tiltwall benchmark: locating and (re)importing the
package from the checkout, the pinned environment, statistics, the host-drift
loop and the per-op timeout.

Everything here is standard library; the benchmark treats tiltwall as a black
box and reaches it only through module attributes, so the traced mode can
wrap them (see tracing.py).
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_DIR = BENCH_DIR / "expected"
WORK_DIR = ROOT / ".bench_work"

# Tiltwall modules the workloads and the tracer reach into.
MODULES = (
    "exactnum", "geometry", "chern", "stability", "inequalities",
    "walls", "support", "parallel", "selftest", "cli",
)

# Removed from every workload's environment: it selects the thread pool, and
# the trace keeps one span stack per process.
DROPPED_ENV = ("TILTWALL_THREADS",)

# Longest a single op may run before it counts as a timeout failure.
OP_TIMEOUT_S = 60


class ProgramMissing(RuntimeError):
    """The checkout holds no tiltwall sources to benchmark."""


class Modules:
    """The tiltwall submodules of one import, as attributes (tw.walls, ...).

    A submodule that this version of tiltwall does not have is None.
    """

    def __init__(self):
        for name in MODULES:
            try:
                module = importlib.import_module(f"tiltwall.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"tiltwall.{name}":
                    raise
                module = None
            setattr(self, name, module)


def pin_environment() -> None:
    for key in DROPPED_ENV:
        os.environ.pop(key, None)


def child_env() -> dict:
    """Environment for CLI subprocesses: ours, pinned, with PYTHONPATH=src."""
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = "src"
    return env


def import_tiltwall() -> Modules:
    """Import tiltwall from the checkout, discarding any copy loaded before."""
    if not (SRC / "tiltwall" / "__init__.py").is_file():
        raise ProgramMissing(f"no tiltwall package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "tiltwall" or m.startswith("tiltwall.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return Modules()


def clean_work_dir() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)


def load_expected(workload: str) -> dict:
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def canon(x) -> str:
    """Canonical text of an exact value, for digests of program output."""
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "T" if x else "F"
    if isinstance(x, (int, Fraction, str)):
        return str(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    if hasattr(x, "as_tuple"):
        return type(x).__name__ + canon(x.as_tuple())
    if hasattr(x, "__dataclass_fields__"):
        return type(x).__name__ + canon(
            tuple(getattr(x, f) for f in x.__dataclass_fields__)
        )
    return str(x)


# ------------------------------------------------------------------ timing


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


@contextmanager
def op_deadline(seconds: float = OP_TIMEOUT_S):
    """Raise OpTimeout in the main thread if the body runs past `seconds`."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def fraction_loop_ms(iterations: int = 6000) -> float:
    """Fixed exact-arithmetic loop; its drift shows how busy the host is.

    The collector is off while it runs, so the program's live objects do not
    change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, iterations + 1):
            acc += Fraction(i % 97 - 48, i % 13 + 1) * Fraction(1, i % 7 + 2)
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if acc.denominator == 0:  # pragma: no cover - keeps acc live
        raise AssertionError
    return elapsed * 1000


class HostClock:
    """Times at a reference host speed.

    Other tenants of a shared host slow every instruction for seconds to
    minutes at a time, by up to 2x, so raw times of the same code move by
    more than any bound between runs. A short fixed probe loop runs between
    timed steps, and each step's time is scaled by REFERENCE_PROBE_MS over
    the mean of the probes on either side of it. The probe is
    standard-library code only, so a change to tiltwall moves the steps and
    not the probes.
    """

    PROBE_ITERATIONS = 1000
    # The probe's time on an idle host (Python 3.11, 2-vCPU VM). It only sets
    # the scale of the reported times.
    REFERENCE_PROBE_MS = 3.7

    def __init__(self):
        self.probes: list[float] = []
        self.last = self.probe()

    def probe(self) -> float:
        ms = fraction_loop_ms(self.PROBE_ITERATIONS)
        self.probes.append(ms)
        return ms

    def scale(self, seconds: float) -> float:
        """`seconds` just measured, at reference speed; probes again."""
        before, self.last = self.last, self.probe()
        return seconds * self.REFERENCE_PROBE_MS * 2 / (before + self.last)


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks, p in [0, 100]."""
    n = len(sorted_values)
    pos = (n - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "dropped_env": list(DROPPED_ENV),
        "child_pythonpath": "src",
        "launcher": [sys.executable, "-c", "from tiltwall.cli import main; main()"],
    }
