"""Shared pieces of the benchmark: statistics, results, fingerprints."""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import statistics
import sys
import time
import zlib
from typing import Dict, Iterable, List, Optional, Sequence

import spec

#: Units a latency percentile needs: at least ten samples beyond p99.
MIN_UNITS = 1000
#: Latency figures are medians over windows of at least this many
#: units (twenty beyond each window's p99), and at most MAX_WINDOWS.
WINDOW_UNITS = 2000
MAX_WINDOWS = 9

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: A traced run alternates traced and untraced blocks of this many
#: units, so both halves see the same program state.
TRACE_BLOCK = 128

#: Seconds of wall time between two runs of the speed probe while units
#: are timed.
PROBE_EVERY_S = 0.1

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``samples``, ``q`` in [0, 100]."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = (q / 100) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- host speed ---------------------------------------------------------------
#
# The benchmark runs on shared hosts whose speed drifts by tens of
# percent within seconds (on a 2-core VM a fixed Python loop took 26 ms
# in one 5 s window and 48 ms in another).  Every time the benchmark
# reports is therefore normalised to a reference speed: a fixed probe
# (``probe_kernel``, benchmark code that never calls the program) runs
# between the units being timed, and each unit's seconds are scaled by
# ``PROBE_REF_S / probe seconds nearby``.  A change to the program moves
# the normalised figures; a change in host speed moves the probe too and
# cancels out.  The raw figures are printed next to them.

#: The probe's seconds on the reference machine (a 2-core x86-64 VM,
#: CPython 3.11): normalised times are in its microseconds.
PROBE_REF_S = 0.005
PROBE_ROUNDS = 6000
#: The signal that asks the daemon under test to run the probe.
PROBE_SIGNAL = signal.SIGWINCH

#: The probe's keys and a table of them the size of a small index, read
#: at random: the probe meets the cache misses the program's
#: dictionaries and trees meet, so a host whose caches or memory are
#: contended slows both alike.  Built on first use, outside any timing.
_PROBE_DATA: List[object] = []


def _probe_data():
    if not _PROBE_DATA:
        rng = random.Random(5)
        keys = [rng.getrandbits(40) for _ in range(1 << 16)]
        _PROBE_DATA[:] = [keys, {key: key & 0xFFFF for key in keys}]
    return _PROBE_DATA


def probe_kernel(rounds: int = PROBE_ROUNDS) -> int:
    """The speed probe's fixed work: hashed lookups, integer arithmetic,
    small allocations and a sort, as in the program's inner loops.  It
    allocates one container only, so it never sets off a collection
    whose cost would depend on the program's heap."""
    keys, table = _probe_data()
    acc, value, out = 0, 0x9E3779B9, []
    for index in range(rounds):
        value = (value * 0x5DEECE66D + index) & 0xFFFFFFFFFFFF
        key = keys[value & 0xFFFF]
        acc += table[key] ^ (key >> 7)
        if index & 7 == 0:
            out.append(key ^ acc)
    out.sort()
    return acc


def probe() -> float:
    """Seconds of one run of :func:`probe_kernel`."""
    _probe_data()
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        probe_kernel()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


class SpeedTrack:
    """Probe runs taken between timed units, and the normalisation they
    give.

    ``mark(boundary)`` runs the probe before unit ``boundary``; the
    probes are smoothed (median of nine neighbours, about a second when
    probing every :data:`PROBE_EVERY_S`) and each unit between two
    probes is scaled by their mean.
    """

    def __init__(self) -> None:
        self.marks: List[int] = []
        self.seconds: List[float] = []

    def mark(self, boundary: int, seconds: Optional[float] = None) -> None:
        """Record a probe before unit ``boundary``: ``seconds`` if given
        (a probe run elsewhere), else a probe run here and now."""
        self.marks.append(boundary)
        self.seconds.append(probe() if seconds is None else seconds)

    def factors(self, count: int) -> List[float]:
        """Per-unit scale factors for units ``0 .. count - 1``."""
        smooth = [statistics.median(self.seconds[max(0, k - 4):k + 5])
                  for k in range(len(self.seconds))]
        out: List[float] = []
        for k, start in enumerate(self.marks):
            end = self.marks[k + 1] if k + 1 < len(self.marks) else count
            after = smooth[min(k + 1, len(smooth) - 1)]
            out += [PROBE_REF_S / ((smooth[k] + after) / 2)] * (end - start)
        return out[:count]

    def normalise(self, times: Sequence[float]) -> List[float]:
        return [t * f for t, f in zip(times, self.factors(len(times)))]

    def median_s(self) -> float:
        return statistics.median(self.seconds)


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB, from /proc."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def ops_fingerprint(lines: Iterable[str]) -> Dict[str, int]:
    """Count and CRC-32 of an input, given as canonical text lines."""
    crc, count = 0, 0
    for line in lines:
        crc = zlib.crc32(line.encode("utf-8") + b"\n", crc)
        count += 1
    return {"count": count, "crc32": crc}


def hash_seed(seed: int) -> int:
    """The PYTHONHASHSEED every process of a run gets, from its seed."""
    return zlib.crc32(f"perfbench:{seed}".encode()) % 4294967295 + 1


class Result:
    """What one run measured and checked."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: List[tuple] = []
        self.notes: Dict[str, object] = {}
        self.table: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one output check; a failed check counts as a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append((name, bool(ok), detail))
        return ok

    def latency(self, times: Sequence[float], wall: float,
                closed_loop: bool = True, window: int = WINDOW_UNITS,
                raw: Optional[Sequence[float]] = None) -> None:
        """Fill the unit-latency metrics from per-unit seconds,
        normalised to the reference speed (``raw``: as measured).

        The units are cut into consecutive windows of at least
        ``window`` units (at most :data:`MAX_WINDOWS` of them) and each
        figure is the median over windows, so a burst of slowness on a
        shared host moves one window, not the run's figure.  In a
        closed loop the rate is units over their summed time; in an
        open loop it is units over ``wall``.
        """
        count = max(1, min(MAX_WINDOWS, len(times) // window))

        def windows(values):
            return [values[len(values) * k // count:
                           len(values) * (k + 1) // count]
                    for k in range(count)]

        def p50(values):
            return statistics.median(
                percentile(part, 50) for part in windows(values)) * 1e6

        self.metrics["p50_us"] = p50(times)
        self.metrics["p99_us"] = statistics.median(
            percentile(part, 99) for part in windows(times)) * 1e6
        self.metrics["ops_per_s"] = (
            statistics.median(len(part) / sum(part)
                              for part in windows(times))
            if closed_loop else len(times) / wall)
        self.notes["units"] = f"{len(times)} in {count} windows"
        if raw is not None:
            self.notes["raw_p50_us"] = f"{p50(raw):.1f} as measured"

    def emit(self, trace: bool, out=sys.stdout) -> bool:
        """Print the report and, last, the one-line JSON result."""
        names = spec.LAYER_UNITS if trace else spec.E2E_UNITS
        print(f"== {self.workload} ({'traced' if trace else 'untraced'})",
              file=out)
        for key, value in sorted(self.notes.items()):
            print(f"  note {key}: {value}", file=out)
        for name, ok, detail in self.checks:
            print(f"  check {name}: {'ok' if ok else 'FAILED'} {detail}",
                  file=out)
        for line in self.table:
            print(line, file=out)
        values = self.layers if trace else self.metrics
        metrics = {}
        for name, unit in names.items():
            value = float(values.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<36} {value:>14.4f} {unit}", file=out)
        fail_ratio = self.failed / self.attempted if self.attempted else 1.0
        print(f"  {'fail_ratio':<36} {fail_ratio:>14.4f} ratio", file=out)
        correct = self.failed == 0 and self.attempted > 0
        print(json.dumps({"correct": correct,
                          "attempted": max(1, self.attempted),
                          "failed": self.failed if self.attempted else 1,
                          "metrics": metrics}), file=out)
        out.flush()
        return correct
