"""A machine-speed probe, for timings that do not drift with the host.

The benchmark's virtual machine shares its host, and its CPU switches
between two speeds about 1.9 times apart, often several times a second.
The probe is a fixed miniature box scan in the style of ringlp's own code
(frozen-dataclass elements over ``Fraction`` and ``int``, dispatch
functions, tuples), written here so that no change to the library can
change it. A job's time is multiplied by the reference probe time over the
probe times around it, which reports it in seconds of a machine running at
the reference speed. The unscaled values are printed alongside.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Probe times on the machine the benchmark was defined on (2 vCPUs,
# CPython 3.11.7), in a quiet period.
REFERENCE_S = 0.0125  # probe(): a 13 x 13 grid
JOB_REFERENCE_S = 0.00367  # job_probe(): a 7 x 7 grid
PROCESS_REFERENCE_S = 0.13  # process_probe()


@dataclass(frozen=True)
class _Element:
    tag: str
    value: object


@dataclass(frozen=True)
class _Vector:
    tag: str
    entries: tuple


def _add(a: _Element, b: _Element) -> _Element:
    if a.tag != b.tag:
        raise ValueError("mixed tags")
    return _Element(a.tag, a.value + b.value)


def _mul(a: _Element, b: _Element) -> _Element:
    if a.tag != b.tag:
        raise ValueError("mixed tags")
    return _Element(a.tag, a.value * b.value)


def _sign(a: _Element) -> int:
    n = a.value.numerator if a.tag == "q" else a.value
    return (n > 0) - (n < 0)


def _work(side: int = 13) -> int:
    """Count the points of a side x side grid with y A - c >= 0, twice."""
    found = 0
    for tag, values in (("q", [Fraction(k, 3) for k in range(side)]), ("i", list(range(side)))):
        A = [[_Element(tag, 2), _Element(tag, -1)], [_Element(tag, -1), _Element(tag, 3)]]
        minus_c = _Element(tag, -1)
        grid = [_Element(tag, v) for v in values]
        for y0 in grid:
            for y1 in grid:
                y = _Vector(tag, (y0, y1))
                slack = []
                for i in range(2):
                    acc = _Element(tag, 0)
                    for j in range(2):
                        acc = _add(acc, _mul(y.entries[j], A[j][i]))
                    slack.append(_add(acc, minus_c))
                found += all(_sign(s) >= 0 for s in slack)
    return found


def probe() -> float:
    """Seconds taken by the fixed work, once."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def job_probe() -> float:
    """Seconds taken by a smaller fixed work, short enough to run before every job."""
    start = time.perf_counter()
    _work(7)
    return time.perf_counter() - start


def process_probe() -> float:
    """Seconds for a fresh interpreter to import what ringlp's CLI imports and run the work.

    A CLI command is mostly interpreter start and imports, which follow the
    host's speed differently from computation, so the cli workload is
    scaled by this probe instead.
    """
    code = (
        "import argparse, dataclasses, enum, fractions, json, re, typing, sys; "
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); import speed; speed._work()"
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


class SpeedTrack:
    """Probes taken between jobs, and each job's speed from those around it.

    In-process workloads run ``job_probe`` before every job; the cli
    workload, whose jobs are whole processes, runs ``process_probe`` at
    most every second. A job is scaled by the mean probe time within
    ``window`` seconds, or within its own length if longer, of either end:
    a short job by the probes just before and after it, since most jobs are
    shorter than one spell of either CPU speed, and a long one by the mix
    of speeds around it. The mean, not the median, because a job's time is
    the sum of its spells at each speed.
    """

    def __init__(self, in_process: bool = True):
        if in_process:
            self.probe, self.reference, self.every, self.window = job_probe, JOB_REFERENCE_S, 0.0, 0.01
        else:
            self.probe, self.reference, self.every, self.window = process_probe, PROCESS_REFERENCE_S, 1.0, 2.0
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds) of each probe
        self.last = 0.0
        self.tick()

    def tick(self) -> None:
        if time.perf_counter() - self.last >= self.every:
            start = time.perf_counter()
            seconds = self.probe()
            self.samples.append((start + seconds / 2, seconds))
            self.last = time.perf_counter()

    def speed(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Speed relative to the reference machine around [start, end]; by default, over the run."""
        window = max(self.window, end - start)
        near = [seconds for mid, seconds in self.samples if start - window <= mid <= end + window]
        return self.reference / statistics.fmean(near or [seconds for _, seconds in self.samples])
