"""Time the ROADMAP item 1 baseline cases and write a result file.

    python3 perfbench/baseline.py [--out perfbench/results/BENCH_baseline.json]

Each case is timed a few times in this process (CLI cases as fresh
processes) and its median recorded with the ROADMAP figure beside it. The
speed probe's reading is recorded too, since the host's speed drifts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import ringlp  # noqa: E402
from ringlp import BoxSpec, RingId  # noqa: E402

from cli_jobs import child_env  # noqa: E402
from scan import oracle_side, read_plain  # noqa: E402
from speed import REFERENCE_S, probe  # noqa: E402

# name -> (ROADMAP seconds or None, what the ROADMAP says)
ROADMAP = {
    "enumerate_dual edt_fail box 200": (1.30, "1.30 s"),
    "enumerate_dual edt_fail box 200 workers=2": (1.29, "1.29 s"),
    "plain-int scan edt_fail box 200": (0.10, "0.10 s"),
    "classify_edt edt_fail_rat box 10 den 6": (3.4, "3.4 s"),
    "weak_duality_trials SKEW 1000": (6.1, "6.1 s"),
    "identity_trials gap_skew 500": (None, "listed as a case, no figure"),
    "python -c pass": (None, "no figure"),
    "import ringlp (fresh process, minus bare interpreter)": (0.069, "69 ms"),
}


# A case whose median is off the ROADMAP figure by more than this share is
# flagged; the host's own drift is about this large.
DIFFERS = 0.15
# Timings per library and demo case; the interpreter cases take 7.
REPEATS = 3


def timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def process(argv: list[str], repeats: int) -> float:
    env = child_env()
    return timed(lambda: subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL), repeats)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=HERE / "results" / "BENCH_baseline.json")
    args = parser.parse_args()
    n = REPEATS
    edt_fail = ringlp.load_program(ROOT / "fixtures" / "edt_fail.prog")
    edt_fail_rat = ringlp.load_program(ROOT / "fixtures" / "edt_fail_rat.prog")
    gap_skew = ringlp.load_program(ROOT / "fixtures" / "gap_skew.prog")
    plain = read_plain((ROOT / "fixtures" / "edt_fail.prog").read_text())
    speed_before = REFERENCE_S / statistics.median(probe() for _ in range(9))
    measured = {
        "enumerate_dual edt_fail box 200": timed(lambda: ringlp.enumerate_dual(edt_fail, BoxSpec(200)), n),
        "enumerate_dual edt_fail box 200 workers=2": timed(
            lambda: ringlp.enumerate_dual(edt_fail, BoxSpec(200), workers=2), n
        ),
        "plain-int scan edt_fail box 200": timed(lambda: oracle_side(plain, 200, None, False), n),
        "classify_edt edt_fail_rat box 10 den 6": timed(
            lambda: ringlp.classify_edt(edt_fail_rat, BoxSpec(10, 6)), n
        ),
        "weak_duality_trials SKEW 1000": timed(lambda: ringlp.weak_duality_trials(RingId.SKEW, 1000, 0), n),
        "identity_trials gap_skew 500": timed(lambda: ringlp.identity_trials(gap_skew, 500, 1), n),
    }
    bare = process([sys.executable, "-c", "pass"], 7)
    measured["python -c pass"] = bare
    measured["import ringlp (fresh process, minus bare interpreter)"] = (
        process([sys.executable, "-c", "import ringlp"], 7) - bare
    )
    demos = {}
    for name in ("strong-duality-gap", "edt-infeasible-optimal", "edt-infeasible-optimal-transposed",
                 "primal-no-optimum", "dual-no-optimum", "noncommutative-gap", "center-betweenness"):
        demos[name] = process([sys.executable, "-m", "ringlp", "demo", name, "--json"], n)
    speed_after = REFERENCE_S / statistics.median(probe() for _ in range(9))
    cases = {}
    for name, seconds in measured.items():
        roadmap, text = ROADMAP[name]
        case = {"seconds": seconds, "roadmap": text}
        if roadmap is not None:
            case["vs_roadmap"] = seconds / roadmap
            case["differs_from_roadmap"] = abs(seconds / roadmap - 1) > DIFFERS
        cases[name] = case
    out = {
        "what": "ROADMAP item 1 baseline cases, medians of repeated runs",
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "speed_probe_before": speed_before,
            "speed_probe_after": speed_after,
        },
        "repeats": n,
        "cases": cases,
        "demos_seconds": demos,
        "demos_roadmap": "0.16-0.28 s",
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
