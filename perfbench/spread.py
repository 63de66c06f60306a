"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload scan --seeds 1-10 [--json FILE]

Runs one seed at a time. For every metric it prints the median, the first
and third quartile (``statistics.quantiles(values, n=4)``) and the spread,
the quartile distance as a share of the median, next to the metric's bound
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", type=Path, help="also write the runs and the summary here")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        summary = json.loads(proc.stderr.strip().splitlines()[-1])
        runs.append({"seed": seed, **line, "summary": summary})
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} failed={line['failed']}"
              f" speed={summary['speed']:.3f}", file=sys.stderr)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        flag = "  ok" if spread < bound / 3 else "  WIDE"
        print(f"{name:28s} median {median:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.4f}"
              f"  bound {bound}{flag}")
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
