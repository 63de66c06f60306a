"""ringlp benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload scan|trials|cli --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.

Every workload is a closed loop with one client: the next job starts when
the previous one returns. Jobs come in passes of a fixed mix (see each
workload module); the loop runs whole passes until ``--seconds`` have gone
by and at least ``MIN_JOBS`` jobs have run, so every run measures the same
mix whatever its speed. Job outputs are checked after the timed loop.

With ``--trace 0`` the last line of stdout is the end-to-end result:

* ``setup_s``      median over ``SETUP_SAMPLES`` fresh interpreters of the
                   time until the first pass is built (import ringlp, parse
                   fixtures and generated programs, build the job list);
* ``items_per_s``  work items per second of job time: grid points on scan,
                   sampled trials on trials, commands on cli;
* ``job_p50_ms``, ``job_p90_ms``  job latency percentiles;
* ``peak_rss_mb``  peak RSS of the process running the jobs (on cli, of the
                   largest ``python -m ringlp`` child, from ``os.wait4``).

Job and set-up times are scaled to a reference machine speed by
``speed.py``; the unscaled values go to the stderr summary, with the RSS
the harness had reached before the first job (``harness_rss_mb``).

With ``--trace 1`` the first pass is run once untraced and once under the
tracer of ``tracer.py``, and the last line holds the per-layer metrics.
A human-readable summary goes to stderr, including the error rate (failed
jobs over attempted jobs) and the names ``points_per_s``, ``trials_per_s``
and ``cmds_per_s`` for the throughput of each workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_JOBS = 150
SETUP_SAMPLES = 9
PROBE_SAMPLES = 7
THROUGHPUT_NAMES = {"scan": "points_per_s", "trials": "trials_per_s", "cli": "cmds_per_s"}


def _require_source() -> None:
    if not (ROOT / "src" / "ringlp" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        sys.exit(f"run.py: no ringlp sources under {ROOT}; run it from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


_require_source()

import ringlp  # noqa: E402

if Path(ringlp.__file__).resolve().parent != ROOT / "src" / "ringlp":
    sys.exit(f"run.py: imported ringlp from {ringlp.__file__}, not from {ROOT / 'src'}")

from cli_jobs import CliWorkload, child_env  # noqa: E402
from jobs import Job, digest  # noqa: E402
from scan import ScanWorkload  # noqa: E402
from speed import PROCESS_REFERENCE_S, SpeedTrack, process_probe  # noqa: E402
from tracer import PHASE_JOB, Tracer  # noqa: E402
from trials import TrialsWorkload  # noqa: E402

WORKLOADS = {"scan": ScanWorkload, "trials": TrialsWorkload, "cli": CliWorkload}


@dataclass
class Record:
    job: Job
    result: object  # the job's output, or the exception it raised
    start: float  # perf_counter at the call
    seconds: float  # wall time of the call


def run_jobs(jobs, tracer=None, track: SpeedTrack | None = None) -> list[Record]:
    """Run jobs back to back, timing each call."""
    out = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        if track is not None:
            track.tick()
        start = time.perf_counter()
        try:
            result = job.call()
        except Exception as exc:  # a raising job is a failed job, not a crash
            result = exc
        out.append(Record(job, result, start, time.perf_counter() - start))
    return out


def failures(records: list[Record]) -> dict[int, str]:
    """What went wrong, by job index: a raised exception or a failed check."""
    out = {}
    for index, rec in enumerate(records):
        if isinstance(rec.result, Exception):
            problems = [f"raised {type(rec.result).__name__}: {rec.result}"]
        else:
            problems = rec.job.check(rec.result)
        if problems:
            out[index] = f"{rec.job.label}: {'; '.join(problems)}"
    return out


def child_median(argv: list[str], samples: int) -> float:
    """Median wall time of a short child process, in seconds."""
    env = child_env()
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_seconds(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """(scaled, raw) median time from spawning a fresh interpreter to its first pass being built.

    ``time.perf_counter`` reads the system-wide monotonic clock, so the
    child's ready time and the parent's spawn time are comparable. Set-up
    is mostly interpreter start and imports, so each sample is scaled by a
    process probe taken right after it, as cli job times are.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    if tiny:
        argv.append("--tiny")
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        ready = subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
        raw.append(float(ready.split()[-1]) - start)
        scaled.append(raw[-1] * PROCESS_REFERENCE_S / process_probe())
    return statistics.median(scaled), statistics.median(raw)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """The untraced run: end-to-end metrics, timings scaled to reference speed."""
    wl = WORKLOADS[workload](seed, tiny)
    track = SpeedTrack(in_process=workload != "cli")
    records: list[Record] = []
    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    pass_index = 0
    while True:
        records += run_jobs(wl.pass_jobs(pass_index), track=track)
        pass_index += 1
        if time.perf_counter() - start >= seconds and len(records) >= (1 if tiny else MIN_JOBS):
            break
    if workload == "cli":
        peak_rss_mb = wl.peak_child_rss_kb / 1024
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s, raw_setup_s = setup_seconds(workload, seed, tiny)
    failed = failures(records)
    items = sum(rec.job.items for rec in records)
    raw = [rec.seconds for rec in records]
    latencies = [rec.seconds * track.speed(rec.start, rec.start + rec.seconds) for rec in records]
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items / sum(latencies), "items/s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    summary = {
        THROUGHPUT_NAMES[workload]: items / sum(latencies),
        "error_rate": len(failed) / len(records),
        "jobs": len(records),
        "passes": pass_index,
        "speed": track.speed(),
        "harness_rss_mb": harness_rss_mb,
        "raw_setup_s": raw_setup_s,
        "raw_items_per_s": items / sum(raw),
        "raw_job_p50_ms": statistics.median(raw) * 1e3,
        "raw_job_p90_ms": percentile(raw, 90) * 1e3,
    }
    return result(records, failed, metrics, summary)


def measure_traced(workload: str, seed: int, tiny: bool = False, spans_dir: Path | None = None) -> dict:
    """The traced run: per-layer metrics over the first pass, timings as measured."""
    import ringlp.cli  # noqa: F401  (imported before tracing so its names get wrapped)

    plain = run_jobs(WORKLOADS[workload](seed, tiny).trace_jobs())
    tracer = Tracer()
    tracer.install()
    try:
        jobs = WORKLOADS[workload](seed, tiny).trace_jobs()
        tracer.phase = PHASE_JOB
        traced = run_jobs(jobs, tracer)
    finally:
        tracer.uninstall()
    failed = failures(traced)
    for index, (want, got) in enumerate(zip(plain, traced)):
        if digest(want.result) != digest(got.result):
            failed.setdefault(index, f"{want.job.label}: traced output differs from the untraced run")
    interp = child_median([sys.executable, "-c", "pass"], PROBE_SAMPLES)
    imported = child_median([sys.executable, "-c", "import ringlp"], PROBE_SAMPLES)
    metrics = {name: (value, unit_of(name)) for name, value in tracer.layer_metrics().items()}
    metrics["cli.interp_ms"] = (interp * 1e3, "ms")
    metrics["cli.import_ms"] = ((imported - interp) * 1e3, "ms")
    main_ms = statistics.median(rec.seconds for rec in plain) * 1e3 if workload == "cli" else 0.0
    metrics["cli.main_ms"] = (main_ms, "ms")
    overhead = sum(rec.seconds for rec in traced) / sum(rec.seconds for rec in plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    if spans_dir is not None:
        tracer.write(spans_dir / f"spans-{workload}")
    summary = {
        "error_rate": len(failed) / len(traced),
        "jobs": len(traced),
        "spans": len(tracer.span_name),
        "job_spans": tracer.job_span_counts(),
    }
    return result(traced, failed, metrics, summary)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def result(records, failed: dict, metrics: dict, summary: dict) -> dict:
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "summary": summary,
        "notes": list(failed.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, args.tiny)
        print(repr(time.perf_counter()))
        return 0
    if args.trace:
        out = measure_traced(args.workload, args.seed, args.tiny, HERE / "out")
    else:
        out = measure(args.workload, args.seed, args.seconds, args.tiny)
    for note in out["notes"][:20]:
        print(f"FAILED {note}", file=sys.stderr)
    shown = {k: v["value"] for k, v in out["metrics"].items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **out["summary"], **shown}), file=sys.stderr)
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
