"""Replay the CLI goldens under each Python interpreter given.

Usage: python tools/replay_goldens.py PYTHON [PYTHON ...]

Runs each ``perfbench/cli_goldens.json`` command as ``PYTHON -m ringlp
ARGS --json`` with ``PYTHONPATH=src`` from the repository root, compares
its exit code and stdout sha256 with the recorded ones and reports each
mismatch by command. An interpreter that cannot be found is skipped, not
passed: the exit code is 0 only when every interpreter given ran every
command to its golden.
"""

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "perfbench" / "cli_goldens.json").read_text())
ENV = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}


def _run(python: str, argv: list) -> subprocess.CompletedProcess:
    run = [python, *argv]
    return subprocess.run(run, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL, capture_output=True)


def replay(python: str) -> list:
    """The mismatching commands, each with the exit code and digest it gave."""
    mismatches = []
    for key, want in sorted(GOLDENS.items()):
        run = _run(python, ["-m", "ringlp", *json.loads(key), "--json"])
        digest = hashlib.sha256(run.stdout).hexdigest()
        if (run.returncode, digest) != (want["exit"], want["sha256"]):
            mismatches.append(f"  {key}: exit {run.returncode}, sha256 {digest}")
    return mismatches


def main(pythons: list) -> int:
    ok = True
    for python in pythons:
        path = shutil.which(python)
        if path is None:
            print(f"SKIP {python}: no such interpreter")
            ok = False
            continue
        version = _run(path, ["-c", "import platform; print(platform.python_version())"])
        mismatches = replay(path)
        status = "FAIL" if mismatches else "PASS"
        matched = f"{len(GOLDENS) - len(mismatches)}/{len(GOLDENS)} commands match"
        print(f"{status} {python} ({version.stdout.decode().strip()}): {matched}", *mismatches, sep="\n")
        ok = ok and not mismatches
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]) if sys.argv[1:] else __doc__)
