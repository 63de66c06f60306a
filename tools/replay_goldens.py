"""Replay the CLI goldens under each Python interpreter given.

Usage: python tools/replay_goldens.py PYTHON [PYTHON ...]

Runs each ``perfbench/cli_goldens.json`` command as ``PYTHON -m ringlp
ARGS --json`` with ``PYTHONPATH=src`` from the repository root, compares
its exit code and stdout sha256 with the recorded ones and reports each
mismatch by command. It then runs ``PROBE``: for n in -50..50 and d in
1..50, ``rings.reduced(n, d)`` must match ``Fraction(n, d)`` in type,
``==``, ``hash``, ``str``, numerator and denominator, and so must its sum
with ``reduced(1, d + 1)``. The seeded streams are replayed by the goldens
of the ``axioms`` and ``identities`` commands. An interpreter that cannot
be found is skipped, not passed: the exit code is 0 only when every
interpreter given ran every command to its golden and passed the probe.
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
PROBE = """
from fractions import Fraction
from ringlp.rings import reduced
def key(q):
    return type(q), q, hash(q), str(q), q.numerator, q.denominator
for n in range(-50, 51):
    for d in range(1, 51):
        r, f = reduced(n, d), Fraction(n, d)
        for got, want in ((r, f), (r + reduced(1, d + 1), f + Fraction(1, d + 1))):
            if key(got) != key(want):
                raise SystemExit(f"n={n} d={d}: {key(got)} != {key(want)}")
"""


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
        matched = f"{len(GOLDENS) - len(mismatches)}/{len(GOLDENS)} commands match"
        probe = _run(path, ["-c", PROBE])
        if probe.returncode:
            mismatches.append(f"  reduced probe: {probe.stderr.decode().strip().splitlines()[-1]}")
        status = "FAIL" if mismatches else "PASS"
        probed = "reduced probe " + ("failed" if probe.returncode else "matches")
        print(f"{status} {python} ({version.stdout.decode().strip()}): {matched}, {probed}", *mismatches, sep="\n")
        ok = ok and not mismatches
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]) if sys.argv[1:] else __doc__)
