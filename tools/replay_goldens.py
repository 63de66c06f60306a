"""Replay the CLI goldens under each Python interpreter given.

Usage: python tools/replay_goldens.py PYTHON [PYTHON ...]

Runs each ``perfbench/cli_goldens.json`` command as ``PYTHON -m ringlp
ARGS --json`` with ``PYTHONPATH=src`` from the repository root, compares
its exit code and stdout sha256 with the recorded ones and reports each
mismatch by command. It runs each command without ``--json`` too: that
text form must exit with the golden's code, and its stdout sha256 must
match the one the first interpreter that ran gave. It then runs ``PROBE``: for n in -50..50 and d in
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


def replay(python: str, text_digests: dict) -> list:
    """The mismatching commands, each with the exit code and digest it gave.
    ``text_digests`` maps a command to its text form's stdout sha256; a
    command missing from it is recorded there from this run."""
    mismatches = []
    for key, want in sorted(GOLDENS.items()):
        run = _run(python, ["-m", "ringlp", *json.loads(key), "--json"])
        digest = hashlib.sha256(run.stdout).hexdigest()
        if (run.returncode, digest) != (want["exit"], want["sha256"]):
            mismatches.append(f"  {key}: exit {run.returncode}, sha256 {digest}")
        run = _run(python, ["-m", "ringlp", *json.loads(key)])
        digest = hashlib.sha256(run.stdout).hexdigest()
        if (run.returncode, digest) != (want["exit"], text_digests.setdefault(key, digest)):
            mismatches.append(f"  {key} (text): exit {run.returncode}, sha256 {digest}")
    return mismatches


def main(pythons: list) -> int:
    ok = True
    text_digests = {}
    for python in pythons:
        path = shutil.which(python)
        if path is None:
            print(f"SKIP {python}: no such interpreter")
            ok = False
            continue
        version = _run(path, ["-c", "import platform; print(platform.python_version())"])
        mismatches = replay(path, text_digests)
        matched = f"{2 * len(GOLDENS) - len(mismatches)}/{2 * len(GOLDENS)} runs match"
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
