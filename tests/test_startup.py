"""Start-up cost of ``python -m ringlp``: what importing the CLI loads.

Every CLI command is a fresh process, so modules that ``import ringlp.cli``
pulls in are paid on every command. The check runs in a fresh interpreter,
because this test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Never loaded by the CLI: records are built without ``dataclasses`` (whose
# ``inspect`` chain is most of its cost), and box scans are sequential.
NOT_AT_STARTUP = ("dataclasses", "inspect", "concurrent.futures")
# Every layer module is imported eagerly: per-layer tracing looks each one
# up in ``sys.modules`` right after ``import ringlp.cli``.
LAYERS = ("rings", "linalg", "affine", "enumeration", "sampling", "progfile", "constructions")

_PROBE = """
import json, sys
import ringlp.cli
loaded = sorted(sys.modules)
from ringlp import BoxSpec, enumerate_dual, load_program
P = load_program("fixtures/edt_fail.prog")
enumerate_dual(P, BoxSpec(6))
print(json.dumps({"loaded": loaded, "pool": "concurrent.futures" in sys.modules}))
"""


def test_cli_import_loads_layers_but_not_dataclasses_or_the_pool():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    report = json.loads(out.stdout)
    loaded = set(report["loaded"])
    assert not loaded & set(NOT_AT_STARTUP)
    assert {f"ringlp.{layer}" for layer in LAYERS} <= loaded
    # a scan runs without a thread pool
    assert not report["pool"]
