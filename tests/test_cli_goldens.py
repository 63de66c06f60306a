"""Replay the recorded CLI goldens in-process.

``perfbench/cli_goldens.json`` maps each command (a JSON argv list, run
with ``--json`` from the repository root) to its exit code and the sha256
of its stdout. Every command must still produce exactly that output.
"""

import hashlib
import json
import pathlib

import pytest

from ringlp.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "perfbench" / "cli_goldens.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_cli_output_matches_golden(key, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main([*json.loads(key), "--json"])
    out = capsys.readouterr().out
    assert code == GOLDENS[key]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS[key]["sha256"]
