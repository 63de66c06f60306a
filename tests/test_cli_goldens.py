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


def _leaves(value, key=None, listed=False):
    """(nearest object key, text, whether it sits in a list) per scalar leaf."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, k)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, key, True)
    else:
        yield key, value if isinstance(value, str) else json.dumps(value), listed


def _keyed_lines(out):
    """(key, the line's text after the key, the texts of the lines indented
    under it) per key line of a text report; a ``- `` opens a list item."""
    lines = out.splitlines()
    texts = [line.lstrip().removeprefix("- ") for line in lines]
    depths = [len(line) - len(text) for line, text in zip(lines, texts)]
    for i, text in enumerate(texts):
        key, colon, value = text.partition(": ") if ": " in text else text.partition(":")
        if colon and key.isidentifier():
            end = next((j for j in range(i + 1, len(lines)) if depths[j] <= depths[i]), len(lines))
            yield key, value, texts[i + 1:end]


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_text_report_restates_the_json_report(key, capsys, monkeypatch):
    """Without ``--json`` a command exits as with it, ends no line in
    whitespace and prints every scalar of its JSON report under its key: a
    field's as its ``key: value`` line, a list item's as an item line or a
    word of one (a vector), and a text of several lines line by line."""
    monkeypatch.chdir(ROOT)
    argv = json.loads(key)
    code = main([*argv, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out.endswith("\n") and all(line == line.rstrip() for line in out.splitlines())
    keyed = list(_keyed_lines(out))
    for field, text, listed in _leaves(report):
        under = [(value, block) for k, value, block in keyed if k == field]
        if "\n" in text:
            assert any(value == "" and block == text.splitlines() for value, block in under), field
        elif listed:
            assert any(
                text in block or text in value.split() or any(text in line.split() for line in block)
                for value, block in under
            ), (field, text)
        else:
            assert any(value == text for value, _ in under), (field, text)
