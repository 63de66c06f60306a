"""Rewrite ``cli_goldens.json``: exit code and stdout sha256 of every cli command.

    python3 perfbench/record_goldens.py

Run it from the repository root only when a change is meant to alter CLI
output, and say in CHANGES.md which goldens changed and why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cli_jobs import GOLDENS, child_env, commands, fixture_programs, key, run_process  # noqa: E402


def main() -> int:
    env = child_env()
    goldens = {}
    for argv in commands(fixture_programs()):
        code, sha, _ = run_process(argv, env)
        goldens[key(argv)] = {"exit": code, "sha256": sha}
        print(code, " ".join(argv), file=sys.stderr)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
