"""The README's library example runs as written against the current API."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_the_readme_python_block_runs_from_the_repo_root(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "skew:1,1=1/2"
