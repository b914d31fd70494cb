"""README's ```python examples run as written and import exactly the
package's exported names, so the documented surface cannot drift."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import linsched

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the examples write their files here
    blocks = python_blocks()
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:  # later examples reuse names from earlier ones
        exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out
    assert "BoundReport(" in out
    assert "'identity_ok': True" in out
    assert "[1.  1.5]" in out
    assert "unsupported schema 'sinr-linsched/0', expected 'sinr-linsched/1'" in out
    assert (tmp_path / "inst.json").is_file() and (tmp_path / "sched.json").is_file()


def test_readme_imports_every_exported_name():
    imported = set()
    for block in python_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "linsched":
                imported |= {alias.name for alias in node.names}
    assert imported == set(linsched.__all__)
    assert all(hasattr(linsched, name) for name in linsched.__all__)
