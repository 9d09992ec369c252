"""The README's library example runs against the current API."""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def library_example() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README has no python block under 'Library example'"
    return match.group(1)


def test_library_example_runs(monkeypatch, capsys):
    code = library_example()
    assert "sweeps=250" in code
    monkeypatch.chdir(ROOT)  # the example reads its fixture by relative path
    namespace = {}
    exec(compile(code.replace("sweeps=250", "sweeps=10"), "README.md", "exec"), namespace)
    assert namespace["refined"].energy >= namespace["e0"] - 1e-9
    assert "oracle" in capsys.readouterr().out
