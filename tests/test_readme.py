"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```$", text, re.M | re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("0.8646") and lines[-1] == "True"
