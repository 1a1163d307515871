"""README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    # the first fenced Python block under "## Library example", executed
    # as is, so a change of the public API cannot leave it stale
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), f"{README}:Library example", "exec"), {})
