"""The documented imports: every name in ``archcheck.__all__`` resolves, and
the Python block under the README's "Library" heading runs."""
import re
from pathlib import Path

import archcheck

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_name_in_all_resolves():
    assert [name for name in archcheck.__all__ if not hasattr(archcheck, name)] == []


def test_readme_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
