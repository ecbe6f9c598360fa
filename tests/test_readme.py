"""Every ```python block of the README runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = [(TEXT[:m.start()].count("\n") + 2, m[1])      # (line of the first statement, code)
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]


def test_the_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, code", BLOCKS,
                         ids=[f"block_{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs(line, code):
    exec(compile(code, f"{README}:{line}", "exec"), {})
