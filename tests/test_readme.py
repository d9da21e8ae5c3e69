"""The README's library example runs as written, so it cannot name an API
that is gone."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md (Library)", "exec"), namespace)
    assert len(namespace["zeros"]) == 29
