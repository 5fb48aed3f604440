"""README.md's ```python blocks run as written.

The blocks are run in order, in one namespace, so a later block may use the
names an earlier one defined.  Each block is compiled at its own README line
numbers, so a traceback points into README.md.  A failure here means the
README documents an API the package no longer has.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order():
    text = README.read_text()
    blocks = list(BLOCK.finditer(text))
    assert blocks, "README.md has no python blocks"
    namespace = {"__name__": "readme"}
    for block in blocks:
        first_line = text.count("\n", 0, block.start(1))
        exec(compile("\n" * first_line + block.group(1), str(README), "exec"), namespace)
