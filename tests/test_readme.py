"""The README's Python examples run as written and print what they say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# a fenced ```python block, and a print(...) line that ends in "# expected output"
_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.S | re.M)
_EXPECTED = re.compile(r"^print\(.*\)\s+# (.+)$")


def test_readme_python_blocks_run_and_print_their_comments():
    # the blocks run in order in one namespace, as a reader pastes them into one session
    blocks = _BLOCK.findall(README.read_text())
    assert len(blocks) == 3
    namespace = {"__name__": "readme"}
    checked = []
    for i, block in enumerate(blocks):
        expected = [m.group(1).strip() for m in map(_EXPECTED.match, block.splitlines()) if m]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, f"README.md python block {i}", "exec"), namespace)
        assert out.getvalue().splitlines() == expected, i
        checked += expected
    assert checked == ["(4096, 273, 20, 18)", "[17, -15]"]
