"""The README's Python examples run and print what their comments say.

Every ```python block of README.md is executed with stdout captured.  A
`print` line's `# ...` comment gives the lines it prints; a print inside
a loop lists one line per iteration, separated by " / ".
"""
import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
BLOCKS = re.findall(r"```python\n(.*?)```", open(README, encoding="utf-8").read(), re.S)


def _commented_output(block: str) -> list:
    out = []
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if sep and "print(" in code:
            out += comment.strip().split(" / ")
    return out


def test_readme_python_blocks_print_their_comments():
    assert BLOCKS, "README.md has no ```python block"
    for block in BLOCKS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exec(compile(block, README, "exec"), {})
        assert buf.getvalue().splitlines() == _commented_output(block)
