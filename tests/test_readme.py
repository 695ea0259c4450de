"""The python examples in README.md run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def expected_output(block):
    """The line each ``print`` promises: the comment after it on its own
    line, or else the comment line right below it."""
    lines = block.splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        _, hash_, comment = line.partition("#")
        if not hash_:
            comment = lines[i + 1]
            assert comment.startswith("# "), f"no expected output for {line!r}"
        out.append(comment.removeprefix("# ").strip())
    return out


def test_readme_has_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example(index):
    block = BLOCKS[index]
    want = expected_output(block)
    assert want
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, f"README.md python block {index}", "exec"), {})
    assert out.getvalue().splitlines() == want
