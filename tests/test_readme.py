"""Every python block of README.md runs as written, and the library quick
start prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(
    r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
)


def run(block: str) -> list[str]:
    """The lines the block prints, run in a fresh namespace."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    return out.getvalue().splitlines()


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=range(len(BLOCKS)))
def test_block_runs(block):
    run(block)


def test_quick_start_prints_what_its_comments_say():
    (quick_start,) = [b for b in BLOCKS if 'build("c333")' in b]
    # StrongestNonlocal, theorem 1, and dimension 1 on every cut
    assert run(quick_start) == [
        "StrongestNonlocal",
        "1",
        "{'A': 1, 'B': 1, 'C': 1}",
    ]
