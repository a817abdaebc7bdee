"""Every python block of README.md runs as written, the library quick start
prints what its comments say, and the CLI block runs as written and writes
the same files when run again."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from ghznl import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
CLI_BLOCK = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", TEXT, re.M | re.S).group(1)


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


def test_cli_block_runs_twice_to_the_same_files(tmp_path, monkeypatch, capsys):
    """The four commands of the CLI block exit 0, and a second run leaves
    every output file byte-identical to the first run's."""
    commands = [shlex.split(line) for line in CLI_BLOCK.splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["ghznl", c] for c in ("generate", "certify", "graph", "oracle")
    ]
    monkeypatch.chdir(tmp_path)
    runs = []
    for _ in range(2):
        for argv in commands:
            assert cli.main(argv[1:]) == 0, argv
        capsys.readouterr()
        runs.append({p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()})
    assert len(runs[0]) == 1 + 1 + 3 + 3
    assert runs[1] == runs[0]
