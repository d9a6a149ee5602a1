"""The README's library example prints what it says it prints.

The fenced ``python`` block under "## Library example" ends with its
expected output as ``# ...`` comment lines; the block is run as it stands
and its stdout compared with those lines.
"""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_its_comment_lines(capsys):
    block = library_example()
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert expected
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
