"""``tools/source_lines.py``: every line of the package gets one kind."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def lines_tool():
    spec = importlib.util.spec_from_file_location("source_lines",
                                                  ROOT / "tools" / "source_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kinds_add_up_to_the_line_count(lines_tool):
    files = sorted((ROOT / "src" / "dist_alm").glob("*.py"))
    assert files
    for path in files:
        counts = lines_tool.count(path)
        assert sum(counts.values()) == path.read_bytes().count(b"\n"), path.name


FIXTURE = '''"""Module docstring,

over three lines."""

import math  # a trailing comment keeps the line code

# a comment line


def f(x):
    """One line."""
    text = """a string
inside code"""
    "a lone string" "made of two"
    return math.sqrt(x)  \\
        + len(text)
'''


def test_fixture_lines_are_classified(lines_tool):
    assert lines_tool.classify(FIXTURE) == [
        "docstring", "docstring", "docstring", "blank",
        "code", "blank",
        "comment", "blank", "blank",
        "code", "docstring",
        "code", "code",
        "docstring",
        "code", "code"]


def test_prints_one_row_per_file_and_the_total(lines_tool, tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# c\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""d"""\n', encoding="utf-8")
    assert lines_tool.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["file", "lines", "code", "docstring", "comment", "blank"],
                    ["a.py", "3", "1", "0", "1", "1"],
                    ["b.py", "1", "0", "1", "0", "0"],
                    ["total", "4", "1", "1", "1", "1"]]
