"""``tools/output_digest.py --against FILE``: the comparison with a saved
listing, matched by label."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def digest_tool():
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(label, value):
    return f"{label:40s} {value}"


SAVED = [line("criterion7.csv", "aa"), line("stats seed 1", "bb"),
         line("polytope seed 1", "cc")]


def test_equal_listings_match(digest_tool, capsys):
    assert digest_tool.compare(SAVED + [""], list(SAVED)) == 0
    assert capsys.readouterr().out == "all 3 lines match\n"


def test_every_difference_is_printed_and_counted(digest_tool, capsys):
    now = [SAVED[0], line("stats seed 1", "b0"), line("certified seed 1", "dd")]
    assert digest_tool.compare(SAVED, now) == 3
    assert capsys.readouterr().out.splitlines() == [
        f"- {SAVED[1]}", f"+ {now[1]}",  # changed
        f"+ {now[2]}",  # new
        f"- {SAVED[2]}",  # gone
        "3 of 4 lines differ"]


def test_against_exits_1_on_a_difference(digest_tool, monkeypatch, tmp_path):
    saved = tmp_path / "saved.txt"
    saved.write_text("\n".join(SAVED) + "\n")
    monkeypatch.setattr(digest_tool, "lines", lambda: iter(SAVED))
    assert digest_tool.main(["--against", str(saved)]) == 0
    monkeypatch.setattr(digest_tool, "lines", lambda: iter(SAVED[:2]))
    assert digest_tool.main(["--against", str(saved)]) == 1
