"""``tools/ab_bench.py``: the summary of paired benchmark runs (the runs
themselves are not started here)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = [{"name": "solves_per_s", "better": "higher"},
            {"name": "solve_ms.p50", "better": "lower"},
            {"name": "setup_s", "better": "lower"}]


@pytest.fixture(scope="module")
def ab_tool():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_medians_quartiles_and_pairs_won_follow_each_direction(ab_tool):
    base = [{"solves_per_s": v, "solve_ms.p50": 10.0 + i, "setup_s": 1.0}
            for i, v in enumerate([100.0, 90.0, 110.0, 120.0, 80.0])]
    change = [{"solves_per_s": v, "solve_ms.p50": 9.0 + 2 * i, "setup_s": 1.0}
              for i, v in enumerate([120.0, 95.0, 105.0, 130.0, 100.0])]
    assert ab_tool.summarize(base, change, DECLARED) == [
        # base 80, 90, 100, 110, 120: quartiles 90 and 110; won 4 of 5 (not pair 2)
        "solves_per_s  100 [90-110] -> 105  (4/5, +5.0%)",
        # lower is better: 9 < 10 wins, 11 = 11 ties, the other three lose
        "solve_ms.p50  12 [11-13] -> 13  (1/5, +8.3%)",
        # equal runs win no pair
        "setup_s       1 [1-1] -> 1  (0/5, +0.0%)"]


def test_one_pair_and_an_unreported_metric(ab_tool):
    lines = ab_tool.summarize([{"solves_per_s": 50.0}], [{"solves_per_s": 75.0}], DECLARED)
    assert lines == ["solves_per_s  50 [50-50] -> 75  (1/1, +50.0%)",
                     "solve_ms.p50  not reported",
                     "setup_s       not reported"]
