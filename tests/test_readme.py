"""The README's library example prints what the README says it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_usage_prints_its_documented_lines():
    section = README.read_text(encoding="utf-8").split("## Library usage", 1)[1]
    code, printed = re.search(r"```python\n(.*?)```\s*prints\s*```\n(.*?)```", section,
                              re.DOTALL).groups()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == printed
    assert printed.splitlines() == ["feasible_not_stationary 2.6317694690192184e-09",
                                    "0.5945182200376773"]
