"""The README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_quick_start_blocks_run():
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    namespace = {}
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed.append(out.getvalue().split())
    assert [float(v) for v in printed[0]] == [pytest.approx(21.723373137550144, rel=1e-9)]
    slope, target, r_squared = (float(v) for v in printed[1])
    assert target == pytest.approx(-3.0 / 8.0)
    assert slope == pytest.approx(target, rel=1e-6) and r_squared > 0.98
