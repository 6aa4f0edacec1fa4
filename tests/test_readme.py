"""The README's Python examples run as written."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
# (the heading above the block, the block)
BLOCKS = [
    (re.findall(r"^#+ (.*)$", README[: m.start()], flags=re.M)[-1], m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)
]


def _run(code):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_the_readme_has_its_examples():
    assert [heading for heading, _ in BLOCKS] == ["Quick start (library)", "Your own system"]


@pytest.mark.parametrize("heading, code", BLOCKS, ids=[heading for heading, _ in BLOCKS])
def test_readme_example_runs(heading, code):
    stdout = _run(code)
    if heading == "Your own system":
        # B doubles at 0.3: full push to 0.3, then y' = -y + 2 reaches 0.8
        exact = 0.3 + math.log((1.0 + math.exp(-0.3)) / 1.2)
        w = float(stdout.splitlines()[1])
        assert abs(w - exact) <= 1e-8, (w, exact)
