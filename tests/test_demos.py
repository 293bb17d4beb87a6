"""Each demo script runs to completion and prints exactly its expected output,
and the README's library quick start prints what its comments say.

The demos are deterministic; after a deliberate change to one, rewrite its
expected file with ``PYTHONPATH=src python demos/NAME.py >
tests/expected/demos/NAME.out``.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tests" / "expected" / "demos"


@pytest.mark.parametrize(
    "script", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem
)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{script.stem}.out").read_text()


def test_readme_quick_start():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == [line.split("  # ", 1)[1] for line in prints]
