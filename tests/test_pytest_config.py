"""The repository's pytest settings must let a failing Hypothesis test report
its falsifying example instead of aborting the session."""

import subprocess
import sys
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_runs_after():
    pass
'''


def test_failing_given_reports_its_example(tmp_path):
    filters = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"][
        "filterwarnings"
    ]
    ini = "[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters)
    (tmp_path / "pytest.ini").write_text(ini)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-rA",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "PASSED test_property.py::test_runs_after" in out
    assert "1 failed, 1 passed" in out
