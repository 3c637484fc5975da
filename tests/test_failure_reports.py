"""A failing test must be reported as a failure, under this repository's
pytest settings, with what pytest and hypothesis print about it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_small(n):
    assert n < 10
"""


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(tmp_path / "test_property.py")],
        capture_output=True, text=True, cwd=tmp_path)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
