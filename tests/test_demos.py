import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    """Run a demo with this interpreter: Python demos directly, shell demos
    with `sh` and this interpreter's directory first on PATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PATH"] = os.pathsep.join(filter(None, [os.path.dirname(sys.executable),
                                                env.get("PATH")]))
    path = str(ROOT / "demos" / name)
    command = ["sh", path] if name.endswith(".sh") else [sys.executable, path]
    return subprocess.run(command, capture_output=True, text=True, timeout=300, env=env)


@pytest.mark.parametrize("name", ["01_profile_a_table.py", "02_clean_and_encode.py",
                                  "03_autodiff_basics.py", "04_refinement_and_halting.py",
                                  "05_train_and_evaluate.py"])
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr


def test_genome_report_demo_ranks_planted_feature_first():
    proc = run_demo("06_genome_report.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("target class:churn:1"))
    assert lines[header + 1].split()[0] == "dc0", proc.stdout


def test_pipeline_cli_demo_runs_every_stage():
    proc = run_demo("07_pipeline_cli.sh")
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("wrote genome report") for line in proc.stdout.splitlines()), \
        proc.stdout
