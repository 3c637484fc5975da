import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_genome_report_demo_ranks_planted_feature_first():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "06_genome_report.py")],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("target class:churn:1"))
    assert lines[header + 1].split()[0] == "dc0", proc.stdout
