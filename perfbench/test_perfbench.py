"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q

They run every workload's stages and checks at smoke size, untraced and
traced, and show that a corrupted output is counted as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

run.use_sources()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3        # a seed whose tiny training run clears the validation AUC check


def smoke(name: str) -> workloads.Workload:
    return workloads.smoke(workloads.WORKLOADS[name])


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_smoke_run_is_correct(name):
    result = run.run_workload(smoke(name), SEED, 0, trace=False)
    assert result.failed == 0, result.failures
    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in result.metrics.values())
    assert result.metrics["success_rate"] == 1.0
    record = json.loads((run.WORK / name / "result.json").read_text())
    assert {"git_rev", "python", "numpy", "blas", "threads", "nproc"} <= set(record["environment"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke_run_emits_every_layer_metric(name):
    result = run.run_workload(smoke(name), SEED, 0, trace=True)
    assert result.correct, result.failures
    assert set(result.metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert result.metrics["trace.missing_wrappers"] == 0
    assert result.metrics["trace.overhead_ratio"] > 0
    for stage in smoke(name).stages:
        assert result.metrics[f"cli.{stage}_s"] > 0
    spans = [json.loads(line) for line in
             (run.WORK / name / "spans.jsonl").read_text().splitlines()]
    ids = {s["id"] for s in spans}
    assert spans and all(s["parent"] is None or s["parent"] in ids for s in spans)
    import tabrep.model
    assert not hasattr(tabrep.model.encode_customer, "__wrapped__")


def test_corrupted_output_raises_error_rate():
    def corrupt(out):
        path = out / "embeddings.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = "nan"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    result = run.measure(smoke("score"), SEED, 0, corrupt=corrupt)
    assert not result.correct
    assert result.metrics["success_rate"] < 1.0
    assert any(f.startswith("check_embeddings") for f in result.failures)
    assert any(f.startswith("artifacts repeat") for f in result.failures)


def test_self_time_excludes_nested_calls():
    tracer = tracing.Tracer()
    inner = tracer.timed(lambda: sum(range(20000)), "numeric.inner", "numeric", keep=False)
    outer = tracer.timed(lambda: inner() + inner(), "model.outer", "model")
    tracer.span("cli.train", "cli", outer)
    total = tracer.seconds["cli.train"]
    covered = sum(tracer.self_seconds.values())
    assert covered == pytest.approx(total, rel=1e-9)
    assert tracer.self_seconds["model"] == pytest.approx(
        tracer.seconds["model.outer"] - tracer.seconds["numeric.inner"], rel=1e-9)
    assert tracer.calls["numeric.inner"] == 2
    assert [s[2] for s in tracer.spans] == ["model.outer", "cli.train"]
    assert tracer.spans[0][1] == tracer.spans[1][0]


def test_missing_wrapper_target_is_reported():
    tracer = tracing.Tracer()
    tracer.install([tracing.Site("tabrep.encode", "no_such_function", "encode.gone")])
    tracer.remove()
    assert tracer.missing == ["tabrep.encode.no_such_function"]


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "score",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=tmp_path, env=env, capture_output=True, text=True,
                           timeout=60)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
