"""End-to-end benchmark of the tabrep command line.

    python3 perfbench/run.py --workload score --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported and run
from its `src/` directory. See perfbench/README.md for the workloads, the
metrics and the traced mode. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 3           # set-ups per run; setup_s is their median
MIN_PASSES = 3              # passes per run at least; later ones check repeatability
RUN_LIMIT_S = 170.0         # stop starting passes well before the 180 s cap
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ProgramMissing(Exception):
    """The checkout holds no tabrep sources to benchmark."""


class SetUpFailed(Exception):
    """The program failed while making a workload's inputs."""


def use_sources() -> None:
    """Make `import tabrep` resolve to the checkout's own sources."""
    if not (SRC / "tabrep" / "__init__.py").is_file():
        raise ProgramMissing(f"no tabrep sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)      # name -> value
    detail: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def attempt(self, what: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {why}")


# ---- running one stage --------------------------------------------------------

def run_child(argv: list[str], log: Path, timeout: float) -> tuple[float, int, int]:
    """Run `python -m tabrep.cli <argv>`; return (wall s, peak RSS KiB, status).

    The child is waited for without being reaped first, so the kill on
    timeout can never hit a recycled pid; rusage comes from the reaping.
    """
    with open(log, "wb") as fh:
        start = perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "tabrep.cli", *argv], cwd=ROOT,
                                 env=_child_env(), stdout=fh, stderr=subprocess.STDOUT)
        lock = threading.Lock()
        exited = False

        def kill():
            with lock:
                if not exited:
                    os.kill(child.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
            wall = perf_counter() - start
        except BaseException:
            child.kill()        # still unreaped, so the pid is still this child's
            raise
        finally:
            with lock:
                exited = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, child.returncode


def run_in_process(argv: list[str], log: Path, tracer=None) -> tuple[float, int]:
    """Run one CLI stage through `tabrep.cli.main` in this process."""
    from tabrep import cli
    buffer = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            if tracer is None:
                status = cli.main(argv)
            else:
                status = tracer.span(f"cli.{argv[0]}", "cli", cli.main, argv)
    except Exception:       # a crashed stage is a failed stage, not a crashed bench
        buffer.write(traceback.format_exc())
        status = -1
    wall = perf_counter() - start
    log.write_text(buffer.getvalue())
    return wall, status


# ---- one workload -------------------------------------------------------------

def _deadline_left(t0: float) -> float:
    return RUN_LIMIT_S - (perf_counter() - t0)


def _set_up_in_child(workload, seed: int, result: Result, t0: float):
    """Set up SETUP_REPEATS times in a child; return (inputs, seconds)."""
    spec = WORK / workload.name / "workload.json"
    spec.write_text(json.dumps(asdict(workload)))
    argv = [sys.executable, str(BENCH_DIR / "workloads.py"), str(spec), str(seed),
            str(WORK / workload.name / "setup"), str(SETUP_REPEATS)]
    try:
        child = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                               text=True, timeout=_deadline_left(t0))
    except subprocess.TimeoutExpired as e:
        raise SetUpFailed(f"set-up of {workload.name} timed out") from e
    if child.returncode != 0:
        raise SetUpFailed(f"set-up of {workload.name} failed:\n{child.stderr}")
    got = json.loads(child.stdout.splitlines()[-1])
    result.attempt("set-up repeats byte for byte", got["repeated"],
                   "set-up files differ between two set-ups at one seed")
    return workloads.Inputs(**got["inputs"]), got["seconds"]


def _check_outputs(workload, inputs, out: Path, result: Result) -> None:
    for stage in workload.stages:
        for check in workloads.CHECKS[stage]:
            try:
                check(workload, inputs, out)
            # a malformed artifact surfaces as a lookup or type error
            except (workloads.CheckFailed, LookupError, AttributeError, TypeError,
                    ValueError) as e:
                result.attempt(check.__name__, False, f"{type(e).__name__}: {e}")
            else:
                result.attempt(check.__name__, True)


def _check_repeats(workload, outs: list[Path], result: Result) -> None:
    names = [n for stage in workload.stages for n in workloads.ARTIFACTS[stage]]
    first = workloads.digests(outs[0], names)
    differ = sorted({n for out in outs[1:] for n, d in workloads.digests(out, names).items()
                     if d != first[n]})
    result.attempt("artifacts repeat byte for byte", not differ,
                   f"{differ} differ between passes at one seed")


def measure(workload, seed: int, seconds: float, corrupt=None) -> Result:
    """Untraced run: each stage is its own `python -m tabrep.cli` process."""
    t0 = perf_counter()
    result = Result()
    inputs, setup_times = _set_up_in_child(workload, seed, result, t0)
    walls, rss, outs, stage_walls = [], [], [], []
    measure_start = perf_counter()
    while (len(walls) < MIN_PASSES
           or perf_counter() - measure_start + statistics.median(walls) <= seconds) \
            and (not walls or _deadline_left(t0) > 1.5 * max(walls)):
        out = WORK / workload.name / f"pass{len(walls)}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        wall, peak, per_stage = 0.0, 0, {}
        for stage in workload.stages:
            s, kib, status = run_child(workloads.stage_argv(stage, inputs, out),
                                       out / f"{stage}.log", _deadline_left(t0))
            result.attempt(f"stage {stage}", status == 0,
                           f"exit status {status}, see {out / (stage + '.log')}")
            wall += s
            peak = max(peak, kib)
            per_stage[stage] = s
        if corrupt is not None and not outs:
            corrupt(out)
        walls.append(wall)
        rss.append(peak)
        outs.append(out)
        stage_walls.append(per_stage)
    _check_outputs(workload, inputs, outs[0], result)
    _check_repeats(workload, outs, result)
    for out in outs[1:]:
        shutil.rmtree(out, ignore_errors=True)

    work, unit = workload.work()
    wall = statistics.median(walls)
    result.metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(rss) / 1024.0,
        "throughput": work / wall,
        "success_rate": 1.0 - result.failed / result.attempted,
    }
    result.detail = {"setup_s": setup_times, "pass_wall_s": walls,
                     "stage_wall_s": stage_walls, "peak_rss_kib": rss,
                     "throughput_item": unit, "items_per_pass": work}
    return result


def measure_traced(workload, seed: int, seconds: float) -> Result:
    """Traced run: stages run in-process, alternating untraced and traced."""
    use_sources()
    t0 = perf_counter()
    result = Result()
    setup_tracer = tracing.Tracer()
    setup_tracer.install(tracing.SETUP_SITES)
    try:
        inputs, _, _ = workloads.set_up_repeatedly(workload, seed,
                                                   WORK / workload.name / "setup", 1)
    finally:
        setup_tracer.remove()
    plain, traced, outs, layer_runs, missing = [], [], [], [], set(setup_tracer.missing)
    tracer = None
    measure_start = perf_counter()
    while not traced or (perf_counter() - measure_start
                         + statistics.median(plain) + statistics.median(traced) <= seconds
                         and _deadline_left(t0) > 2.0 * (plain[-1] + traced[-1])):
        for mode in ("plain", "traced"):
            out = WORK / workload.name / f"{mode}{len(traced)}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            gc.collect()
            tracer = tracing.Tracer() if mode == "traced" else None
            if tracer is not None:
                tracer.install(tracing.STAGE_SITES)
                missing.update(tracer.missing)
            wall = 0.0
            try:
                for stage in workload.stages:
                    s, status = run_in_process(workloads.stage_argv(stage, inputs, out),
                                               out / f"{stage}.log", tracer)
                    result.attempt(f"stage {stage} ({mode})", status == 0,
                                   f"exit status {status}, see {out / (stage + '.log')}")
                    wall += s
            finally:
                if tracer is not None:
                    tracer.remove()
            outs.append(out)
            if tracer is None:
                plain.append(wall)
            else:
                traced.append(wall)
                layer_runs.append(tracing.layer_metrics(tracer))
    _check_outputs(workload, inputs, outs[-1], result)
    _check_repeats(workload, outs, result)
    tracer.write_spans(WORK / workload.name / "spans.jsonl")
    for out in outs[:-1]:
        shutil.rmtree(out, ignore_errors=True)

    metrics = {name: statistics.median(run[name] for run in layer_runs)
               for name in layer_runs[0]}
    metrics["eval.synth_generate_s"] = setup_tracer.seconds["eval.synth_generate"]
    checkpoint = (outs[-1] / "checkpoint.json" if "train" in workload.stages
                  else inputs.checkpoint and Path(inputs.checkpoint))
    metrics["model.checkpoint_bytes"] = float(checkpoint.stat().st_size) \
        if checkpoint is not None and checkpoint.is_file() else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics["trace.missing_wrappers"] = float(len(missing))
    result.metrics = metrics
    result.detail = {"untraced_wall_s": plain, "traced_wall_s": traced,
                     "missing_wrappers": sorted(missing), "spans": len(tracer.spans)}
    if missing:
        print(f"perfbench: {len(missing)} trace wrappers found no target: "
              f"{sorted(missing)}", file=sys.stderr)
    return result


# ---- environment and output ---------------------------------------------------

def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")}
        blas["version"] = deps.get("blas", {}).get("version")
    except (TypeError, AttributeError):      # numpy < 1.26 has no dict mode
        blas = {"blas": "unknown"}
    return {"git_rev": _git_rev(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {k: os.environ.get(k) for k in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> Result:
    directory = WORK / workload.name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    result = (measure_traced if trace else measure)(workload, seed, seconds)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "correct": result.correct, "attempted": result.attempted,
              "failed": result.failed, "failures": result.failures,
              "metrics": result.metrics, "detail": result.detail}
    (directory / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="score, train, explain, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help=f"measuring time per workload (at least {MIN_PASSES} passes run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from an in-process traced run")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    try:
        use_sources()
        results = {}
        for name in names:
            results[name] = run_workload(workloads.WORKLOADS[name], args.seed,
                                         args.seconds, bool(args.trace))
    except (ProgramMissing, SetUpFailed) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print("# environment " + json.dumps(environment(), sort_keys=True))
    units = metric_units()
    metrics = {}
    for name, result in results.items():
        for failure in result.failures:
            print(f"# {name} FAILED {failure}")
        for metric, value in result.metrics.items():
            key = metric if len(results) == 1 else f"{name}.{metric}"
            print(f"# {name:8s} {metric:40s} {value:14.6g} {units[metric]}")
            metrics[key] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": all(r.correct for r in results.values()),
                      "attempted": sum(r.attempted for r in results.values()),
                      "failed": sum(r.failed for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
