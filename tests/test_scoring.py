"""Scoring encodes and forwards one evaluation chunk at a time, from a
checkpoint that loads without drawing.

`score_chunks` encodes each chunk's customers on their own. That must give,
bit for bit, the rows a whole-table encoding gives, and the memory scoring
and the CLI writers need must not grow with the number of customers. The
`embed`, `predict` and `evaluate` stages read the table a group of customers
at a time, and write what a whole-table load gives, byte for byte, whether
they forward in worker processes or in their own; and they leave no
process behind. A loaded model draws nothing: the scoring stages never import `numpy.random`,
and the reconstruction projections a loaded model draws on first use are a
fresh model's.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import no_child_left, same_encoding, stage_modules, traced_peak
from tabrep import cli
from tabrep.cli import EXIT_CODES, _write_rows
from tabrep.encode import encode_table
from tabrep.errors import TabrepError
from tabrep.eval import MetricSet, SynthConfig, synth_generate
from tabrep.model import EVAL_BATCH, CustomerEncoder, ModelConfig, TrainConfig, eval_chunks
from tabrep.prep import build_schema
from tabrep.table import TableFormat, load_table, order_records, save_table

MODEL = ModelConfig(embed_dim=8, n_s=6, heads=2, t_max=2, rep_width=8, fusion_hidden=16,
                    head_hidden=8, recon_count=1, recon_dim=4, dropout=0.0)


@pytest.mark.parametrize("n,sizes", [
    (0, []), (1, [1]), (2, [2]), (EVAL_BATCH, [EVAL_BATCH]),
    (EVAL_BATCH + 1, [EVAL_BATCH - 1, 2]), (EVAL_BATCH + 2, [EVAL_BATCH, 2]),
    (2 * EVAL_BATCH + 1, [EVAL_BATCH, EVAL_BATCH - 1, 2]),
    (3 * EVAL_BATCH, [EVAL_BATCH] * 3)])
def test_eval_chunks_cover_the_rows_with_no_lone_last_row(n, sizes):
    chunks = list(eval_chunks(n))
    assert [c.stop - c.start for c in chunks] == sizes
    assert [c.start for c in chunks] == [sum(sizes[:i]) for i in range(len(sizes))]


@pytest.fixture(scope="module")
def scored():
    table = synth_generate(SynthConfig(n_customers=2 * EVAL_BATCH + 1, records_max=12, seed=8))
    schema = build_schema(table)
    return CustomerEncoder(schema, MODEL, tasks={"churn": 2}, seed=4), table


def test_each_chunk_encodes_as_its_rows_of_the_whole_table(scored):
    model, table = scored
    whole = encode_table(table, model.schema, model.layout)
    names = list(table.customers)
    for rows in eval_chunks(len(names)):
        chunk = encode_table(table, model.schema, model.layout, names[rows])
        assert chunk.customers == whole[rows].customers
        assert same_encoding(chunk, whole[rows])


@pytest.mark.parametrize("sizes", [
    [], [0], [1], [EVAL_BATCH + 1], [1, EVAL_BATCH, 0, 3],
    [EVAL_BATCH - 1, 2, EVAL_BATCH + 1, 1], [2 * EVAL_BATCH + 1]])
def test_forward_stream_forwards_the_chunks_of_the_concatenated_rows(scored, sizes):
    model, table = scored
    whole = encode_table(table, model.schema, model.layout)[:sum(sizes)]
    starts = np.cumsum([0] + sizes)
    got = list(model.forward_stream(whole[lo:hi] for lo, hi in zip(starts, starts[1:])))
    want = list(model.forward_chunks(whole))
    assert [out.rep.shape for out in got] == [out.rep.shape for out in want]
    assert all(a.rep.data.tobytes() == b.rep.data.tobytes() for a, b in zip(got, want))


def test_represent_of_shuffled_customers_is_the_reordered_whole_table(scored):
    model, table = scored
    names, reps = model.represent(table)
    whole = np.concatenate([out.rep.data for out in model.forward_chunks(
        model.encode_table(table))])
    assert reps.tobytes() == whole.tobytes()
    shuffled = [names[i] for i in np.random.default_rng(3).permutation(len(names))]
    got_names, got = model.represent(table, shuffled)
    position = {c: i for i, c in enumerate(names)}
    assert got_names == shuffled
    assert got.tobytes() == reps[[position[c] for c in shuffled]].tobytes()


# What `represent` holds at its peak besides its result: one chunk's inputs
# and activations (about 1.3 MiB for MODEL), the customer name lists, which
# grow by 8 bytes a customer, and the rows of the chunks already forwarded,
# which it joins at the end. Encoding the whole table first, with one view
# per customer and array, peaked 1.7 MiB higher at 8 x EVAL_BATCH customers
# than at 2 x EVAL_BATCH; chunk by chunk the two peaks are 30 KiB apart.
PEAK_MARGIN = 256 * 1024


def test_scoring_memory_does_not_grow_with_the_customer_count():
    table = synth_generate(SynthConfig(n_customers=8 * EVAL_BATCH, records_max=12, seed=9))
    model = CustomerEncoder(build_schema(table), MODEL, seed=4)
    few = table.customers[:2 * EVAL_BATCH]
    model.represent(table)                  # lazily built table state, before measuring
    peaks = []
    for customers in (few, None):
        (_, reps), peak = traced_peak(lambda: model.represent(table, customers))
        peaks.append(peak - reps.nbytes)
        del reps
    assert peaks[1] - peaks[0] < PEAK_MARGIN, peaks


def test_embed_writer_memory_does_not_grow_with_the_customer_count(tmp_path):
    # rows of width 64: a whole-table result array would grow by 768 KiB
    # from 2 x EVAL_BATCH to 8 x EVAL_BATCH customers, three times the margin
    wide = replace(MODEL, rep_width=64)
    table = synth_generate(SynthConfig(n_customers=8 * EVAL_BATCH, records_max=12, seed=9))
    model = CustomerEncoder(build_schema(table), wide, seed=4)
    header = ["customer_id"] + [f"r{i:03d}" for i in range(wide.rep_width)]
    path = tmp_path / "embeddings.csv"
    _write_rows(path, header, model.score_chunks(table))    # lazily built table state
    peaks = []
    for customers in (table.customers[:2 * EVAL_BATCH], None):
        count, peak = traced_peak(
            lambda: _write_rows(path, header, model.score_chunks(table, customers)))
        assert count == len(customers or table.customers)
        peaks.append(peak)
    assert peaks[1] - peaks[0] < PEAK_MARGIN, peaks


@pytest.mark.parametrize("stage", ["embed", "predict", "evaluate"])
def test_scoring_stages_never_import_numpy_random(tmp_path, stage):
    table = synth_generate(SynthConfig(n_customers=20, records_max=6, seed=2))
    save_table(table, tmp_path / "t.csv", TableFormat(date_column="date",
                                                      label_columns=("churn",)))
    CustomerEncoder(build_schema(table), MODEL, tasks={"churn": 2}, seed=1).save(
        tmp_path / "m.json")
    (tmp_path / "run.json").write_text(json.dumps(
        {"format": {"date_column": "date", "label_columns": ["churn"]}}))
    modules = stage_modules([stage, "--config", str(tmp_path / "run.json"),
                             "--table", str(tmp_path / "t.csv"),
                             "--checkpoint", str(tmp_path / "m.json"), "--out", str(tmp_path)])
    assert "tabrep.model" in modules
    assert "numpy.random" not in modules


def test_a_loaded_model_draws_the_fresh_models_projections(scored, tmp_path):
    model, _ = scored
    model.save(tmp_path / "m.json")
    loaded = CustomerEncoder.load(tmp_path / "m.json")
    fresh = CustomerEncoder(model.schema, MODEL, tasks={"churn": 2}, seed=4)
    assert len(fresh.recon_projections) == MODEL.recon_count
    assert ([g.tobytes() for g in loaded.recon_projections]
            == [g.tobytes() for g in fresh.recon_projections])


def test_fit_of_a_loaded_model_equals_fit_of_the_saved_one(tmp_path):
    table = synth_generate(SynthConfig(n_customers=48, records_max=8, seed=5))
    model = CustomerEncoder(build_schema(table), replace(MODEL, dropout=0.1),
                            tasks={"churn": 2}, seed=6)
    model.save(tmp_path / "m.json")
    loaded = CustomerEncoder.load(tmp_path / "m.json")
    config = TrainConfig(epochs=2, batch_size=16, seed=7)
    assert loaded.fit(table, config) == model.fit(table, config)
    got, want = loaded.named_parameters(), model.named_parameters()
    assert list(got) == list(want)
    assert all(got[name].data.tobytes() == p.data.tobytes() for name, p in want.items())


# ---- the scoring stages, one group of customers at a time -------------------

FORMAT = TableFormat(date_column="date", label_columns=("churn",))
STAGE_FILES = {"embed": "embeddings.csv", "predict": "predictions.csv",
               "evaluate": "metrics.json"}


def write_scoring_inputs(directory, n: int, interleaved: bool = False) -> list[str]:
    """A table of `n` customers, every fifth of them unlabeled, with its rows
    in random order when `interleaved`, a checkpoint and a config; returns
    the stage arguments but the stage."""
    table = synth_generate(SynthConfig(n_customers=n, records_min=2, records_max=5, seed=n))
    got = table.labels["churn"]
    labels = {c: got[c] for i, c in enumerate(table.customers) if i % 5 != 4 and c in got}
    path = directory / "t.csv"
    save_table(replace(table, labels={"churn": labels}), path, FORMAT)
    if interleaved:
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(np.random.default_rng(n).permutation(rows)))
    CustomerEncoder(build_schema(table), MODEL, tasks={"churn": 2}, seed=4).save(
        directory / "m.json")
    (directory / "run.json").write_text(json.dumps(
        {"format": {"date_column": "date", "label_columns": ["churn"]}}))
    return ["--config", str(directory / "run.json"), "--table", str(path),
            "--checkpoint", str(directory / "m.json")]


def whole_table_outputs(directory) -> dict[str, bytes | str]:
    """Each stage's file from the whole table, loaded at once and forwarded
    in `eval_chunks` of all its customers (of its labeled ones, for
    `evaluate`); the error code where the stage ends in one."""
    model = CustomerEncoder.load(directory / "m.json")
    table = order_records(load_table(directory / "t.csv", FORMAT))

    def forwarded(names):
        return list(model.forward_chunks(model.encode_table(table, names)))

    outs = forwarded(table.customers)
    reps = np.concatenate([out.rep.data for out in outs])
    proba = np.concatenate([model.class_proba(out.rep, "churn") for out in outs])
    width = MODEL.rep_width
    _write_rows(directory / "embeddings.csv", ["customer_id"] + [f"r{i:03d}" for i in range(width)],
                [(table.customers, reps)])
    _write_rows(directory / "predictions.csv", ["customer_id", "p_churn_0", "p_churn_1"],
                [(table.customers, proba)])
    want = {stage: (directory / name).read_bytes() for stage, name in STAGE_FILES.items()
            if stage != "evaluate"}
    got = table.labels["churn"]
    labeled = [c for c in table.customers if c in got]
    try:
        proba = np.concatenate([model.class_proba(out.rep, "churn") for out in forwarded(labeled)])
        want["evaluate"] = MetricSet.from_scores(proba[:, 1], [got[c] for c in labeled]
                                                 ).to_json().encode()
    except TabrepError as e:
        want["evaluate"] = e.code
    return want


@pytest.mark.parametrize("n,interleaved", [
    (2 * EVAL_BATCH + 40, False), (2 * EVAL_BATCH + 40, True), (EVAL_BATCH + 1, False),
    (3 * EVAL_BATCH + 1, False), (1, False)],
    ids=["grouped", "interleaved", "batch+1", "3batch+1", "one-customer"])
def test_streamed_stages_write_the_whole_table_outputs(tmp_path, capsys, monkeypatch, n,
                                                       interleaved):
    args = write_scoring_inputs(tmp_path, n, interleaved)
    want = whole_table_outputs(tmp_path)
    loads = []
    monkeypatch.setattr(cli, "load_table", lambda *a: loads.append(a) or load_table(*a))
    for stage, name in STAGE_FILES.items():
        out = tmp_path / stage
        code = cli.main([stage, *args, "--out", str(out)])
        err = capsys.readouterr().err
        if isinstance(want[stage], str):
            assert code == EXIT_CODES[stage] and json.loads(err)["error"]["code"] == want[stage]
            assert list(out.glob("*")) == []
        else:
            assert code == 0, err
            assert (out / name).read_bytes() == want[stage], stage
    # only a file whose customers are interleaved across groups falls back to one load
    assert len(loads) == (len(STAGE_FILES) if interleaved else 0)


def test_a_ragged_last_row_leaves_no_partial_output(tmp_path, capsys):
    args = write_scoring_inputs(tmp_path, 2 * EVAL_BATCH + 40)
    table = tmp_path / "t.csv"
    table.write_text(table.read_text() + "late,2020-01-01\n")
    for stage in STAGE_FILES:
        out = tmp_path / stage
        assert cli.main([stage, *args, "--out", str(out)]) == EXIT_CODES[stage]
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "parse-error"
        assert list(out.glob("*")) == []       # no partial file, and no temporary one


# ---- the scoring stages in forked workers -----------------------------------

def stage_outputs(args, directory, capsys) -> dict[str, bytes | str]:
    """Each scoring stage's file, or the code of the error it ended in."""
    got = {}
    for stage, name in STAGE_FILES.items():
        out = directory / stage
        code = cli.main([stage, *args, "--out", str(out)])
        err = capsys.readouterr().err
        got[stage] = (out / name).read_bytes() if code == 0 else json.loads(err)["error"]["code"]
    return got


@pytest.mark.parametrize("n,interleaved", [
    (2 * EVAL_BATCH + 40, False), (2 * EVAL_BATCH + 40, True), (EVAL_BATCH + 1, False),
    (3 * EVAL_BATCH + 1, False), (1, False)],
    ids=["grouped", "interleaved", "batch+1", "3batch+1", "one-customer"])
def test_workers_write_the_in_process_outputs(tmp_path, capsys, monkeypatch, n, interleaved):
    args = write_scoring_inputs(tmp_path, n, interleaved)
    want = whole_table_outputs(tmp_path)
    for count in (1, 2):
        monkeypatch.setattr(cli, "_worker_count", lambda: count)
        assert stage_outputs(args, tmp_path / f"workers{count}", capsys) == want, count


@pytest.mark.parametrize("case", ["grouped", "ragged", "interleaved"])
def test_no_worker_outlives_a_scoring_stage(tmp_path, capsys, monkeypatch, case):
    args = write_scoring_inputs(tmp_path, 3 * EVAL_BATCH + 1)
    table = tmp_path / "t.csv"
    header, first, *rows = table.read_text().splitlines(keepends=True)
    if case == "ragged":
        rows.append("late,2020-01-01\n")
    if case == "interleaved":       # the first customer's first record comes last
        first, rows = "", rows + [first]
    table.write_text(header + first + "".join(rows))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(cli, "_worker_count", lambda: 2)
    assert no_child_left()
    for stage in STAGE_FILES:
        forks.clear()
        code = cli.main([stage, *args, "--out", str(tmp_path / stage)])
        capsys.readouterr()
        assert code == (EXIT_CODES[stage] if case == "ragged" else 0)
        # forked once a second chunk exists; the interleaved file's fallback forks again
        assert len(forks) == {"grouped": 2, "ragged": 2, "interleaved": 4}[case], stage
        assert no_child_left(), stage


# Run in a fresh interpreter: the scoring stage `argv[1:]` with two workers,
# each of which ends itself on the second chunk it is given when `die` is set
# and sleeps `pause` seconds on each chunk; then whether children are left.
STAGE_SCRIPT = """
import json, os, sys, time
from tabrep import cli, model
die, pause = json.loads(sys.argv[1])
score, calls = model.CustomerEncoder.score, []

def slow_or_dying(self, chunk, task=None):
    calls.append(1)
    if die and len(calls) == 2:
        os._exit(7)
    time.sleep(pause)
    return score(self, chunk, task)

model.CustomerEncoder.score = slow_or_dying
cli._worker_count = lambda: 2
code = cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("children left")
except ChildProcessError:
    print("no children left")
sys.exit(code)
"""


def stage_command(tmp_path, stage: str, die: bool, pause: float) -> list[str]:
    args = write_scoring_inputs(tmp_path, 6 * EVAL_BATCH)
    src = str(Path(cli.__file__).resolve().parents[1])
    return [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + STAGE_SCRIPT,
            json.dumps([die, pause]), stage, *args, "--out", str(tmp_path / stage)]


@pytest.mark.parametrize("stage", ["embed", "evaluate"])
def test_a_dead_worker_ends_the_stage_in_its_error(tmp_path, stage):
    start = time.perf_counter()
    proc = subprocess.run(stage_command(tmp_path, stage, die=True, pause=0.0),
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 30
    assert proc.returncode == EXIT_CODES[stage], proc.stderr
    assert json.loads(proc.stderr)["error"]["code"] == "worker-exit"
    assert proc.stdout.splitlines() == ["no children left"]
    assert list((tmp_path / stage).glob("*")) == []


def live_group_members(pgid: int) -> list[int]:
    """The pids of the processes of group `pgid` that have not exited."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:         # the process ended meanwhile
            continue
        if int(fields[2]) == pgid and fields[0] not in "ZX":
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads /proc")
def test_a_killed_stage_leaves_no_worker_running(tmp_path):
    proc = subprocess.Popen(stage_command(tmp_path, "embed", die=False, pause=0.5),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while len(live_group_members(proc.pid)) < 3 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(live_group_members(proc.pid)) == 3     # the stage and its two workers
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 5
    while live_group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert live_group_members(proc.pid) == []
