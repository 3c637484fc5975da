"""Scoring encodes and forwards one evaluation chunk at a time, from a
checkpoint that loads without drawing.

`encoded_chunks` encodes each chunk's customers on their own. That must give,
bit for bit, the rows a whole-table encoding gives, and the memory scoring,
profiling and the CLI writers need must not grow with the number of
customers. The `profile`, `embed`, `predict` and `evaluate` stages read the
table a group of customers at a time, and write what a whole-table load
gives, byte for byte, the scoring stages whether they forward in worker
processes or in their own; and they leave no process behind. A loaded model draws nothing: the scoring stages never import `numpy.random`,
and the reconstruction projections a loaded model draws on first use are a
fresh model's.
"""

import csv
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import no_child_left, same_encoding, stage_modules, traced_peak
from tabrep import cli
from tabrep import table as table_module
from tabrep.cli import EXIT_CODES, _csv_rows, _write_scores, _write_text
from tabrep.encode import encode_table
from tabrep.errors import TabrepError
from tabrep.eval import MetricSet, SynthConfig, synth_generate
from tabrep.model import EVAL_BATCH, CustomerEncoder, ModelConfig, TrainConfig, chunk_stream
from tabrep.prep import RecognizerConfig, build_schema
from tabrep.table import (BigTable, TableFormat, compute_stats, load_table, order_records,
                          save_table)

MODEL = ModelConfig(embed_dim=8, n_s=6, heads=2, t_max=2, rep_width=8, fusion_hidden=16,
                    head_hidden=8, recon_count=1, recon_dim=4, dropout=0.0)


@pytest.fixture(scope="module")
def scored():
    table = synth_generate(SynthConfig(n_customers=2 * EVAL_BATCH + 1, records_max=12, seed=8))
    schema = build_schema(table)
    return CustomerEncoder(schema, MODEL, tasks={"churn": 2}, seed=4), table


def test_each_chunk_encodes_as_its_rows_of_the_whole_table(scored):
    model, table = scored
    whole = encode_table(table, model.schema, model.layout)
    chunks = list(chunk_stream([whole]))
    assert sum((c.customers for c in chunks), []) == whole.customers
    for want in chunks:
        chunk = encode_table(table, model.schema, model.layout, want.customers)
        assert chunk.customers == want.customers
        assert same_encoding(chunk, want)


@pytest.mark.parametrize("sizes", [
    [], [0], [1], [EVAL_BATCH + 1], [1, EVAL_BATCH, 0, 3],
    [EVAL_BATCH - 1, 2, EVAL_BATCH - 1, 1], [EVAL_BATCH, EVAL_BATCH, 1]])
def test_chunk_stream_recuts_the_rows_into_full_chunks(scored, sizes):
    model, table = scored
    whole = encode_table(table, model.schema, model.layout)[:sum(sizes)]
    starts = np.cumsum([0] + sizes)
    batches = [whole[lo:hi] for lo, hi in zip(starts, starts[1:])]
    chunks = list(chunk_stream(batches))
    full, rest = divmod(sum(sizes), EVAL_BATCH)
    assert [c.size for c in chunks] == [EVAL_BATCH] * full + [rest] * (rest > 0)
    assert sum((c.customers for c in chunks), []) == whole.customers
    assert all(same_encoding(c, whole[i * EVAL_BATCH:(i + 1) * EVAL_BATCH])
               for i, c in enumerate(chunks))
    # a full batch that comes while no row waits is passed on, not copied
    if sizes[:1] == [EVAL_BATCH]:
        assert np.shares_memory(chunks[0].nd_vals, batches[0].nd_vals)


def test_represent_of_shuffled_customers_is_the_reordered_whole_table(scored):
    model, table = scored
    names, reps = model.represent(table)
    assert reps.tobytes() == model.forward_stream([model.encode_table(table)]).tobytes()
    shuffled = [names[i] for i in np.random.default_rng(3).permutation(len(names))]
    got_names, got = model.represent(table, shuffled)
    position = {c: i for i, c in enumerate(names)}
    assert got_names == shuffled
    assert got.tobytes() == reps[[position[c] for c in shuffled]].tobytes()


# the default model, and the acceptance tests' (narrower, with a wider class head)
SIZES = [ModelConfig(), ModelConfig(embed_dim=12, n_s=8, heads=2, t_max=2, rep_width=16,
                                    fusion_hidden=32, head_hidden=16, recon_count=1,
                                    recon_dim=8, dropout=0.0)]


@pytest.mark.parametrize("config", SIZES, ids=["default", "acceptance"])
def test_a_customers_scores_depend_on_that_customer_alone(config):
    """`represent` and `predict_proba` of a customer scored alone, in random
    subsets of 2, EVAL_BATCH - 1 and EVAL_BATCH + 1 customers (a lone last
    row), and in the whole table are bitwise the same."""
    table = synth_generate(SynthConfig(n_customers=EVAL_BATCH + 44, seed=12))
    model = CustomerEncoder(build_schema(table), config, tasks={"churn": 2}, seed=3)
    model.fit(table, TrainConfig(epochs=2, seed=3))
    names, reps = model.represent(table)
    _, proba = model.predict_proba(table, "churn")
    rng = np.random.default_rng(6)
    checked = rng.choice(len(names), 12, replace=False)
    others = np.setdiff1d(np.arange(len(names)), checked)
    subsets = [[i] for i in checked] + [[i, rng.choice(others)] for i in checked]
    for size in (EVAL_BATCH - 1, EVAL_BATCH + 1):
        subsets.append(rng.permutation(np.concatenate(
            [checked, rng.choice(others, size - len(checked), replace=False)])))
    for rows in subsets:
        customers = [names[i] for i in rows]
        assert model.represent(table, customers)[1].tobytes() == reps[rows].tobytes()
        assert (model.predict_proba(table, "churn", customers)[1].tobytes()
                == proba[rows].tobytes())


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


def test_embed_writer_memory_does_not_grow_with_the_customer_count(tmp_path, monkeypatch):
    # rows of width 64: a whole-table result array would grow by 768 KiB
    # from 2 x EVAL_BATCH to 8 x EVAL_BATCH customers, three times the margin
    monkeypatch.setattr(cli, "_worker_count", lambda: 1)    # forward here, where it is traced
    wide = replace(MODEL, rep_width=64)
    table = synth_generate(SynthConfig(n_customers=8 * EVAL_BATCH, records_max=12, seed=9))
    few = table.customers[:2 * EVAL_BATCH]
    model = CustomerEncoder(build_schema(table), wide, seed=4)
    header = ["customer_id"] + [f"r{i:03d}" for i in range(wide.rep_width)]
    path = tmp_path / "embeddings.csv"
    peaks = []
    for group in (BigTable(few, list(table.features), table.select(few)), table):
        def write():
            return _write_scores(None, None, [group], model, path, header)

        write()                             # lazily built table state
        count, peak = traced_peak(write)
        assert count == group.n_customers
        peaks.append(peak)
    assert peaks[1] - peaks[0] < PEAK_MARGIN, peaks


def test_profile_memory_does_not_grow_with_the_customer_count(tmp_path, capsys, monkeypatch):
    # From 2 x EVAL_BATCH to 8 x EVAL_BATCH customers, what grows is the kept
    # pairs of unequal successive numbers (24 bytes each, about 60 KiB here)
    # and the reader's 8-byte hash of each customer id: the peaks are about
    # 160 KiB apart, and 1.6 MiB apart with a whole-table load. The reader's
    # cache of date texts is bounded by KEPT_DATES, but it would still be
    # filling between these two sizes, so it is bounded lower here.
    monkeypatch.setattr(table_module, "KEPT_DATES", 64)
    table = synth_generate(SynthConfig(n_customers=8 * EVAL_BATCH, records_max=12, seed=9))
    few = table.customers[:2 * EVAL_BATCH]
    fmt = TableFormat(date_column="date")
    (tmp_path / "run.json").write_text(json.dumps({"format": {"date_column": "date"}}))
    peaks = []
    for name, group in (("few.csv", BigTable(few, list(table.features), table.select(few))),
                        ("all.csv", table)):
        save_table(group, tmp_path / name, fmt)

        def profile():
            return cli.main(["profile", "--config", str(tmp_path / "run.json"),
                             "--table", str(tmp_path / name), "--out", str(tmp_path)])

        profile()                           # lazily built state, before measuring
        code, peak = traced_peak(profile)
        assert code == 0, capsys.readouterr().err
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
    """Each stage's file from the whole table, loaded and encoded at once
    and forwarded in chunks of all its customers (of its labeled ones, for
    `evaluate`); the error code where the stage ends in one."""
    model = CustomerEncoder.load(directory / "m.json")
    table = order_records(load_table(directory / "t.csv", FORMAT))

    def forwarded(names):
        return model.forward_stream([model.encode_table(table, names)])

    reps = forwarded(table.customers)
    proba = model.class_proba(reps, "churn")
    width = MODEL.rep_width
    _write_text(directory / "embeddings.csv", ["customer_id"] + [f"r{i:03d}" for i in range(width)],
                [_csv_rows(table.customers, reps)])
    _write_text(directory / "predictions.csv", ["customer_id", "p_churn_0", "p_churn_1"],
                [_csv_rows(table.customers, proba)])
    want = {stage: (directory / name).read_bytes() for stage, name in STAGE_FILES.items()
            if stage != "evaluate"}
    got = table.labels["churn"]
    labeled = [c for c in table.customers if c in got]
    try:
        proba = model.class_proba(forwarded(labeled), "churn")
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


def whole_table_profile(path, fmt: TableFormat = FORMAT,
                        config: RecognizerConfig = RecognizerConfig()) -> dict[str, bytes]:
    """`schema.json` and `stats.json` of the table at `path`, loaded at once."""
    table = order_records(load_table(path, fmt))
    schema = build_schema(table, config)
    schema.save(path.with_name("whole_schema.json"))
    return {"schema.json": path.with_name("whole_schema.json").read_bytes(),
            "stats.json": compute_stats(table, schema).to_json().encode()}


def profile_outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in ("schema.json", "stats.json")}


@pytest.mark.parametrize("n,interleaved", [
    (2 * EVAL_BATCH + 40, False), (2 * EVAL_BATCH + 40, True), (EVAL_BATCH + 1, False),
    (3 * EVAL_BATCH + 1, False), (1, False)],
    ids=["grouped", "interleaved", "batch+1", "3batch+1", "one-customer"])
def test_streamed_profile_writes_the_whole_table_profile(tmp_path, capsys, monkeypatch, n,
                                                         interleaved):
    args = write_scoring_inputs(tmp_path, n, interleaved)[:4]      # no checkpoint
    want = whole_table_profile(tmp_path / "t.csv")
    loads = []
    monkeypatch.setattr(cli, "load_table", lambda *a: loads.append(a) or load_table(*a))
    code = cli.main(["profile", *args, "--out", str(tmp_path / "profile")])
    assert code == 0, capsys.readouterr().err
    assert profile_outputs(tmp_path / "profile") == want
    # only a file whose customers are interleaved across groups falls back to one load
    assert len(loads) == interleaved


# Random tables of whole customers in file order, each record a date (days
# 1-4, so a customer's records are reordered) and the cells of `n`, integers
# that may pass the recognizer's threshold of 3 distinct values in a later
# group; `x`, integers that may turn fractional; `t`, tokens that may first
# appear in a later group; `z`, whose minimum is 0.0 or -0.0, which tie; and
# `e`, which holds no number. Customers may have one record.
PROFILE_FEATURES = ["n", "x", "t", "z", "e"]
profile_record = st.tuples(st.integers(1, 4), st.tuples(
    st.sampled_from(["", "0", "1", "2", "3", "4", "5"]),
    st.sampled_from(["", "1", "2", "-2", "0.5"]),
    st.sampled_from(["", "a", "b", "c", "d"]),
    st.sampled_from(["", "0.0", "-0.0", "0", "-0", "3"]),
    st.sampled_from(["", "u", "v"])))
profile_customers = st.lists(st.tuples(st.sampled_from(["", "0", "1"]),
                                       st.lists(profile_record, min_size=1, max_size=4)),
                             min_size=1, max_size=14)
# groups of two: `n` passes the threshold, `x` turns fractional and `t` gains
# `c` in the second group; `z` ties 0.0 against -0.0 across groups, either way
# round; the second customer has one record
LATE_CHANGES = [("1", [(1, ("1", "1", "a", "{}", "u")), (2, ("2", "2", "a", "3", ""))]),
                ("", [(1, ("1", "", "b", "", "v"))]),
                ("0", [(2, ("3", "0.5", "c", "{}", "")), (1, ("4", "1", "a", "", "u"))]),
                ("0", [(3, ("5", "-2", "", "3", ""))])]


def late_changes(first_zero: str, later_zero: str):
    zeros = iter([first_zero, later_zero])
    return [(label, [(day, tuple(c.format(next(zeros)) if c == "{}" else c for c in cells))
                     for day, cells in records]) for label, records in LATE_CHANGES]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(customers=late_changes("0.0", "-0.0"), batch=2)
@example(customers=late_changes("-0.0", "0.0"), batch=2)
@given(customers=profile_customers, batch=st.integers(2, 5))
def test_streamed_profile_equals_the_whole_table_profile_on_random_tables(tmp_path_factory,
                                                                          customers, batch):
    tmp = tmp_path_factory.mktemp("profile")
    with (tmp / "t.csv").open("w", newline="") as fh:
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow(["customer_id", "date", *PROFILE_FEATURES, "churn"])
        for i, (label, records) in enumerate(customers):
            rows.writerows([f"c{i}", f"2020-01-0{day}", *cells, label] for day, cells in records)
    config = RecognizerConfig(integer_unique_threshold=3)
    (tmp / "run.json").write_text(json.dumps(
        {"format": {"date_column": "date", "label_columns": ["churn"]},
         "recognizer": {"integer_unique_threshold": 3}}))
    want = whole_table_profile(tmp / "t.csv", config=config)
    with mock.patch.object(cli, "EVAL_BATCH", batch), redirect_stdout(io.StringIO()):
        code = cli.main(["profile", "--config", str(tmp / "run.json"), "--table",
                         str(tmp / "t.csv"), "--out", str(tmp / "out")])
    assert code == 0
    assert profile_outputs(tmp / "out") == want


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
