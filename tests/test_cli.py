import csv
import errno
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import fresh_python
from tabrep.cli import _SECTIONS, EXIT_CODES, RunConfig, _csv_rows, _write_text, load_config, main
from tabrep.errors import ConfigError, check_fields
from tabrep.eval import BaselineConfig, SynthConfig, synth_generate
from tabrep.interpret import Target
from tabrep.model import CustomerEncoder, ModelConfig, _EncoderArgs
from tabrep.prep import FeatureSchema, build_schema
from tabrep.table import TableFormat, load_table, order_records, save_table


def run_cli(argv, capsys=None):
    return main(argv)


PIPELINE = {
    "seed": 5,
    "format": {"date_column": "date", "label_columns": ["churn"]},
    "synth": {"n_customers": 80, "records_min": 3, "records_max": 8},
    "model": {"embed_dim": 8, "n_s": 5, "heads": 2, "t_max": 2,
              "rep_width": 8, "fusion_hidden": 16, "head_hidden": 8,
              "recon_count": 1, "recon_dim": 4, "dropout": 0.0},
    "train": {"epochs": 2, "batch_size": 16, "learning_rate": 0.01},
    "interpret": {"k": 3, "mask_samples": 6,
                  "targets": [{"kind": "class", "task": "churn"}]},
    "tasks": ["churn"],
}


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(PIPELINE))
    return tmp_path


def test_config_rejects_unknown_sections(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"optimizer": {}}')
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"train": {"momentum": 0.9}}')
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("raw,field", [
    ('{"seed": "abc"}', "seed"), ('{"seed": 1.5}', "seed"), ('{"seed": true}', "seed"),
    ('{"tasks": "churn"}', "tasks"), ('{"tasks": ["churn", 1]}', "tasks")])
def test_config_rejects_bad_top_level_values(tmp_path, raw, field):
    path = tmp_path / "c.json"
    path.write_text(raw)
    with pytest.raises(ConfigError, match=f"^{field} "):
        load_config(str(path))


def test_config_seed_flows_into_stages(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"seed": 9}')
    cfg = load_config(str(path))
    assert cfg.seed == 9
    assert cfg.train.seed == 9
    assert cfg.synth.seed == 9
    assert cfg.interpret.seed == 9
    cfg = load_config(str(path), seed_override=21)
    assert cfg.train.seed == 21


def test_config_stage_seed_can_be_pinned(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"seed": 9, "synth": {"seed": 3}}')
    cfg = load_config(str(path))
    assert cfg.synth.seed == 3
    assert cfg.train.seed == 9


def test_full_pipeline_round_trip(workdir, capsys):
    config = str(workdir / "config.json")
    out = str(workdir / "run")
    table = f"{out}/synth.csv"

    assert run_cli(["synth", "--config", config, "--out", out]) == 0
    assert (workdir / "run" / "synth.csv").exists()

    assert run_cli(["profile", "--config", config, "--table", table,
                    "--out", out]) == 0
    schema = json.loads((workdir / "run" / "schema.json").read_text())
    stats = json.loads((workdir / "run" / "stats.json").read_text())
    assert set(schema["kinds"].values()) >= {"SN", "DN", "SC", "DC"}
    assert abs(sum(stats["kind_ratios"].values()) - 1.0) < 1e-9

    assert run_cli(["train", "--config", config, "--table", table,
                    "--schema", f"{out}/schema.json", "--out", out]) == 0
    checkpoint = f"{out}/checkpoint.json"
    log_lines = (workdir / "run" / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 2
    for line in log_lines:
        rec = json.loads(line)
        assert {"epoch", "train_loss", "val_loss", "val_auc"} <= set(rec)

    assert run_cli(["embed", "--config", config, "--table", table,
                    "--checkpoint", checkpoint, "--out", out]) == 0
    rows = (workdir / "run" / "embeddings.csv").read_text().splitlines()
    assert len(rows) == 81           # header + one row per customer
    assert rows[0].split(",")[0] == "customer_id"
    assert len(rows[1].split(",")) == 9

    assert run_cli(["predict", "--config", config, "--table", table,
                    "--checkpoint", checkpoint, "--out", out]) == 0
    rows = (workdir / "run" / "predictions.csv").read_text().splitlines()
    assert rows[0] == "customer_id,p_churn_0,p_churn_1"
    assert len(rows) == 81
    proba = np.array([[float(v) for v in line.split(",")[1:]] for line in rows[1:]])
    assert np.all(np.abs(proba.sum(axis=1) - 1.0) < 1e-9)

    assert run_cli(["interpret", "--config", config, "--table", table,
                    "--checkpoint", checkpoint, "--out", out, "--text"]) == 0
    genome = json.loads((workdir / "run" / "genome.json").read_text())
    assert genome["targets"][0]["target"] == {"kind": "class", "task": "churn",
                                              "class_index": 1}
    assert (workdir / "run" / "genome.txt").exists()

    assert run_cli(["evaluate", "--config", config, "--table", table,
                    "--checkpoint", checkpoint, "--out", out]) == 0
    metrics = json.loads((workdir / "run" / "metrics.json").read_text())
    assert set(metrics) == {"auc", "f_score", "weighted_accuracy"}
    for v in metrics.values():
        assert 0.0 <= v <= 1.0
    capsys.readouterr()


def read_values(path: Path) -> tuple[list[str], np.ndarray]:
    """Ids and float values of an `embed` / `predict` CSV."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [r[0] for r in rows], np.array([[float(v) for v in r[1:]] for r in rows])


def test_embeddings_and_predictions_parse_back_bit_equal(workdir, capsys):
    config = str(workdir / "config.json")
    out = workdir / "run"
    table = str(out / "synth.csv")
    assert run_cli(["synth", "--config", config, "--out", str(out)]) == 0
    assert run_cli(["train", "--config", config, "--table", table, "--out", str(out)]) == 0
    checkpoint = str(out / "checkpoint.json")
    for stage in ("embed", "predict"):
        assert run_cli([stage, "--config", config, "--table", table,
                        "--checkpoint", checkpoint, "--out", str(out)]) == 0
    capsys.readouterr()
    model = CustomerEncoder.load(checkpoint)
    loaded = order_records(load_table(table, TABLE_FORMAT))
    for name, (names, want) in (("embeddings.csv", model.represent(loaded)),
                                ("predictions.csv", model.predict_proba(loaded, "churn"))):
        got_names, got = read_values(out / name)
        assert got_names == names
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=3, max_size=3), min_size=1, max_size=4))
def test_written_values_parse_back_bit_equal(rows):
    # every finite double, -0.0, subnormals and the extremes included
    values = np.array(rows, dtype=np.float64)
    names = [f"c{i}" for i in range(len(rows))]
    cut = len(rows) // 2                    # written as two chunks, one maybe empty
    chunks = [(names[:cut], values[:cut]), (names[cut:], values[cut:])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.csv"
        texts = (_csv_rows(*chunk) for chunk in chunks)
        assert _write_text(path, ["customer_id", "a", "b", "c"], texts) == len(rows)
        got_names, got = read_values(path)
    assert got_names == names and got.tobytes() == values.tobytes()


def test_pipeline_is_deterministic(workdir, capsys):
    config = str(workdir / "config.json")
    outputs = []
    for run in range(2):
        out = str(workdir / f"rep{run}")
        run_cli(["synth", "--config", config, "--out", out])
        run_cli(["train", "--config", config, "--table", f"{out}/synth.csv",
                 "--out", out])
        run_cli(["embed", "--config", config, "--table", f"{out}/synth.csv",
                 "--checkpoint", f"{out}/checkpoint.json", "--out", out])
        run_cli(["evaluate", "--config", config, "--table", f"{out}/synth.csv",
                 "--checkpoint", f"{out}/checkpoint.json", "--out", out])
        outputs.append({name: (workdir / f"rep{run}" / name).read_bytes()
                        for name in ("synth.csv", "checkpoint.json",
                                     "train_log.jsonl", "embeddings.csv",
                                     "metrics.json")})
    assert outputs[0] == outputs[1]
    capsys.readouterr()


class FullDisk:
    """A text file that takes the first few characters of the first write,
    then raises as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[:5])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """The run config, table, schema and checkpoint of `workdir`'s pipeline."""
    directory = tmp_path_factory.mktemp("inputs")
    config = directory / "config.json"
    config.write_text(json.dumps(PIPELINE))
    common = ["--config", str(config), "--out", str(directory)]
    table = ["--table", str(directory / "synth.csv")]
    with redirect_stdout(io.StringIO()):
        for argv in (["synth"], ["profile", *table], ["train", *table]):
            assert main(argv + common) == 0
    return directory


# A stage whose write fails part-way leaves neither the file it was writing
# nor a `.part` file beside it.
@pytest.mark.parametrize("stage,name", [
    ("profile", "schema.json"), ("profile", "stats.json"), ("synth", "synth.csv"),
    ("train", "checkpoint.json"), ("train", "train_log.jsonl"), ("embed", "embeddings.csv"),
    ("predict", "predictions.csv"), ("interpret", "genome.json"),
    ("interpret", "genome.txt"), ("evaluate", "metrics.json")])
def test_a_failed_write_leaves_no_file(stage_inputs, tmp_path, monkeypatch, stage, name):
    real_open = Path.open

    def open_filling(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return FullDisk(fh) if path.name == name + ".part" else fh

    monkeypatch.setattr(Path, "open", open_filling)
    argv = [stage, "--config", str(stage_inputs / "config.json"), "--out", str(tmp_path)]
    if stage != "synth":
        argv += ["--table", str(stage_inputs / "synth.csv")]
    if stage not in ("profile", "synth", "train"):
        argv += ["--checkpoint", str(stage_inputs / "checkpoint.json")]
    if stage == "interpret":
        argv.append("--text")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(argv) == EXIT_CODES[stage]
    assert json.loads(err.getvalue())["error"]["code"] == "io-error"
    assert not (tmp_path / name).exists()
    assert not list(tmp_path.glob("*.part"))


def test_missing_date_index_fails_with_error_json(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("customer_id,age\na,1\nb,2\n")
    code = run_cli(["profile", "--table", str(table), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_CODES["profile"]
    payload = json.loads(captured.err)
    assert payload["error"]["code"] == "missing-date-index"


def test_unreadable_table_maps_to_stage_exit_code(tmp_path, capsys):
    code = run_cli(["embed", "--table", str(tmp_path / "absent.csv"),
                    "--checkpoint", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_CODES["embed"]
    payload = json.loads(captured.err)
    assert "message" in payload["error"]


def test_profile_creates_missing_out_dir(tmp_path, capsys):
    table = synth_generate(SynthConfig(n_customers=12, records_min=3, records_max=6, seed=1))
    save_table(table, tmp_path / "t.csv", TABLE_FORMAT)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"format": FORMAT}))
    out = tmp_path / "absent" / "run"
    assert run_cli(["profile", "--config", str(config), "--table", str(tmp_path / "t.csv"),
                    "--out", str(out)]) == 0
    assert (out / "schema.json").exists() and (out / "stats.json").exists()
    assert not capsys.readouterr().err


def test_bad_config_reports_stage_code(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text('{"synth": {"n_customers": -4}}')
    code = run_cli(["synth", "--config", str(config), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_CODES["synth"]
    assert json.loads(captured.err)["error"]["code"]


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "tabrep.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in EXIT_CODES:
        assert name in proc.stdout


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("imports,preset,want", [
    ("tabrep", {}, "1"), ("tabrep", {"OPENBLAS_NUM_THREADS": "3"}, "3"),
    ("tabrep", {"OMP_NUM_THREADS": "2"}, "None"), ("tabrep", {"MKL_NUM_THREADS": "2"}, "None"),
    ("numpy, tabrep", {}, "None")])
def test_importing_tabrep_before_numpy_pins_one_blas_thread_unless_set(imports, preset, want):
    env = {**{var: None for var in THREAD_VARS}, **preset}
    proc = fresh_python(["-c", f"import os, {imports}; "
                               f"print(os.environ.get('OPENBLAS_NUM_THREADS'))"], **env)
    assert proc.stdout.split() == [want], proc.stderr


def test_train_and_embed_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": 2, "format": FORMAT, "tasks": ["churn"],
                                  "synth": {"n_customers": 600, "records_min": 3,
                                            "records_max": 8},
                                  "train": {"epochs": 1}}))
    assert run_cli(["synth", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        common = ["--config", str(config), "--table", str(tmp_path / "synth.csv"),
                  "--out", str(out)]
        for argv in (["train", *common], ["embed", *common, "--checkpoint",
                                          str(out / "checkpoint.json")]):
            proc = fresh_python(["-m", "tabrep.cli", *argv], OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
        outputs.append({name: (out / name).read_bytes()
                        for name in ("checkpoint.json", "train_log.jsonl", "embeddings.csv")})
    assert outputs[0] == outputs[1]


def test_overflowing_training_writes_only_the_error_json_to_stderr(tmp_path):
    # the forward overflows once a step has scaled the weights by 1e308;
    # numpy's warnings must not reach stderr ahead of the error JSON
    table = synth_generate(SynthConfig(n_customers=12, records_min=3, records_max=6, seed=1))
    save_table(table, tmp_path / "t.csv", TABLE_FORMAT)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"format": FORMAT, "tasks": ["churn"],
                                  "train": {"learning_rate": 1e308}}))
    proc = fresh_python(["-m", "tabrep.cli", "train", "--config", str(config),
                         "--table", str(tmp_path / "t.csv"), "--out", str(tmp_path)])
    assert proc.returncode == EXIT_CODES["train"]
    assert json.loads(proc.stderr)["error"]["code"] == "non-finite-gradient"


# Malformed inputs fed through `cli.main`: each must end in the error JSON on
# stderr and the stage's exit code, never in a traceback. Every row runs on
# a small valid synthetic table, `t.csv`; a row may replace it or supply the
# stage's `schema.json` (train) or `m.json` checkpoint, either as bytes or
# as a maker `write(path, table)`. Grow as gaps turn up.
FORMAT = {"date_column": "date", "label_columns": ["churn"]}
TABLE_FORMAT = TableFormat(date_column="date", label_columns=("churn",))
TINY_MODEL = dict(embed_dim=4, n_s=3, heads=1, t_max=1, rep_width=4, fusion_hidden=4,
                  head_hidden=4, recon_count=1, recon_dim=2, dropout=0.0)


def schema_file(edit=lambda payload: None):
    """Maker of the table's recognized schema, after `edit` of its JSON."""
    def write(path, table):
        payload = build_schema(table).to_dict()
        edit(payload)
        path.write_text(json.dumps(payload))
    return write


def checkpoint_file(edit=lambda payload: None, tasks=None):
    """Maker of an untrained checkpoint for the table, after `edit` of its JSON."""
    def write(path, table):
        CustomerEncoder(build_schema(table), ModelConfig(**TINY_MODEL),
                        tasks or {"churn": 2}).save(path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return write


def table_file(label):
    """Maker of the table with its first customer's churn label set to `label`."""
    def write(path, table):
        labels = {**table.labels["churn"], table.customers[0]: label}
        save_table(replace(table, labels={"churn": labels}), path, TABLE_FORMAT)
    return write


def label_cells(*texts):
    """Maker of the table with its first customer's churn cells set to
    `texts` in file order, and that customer's later churn cells empty."""
    def write(path, table):
        save_table(table, path, TABLE_FORMAT)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        first = [row for row in rows if row[0] == table.customers[0]]
        for i, row in enumerate(first):
            row[-1] = texts[i] if i < len(texts) else ""
        with path.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return write


def as_version_2(payload):
    """A version-2 checkpoint: its config still held `attention_literal_scale`."""
    payload["version"] = 2
    payload["config"]["attention_literal_scale"] = False


def overflowing_range(payload):
    feature = next(iter(payload["numeric_stats"]))
    payload["numeric_stats"][feature] = [-1.5e308, 1.5e308]


def drop_first(section):
    """Schema edit: remove the first feature's entry from `section`."""
    def edit(payload):
        del payload[section][next(iter(payload[section]))]
    return edit


def first_entry(section, value):
    """Schema edit: the first feature's entry in `section` becomes `value`."""
    def edit(payload):
        payload[section][next(iter(payload[section]))] = value
    return edit


def vocabulary_ids(ids):
    """Schema edit: the first tokens of the first vocabulary get `ids`."""
    def edit(payload):
        vocab = next(iter(payload["vocabularies"].values()))
        vocab.update(zip(list(vocab), ids))
    return edit


def renamed_feature(payload):
    """Schema edit: the last feature renamed throughout, so the schema is
    well formed but names a feature the table does not have."""
    old = payload["feature_order"][-1]
    new = payload["feature_order"][-1] = f"{old}_renamed"
    for section in ("kinds", "vocabularies", "numeric_stats", "dynamics_summary"):
        if old in payload[section]:
            payload[section][new] = payload[section].pop(old)


def first_weight(value):
    def edit(payload):
        next(iter(payload["params"].values()))["data"][0] = value
    return edit


def fusion_bias_data(convert):
    """Checkpoint edit: each value of `fusion.b1` replaced by `convert(value)`."""
    def edit(payload):
        record = payload["params"]["fusion.b1"]
        record["data"] = [convert(v) for v in record["data"]]
    return edit


MALFORMED = [
    # (id, stage, config object, files, expected error code)
    ("target-unknown-key", "interpret",
     {"interpret": {"targets": [{"kind": "position", "colour": 1}]}}, {}, "config-error"),
    ("target-not-an-object", "interpret",
     {"interpret": {"targets": ["position"]}}, {}, "config-error"),
    ("target-number", "interpret", {"interpret": {"targets": [3]}}, {}, "config-error"),
    ("target-list", "interpret",
     {"interpret": {"targets": [["position", 0]]}}, {}, "config-error"),
    ("targets-not-a-list", "interpret", {"interpret": {"targets": 7}}, {}, "config-error"),
    ("target-position-string", "interpret",
     {"interpret": {"targets": [{"kind": "position", "position": "0"}]}}, {}, "config-error"),
    ("target-unknown-kind", "interpret",
     {"interpret": {"targets": [{"kind": "gradient"}]}}, {}, "config-error"),
    ("section-not-an-object", "interpret", {"interpret": "fast"}, {}, "config-error"),
    ("baseline-section", "profile", {"baseline": {"epochs": 10}}, {}, "config-error"),
    ("seed-string", "train", {"seed": "abc"}, {"schema.json": schema_file()}, "config-error"),
    ("seed-fraction", "train", {"seed": 1.5}, {"schema.json": schema_file()}, "config-error"),
    ("tasks-string", "train", {"tasks": "churn"}, {"schema.json": schema_file()},
     "config-error"),
    ("table-not-utf8", "profile", {},
     {"t.csv": "customer_id,date,f\nc1,2020-01-01,caf\xe9\n".encode("latin-1")}, "io-error"),
    ("table-cell-over-csv-field-limit", "profile", {},
     {"t.csv": b"customer_id,date,f,churn\nc1,2020-01-01," + b"x" * (2 ** 17 + 1) + b",0\n"},
     "parse-error"),
    ("table-range-overflows", "profile", {},
     {"t.csv": b"customer_id,date,f,churn\nc1,2020-01-01,1.5e308,0\n"
               b"c1,2020-01-02,0.5,0\nc2,2020-01-01,-1.5e308,1\n"}, "schema-error"),
    ("schema-range-overflows", "train", {},
     {"schema.json": schema_file(overflowing_range)}, "schema-error"),
    ("schema-kind-without-vocabulary", "train", {},
     {"schema.json": schema_file(drop_first("vocabularies"))}, "schema-error"),
    ("schema-kind-without-range", "train", {},
     {"schema.json": schema_file(drop_first("numeric_stats"))}, "schema-error"),
    ("schema-kind-outside-feature-order", "train", {},
     {"schema.json": schema_file(lambda s: s["kinds"].update(extra="SC"))}, "schema-error"),
    ("schema-vocabulary-id-string", "train", {},
     {"schema.json": schema_file(vocabulary_ids(["x"]))}, "schema-error"),
    ("schema-vocabulary-id-missing", "train", {},
     {"schema.json": schema_file(vocabulary_ids([0]))}, "schema-error"),
    ("schema-vocabulary-id-shared", "train", {},
     {"schema.json": schema_file(vocabulary_ids([2, 2]))}, "schema-error"),
    ("schema-numeric-stats-string", "train", {},
     {"schema.json": schema_file(first_entry("numeric_stats", ["0.5", "9"]))}, "schema-error"),
    ("schema-dynamics-count-fraction", "train", {},
     {"schema.json": schema_file(first_entry("dynamics_summary", 2.7))}, "schema-error"),
    ("checkpoint-schema-numeric-stats-string", "embed", {},
     {"m.json": checkpoint_file(lambda c: first_entry("numeric_stats", ["0.5", "9"])(c["schema"]))},
     "io-error"),
    ("checkpoint-schema-dynamics-count-fraction", "embed", {},
     {"m.json": checkpoint_file(lambda c: first_entry("dynamics_summary", 2.7)(c["schema"]))},
     "io-error"),
    # a well-formed schema or checkpoint of other features than the table's
    ("schema-of-other-features", "train", {},
     {"schema.json": schema_file(renamed_feature)}, "schema-mismatch"),
    ("checkpoint-of-other-features", "embed", {},
     {"m.json": checkpoint_file(lambda c: renamed_feature(c["schema"]))}, "schema-mismatch"),
    ("schema-corrupt-json", "train", {}, {"schema.json": b'{"feature_order": ['}, "io-error"),
    ("schema-missing-keys", "train", {},
     {"schema.json": schema_file(lambda s: s.pop("kinds"))}, "io-error"),
    ("checkpoint-missing-tasks", "embed", {},
     {"m.json": checkpoint_file(lambda c: c.pop("tasks"))}, "io-error"),
    ("checkpoint-unknown-config-key", "embed", {},
     {"m.json": checkpoint_file(lambda c: c["config"].update(colour=1))}, "io-error"),
    ("checkpoint-version-1", "embed", {},
     {"m.json": checkpoint_file(lambda c: c.update(version=1))}, "io-error"),
    ("checkpoint-version-2", "embed", {},
     {"m.json": checkpoint_file(as_version_2)}, "io-error"),
    ("checkpoint-version-3", "embed", {},
     {"m.json": checkpoint_file(lambda c: c.update(version=3))}, "io-error"),
    ("checkpoint-task-one-class", "embed", {},
     {"m.json": checkpoint_file(lambda c: c.update(tasks={"churn": 1}))}, "io-error"),
    ("checkpoint-seed-fraction", "embed", {},
     {"m.json": checkpoint_file(lambda c: c.update(seed=1.5))}, "io-error"),
    ("checkpoint-seed-bool", "embed", {},
     {"m.json": checkpoint_file(lambda c: c.update(seed=True))}, "io-error"),
    ("checkpoint-nested-data", "embed", {},
     {"m.json": checkpoint_file(fusion_bias_data(lambda v: [v]))}, "io-error"),
    ("checkpoint-bool-data", "embed", {},
     {"m.json": checkpoint_file(fusion_bias_data(lambda v: True))}, "io-error"),
    ("checkpoint-huge-int-data", "embed", {},
     {"m.json": checkpoint_file(fusion_bias_data(lambda v: 10 ** 400))}, "io-error"),
    ("checkpoint-nan-weight", "embed", {},
     {"m.json": checkpoint_file(first_weight(float("nan")))}, "io-error"),
    ("checkpoint-inf-weight", "embed", {},
     {"m.json": checkpoint_file(first_weight(float("-inf")))}, "io-error"),
    ("evaluate-three-class-head", "evaluate", {},
     {"m.json": checkpoint_file(tasks={"churn": 3})}, "config-error"),
    ("evaluate-label-outside-binary", "evaluate", {},
     {"t.csv": table_file(2), "m.json": checkpoint_file()}, "config-error"),
    # a label a load accepts is a non-negative integer, and a task has no more
    # classes than max(2, customers)
    ("train-label-huge", "train", {},
     {"t.csv": table_file("1e12"), "schema.json": schema_file()}, "config-error"),
    ("train-label-fraction", "train", {},
     {"t.csv": table_file("0.7"), "schema.json": schema_file()}, "parse-error"),
    ("train-label-negative", "train", {},
     {"t.csv": table_file("-3"), "schema.json": schema_file()}, "parse-error"),
    # every label cell is read: a token, a date, or a later label that differs
    ("train-label-token-then-integer", "train", {},
     {"t.csv": label_cells("yes", "1"), "schema.json": schema_file()}, "parse-error"),
    ("train-label-later-differs", "train", {},
     {"t.csv": label_cells("0", "1"), "schema.json": schema_file()}, "parse-error"),
    ("train-label-date", "train", {},
     {"t.csv": label_cells("2020-01-01"), "schema.json": schema_file()}, "parse-error"),
    # one row per config field whose type or bounds went unchecked
    ("model-heads-zero", "train", {"model": {"heads": 0}}, {"schema.json": schema_file()},
     "config-error"),
    ("checkpoint-heads-zero", "embed", {},
     {"m.json": checkpoint_file(lambda c: c["config"].update(heads=0))}, "io-error"),
    ("model-n-s-zero", "train", {"model": {"n_s": 0}}, {"schema.json": schema_file()},
     "config-error"),
    ("model-n-s-negative", "train", {"model": {"n_s": -1}}, {"schema.json": schema_file()},
     "config-error"),
    ("model-embed-dim-zero", "train", {"model": {"embed_dim": 0}},
     {"schema.json": schema_file()}, "config-error"),
    ("model-heads-not-dividing-width", "train", {"model": {"heads": 3}},
     {"schema.json": schema_file()}, "config-error"),
    ("model-t-max-zero", "train", {"model": {"t_max": 0}}, {"schema.json": schema_file()},
     "config-error"),
    ("train-learning-rate-string", "train", {"train": {"learning_rate": "x"}},
     {"schema.json": schema_file()}, "config-error"),
    ("train-batch-size-fraction", "train", {"train": {"batch_size": 1.5}},
     {"schema.json": schema_file()}, "config-error"),
    ("train-task-weights-list", "train", {"train": {"task_weights": [1]}},
     {"schema.json": schema_file()}, "config-error"),
    ("train-task-weights-unknown-task", "train", {"train": {"task_weights": {"chrun": 5.0}}},
     {"schema.json": schema_file()}, "config-error"),
    ("model-act-epsilon-string", "train", {"model": {"act_epsilon": "a"}},
     {"schema.json": schema_file()}, "config-error"),
    ("interpret-k-fraction", "interpret", {"interpret": {"k": 2.5}},
     {"m.json": checkpoint_file()}, "config-error"),
    ("format-delimiter-two-characters", "profile", {"format": {**FORMAT, "delimiter": ";;"}},
     {}, "config-error"),
    ("seed-negative", "train", {"seed": -1}, {"schema.json": schema_file()}, "config-error"),
    ("model-recon-count-negative", "train", {"model": {"recon_count": -1}},
     {"schema.json": schema_file()}, "config-error"),
    ("model-dropout-above-one", "train", {"model": {"dropout": 2.0}},
     {"schema.json": schema_file()}, "config-error"),
    ("checkpoint-dropout-above-one", "embed", {},
     {"m.json": checkpoint_file(lambda c: c["config"].update(dropout=2.0))}, "io-error"),
    ("train-learning-rate-negative", "train", {"train": {"learning_rate": -1}},
     {"schema.json": schema_file()}, "config-error"),
    ("checkpoint-task-count-fraction", "embed", {},
     {"m.json": checkpoint_file(lambda c: c.update(tasks={"churn": 2.7}))}, "io-error"),
    ("format-label-columns-string", "profile",
     {"format": {**FORMAT, "label_columns": "churn"}}, {}, "config-error"),
    ("checkpoint-seed-negative", "embed", {},
     {"m.json": checkpoint_file(lambda c: c.update(seed=-1))}, "io-error"),
]


def run_on_files(tmp_path, stage, config, files):
    table = synth_generate(SynthConfig(n_customers=12, records_min=3, records_max=6, seed=1))
    save_table(table, tmp_path / "t.csv", TABLE_FORMAT)
    for name, content in files.items():
        if callable(content):
            content(tmp_path / name, table)
        else:
            (tmp_path / name).write_bytes(content)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"format": FORMAT, **config}))
    argv = [stage, "--config", str(path), "--out", str(tmp_path),
            "--table", str(tmp_path / "t.csv")]
    if stage == "train":
        argv += ["--schema", str(tmp_path / "schema.json")]
    elif stage != "profile":
        argv += ["--checkpoint", str(tmp_path / "m.json")]
    return run_cli(argv)


@pytest.mark.parametrize("stage,config,files,code", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_malformed_input_ends_in_error_json(tmp_path, capsys, stage, config, files, code):
    assert run_on_files(tmp_path, stage, config, files) == EXIT_CODES[stage]
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["code"] == code
    assert payload["error"]["message"]


@pytest.mark.parametrize("stage,files", [
    ("profile", {}),
    ("train", {"schema.json": schema_file()}),
    ("embed", {"m.json": checkpoint_file()}),
    ("evaluate", {"m.json": checkpoint_file()}),
])
def test_unedited_malformed_row_files_are_accepted(tmp_path, capsys, stage, files):
    # so each MALFORMED row fails on its own edit, not on the shared set-up
    assert run_on_files(tmp_path, stage, {"train": {"epochs": 1}}, files) == 0
    assert not capsys.readouterr().err


@pytest.mark.parametrize("token", ["", "na", "7", "2020-01-01", " x "])
def test_signal_token_that_does_not_load_back_as_itself_ends_in_config_error(tmp_path, capsys,
                                                                             token):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"synth": {"n_customers": 30, "signal_token": token}}))
    assert run_cli(["synth", "--config", str(path), "--out", str(tmp_path)]) == \
        EXIT_CODES["synth"]
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["code"] == "config-error"
    assert "signal_token" in payload["error"]["message"]
    assert not (tmp_path / "synth.csv").exists()


def test_negative_seed_override_ends_in_config_error(tmp_path, capsys):
    assert run_cli(["synth", "--seed", "-3", "--out", str(tmp_path)]) == EXIT_CODES["synth"]
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["code"] == "config-error"
    assert payload["error"]["message"].startswith("seed ")


# One field of a valid run config or checkpoint set to a bad or odd value:
# every example ends in exit 0 or in the stage's exit code with the error
# JSON on stderr, never in a traceback.
VALID_RUN = {"seed": 3, "tasks": ["churn"], "format": FORMAT, "model": TINY_MODEL,
             "train": {"epochs": 1, "batch_size": 4},
             "synth": {"n_customers": 12, "records_min": 3, "records_max": 6},
             "interpret": {"k": 2, "mask_samples": 2}}
RUN_FIELDS = [(None, "seed"), (None, "tasks")] + [
    (section, f.name) for section, cls in _SECTIONS.items() for f in fields(cls)]
CHECKPOINT_FIELDS = [(None, "seed"), (None, "tasks")] + [
    ("config", f.name) for f in fields(ModelConfig)]
STAGE_OF_SECTION = {None: "train", "format": "profile", "recognizer": "profile",
                    "model": "train", "train": "train", "synth": "synth",
                    "interpret": "interpret"}
odd_values = st.sampled_from([0, -1, -2.5, 1.5, float("nan"), 1e308, "x", [1], None, True])


def set_field(payload, section, name, value):
    target = payload if section is None else payload.setdefault(section, {})
    target[name] = value


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(in_checkpoint=st.booleans(), run_field=st.sampled_from(RUN_FIELDS),
       checkpoint_field=st.sampled_from(CHECKPOINT_FIELDS), value=odd_values)
def test_mutated_config_field_ends_in_exit_zero_or_error_json(in_checkpoint, run_field,
                                                             checkpoint_field, value):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        table = synth_generate(SynthConfig(n_customers=12, records_min=3, records_max=6, seed=1))
        save_table(table, tmp / "t.csv", TABLE_FORMAT)
        config = json.loads(json.dumps(VALID_RUN))
        if in_checkpoint:
            stage = "embed"
            checkpoint_file(lambda c: set_field(c, *checkpoint_field, value))(tmp / "m.json", table)
        else:
            stage = STAGE_OF_SECTION[run_field[0]]
            set_field(config, *run_field, value)
            checkpoint_file()(tmp / "m.json", table)
        (tmp / "c.json").write_text(json.dumps(config))
        argv = [stage, "--config", str(tmp / "c.json"), "--out", str(tmp)]
        if stage != "synth":
            argv += ["--table", str(tmp / "t.csv")]
        if stage in ("embed", "interpret"):
            argv += ["--checkpoint", str(tmp / "m.json")]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        if code != 0:
            assert code == EXIT_CODES[stage]
            assert json.loads(err.getvalue())["error"]["code"]


# One field of a built `schema.json` (at any depth, list items included) set
# to an odd value or removed: `train --schema` ends in exit 0 or in its exit
# code, and stderr is then one error JSON document.
def json_paths(value, prefix=()):
    """The key path of every member and list item inside `value`."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from json_paths(child, prefix + (key,))


REMOVE = object()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data(), value=st.one_of(odd_values, st.just(REMOVE)))
def test_mutated_schema_field_ends_in_exit_zero_or_error_json(data, value):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        table = synth_generate(SynthConfig(n_customers=12, records_min=3, records_max=6, seed=1))
        save_table(table, tmp / "t.csv", TABLE_FORMAT)
        payload = build_schema(table).to_dict()
        *parents, key = data.draw(st.sampled_from(list(json_paths(payload))))
        owner = payload
        for part in parents:
            owner = owner[part]
        if value is REMOVE:
            del owner[key]
        else:
            owner[key] = value
        (tmp / "schema.json").write_text(json.dumps(payload))
        (tmp / "c.json").write_text(json.dumps(VALID_RUN))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["train", "--config", str(tmp / "c.json"), "--table", str(tmp / "t.csv"),
                         "--schema", str(tmp / "schema.json"), "--out", str(tmp)])
        if code == 0:
            assert not err.getvalue()
        else:
            assert code == EXIT_CODES["train"]
            assert json.loads(err.getvalue())["error"]["code"]


# Every config dataclass: its default instance passes, and each field
# rejects a value of no config type, alone or inside a container, so
# `check_fields` understands the field's annotation (one it cannot check
# raises `TypeError`). A field with bounds also rejects NaN.
@pytest.mark.parametrize("make", [
    *_SECTIONS.values(), RunConfig, BaselineConfig,
    lambda: Target(kind="position"), lambda: _EncoderArgs({}, 0)])
def test_every_config_field_is_checked(make):
    config = make()
    check_fields(config)
    for f in fields(config):
        stray = object()
        for value in [stray, (stray,), [stray], {"x": stray}] + [float("nan")] * bool(f.metadata):
            with pytest.raises(ConfigError, match=f"^{f.name} must be"):
                replace(config, **{f.name: value})


# Random small tables through `profile` and `train`: every example ends in
# exit 0 or in the stage's exit code with the error JSON on stderr. Any other
# exception escapes `cli.main` as a traceback and fails the test.
TRICKY_CELLS = ["", "0", "1", "-2.5", "1e308", "-1e308", "1e999", "nan", "inf",
                "2020-01-01", "2020-02-30", "\x00", '"', '""', '"a,b"', 'x"y', "c1"]
cells = st.one_of(st.sampled_from(TRICKY_CELLS), st.text(max_size=5))
table_rows = st.lists(
    st.tuples(st.sampled_from(["", "c1", "c2", "c3", "\x00"]),
              st.sampled_from(["2020-01-01", "2020-01-02", "2021-06-30", "", "01/02/2020"]),
              cells, cells, st.sampled_from(["0", "1", "", "2", "x"])),
    min_size=1, max_size=8)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(rows=table_rows)
def test_random_tables_end_in_exit_zero_or_error_json(rows):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lines = ["customer_id,date,f,g,churn"] + [",".join(row) for row in rows]
        (tmp / "t.csv").write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))
        (tmp / "c.json").write_text(json.dumps(
            {"format": FORMAT, "model": TINY_MODEL, "train": {"epochs": 1, "batch_size": 4}}))
        common = ["--config", str(tmp / "c.json"), "--table", str(tmp / "t.csv"),
                  "--out", str(tmp)]
        for stage, extra in (("profile", []), ("train", ["--schema", str(tmp / "schema.json")])):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([stage] + common + extra)
            if code != 0:
                assert code == EXIT_CODES[stage]
                assert json.loads(err.getvalue())["error"]["code"]
                break


# `schema.json` of random small tables: written, read and written again, it
# is the same bytes.
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(rows=table_rows)
def test_schema_json_rewrites_byte_for_byte(rows):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lines = ["customer_id,date,f,g,churn"] + [",".join(row) for row in rows]
        (tmp / "t.csv").write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))
        (tmp / "c.json").write_text(json.dumps({"format": FORMAT}))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["profile", "--config", str(tmp / "c.json"), "--table", str(tmp / "t.csv"),
                         "--out", str(tmp)])
        assume(code == 0)
        first = (tmp / "schema.json").read_bytes()
        FeatureSchema.load(tmp / "schema.json").save(tmp / "again.json")
        assert (tmp / "again.json").read_bytes() == first
