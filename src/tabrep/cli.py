"""Batch command line: profile | synth | train | embed | predict | interpret
| evaluate.

One JSON config file drives every stage; flags override the seed and paths.
Commands never mutate their inputs, write deterministic artifacts (no
timestamps, sorted keys) and fail with a machine-readable error JSON on
stderr plus a stage-specific exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import NON_NEGATIVE, Checked, ConfigError, InterleavedTableError, TabrepError
from .eval import MetricSet, SynthConfig, synth_generate, task_labels
from .interpret import InterpretConfig, Target, genome_report
from .model import EVAL_BATCH, CustomerEncoder, ModelConfig, TrainConfig, chunk_stream
from .prep import FeatureSchema, RecognizerConfig, TableProfile, build_schema
from .table import (BigTable, TableFormat, compute_stats, load_table, order_records, read_groups,
                    replacing, save_table)
from .workers import ordered_map

EXIT_CODES = {"profile": 10, "synth": 11, "train": 12, "embed": 13,
              "predict": 14, "interpret": 15, "evaluate": 16}


@dataclass
class RunConfig(Checked):
    """Materialized view of the JSON config file with all defaults filled."""

    seed: int = field(default=0, metadata=NON_NEGATIVE)
    format: TableFormat = TableFormat()
    recognizer: RecognizerConfig = RecognizerConfig()
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    synth: SynthConfig = SynthConfig()
    interpret: InterpretConfig = InterpretConfig()
    tasks: list[str] = field(default_factory=list)


_SECTIONS = {f.name: type(f.default) for f in fields(RunConfig) if is_dataclass(f.default)}


def load_config(path: str | None, seed_override: int | None = None) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_SECTIONS) - {"seed", "tasks"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    seed = raw.get("seed", 0) if seed_override is None else seed_override
    cfg = RunConfig(seed=seed, tasks=raw.get("tasks", []))

    for name, cls in _SECTIONS.items():
        try:
            section = dict(raw.get(name, {}))
            if name == "format" and isinstance(section.get("label_columns"), list):
                section["label_columns"] = tuple(section["label_columns"])
            if name == "interpret" and isinstance(section.get("targets"), list):
                try:
                    section["targets"] = tuple(Target(**t) for t in section["targets"])
                except ConfigError as e:
                    raise ConfigError(f"targets.{e}") from e
            # stage seeds follow the run seed unless pinned explicitly
            if name in ("train", "synth", "interpret") and "seed" not in section:
                section["seed"] = cfg.seed
            setattr(cfg, name, cls(**section))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad [{name}] section: {e}") from e
        except ConfigError as e:
            raise ConfigError(f"{name}.{e}") from e
    return cfg


def _out_dir(args) -> Path:
    """The `--out` directory, created if missing."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    """Write `text` to `path` through `table.replacing`: every stage writes
    each output under a temporary name and renames it when complete."""
    with replacing(path) as fh:
        fh.write(text)


def _csv_rows(names: list[str], rows: np.ndarray) -> tuple[int, str]:
    """The row count and the CSV text of one chunk: per customer its id,
    then `repr(float)` of each value."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        [cid, *map(repr, row)] for cid, row in zip(names, rows.tolist()))
    return len(names), text.getvalue()


def _write_text(path: Path, header: list, texts) -> int:
    """Write the CSV `header`, then each of the `(count, text)` pairs of
    `texts` as it comes; returns the summed count."""
    count = 0
    with replacing(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for n, text in texts:
            fh.write(text)
            count += n
    return count


def _load_ordered(args, cfg: RunConfig) -> BigTable:
    table = load_table(args.table, cfg.format)
    return order_records(table)


def _table_groups(args, cfg: RunConfig) -> Iterator[BigTable]:
    """The table's customers, EVAL_BATCH at a time in file order, each group
    in time order and read when asked for; the first is read at the call.
    Without a date column no group can be ordered, and the stage fails as a
    whole-table pass fails: on a malformed row anywhere in the file first."""
    if cfg.format.date_column is None:
        return iter([_load_ordered(args, cfg)])
    groups = map(order_records, read_groups(args.table, cfg.format, EVAL_BATCH))
    return chain([next(groups)], groups)


def _by_groups(args, cfg: RunConfig, groups: Iterator[BigTable], use):
    """`use(groups)`, or, when a customer's rows turn out not to be together
    in the file, `use` of the whole table as one group."""
    try:
        return use(groups)
    except InterleavedTableError:
        pass                # out of the handler, so that the failed pass is freed first
    return use([_load_ordered(args, cfg)])


def _worker_count() -> int:
    """The processes that forward scoring chunks: one per CPU this process
    may run on."""
    return len(os.sched_getaffinity(0))


def _score_groups(args, cfg: RunConfig, groups, model: CustomerEncoder, job, finish,
                  labeled: str | None = None):
    """`finish(results, labels)`: `results` yields `job` of each `chunk_stream`
    chunk of the groups' customers, in order, from `_worker_count` forked
    processes (`workers.ordered_map`), reaped when `finish` returns. With
    `labeled`, only the customers labeled for that task are scored, and
    `labels` gathers their labels, afresh for each pass of `_by_groups`."""
    def attempt(tables):
        labels: list[int] = []

        def batches():
            for table in tables:
                names, got = task_labels(table, labeled) if labeled else (table.customers, [])
                labels.extend(got)
                yield from model.encoded_chunks(table, names)

        with closing(ordered_map(job, chunk_stream(batches()), _worker_count())) as results:
            return finish(results, labels)

    return _by_groups(args, cfg, groups, attempt)


def _write_scores(args, cfg: RunConfig, groups, model: CustomerEncoder, path: Path,
                  header: list, task: str | None = None) -> int:
    """The `_csv_rows` file of `CustomerEncoder.score` of the chunks of the
    groups' customers, each chunk's text made where it is forwarded, so no
    more than one chunk's values exist at once in this process."""
    return _score_groups(args, cfg, groups, model,
                         lambda chunk: _csv_rows(chunk.customers, model.score(chunk, task)),
                         lambda texts, _: _write_text(path, header, texts))


def _task(args, model: CustomerEncoder) -> str:
    """The `--task` head, or the model's first; ConfigError when it has none."""
    task = args.task or next(iter(model.tasks), None)
    if task is None:
        raise ConfigError(f"model has no task heads; nothing to {args.command}")
    return task


def _infer_tasks(table: BigTable, names: list) -> dict[str, int]:
    tasks = {}
    for name in names:
        got = table.labels.get(name, {})
        if not got:
            raise ConfigError(f"no labels found for task {name!r}; "
                              f"is it listed in format.label_columns?")
        tasks[name] = max(2, max(int(v) for v in got.values()) + 1)
        if tasks[name] > max(2, table.n_customers):
            raise ConfigError(f"task {name!r} has a label of {tasks[name] - 1}, so "
                              f"{tasks[name]} classes for {table.n_customers} customers")
    return tasks


def _schema_for(args, cfg: RunConfig, table: BigTable) -> FeatureSchema:
    if getattr(args, "schema", None):
        return FeatureSchema.load(args.schema)
    return build_schema(table, cfg.recognizer)


def cmd_profile(args, cfg: RunConfig) -> int:
    profile = _by_groups(args, cfg, _table_groups(args, cfg),
                         lambda tables: TableProfile.of(tables, cfg.recognizer))
    schema = build_schema(profile)
    stats = compute_stats(profile, schema)
    out = _out_dir(args)
    schema.save(out / "schema.json")
    _write(out / "stats.json", stats.to_json())
    print(f"profiled {profile.n_customers} customers, {len(profile.features)} features "
          f"-> {out / 'schema.json'}, {out / 'stats.json'}")
    return 0


def cmd_synth(args, cfg: RunConfig) -> int:
    table = synth_generate(cfg.synth)
    out = _out_dir(args) / (args.name or "synth.csv")
    fmt = replace(cfg.format, date_column=cfg.format.date_column or "date",
                  label_columns=(cfg.synth.task,))
    save_table(table, out, fmt)
    print(f"wrote {table.n_customers} customers to {out}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    table = _load_ordered(args, cfg)
    schema = _schema_for(args, cfg, table)
    task_names = cfg.tasks or list(table.labels)
    tasks = _infer_tasks(table, task_names) if task_names else {}
    model = CustomerEncoder(schema, cfg.model, tasks, seed=cfg.seed)
    log = model.fit(table, cfg.train)
    out = _out_dir(args)
    model.save(out / "checkpoint.json")
    log_lines = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in log)
    _write(out / "train_log.jsonl", log_lines)
    last = log[-1] if log else {}
    print(f"trained {len(log)} epochs on {table.n_customers} customers "
          f"-> {out / 'checkpoint.json'} (final train loss "
          f"{last.get('train_loss', float('nan')):.4f})")
    return 0


def cmd_embed(args, cfg: RunConfig) -> int:
    groups = _table_groups(args, cfg)
    model = CustomerEncoder.load(args.checkpoint)
    header = [cfg.format.id_column] + [f"r{i:03d}" for i in range(model.config.rep_width)]
    out = _out_dir(args) / "embeddings.csv"
    count = _write_scores(args, cfg, groups, model, out, header)
    print(f"wrote {count} representation rows to {out}")
    return 0


def cmd_predict(args, cfg: RunConfig) -> int:
    groups = _table_groups(args, cfg)
    model = CustomerEncoder.load(args.checkpoint)
    task = _task(args, model)
    header = [cfg.format.id_column] + [f"p_{task}_{c}" for c in range(model.classes(task))]
    out = _out_dir(args) / "predictions.csv"
    count = _write_scores(args, cfg, groups, model, out, header, task)
    print(f"wrote {count} prediction rows to {out}")
    return 0


def cmd_interpret(args, cfg: RunConfig) -> int:
    table = _load_ordered(args, cfg)
    model = CustomerEncoder.load(args.checkpoint)
    report = genome_report(model, table, cfg.interpret)
    out = _out_dir(args)
    _write(out / "genome.json", report.to_json())
    written = [str(out / "genome.json")]
    if args.text:
        _write(out / "genome.txt", report.render_text())
        written.append(str(out / "genome.txt"))
    print(f"wrote genome report for {len(report.targets)} targets -> {', '.join(written)}")
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    groups = _table_groups(args, cfg)
    model = CustomerEncoder.load(args.checkpoint)
    task = _task(args, model)
    if model.classes(task) != 2:
        raise ConfigError(f"evaluate reports binary metrics; task {task!r} "
                          f"has {model.tasks[task]} classes")
    labels, scores = _score_groups(
        args, cfg, groups, model, lambda chunk: model.score(chunk, task)[:, 1],
        lambda rows, labels: (labels, np.concatenate([np.zeros(0), *rows])), labeled=task)
    if not labels:
        raise ConfigError(f"table has no labels for task {task!r}")
    metrics = MetricSet.from_scores(scores, labels)
    out = _out_dir(args) / "metrics.json"
    _write(out, metrics.to_json())
    print(f"evaluated task {task!r} on {len(labels)} labeled customers -> {out}: "
          f"auc {metrics.auc:.4f}, f {metrics.f_score:.4f}, "
          f"wacc {metrics.weighted_accuracy:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabrep",
        description="Customer representation pipeline over heterogeneous tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=True, checkpoint=False):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        if table:
            p.add_argument("--table", required=True, help="input CSV table")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="trained model JSON")

    common(sub.add_parser("profile", help="recognize feature kinds and table stats"))
    p = sub.add_parser("synth", help="generate a synthetic labeled table")
    common(p, table=False)
    p.add_argument("--name", help="output file name (default synth.csv)")
    p = sub.add_parser("train", help="fit the representation model")
    common(p)
    p.add_argument("--schema", help="precomputed schema JSON (default: recognize)")
    common(sub.add_parser("embed", help="write one representation row per customer"),
           checkpoint=True)
    p = sub.add_parser("predict", help="write per-customer class probabilities")
    common(p, checkpoint=True)
    p.add_argument("--task", help="task head to use (default: first)")
    p = sub.add_parser("interpret", help="write a genome report")
    common(p, checkpoint=True)
    p.add_argument("--text", action="store_true", help="also write text bars")
    p = sub.add_parser("evaluate", help="score predictions against table labels")
    common(p, checkpoint=True)
    p.add_argument("--task", help="task head to evaluate (default: first)")
    return parser


_COMMANDS = {"profile": cmd_profile, "synth": cmd_synth, "train": cmd_train,
             "embed": cmd_embed, "predict": cmd_predict,
             "interpret": cmd_interpret, "evaluate": cmd_evaluate}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed)
        return _COMMANDS[args.command](args, cfg)
    except (TabrepError, OSError) as e:
        code = "io-error" if isinstance(e, OSError) else e.code
        payload = {"error": {"code": code, "type": type(e).__name__, "message": str(e)}}
        print(json.dumps(payload), file=sys.stderr)
        return EXIT_CODES[args.command]


if __name__ == "__main__":
    sys.exit(main())
