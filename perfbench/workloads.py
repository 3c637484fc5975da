"""The benchmark workloads: seeded inputs, timed CLI stages, output checks.

Each workload feeds the `tabrep` command line only files made here from
`synth_generate` and the workload seed: a CSV table, a JSON run config and,
where a stage needs one, a checkpoint fitted during set-up.

tabrep and numpy are imported inside the functions that need them. The
benchmark's parent process must stay small: a child started by vfork
inherits the parent's peak RSS as a floor of its own `ru_maxrss`. Set-up
therefore runs in a child of its own, through this file's `__main__`:

    python perfbench/workloads.py <workload.json> <seed> <dir> <repeats>
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter

TASK = "churn"
TABLE_FORMAT = {"date_column": "date", "label_columns": [TASK]}

# Small acceptance-test model and the criterion-7 training recipe.
ENCODER_CONFIG = dict(embed_dim=12, n_s=8, heads=2, t_max=2, rep_width=16,
                      fusion_hidden=32, head_hidden=16, recon_count=1,
                      recon_dim=8, dropout=0.0)
CRITERION7_TRAIN = dict(epochs=20, batch_size=32, learning_rate=3e-3,
                        recon_weight=0.3, validation_fraction=0.15)

# The run seed picks the table; the model's init, split, batch order and
# masking draws use this fixed seed. A model seeded per run would change
# halting depth from run to run, and with it forward cost and graph memory.
MODEL_SEED = 0

MIN_VAL_AUC = 0.85

PLANTED_KINDS = {"sc": "SC", "sn": "SN", "dc": "DC", "dn": "DN"}

# Deterministic files each stage writes into its output directory.
ARTIFACTS = {"profile": ("schema.json", "stats.json"),
             "embed": ("embeddings.csv",),
             "train": ("checkpoint.json", "train_log.jsonl"),
             "interpret": ("genome.json",)}


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[str, ...]                 # CLI stages timed, in this order
    synth: dict                             # SynthConfig fields besides the seed
    model: dict = field(default_factory=dict)       # ModelConfig fields
    train: dict = field(default_factory=dict)       # TrainConfig of the train stage
    setup_fit: dict | None = None           # TrainConfig of the set-up checkpoint
    setup_customers: int | None = None      # set-up fit on the first n customers
    interpret: dict = field(default_factory=dict)   # InterpretConfig fields

    def work(self) -> tuple[float, str]:
        """Items one pass processes, and what an item is."""
        n = self.synth["n_customers"]
        if "train" in self.stages:
            n_train = n - int(round(self.train["validation_fraction"] * n))
            return float(n_train * self.train["epochs"]), "training customer-epochs"
        if "interpret" in self.stages:
            i = self.interpret
            return float(len(i["targets"]) * i["k"] * i["mask_samples"]), "masking trials"
        return float(n), "customers"


WORKLOADS = {
    "score": Workload(
        name="score",
        why="profile then embed a 10k-customer table: table, prep and encode "
            "dominate, the model runs forward only",
        stages=("profile", "embed"),
        synth=dict(n_customers=10000),
        setup_fit=dict(epochs=1),
        setup_customers=1000),
    "train": Workload(
        name="train",
        why="train the default model on 2k customers: autodiff forward and "
            "backward dominate, table and prep are small",
        stages=("train",),
        synth=dict(n_customers=2000, label_noise=0.02),
        train=dict(epochs=8, batch_size=64, learning_rate=3e-3, recon_weight=0.3,
                   validation_fraction=0.15)),
    "explain": Workload(
        name="explain",
        why="genome report with 17 targets on a small model: many tiny "
            "forward-only batches and one re-encode per masked cell",
        stages=("interpret",),
        synth=dict(n_customers=400, n_dynamic_categorical=1, records_min=4,
                   records_max=16, label_noise=0.02),
        model=ENCODER_CONFIG,
        setup_fit=CRITERION7_TRAIN,
        interpret=dict(k=20, mask_samples=64, delta_threshold=0.0,
                       targets=[{"kind": "class", "task": TASK, "class_index": 1}]
                       + [{"kind": "position", "position": p} for p in range(16)])),
}

# Tiny sizes of the same workloads for the benchmark's own tests.
SMOKE = {
    "score": dict(synth=dict(n_customers=80), setup_customers=40),
    "train": dict(synth=dict(n_customers=300, label_noise=0.02), model=ENCODER_CONFIG,
                  train=dict(CRITERION7_TRAIN, validation_fraction=0.3)),
    "explain": dict(synth=dict(n_customers=60, n_dynamic_categorical=1, records_min=4,
                               records_max=16, label_noise=0.02),
                    setup_fit=dict(CRITERION7_TRAIN, epochs=2),
                    interpret=dict(k=3, mask_samples=4, delta_threshold=0.0,
                                   targets=[{"kind": "class", "task": TASK},
                                            {"kind": "position", "position": 0}])),
}


def smoke(workload: Workload) -> Workload:
    return replace(workload, **SMOKE[workload.name])


# ---- set-up -----------------------------------------------------------------

@dataclass(frozen=True)
class Inputs:
    """Files handed to the program, plus what the checks compare against."""

    table: str
    config: str
    checkpoint: str | None
    customers: tuple[str, ...]
    features: tuple[str, ...]


def _subset(table, customers: list[str]):
    from tabrep import BigTable
    keep = set(customers)
    return BigTable(customers=list(customers), features=list(table.features),
                    records={c: table.records[c] for c in customers},
                    labels={t: {c: v for c, v in got.items() if c in keep}
                            for t, got in table.labels.items()},
                    has_date_index=table.has_date_index)


def set_up(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the table, the run config and the set-up checkpoint."""
    from tabrep import (CustomerEncoder, ModelConfig, SynthConfig, TableFormat,
                        TrainConfig, build_schema, save_table, synth_generate)
    directory.mkdir(parents=True, exist_ok=True)
    table = synth_generate(SynthConfig(**workload.synth, seed=seed))
    table_path = directory / "table.csv"
    save_table(table, table_path, TableFormat(date_column="date", label_columns=(TASK,)))
    config = {"seed": MODEL_SEED, "format": TABLE_FORMAT, "tasks": [TASK],
              "model": workload.model, "train": workload.train,
              "interpret": workload.interpret}
    config_path = directory / "run.json"
    config_path.write_text(json.dumps(config, sort_keys=True, indent=1))
    checkpoint = None
    if workload.setup_fit is not None:
        schema = build_schema(table)        # the full table's schema
        fit_on = table
        if workload.setup_customers is not None:
            fit_on = _subset(table, table.customers[:workload.setup_customers])
        model = CustomerEncoder(schema, ModelConfig(**workload.model),
                                tasks={TASK: 2}, seed=MODEL_SEED)
        model.fit(fit_on, TrainConfig(**workload.setup_fit, seed=MODEL_SEED))
        checkpoint = directory / "setup_checkpoint.json"
        model.save(checkpoint)
    return Inputs(table=str(table_path), config=str(config_path),
                  checkpoint=None if checkpoint is None else str(checkpoint),
                  customers=tuple(table.customers), features=tuple(table.features))


def set_up_repeatedly(workload: Workload, seed: int, directory: Path,
                      repeats: int) -> tuple[Inputs, list[float], bool]:
    """Set up `repeats` times from scratch.

    Returns the inputs, the seconds of each set-up, and whether every
    set-up wrote byte-identical files.
    """
    seconds, first = [], None
    for _ in range(repeats):
        shutil.rmtree(directory, ignore_errors=True)
        start = perf_counter()
        inputs = set_up(workload, seed, directory)
        seconds.append(perf_counter() - start)
        got = digests(directory, sorted(p.name for p in directory.iterdir()))
        first = first or got
        if got != first:
            return inputs, seconds, False
    return inputs, seconds, True


def stage_argv(stage: str, inputs: Inputs, out: Path) -> list[str]:
    argv = [stage, "--config", inputs.config, "--table", inputs.table, "--out", str(out)]
    if stage in ("embed", "interpret"):
        argv += ["--checkpoint", inputs.checkpoint]
    return argv


def digests(directory: Path, names) -> dict[str, str]:
    """sha256 of each named file; a missing file digests as ''."""
    out = {}
    for name in names:
        path = directory / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""
    return out


# ---- output checks ----------------------------------------------------------

def _json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise CheckFailed(f"cannot read {path.name}: {e}") from e


def check_planted_kinds(workload: Workload, inputs: Inputs, out: Path) -> None:
    kinds = _json(out / "schema.json").get("kinds", {})
    expected = {f: PLANTED_KINDS[f[:2]] for f in inputs.features}
    got = {f: k for f, k in kinds.items() if k != "DATE"}
    if got != expected:
        wrong = sorted(f for f in set(got) | set(expected) if got.get(f) != expected.get(f))
        raise CheckFailed(f"recognized kinds differ from the planted kinds on {wrong}")


def check_embeddings(workload: Workload, inputs: Inputs, out: Path) -> None:
    try:
        lines = (out / "embeddings.csv").read_text().splitlines()
    except OSError as e:
        raise CheckFailed(f"cannot read embeddings.csv: {e}") from e
    width = len(lines[0].split(",")) if lines else 0
    ids = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            raise CheckFailed(f"ragged embeddings row for {cells[0]!r}")
        try:
            values = [float(v) for v in cells[1:]]
        except ValueError as e:
            raise CheckFailed(f"unparseable embedding for {cells[0]!r}") from e
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite embedding for {cells[0]!r}")
        ids.append(cells[0])
    if width < 2 or sorted(ids) != sorted(inputs.customers):
        raise CheckFailed(f"{len(ids)} embedding rows for {len(inputs.customers)} customers")


def check_checkpoint_reloads(workload: Workload, inputs: Inputs, out: Path) -> None:
    import numpy as np
    from tabrep import CustomerEncoder
    try:
        model = CustomerEncoder.load(out / "checkpoint.json")
    except Exception as e:      # any load failure is a wrong output
        raise CheckFailed(f"checkpoint does not reload: {type(e).__name__}: {e}") from e
    if not all(np.isfinite(p.data).all() for p in model.parameters()):
        raise CheckFailed("checkpoint holds non-finite weights")


def check_val_auc(workload: Workload, inputs: Inputs, out: Path) -> None:
    try:
        log = [json.loads(line) for line in
               (out / "train_log.jsonl").read_text().splitlines() if line]
    except (OSError, ValueError) as e:
        raise CheckFailed(f"cannot read train_log.jsonl: {e}") from e
    aucs = [rec["val_auc"].get(TASK) for rec in log]
    aucs = [a for a in aucs if a is not None]
    if not aucs or max(aucs) < MIN_VAL_AUC:
        raise CheckFailed(f"best validation AUC {max(aucs, default=None)} < {MIN_VAL_AUC}")


def check_genome(workload: Workload, inputs: Inputs, out: Path) -> None:
    report = _json(out / "genome.json")
    targets = report.get("targets", [])
    want = [_target_key(t) for t in workload.interpret["targets"]]
    if [_target_key(t["target"]) for t in targets] != want:
        raise CheckFailed(f"genome holds {len(targets)} targets, expected {len(want)}")
    k = min(workload.interpret["k"], len(inputs.customers))
    for t in targets:
        if len(t["customers"]) != k:
            raise CheckFailed(f"target {_target_key(t['target'])} has "
                              f"{len(t['customers'])} customers, expected {k}")
        scores = [f["score"] for f in t["features"]]
        scores += [c["contribution"] for rows in t["per_customer"].values() for c in rows]
        if not all(isinstance(s, (int, float)) and math.isfinite(s) for s in scores):
            raise CheckFailed(f"non-finite score in target {_target_key(t['target'])}")


def _target_key(target: dict) -> tuple:
    if target["kind"] == "position":
        return ("position", target["position"])
    return ("class", target["task"], target.get("class_index", 1))


CHECKS = {
    "profile": (check_planted_kinds,),
    "embed": (check_embeddings,),
    "train": (check_checkpoint_reloads, check_val_auc),
    "interpret": (check_genome,),
}


def _set_up_main(argv: list[str]) -> int:
    spec, seed, directory, repeats = argv
    import tabrep  # noqa: F401  (imported once, outside the timed set-ups)
    workload = Workload(**json.loads(Path(spec).read_text()))
    inputs, seconds, repeated = set_up_repeatedly(workload, int(seed), Path(directory),
                                                  int(repeats))
    print(json.dumps({"inputs": asdict(inputs), "seconds": seconds, "repeated": repeated}))
    return 0


if __name__ == "__main__":
    sys.exit(_set_up_main(sys.argv[1:]))
