"""Customer encoder: four embedding branches fused into one representation.

Static categorical and static numerical features become fixed-width vectors
through a categorical lookup or a positional numeric embedding, then a
columnwise max. The two dynamic branches run their per-time-step embeddings
through an adaptive-depth transformer and mix the halted states into one
vector each. A small fusion network maps the concatenated branch vectors
(plus presence bits) to the representation.

Training couples two mechanisms: reconstruction of frozen random projections
of a model-free customer summary, and any number of supervised
classification heads, joined in a single weighted loss with a ponder
penalty on the adaptive depth.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import numeric
from .dynamics import TransformerParams, act_run, dynamic_embed
from .embed import categorical_embed, max_concat, positional_numeric_embed
from .encode import (Batch, BranchLayout, augmented_summaries, check_schema, encode_table,
                     summary_width)
from .encode import augmented_summary, encode_customer  # noqa: F401 (perfbench wraps them)
from .encode import stack_encoded
from .eval import balanced_class_weights, holdout_split
from .errors import (AT_LEAST_ONE, AT_LEAST_TWO, NON_NEGATIVE, OPEN_UNIT, POSITIVE, RATE,
                     AllTermsDisabledError, Checked, ConfigError, NoLabeledCustomersError,
                     SchemaError, TableIOError, UnknownTaskError, check_fields)
from .numeric import Parameter, Tensor
from .prep import FeatureSchema, read_json
from .table import BigTable, replacing

MODEL_FORMAT = "tabrep-model"
MODEL_VERSION = 4
EVAL_BATCH = 256
SAVE_BLOCK = 1024       # parameter values `save` converts to Python floats at once


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes; `embed_dim` is both branch and transformer width,
    and the refinement functions of `dynamics` read their sizes from here."""

    embed_dim: int = field(default=32, metadata=AT_LEAST_ONE)
    n_s: int = field(default=8, metadata=AT_LEAST_ONE)
    heads: int = field(default=4, metadata=AT_LEAST_ONE)
    t_max: int = field(default=4, metadata=AT_LEAST_ONE)
    act_epsilon: float = field(default=0.01, metadata=OPEN_UNIT)
    dropout: float = field(default=0.1, metadata=RATE)
    rep_width: int = field(default=32, metadata=AT_LEAST_ONE)
    fusion_hidden: int = field(default=64, metadata=AT_LEAST_ONE)
    head_hidden: int = field(default=32, metadata=AT_LEAST_ONE)
    recon_count: int = field(default=3, metadata=NON_NEGATIVE)
    recon_dim: int = field(default=16, metadata=AT_LEAST_ONE)

    def __post_init__(self):
        check_fields(self)
        if self.embed_dim % self.heads:
            raise ConfigError(f"heads ({self.heads}) must divide embed_dim ({self.embed_dim})")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads


@dataclass(frozen=True)
class TrainConfig(Checked):
    epochs: int = field(default=30, metadata=NON_NEGATIVE)
    batch_size: int = field(default=64, metadata=AT_LEAST_ONE)
    learning_rate: float = field(default=1e-3, metadata=POSITIVE)
    recon_weight: float = field(default=0.5, metadata=NON_NEGATIVE)
    ponder_weight: float = field(default=0.01, metadata=NON_NEGATIVE)
    task_weights: dict[str, float] | None = field(default=None, metadata=NON_NEGATIVE)
    validation_fraction: float = field(default=0.2, metadata=RATE)
    seed: int = field(default=0, metadata=NON_NEGATIVE)


@dataclass(frozen=True)
class _EncoderArgs(Checked):
    """A `CustomerEncoder`'s task heads (name to class count) and seed."""

    tasks: dict[str, int] = field(metadata=AT_LEAST_TWO)
    seed: int = field(metadata=NON_NEGATIVE)


def cross_entropy(logits: Tensor, labels: np.ndarray, class_weights: np.ndarray) -> Tensor:
    """Class-weighted mean negative log-likelihood.

    Normalized by the total picked weight, so uniform logits score ln(C)
    regardless of the weighting.
    """
    labels = np.asarray(labels, dtype=np.int64)
    w = np.asarray(class_weights, dtype=np.float64)[labels]
    if w.sum() <= 0:
        raise ConfigError("no positive class weight among the batch labels")
    return numeric.softmax_cross_entropy(logits, labels, w)


def mean_squared_error(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return numeric.tensor_mean(diff * diff)


def joint_loss(recon_terms, task_terms, ponder, recon_weight: float,
               ponder_weight: float, task_weights: dict | None = None) -> Tensor:
    """recon_weight * sum(recon) + sum(w_task * task) + ponder_weight * ponder.

    Raises when nothing trainable remains (no supervised term and the
    reconstruction side disabled or empty).
    """
    recon_on = recon_weight > 0 and len(recon_terms) > 0
    if not recon_on and not task_terms:
        raise AllTermsDisabledError("loss has no reconstruction and no supervised term")
    weights = task_weights or {}
    loss = Tensor(np.zeros(()))
    if recon_on:
        total = recon_terms[0]
        for term in recon_terms[1:]:
            total = total + term
        loss = loss + recon_weight * total
    for task, term in task_terms.items():
        loss = loss + float(weights.get(task, 1.0)) * term
    if ponder_weight > 0 and ponder is not None:
        loss = loss + ponder_weight * ponder
    return loss


@dataclass
class ForwardResult:
    rep: Tensor                    # [b, rep_width]
    ponder: Tensor | None          # raw (unit-cost) ponder, summed over branches
    branch_stats: dict = field(default_factory=dict)


def chunk_stream(batches: Iterable[Batch]) -> Iterator[Batch]:
    """The rows of `batches` in order, in chunks of EVAL_BATCH rows and a
    shorter last one. Each full chunk is emitted as soon as its rows have
    come, and a batch of EVAL_BATCH rows that comes while no row waits is
    passed on as it is. The chunks only bound memory: a row's forward
    depends on that row alone (see `CustomerEncoder.forward`)."""
    pending: list[Batch] = []
    count = 0
    for batch in batches:
        pending.append(batch)
        count += batch.size
        if count < EVAL_BATCH:
            continue
        rows = pending[0] if len(pending) == 1 else stack_encoded(pending)
        full = count - count % EVAL_BATCH
        for lo in range(0, full, EVAL_BATCH):
            yield rows[lo:lo + EVAL_BATCH]
        count -= full
        pending = [rows[full:]] if count else []
    if count:
        yield stack_encoded(pending)


def _write_json(fh, value) -> None:
    """Write `json.dumps(value, sort_keys=True)` to `fh`, where `value` is
    JSON data with string keys whose lists may be flat float arrays. Objects
    are written a member at a time and arrays SAVE_BLOCK values at a time,
    all through the C encoder, so no more than a block's values exist as
    Python floats at once."""
    if isinstance(value, dict):
        fh.write("{")
        for i, key in enumerate(sorted(value)):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(fh, value[key])
        fh.write("}")
    elif isinstance(value, np.ndarray):
        fh.write("[")
        for lo in range(0, value.size, SAVE_BLOCK):
            fh.write((", " if lo else "") + json.dumps(value[lo:lo + SAVE_BLOCK].tolist())[1:-1])
        fh.write("]")
    else:
        fh.write(json.dumps(value, sort_keys=True))


_JSON_NUMBER = {int, float}     # json.loads makes every JSON number one of these


def _checkpoint_param(records: dict):
    """The parameter maker of `CustomerEncoder.load` (see `numeric.drawing`):
    parameter `name` is its record in the checkpoint, which it takes out of
    `records`, after checking that the record's data is a flat list of JSON
    numbers, of the expected shape, all finite."""
    def make(name, shape, _init) -> Parameter:
        if name not in records:
            raise TableIOError("checkpoint parameters do not match the model architecture")
        record = records.pop(name)
        data = record["data"]
        if not isinstance(data, list) or not all(map(_JSON_NUMBER.__contains__, map(type, data))):
            raise TableIOError(f"checkpoint tensor {name!r} data is not a flat list of numbers")
        arr = np.array(data, dtype=np.float64).reshape(record["shape"])
        if arr.shape != shape:
            raise TableIOError(f"checkpoint tensor {name!r} has shape {arr.shape}, "
                               f"expected {shape}")
        if not np.isfinite(arr).all():
            raise TableIOError(f"checkpoint tensor {name!r} holds a non-finite value")
        return Parameter(arr, name)
    return make


class CustomerEncoder:
    """The representation model over one schema.

    `tasks` maps head name to class count; heads can be present and simply
    unused when training unsupervised. All randomness is drawn from named
    substreams of `seed`, so two encoders built with equal arguments hold
    bitwise-equal initial parameters.
    """

    def __init__(self, schema: FeatureSchema, config: ModelConfig = ModelConfig(),
                 tasks: dict[str, int] | None = None, seed: int = 0, *, _param=None):
        args = _EncoderArgs({} if tasks is None else tasks, seed)
        self.schema = schema
        self.config = config
        self.tasks = dict(args.tasks)
        self.seed = int(args.seed)

        self.layout = BranchLayout.from_schema(schema, config.n_s)
        d = config.embed_dim
        # `load` passes a maker that reads each parameter from the checkpoint
        make = _param or numeric.drawing(numeric.substream(self.seed, "init"))
        glorot, zeros = numeric.glorot_init, numeric.zeros_init
        self._params: dict[str, Parameter] = {}

        def param(name, shape, init) -> Parameter:
            # every parameter is recorded as it is made, in making order
            if name in self._params:
                raise ConfigError(f"duplicate parameter name {name!r}")
            self._params[name] = made = make(name, shape, init)
            return made

        def lookup(name, rows) -> Parameter | None:
            # a categorical table stacks its features' vocabulary blocks in
            # `BranchLayout` order; a numerical one has a row per feature
            return param(name, (rows, d), numeric.embedding_init) if rows else None

        self.static_cat = lookup("static.cat", sum(self.layout.cs_vocab_sizes))
        self.static_num = lookup("static.num", len(self.layout.sn_features))
        self.dynamic_cat = lookup("dynamic.cat", sum(self.layout.cd_vocab_sizes))
        self.dynamic_num = lookup("dynamic.num", len(self.layout.dn_features))
        self.cd_params = (TransformerParams.init(config, param, "cd")
                          if self.layout.cd_features else None)
        self.nd_params = (TransformerParams.init(config, param, "nd")
                          if self.layout.dn_features else None)

        hidden, width = config.fusion_hidden, config.rep_width
        self.fusion_w1 = param("fusion.w1", (4 * d + 4, hidden), glorot)
        self.fusion_b1 = param("fusion.b1", (hidden,), zeros)
        self.fusion_w2 = param("fusion.w2", (hidden, width), glorot)
        self.fusion_b2 = param("fusion.b2", (width,), zeros)

        self.summary_dim = summary_width(schema)
        self.recon_heads: list[tuple[Parameter, Parameter]] = [
            (param(f"recon{i}.w", (width, config.recon_dim), glorot),
             param(f"recon{i}.b", (config.recon_dim,), zeros))
            for i in range(config.recon_count if self.summary_dim else 0)]

        self.task_heads: dict[str, tuple[Parameter, Parameter, Parameter, Parameter]] = {}
        self.class_weights: dict[str, np.ndarray] = {}     # set by each `fit`
        for task, n_classes in self.tasks.items():
            self.task_heads[task] = (
                param(f"task.{task}.w1", (width, config.head_hidden), glorot),
                param(f"task.{task}.b1", (config.head_hidden,), zeros),
                param(f"task.{task}.w2", (config.head_hidden, n_classes), glorot),
                param(f"task.{task}.b2", (n_classes,), zeros))

    @cached_property
    def recon_projections(self) -> list[np.ndarray]:
        """One frozen [summary_dim, recon_dim] random projection per
        reconstruction head, drawn on first use from their own substream:
        a fresh and a loaded model hold the same ones, and scoring never
        draws them."""
        rng = numeric.substream(self.seed, "recon-projections")
        return [rng.standard_normal((self.summary_dim, self.config.recon_dim))
                for _ in self.recon_heads]

    # ---- parameters and persistence -------------------------------------

    def named_parameters(self) -> dict[str, Parameter]:
        """Every parameter by name, in the order `__init__` made them."""
        return dict(self._params)

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def save(self, path) -> None:
        """Write the constructor's arguments plus every learned parameter as
        `{shape, data}` with row-major values; the rest is rebuilt on load.
        The file is `json.dumps(payload, sort_keys=True)`, streamed so that
        its values never all exist as Python floats at once, under a
        temporary name until it is complete (`table.replacing`)."""
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "seed": self.seed,
            "config": asdict(self.config),
            "tasks": self.tasks,
            "schema": self.schema.to_dict(),
            "params": {name: {"shape": list(p.data.shape), "data": p.data.ravel()}
                       for name, p in self.named_parameters().items()},
        }
        with replacing(path) as fh:
            _write_json(fh, payload)

    @classmethod
    def load(cls, path) -> "CustomerEncoder":
        """The model `save` wrote. Each parameter is read straight into the
        architecture, so a load draws nothing."""
        payload = read_json(path, "model checkpoint")
        fmt = payload.get("format") if isinstance(payload, dict) else type(payload).__name__
        if fmt != MODEL_FORMAT:
            raise TableIOError(f"not a model checkpoint: format={fmt!r}")
        if payload.get("version") != MODEL_VERSION:
            raise TableIOError(f"unsupported model version {payload.get('version')!r}")
        try:
            schema = FeatureSchema.from_dict(payload["schema"])
            records = payload["params"]
            model = cls(schema, ModelConfig(**payload["config"]), payload["tasks"],
                        payload["seed"], _param=_checkpoint_param(records))
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError, ConfigError,
                SchemaError) as e:
            raise TableIOError(f"malformed model checkpoint: {type(e).__name__}: {e}") from e
        if records:
            raise TableIOError("checkpoint parameters do not match the model architecture")
        return model

    # ---- forward --------------------------------------------------------

    def encode_table(self, table: BigTable, customers=None) -> Batch:
        check_schema(table, self.schema)
        return encode_table(table, self.schema, self.layout, customers)

    def forward(self, batch: Batch, train: bool = False,
                rng: np.random.Generator | None = None) -> ForwardResult:
        """The representations of the rows of `batch`, with the ponder term.
        In evaluation mode a row's depends on that row alone: BLAS multiplies
        a one-row matrix on its matrix-vector path, which rounds unlike a row
        of a larger product, so a lone row is forwarded as two copies."""
        lone = not train and batch.size == 1
        if lone:
            batch = batch[[0, 0]]
        d = self.config.embed_dim
        b = batch.size
        zeros = lambda: Tensor(np.zeros((b, d)))

        # each branch's per-feature embeddings die as soon as their max is taken
        if self.layout.cs_features:
            v_cs = max_concat(categorical_embed(batch.cs_ids, self.static_cat), axis=-2)
        else:
            v_cs = zeros()
        if self.layout.sn_features:
            v_ns = max_concat(positional_numeric_embed(Tensor(batch.ns_vals), self.static_num),
                              axis=-2)
        else:
            v_ns = zeros()

        # the [b, n_s, d] step embeddings go straight into `act_run`, and each
        # branch's halted states die with its vector: no activation of the
        # categorical branch is alive while the numerical one runs
        ponder = None
        stats = {}
        dynamic = []
        for name, embedded, params, column in (
                ("dynamic_categorical",
                 lambda: categorical_embed(batch.cd_ids, self.dynamic_cat),
                 self.cd_params, 2),
                ("dynamic_numerical",
                 lambda: positional_numeric_embed(Tensor(batch.nd_vals), self.dynamic_num),
                 self.nd_params, 3)):
            if params is None:
                dynamic.append(zeros())
                continue
            final, p, stats[name] = act_run(max_concat(embedded(), axis=-2), params, self.config,
                                            mask=batch.seq_valid, train=train, rng=rng)
            dynamic.append(dynamic_embed(final, params.wd)
                           * Tensor(batch.presence[:, column:column + 1]))
            del final
            ponder = p if ponder is None else ponder + p

        fused_in = numeric.concat([v_cs, v_ns, *dynamic, Tensor(batch.presence)], axis=-1)
        hidden = numeric.relu(numeric.matmul(fused_in, self.fusion_w1) + self.fusion_b1)
        if train and self.config.dropout > 0:
            hidden = numeric.dropout(hidden, self.config.dropout, train=True, rng=rng)
        rep = numeric.matmul(hidden, self.fusion_w2) + self.fusion_b2
        if lone:
            rep = Tensor(rep.data[:1])
        return ForwardResult(rep=rep, ponder=ponder, branch_stats=stats)

    def classes(self, task: str) -> int:
        """The class count of task head `task`; UnknownTaskError if there is none."""
        if task not in self.task_heads:
            raise UnknownTaskError(f"unknown task {task!r}; model has {sorted(self.task_heads)}")
        return self.tasks[task]

    def task_logits(self, rep: Tensor, task: str) -> Tensor:
        self.classes(task)
        return numeric.mlp(rep, *self.task_heads[task])

    def reconstruction_outputs(self, rep: Tensor) -> list[Tensor]:
        return [numeric.matmul(rep, w) + b for w, b in self.recon_heads]

    def reconstruction_targets(self, summaries: np.ndarray) -> list[np.ndarray]:
        """Frozen random projections of the model-free summary rows."""
        summaries = np.asarray(summaries, dtype=np.float64)
        return [summaries @ g for g in self.recon_projections]

    # ---- inference ------------------------------------------------------

    def forward_stream(self, batches: Iterable[Batch]) -> np.ndarray:
        """The evaluation-mode representations of the rows of `batches`, in
        order, as one [n, rep_width] array, forwarded a `chunk_stream` chunk
        at a time. Beyond the input, about one chunk's activations and the
        rows so far are alive; a row depends on that row alone."""
        return np.concatenate([np.zeros((0, self.config.rep_width)),
                               *(self.score(chunk) for chunk in chunk_stream(batches))])

    def class_proba(self, rep: np.ndarray, task: str) -> np.ndarray:
        """Class probabilities of `task` for the representation rows `rep`,
        each row's from that row alone: a lone row is multiplied as two (see
        `forward`), and the narrow [h, C] last layer row by row, which BLAS
        would round by the row count."""
        w1, b1, w2, b2 = (p.data for p in self.task_heads[task])
        hidden = np.maximum((rep[[0, 0]] if len(rep) == 1 else rep) @ w1 + b1, 0.0)
        return numeric.softmax(np.einsum("bh,hc->bc", hidden[:len(rep)], w2) + b2).data

    def score(self, chunk: Batch, task: str | None = None) -> np.ndarray:
        """The evaluation-mode rows of one chunk: its representations, or
        with `task` its class probabilities."""
        rep = self.forward(chunk, train=False).rep.data
        return rep if task is None else self.class_proba(rep, task)

    def represent(self, table: BigTable, customers=None) -> tuple[list[str], np.ndarray]:
        """Deterministic evaluation-mode representations, one row per customer
        of `customers` of `table` (default: all), in that order."""
        names = list(table.customers if customers is None else customers)
        return names, self.forward_stream(self.encoded_chunks(table, names))

    def predict_proba(self, table: BigTable, task: str,
                      customers=None) -> tuple[list[str], np.ndarray]:
        """`class_proba` of `task` of `represent`: the class probabilities,
        one row per customer of `customers` of `table` (default: all), in
        that order. The task is checked at the call."""
        self.classes(task)
        names, reps = self.represent(table, customers)
        return names, self.class_proba(reps, task)

    def encoded_chunks(self, table: BigTable, customers: list[str]) -> Iterator[Batch]:
        """`encode_table` of the `customers` of `table`, EVAL_BATCH at a
        time, each encoded when it is asked for. The schema is checked at
        the call."""
        check_schema(table, self.schema)
        return (encode_table(table, self.schema, self.layout, customers[lo:lo + EVAL_BATCH])
                for lo in range(0, len(customers), EVAL_BATCH))

    # ---- training -------------------------------------------------------

    def fit(self, table: BigTable, config: TrainConfig = TrainConfig()) -> list[dict]:
        """Train in place; returns one log record per epoch.

        Supervision uses every labeled customer of each configured task
        (others contribute only reconstruction); the best validation loss
        decides which epoch's parameters are kept (the training loss when no
        validation chunk has a trainable term). A labeled customer adds a task
        term only when its class has positive training weight; batches and
        validation chunks without a trainable term are skipped and counted in
        `skipped_batches`. `halt_histogram` gives, per dynamic branch, how
        many valid positions of the epoch's training forwards halted at each
        step 1 … t_max. A `task_weights` entry for a task the model has no
        head for is a ConfigError.
        """
        unknown = sorted(set(config.task_weights or ()) - set(self.tasks))
        if unknown:
            raise ConfigError(f"task_weights names tasks the model has no head for: {unknown}")
        encoded = self.encode_table(table)
        customers, n = encoded.customers, encoded.size
        if n == 0:
            raise ConfigError("cannot train on a table with no customers")

        summaries = (augmented_summaries(table, self.schema, customers)
                     if self.summary_dim else np.zeros((n, 0)))
        targets = self.reconstruction_targets(summaries) if self.recon_heads else []
        labels = {task: np.array([table.labels.get(task, {}).get(c, -1) for c in customers],
                                 dtype=np.int64)
                  for task in self.tasks}
        for task, arr in labels.items():
            bad = (arr >= self.tasks[task]).sum()
            if bad:
                raise ConfigError(f"task {task!r} has labels outside [0, {self.tasks[task]})")

        val_idx, train_idx = holdout_split(n, config.validation_fraction, config.seed, "split",
                                           "validation split leaves no training customers")
        val_labels = {task: arr[val_idx] for task, arr in labels.items()}
        # binary tasks with both classes among the validation labels get an AUC
        auc_tasks = [task for task, lab in val_labels.items()
                     if self.tasks[task] == 2 and len(set(lab[lab >= 0])) == 2]

        recon_on = config.recon_weight > 0 and bool(self.recon_heads)
        # balanced weights over this split's training customers; a class
        # with no training customer weighs 0 and adds no term
        for task in self.tasks:
            lab = labels[task][train_idx]
            self.class_weights[task] = balanced_class_weights(lab[lab >= 0], self.tasks[task])
        any_labeled = any(w.any() for w in self.class_weights.values())
        if not recon_on and not any_labeled:
            if self.tasks:
                raise NoLabeledCustomersError(
                    "no labeled training customer and reconstruction disabled")
            raise AllTermsDisabledError("no task heads and reconstruction disabled")

        batch_rng = numeric.substream(config.seed, "batches")
        drop_rng = numeric.substream(config.seed, "dropout")
        opt = numeric.Adam(self.parameters(), lr=config.learning_rate)
        log: list[dict] = []
        best_loss = np.inf
        best_params: dict[str, np.ndarray] | None = None

        def supervised(task: str, idx: np.ndarray) -> bool:
            # rows of a class with training weight 0 (absent from training) add nothing
            lab = labels[task][idx]
            return bool((self.class_weights[task][lab[lab >= 0]] > 0).any())

        def has_term(idx: np.ndarray) -> bool:
            return recon_on or any(supervised(task, idx) for task in self.tasks)

        def loss_of(out: ForwardResult, idx: np.ndarray) -> Tensor:
            recon_terms = [mean_squared_error(pred, t[idx])
                           for pred, t in zip(self.reconstruction_outputs(out.rep), targets)
                           ] if recon_on else []
            task_terms = {}
            for task in self.tasks:
                if supervised(task, idx):
                    lab = labels[task][idx]
                    rows = np.nonzero(lab >= 0)[0]
                    task_terms[task] = cross_entropy(self.task_logits(out.rep, task)[rows],
                                                     lab[rows], self.class_weights[task])
            return joint_loss(recon_terms, task_terms, out.ponder, config.recon_weight,
                              config.ponder_weight, config.task_weights)

        def train_step(idx: np.ndarray, halting: dict[str, np.ndarray]) -> float:
            with numeric.recording():
                out = self.forward(encoded[idx], train=True, rng=drop_rng)
                loss = loss_of(out, idx)
                opt.zero_grad()
                numeric.backward(loss)
            opt.step()
            # valid positions per halting step; padded ones read step 0
            for branch, st in out.branch_stats.items():
                halting[branch] = halting.get(branch, 0) + np.bincount(
                    st.halt_steps.ravel(), minlength=self.config.t_max + 1)[1:]
            return float(loss.data)

        validation = encoded[val_idx]
        # overflows here leave non-finite gradients, which `Adam.step` raises as
        # a typed error; numpy's warnings would only reach stderr ahead of it
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(config.epochs):
                order = train_idx[batch_rng.permutation(len(train_idx))]
                epoch_total, seen, skipped = 0.0, 0, 0
                halting: dict[str, np.ndarray] = {}
                for lo in range(0, len(order), config.batch_size):
                    chunk = order[lo:lo + config.batch_size]
                    if not has_term(chunk):
                        skipped += 1
                        continue
                    epoch_total += train_step(chunk, halting) * len(chunk)
                    seen += len(chunk)
                record = {"epoch": epoch, "train_loss": epoch_total / seen,
                          "val_loss": None, "val_auc": {}, "skipped_batches": skipped,
                          "halt_histogram": {k: v.tolist() for k, v in halting.items()}}
                if len(val_idx):
                    # only each chunk's loss and class probabilities outlive it
                    total, count, done = 0.0, 0, 0
                    probas: dict[str, list[np.ndarray]] = {task: [] for task in auc_tasks}
                    for chunk in chunk_stream([validation]):
                        out = self.forward(chunk, train=False)
                        idx, done = val_idx[done:done + chunk.size], done + chunk.size
                        if has_term(idx):
                            total += float(loss_of(out, idx).data) * len(idx)
                            count += len(idx)
                        else:
                            record["skipped_batches"] += 1
                        for task in auc_tasks:
                            probas[task].append(self.class_proba(out.rep.data, task))
                    record["val_loss"] = total / count if count else None
                    record["val_auc"] = self._val_auc(probas, val_labels)
                log.append(record)
                selector = (record["train_loss"] if record["val_loss"] is None
                            else record["val_loss"])
                if selector < best_loss:
                    best_loss = selector
                    best_params = {k: p.data.copy() for k, p in self.named_parameters().items()}
        if best_params is not None:
            for name, p in self.named_parameters().items():
                p.data = best_params[name]
        return log

    def _val_auc(self, probas: dict[str, list[np.ndarray]],
                 val_labels: dict[str, np.ndarray]) -> dict:
        """Each task's validation ROC AUC from its class probabilities, one
        array per validation chunk; None for a task absent from `probas`."""
        from .eval import roc_auc
        out = {}
        for task in self.tasks:
            if task not in probas:
                out[task] = None
                continue
            lab = val_labels[task]
            known = lab >= 0
            proba = np.concatenate(probas[task])
            out[task] = roc_auc(proba[known, 1], lab[known])
        return out
