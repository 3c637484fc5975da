"""Outside-in tracing of the tabrep layers.

Timing wrappers are installed by module attribute from the benchmark's own
files; no program file is touched. Every wrapped call pushes a frame on one
stack, so each layer's self time (its calls' duration minus the part covered
by nested wrapped calls) is exact for this single-threaded program.

Calls into the coarse layers are kept as spans (id, parent id, name, start,
end) and written out when the run ends. Autodiff op calls are far too many
to keep one by one: they are aggregated into per-op call counts and forward
and backward seconds, but still take part in the self-time accounting.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("table", "prep", "numeric", "embed", "dynamics", "encode",
          "model", "eval", "interpret", "cli")

# Every autodiff op of tabrep.numeric; each gets calls, fwd_s and bwd_s.
NUMERIC_OPS = ("add", "sub", "mul", "matmul", "concat", "take", "reshape",
               "transpose", "swap_axes", "relu", "sigmoid", "exp", "log",
               "softmax", "layer_norm", "dropout", "tensor_sum", "tensor_mean",
               "tensor_max", "masked_max")


@dataclass(frozen=True)
class Site:
    """One wrapper: `attr` (possibly `Class.method`) of `module`.

    The site is chosen where the caller looks the name up, e.g.
    `tabrep.model.encode_customer`, because `from x import f` binds a
    second name that a wrapper on the defining module would miss.
    """

    module: str
    attr: str
    name: str            # metric stem, e.g. "encode.encode_customer"
    keep_spans: bool = True


def _stem(layer: str, fn: str, module: str | None = None) -> Site:
    return Site(module or f"tabrep.{layer}", fn, f"{layer}.{fn}")


# Stage-level wrappers. `cli.<stage>` spans are opened by the benchmark
# itself around `tabrep.cli.main`, whose commands sit in a dict.
STAGE_SITES = (
    _stem("table", "load_table", "tabrep.cli"),
    _stem("table", "order_records", "tabrep.cli"),
    _stem("table", "compute_stats", "tabrep.cli"),
    _stem("prep", "build_schema", "tabrep.cli"),
    _stem("prep", "nc_recognize"),
    _stem("prep", "dynamics_matrix"),
    _stem("prep", "tokenize"),
    _stem("prep", "numeric_range"),
    _stem("encode", "encode_customer", "tabrep.model"),
    _stem("encode", "stack_encoded", "tabrep.model"),
    _stem("encode", "stack_encoded", "tabrep.interpret"),
    _stem("encode", "augmented_summary", "tabrep.model"),
    _stem("encode", "encode_rows", "tabrep.interpret"),
    _stem("encode", "masked_rows", "tabrep.interpret"),
    _stem("embed", "categorical_embed", "tabrep.model"),
    _stem("embed", "positional_numeric_embed", "tabrep.model"),
    _stem("embed", "max_concat", "tabrep.model"),
    _stem("dynamics", "act_run", "tabrep.model"),
    _stem("dynamics", "transformer_step"),
    _stem("dynamics", "mhsa"),
    _stem("dynamics", "dynamic_embed", "tabrep.model"),
    _stem("numeric", "backward"),
    Site("tabrep.numeric", "Adam.step", "numeric.adam_step"),
    Site("tabrep.model", "CustomerEncoder.fit", "model.fit"),
    Site("tabrep.model", "CustomerEncoder.forward", "model.forward"),
    Site("tabrep.model", "CustomerEncoder._val_auc", "model.val_auc"),
    Site("tabrep.model", "CustomerEncoder.represent", "model.represent"),
    Site("tabrep.model", "CustomerEncoder.save", "model.save"),
    Site("tabrep.model", "CustomerEncoder.load", "model.load"),
    _stem("interpret", "genome_report", "tabrep.cli"),
    _stem("interpret", "_target_values"),
    _stem("eval", "roc_auc"),
) + tuple(Site("tabrep.numeric", op, f"numeric.{op}", keep_spans=False)
          for op in NUMERIC_OPS)

# The set-up code calls `tabrep.synth_generate` through the package.
SETUP_SITES = (Site("tabrep", "synth_generate", "eval.synth_generate"),)


class Tracer:
    """Holds spans and counters for one traced pass; install, run, remove."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        # frame: [own span id or None, parent id for nested spans,
        #         seconds covered by nested calls, own parent span id]
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self._op_calls_at_step_start = 0

    # ---- frames ----------------------------------------------------------

    def _enter(self, keep: bool) -> list:
        parent = self._stack[-1][1] if self._stack else None
        span_id = None
        if keep:
            self._next_id += 1
            span_id = self._next_id
        frame = [span_id, span_id if keep else parent, 0.0, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, layer: str, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.self_seconds[layer] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        self.seconds[name] += duration
        self.calls[name] += 1
        if frame[0] is not None:
            self.spans.append((frame[0], frame[3], name, start, end))

    def timed(self, fn, name: str, layer: str, keep: bool = True, after=None):
        """`fn` wrapped in a frame; `after(result, args)` runs outside it."""
        def wrapper(*args, **kwargs):
            frame = self._enter(keep)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, name, layer, start, perf_counter())
            if after is not None:
                after(result, args)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, layer: str, fn, *args):
        """Call `fn(*args)` inside a kept span."""
        return self.timed(fn, name, layer)(*args)

    # ---- installation ----------------------------------------------------

    def install(self, sites) -> None:
        for site in sites:
            try:
                owner = importlib.import_module(site.module)
                *path, attr = site.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{site.module}.{site.attr}")
                continue
            layer = site.name.split(".", 1)[0]
            after = self._after_hook(site.name)
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.timed(raw.__func__, site.name, layer,
                                               site.keep_spans, after))
            else:
                patched = self.timed(raw, site.name, layer, site.keep_spans, after)
            setattr(owner, attr, patched)
            self._undo.append((owner, attr, raw))

    def remove(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _after_hook(self, name: str):
        if name.startswith("numeric.") and name[len("numeric."):] in NUMERIC_OPS:
            return self._time_backward_of(name)
        return {
            "dynamics.act_run": self._halting,
            "model.forward": self._forwarded,
            "numeric.backward": self._train_step,
            "model.val_auc": self._reset_step_ops,
            "interpret._target_values": self._trials,
        }.get(name)

    # ---- counters read at the layer boundaries ---------------------------

    def _time_backward_of(self, name: str):
        bwd_name = name + ".bwd"

        def after(out, _args):
            fn = getattr(out, "_backward_fn", None)
            if fn is not None:
                out._backward_fn = self.timed(fn, bwd_name, "numeric", keep=False)
        return after

    def _halting(self, result, _args):
        steps = result[2].halt_steps           # [b, n_s], 0 on padded positions
        valid = steps > 0
        self.counts["halt_steps"] += float(steps.sum())
        self.counts["valid_positions"] += float(valid.sum())
        self.counts["position_steps_run"] += float(steps.max() * steps.size)

    def _forwarded(self, _result, args):
        self.counts["customers_forwarded"] += args[1].size

    def op_calls(self) -> int:
        return sum(self.calls[f"numeric.{op}"] for op in NUMERIC_OPS)

    def _train_step(self, _result, _args):
        # ops since the previous step, or since validation ended an epoch
        self.counts["train_step_ops"] += self.op_calls() - self._op_calls_at_step_start
        self.counts["train_steps"] += 1
        self._reset_step_ops(None, None)

    def _reset_step_ops(self, _result, _args):
        self._op_calls_at_step_start = self.op_calls()

    def _trials(self, values, args):
        # genome_report scores the unmasked customer first, then one masked
        # variant per trial; a trial is a no-op when its delta is exactly 0.
        if len(values) > 1:
            self.counts["trials"] += len(values) - 1
            self.counts["noop_trials"] += int((values[1:] - values[0] == 0.0).sum())

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values of one traced pass (unit-less floats)."""
    s, c, n = tracer.seconds, tracer.calls, tracer.counts
    out: dict[str, float] = {}
    for name in dict.fromkeys(site.name for site in STAGE_SITES if site.keep_spans):
        out[name.replace("._", ".") + "_s"] = s[name]
    for name in ("encode.encode_customer", "encode.encode_rows", "dynamics.act_run",
                 "dynamics.transformer_step", "model.forward"):
        out[name + "_calls"] = float(c[name])
    out["dynamics.mean_halt_steps"] = _ratio(n["halt_steps"], n["valid_positions"])
    out["dynamics.useful_position_step_ratio"] = _ratio(n["halt_steps"],
                                                        n["position_steps_run"])
    out["numeric.ops_per_train_step"] = _ratio(n["train_step_ops"], n["train_steps"])
    for op in NUMERIC_OPS:
        out[f"numeric.{op}.calls"] = float(c[f"numeric.{op}"])
        out[f"numeric.{op}.fwd_s"] = s[f"numeric.{op}"]
        out[f"numeric.{op}.bwd_s"] = s[f"numeric.{op}.bwd"]
    out["model.customers_forwarded"] = n["customers_forwarded"]
    out["interpret.trials"] = n["trials"]
    out["interpret.noop_trials"] = n["noop_trials"]
    out["interpret.useful_trial_ratio"] = _ratio(n["trials"] - n["noop_trials"], n["trials"])
    for stage in ("profile", "train", "embed", "interpret"):
        out[f"cli.{stage}_s"] = s[f"cli.{stage}"]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = tracer.self_seconds[layer]
    return out
