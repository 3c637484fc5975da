"""Shared-weight refinement with per-position halting.

One record sequence, passed as a batch of one, is refined by the same
attention-plus-transition step until each position's halting unit
accumulates enough probability to stop. The demo shows the attention
pattern, how the halting bias trades compute for ponder cost, that padded
positions are skipped entirely, how a batch's windows are packed into rows
of n_s slots, and the halting histogram a training run logs per epoch.
"""

import numpy as np

from tabrep import numeric
from tabrep.dynamics import (TransformerParams, act_run, attention_weights,
                             coordinate_embedding, pack)
from tabrep.eval import SynthConfig, synth_generate
from tabrep.model import CustomerEncoder, ModelConfig, TrainConfig
from tabrep.numeric import Tensor
from tabrep.prep import build_schema

config = ModelConfig(n_s=5, embed_dim=8, heads=2, t_max=6, dropout=0.0)
params = TransformerParams.init(config, numeric.drawing(np.random.default_rng(3)), "demo")
rng = np.random.default_rng(4)
e0 = Tensor(rng.normal(size=(1, config.n_s, config.embed_dim)))      # [b, n_s, n_e]
mask = np.array([[True, True, True, True, False]])   # last slot is padding

print("=== position/time coordinates added before each step ===")
coords = coordinate_embedding(1, config.n_s, config.embed_dim)
with np.printoptions(precision=2, suppress=True):
    print(coords)

print("\n=== attention rows (head 0) over the active positions ===")
w = attention_weights(e0, params, config, mask=mask)[0]     # [k, n_s, n_s]
with np.printoptions(precision=3, suppress=True):
    print(w[0, :4, :])
print(f"row sums: {np.round(w[0].sum(axis=-1), 6)} (padding column is zero)")

print("\n=== halting behaviour as the halting bias moves ===")
print(f"{'bias':>6} {'steps per position':>22} {'mean steps':>11} {'ponder':>8}")
print("(ponder = mean steps + mean remainder; training scales it by ponder_weight)")
for bias in (2.0, 0.0, -1.0, -3.0):
    params.halt_b.data[:] = bias
    final, ponder, stats = act_run(e0, params, config, mask=mask)
    print(f"{bias:6.1f} {str(stats.halt_steps[0].tolist()):>22} "
          f"{stats.mean_steps:11.2f} {float(ponder.data):8.3f}")
print(f"(cap t_max = {config.t_max}; padded position reports 0 steps "
      f"and a zero output row)")

params.halt_b.data[:] = -1.0
final, _, stats = act_run(e0, params, config, mask=mask)
print(f"\nfinal padded row: {final.data[0, 4]}")
print(f"accumulated halting mass per position: {np.round(stats.accumulated[0], 3)}")

print("\n=== packing: each window's valid positions share rows of n_s slots ===")
windows = np.array([[True, True, True, True, False],
                    [True, False, True, False, False],
                    [True, True, True, True, True],
                    [False, False, False, True, False]])
packing = pack(windows)
print(f"{len(windows)} windows, {windows.sum()} valid positions -> "
      f"{len(packing.segment)} rows of {windows.shape[1]} slots")
print("window of each slot (-1 empty):")
print(packing.segment)
print("window position of each filled slot:")
print(np.where(packing.segment >= 0, packing.position, -1))

print("\n=== halting histogram of a short training run (train_log.jsonl) ===")
table = synth_generate(SynthConfig(n_customers=200, seed=4))
model = CustomerEncoder(build_schema(table),
                        ModelConfig(embed_dim=8, heads=2, t_max=4, rep_width=8,
                                    fusion_hidden=16, head_hidden=8, recon_count=1,
                                    recon_dim=4),
                        tasks={"churn": 2}, seed=0)
print("valid positions of the epoch's training batches that halted at each step")
for rec in model.fit(table, TrainConfig(epochs=3, batch_size=32)):
    for branch, counts in rec["halt_histogram"].items():
        steps = "  ".join(f"{step}: {count:4d}" for step, count in enumerate(counts, 1))
        print(f"epoch {rec['epoch']}  {branch:<20} {steps}")
