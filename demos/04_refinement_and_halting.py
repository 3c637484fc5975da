"""Shared-weight refinement with per-position halting.

One record sequence, passed as a batch of one, is refined by the same
attention-plus-transition step until each position's halting unit
accumulates enough probability to stop. The demo shows the attention
pattern, how the halting bias trades compute for ponder cost, and that
padded positions are skipped entirely.
"""

import numpy as np

from tabrep import numeric
from tabrep.dynamics import (TransformerConfig, TransformerParams, act_run,
                             attention_weights, coordinate_embedding)
from tabrep.numeric import Tensor

config = TransformerConfig(n_s=5, n_e=8, k=2, t_max=6, dropout=0.0)
params = TransformerParams.init(config, numeric.drawing(np.random.default_rng(3)), "demo")
rng = np.random.default_rng(4)
e0 = Tensor(rng.normal(size=(1, config.n_s, config.n_e)))      # [b, n_s, n_e]
mask = np.array([[True, True, True, True, False]])   # last slot is padding

print("=== position/time coordinates added before each step ===")
coords = coordinate_embedding(1, config.n_s, config.n_e)
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
