"""The reverse-mode engine behind the encoder, on problems small enough
to inspect.

Part one differentiates a tiny expression and confirms the gradients
against central finite differences. Part two fits a two-parameter linear
regression with the same Adam optimizer the encoder trains with. Part
three runs the two-layer ReLU network both as the fused `numeric.mlp` op
and as the five ops it replaces: one tape node against five, with the same
output and gradients. Only ops run inside `numeric.recording()` go on the
tape that `numeric.backward` sweeps; the finite-difference evaluations run
outside it and build no graph.
"""

import numpy as np

from tabrep import numeric
from tabrep.numeric import Parameter, Tensor

print("=== part 1: backward pass vs finite differences ===")
w = Parameter(np.array([[0.4, -0.7], [1.2, 0.3]]), name="w")
x = Tensor(np.array([[1.0, 2.0], [3.0, -0.8], [0.5, 0.5]]))


def loss_value():
    hidden = numeric.relu(numeric.matmul(x, w))
    return numeric.tensor_sum(numeric.sigmoid(hidden) * hidden)


with numeric.recording():
    loss = loss_value()
    w.zero_grad()
    numeric.backward(loss)
print(f"loss          {float(loss.data):.6f}")
print(f"dloss/dw      {np.round(w.grad, 6)}")

h = 1e-6
estimate = np.zeros_like(w.data)
flat = w.data.reshape(-1)
for i in range(flat.size):
    keep = flat[i]
    flat[i] = keep + h
    up = float(loss_value().data)
    flat[i] = keep - h
    down = float(loss_value().data)
    flat[i] = keep
    estimate.reshape(-1)[i] = (up - down) / (2 * h)
print(f"finite diff   {np.round(estimate, 6)}")
print(f"max abs gap   {np.abs(w.grad - estimate).max():.2e}")

print("\n=== part 2: Adam on y = 3x - 1 with noise ===")
rng = numeric.substream(0, "demo-regression")
xs = rng.uniform(-1, 1, size=(64, 1))
ys = 3.0 * xs - 1.0 + rng.normal(0, 0.05, size=(64, 1))

slope = numeric.zeros_param((1, 1), "slope")
bias = numeric.zeros_param((1,), "bias")
opt = numeric.Adam([slope, bias], lr=0.05)
data = Tensor(xs)
for step in range(200):
    with numeric.recording():
        pred = numeric.matmul(data, slope) + bias
        err = pred - Tensor(ys)
        mse = numeric.tensor_mean(err * err)
        opt.zero_grad()
        numeric.backward(mse)
    opt.step()
    if step % 50 == 0 or step == 199:
        print(f"  step {step:3d}: mse {float(mse.data):.5f} "
              f"slope {float(slope.data[0, 0]):+.3f} bias {float(bias.data[0]):+.3f}")
print("target slope +3.000, bias -1.000")

print("\n=== part 3: a fused op is one tape node ===")
rng = numeric.substream(0, "demo-fused")
inputs = Tensor(rng.normal(size=(4, 3)))
params = [Parameter(rng.normal(size=shape), name=name)
          for name, shape in (("w1", (3, 5)), ("b1", (5,)), ("w2", (5, 2)), ("b2", (2,)))]


def run(build):
    for p in params:
        p.zero_grad()
    with numeric.recording():
        out = build(*params)
        nodes = len(numeric._tape)
        numeric.backward(numeric.tensor_sum(out))
    return out.data, nodes, [p.grad for p in params]


fused = run(lambda w1, b1, w2, b2: numeric.mlp(inputs, w1, b1, w2, b2))
composed = run(lambda w1, b1, w2, b2:
               numeric.matmul(numeric.relu(numeric.matmul(inputs, w1) + b1), w2) + b2)
print(f"tape nodes    fused {fused[1]}, composed {composed[1]}")
print(f"same output   {np.array_equal(fused[0], composed[0])}")
print(f"max grad gap  {max(np.abs(a - b).max() for a, b in zip(fused[2], composed[2])):.1e}")
