#!/usr/bin/env python3
"""Linear-head training walkthrough: inverse-frequency weights, the
warmup+cosine schedule, and momentum SGD on separable clusters."""

import numpy as np

from mipclass import (
    HeadSpec,
    TrainConfig,
    class_weights,
    forward,
    lr_schedule,
    train_heads,
    uniform_weights,
    weighted_ce,
)

# Inverse-frequency weighting: rarer classes get bigger weights, and
# w_c * N_c is constant so each class contributes equal total mass.
weights = class_weights([100, 50, 25])
print("counts [100, 50, 25] -> weights", [round(w, 4) for w in weights.w])
print("w * N:", [round(w * n, 4) for w, n in zip(weights.w, weights.counts)])

# The schedule warms up linearly, then anneals along a cosine.
cfg = TrainConfig(epochs=30, batch=8, lr_max=0.1, warmup_epochs=5)
lrs = [lr_schedule(t, cfg) for t in range(cfg.epochs)]
print("lr at t=0, 4, 5, 17, 29:", [round(lrs[t], 4) for t in (0, 4, 5, 17, 29)])

# Three well-separated Gaussian clusters in feature space.
rng = np.random.default_rng(1)
centers = np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]])
labels = np.repeat([0, 1, 2], [60, 30, 15])  # imbalanced on purpose
features = centers[labels] + rng.normal(scale=0.5, size=(labels.size, 3))

# One head on every row; its seed keys the Philox stream that shuffles
# each epoch's minibatches.  train_heads takes an (E, N, D) array and
# epoch e trains on matrix e % E: here one matrix for every epoch, as
# with augmentation off.
head = HeadSpec(np.arange(labels.size), labels, class_weights([60, 30, 15]), seed=0)
(result,) = train_heads(features[None], [head], cfg)
probs = forward(features, result.params)
accuracy = (probs.argmax(axis=1) == labels).mean()
print(f"loss {result.loss_trace[0]:.4f} -> {result.loss_trace[-1]:.4f}, "
      f"training accuracy {accuracy:.3f}")

# Natural weighting is plain cross entropy scaled by 1/3.
natural = weighted_ce(probs, labels, uniform_weights())
print("natural-weighting loss on the same predictions:", round(natural.value, 4))
