#!/usr/bin/env python3
"""Stack construction walkthrough: from a multi-phase study to the
4-channel projection stack, then normalization."""

import numpy as np

from mipclass import CHANNEL_NAMES, BuildConfig, build_stacks, normalize_stack
from mipclass.phantom import NATIVE_SHAPE, NATIVE_SPACING, generate_study

# A synthetic study: malignant right breast, clear left breast.
study = generate_study("demo", index=4, cohort_seed=7)
print("labels: right =", study.label_right, " left =", study.label_left)
print("phases:", 1 + len(study.posts), "volumes of", study.pre.data.shape)

# Standardize on the native grid and keep a 32-row band.  One call builds
# both sides from one pass over the volumes.
cfg = BuildConfig(spacing=NATIVE_SPACING, shape=NATIVE_SHAPE, row_window=32)
stacks = build_stacks(study, cfg)
stack = stacks["right"]
print("channels:", CHANNEL_NAMES)
print("stack shape:", stack.channels.shape, "side:", stack.side)

# The washout kinetics are visible directly in the channel maxima:
# early subtraction peaks above the late one for a malignant lesion.
for name, channel in zip(CHANNEL_NAMES, stack.channels):
    print(f"  {name:9s} max {channel.max():8.2f}  mean {channel.mean():7.2f}")
assert stack.channels[1].max() > stack.channels[3].max()

# The clear side carries only background enhancement.
clear = stacks["left"]
print("clear-side sub1 max:", round(float(clear.channels[1].max()), 2))

# Normalization: per-channel min-max to [0, 1], then fixed constants.
normalized = normalize_stack(stack)
print("normalized:", normalized.normalized)
for name, channel in zip(CHANNEL_NAMES, normalized.channels):
    print(f"  {name:9s} min {channel.min():7.3f}  max {channel.max():7.3f}")
print("recorded bounds for channel 0:", normalized.norm_bounds[0])
