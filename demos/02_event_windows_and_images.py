"""From raw event text to pose-labeled ternary images.

Shows the ingestion path used by training and evaluation: parse events
and groundtruth poses, group events into (t_i, t_i+1] windows labeled with
the pose at the interval end, build {0, 0.5, 1} event images, and thin a
window down to its newest events the way the robustness experiment does.

Run from the repository root:  python demos/02_event_windows_and_images.py
"""

import os

import numpy as np

from evpose import synth
from evpose.event_image import image_from_window, select_fraction, write_pgm
from evpose.events import parse_events, parse_poses, split_novel, split_random, window_events

OUT = os.path.join(os.path.dirname(__file__), "output", "02_windows")
os.makedirs(OUT, exist_ok=True)

# Any "t x y p" / "t px py pz qx qy qz qw" text works here; we synthesize
# some so the demo is self-contained.
scene = synth.default_scene(seed=3, rate_hz=200.0, duration=0.4)
events_text, poses_text = synth.generate_dataset(scene)

events = parse_events(events_text, scene.sensor_w, scene.sensor_h)
poses = parse_poses(poses_text)
print(f"parsed {len(events)} events, {len(poses)} poses")
# One structured array per stream: columns t (s), x, y (pixels), rho (+-1).
first = events[0]
print(f"first event: t={first['t']:.6f} x={first['x']} y={first['y']} rho={first['rho']:+d}")
print(f"first pose: t={poses.t[0]:.4f} p={poses.p[0].round(3)} q={poses.q[0].round(3)}")

windows, skipped = window_events(events, poses)
print(f"{len(windows)} windows, {skipped} empty intervals dropped; each window's events "
      f"are a slice (a view) of the parsed array: {windows[0].events.base is events}")

w = windows[10]
print(f"window {w.sequence_index}: {len(w.events)} events in "
      f"({poses.t[w.sequence_index]:.4f}, {w.label.t:.4f}], labeled with the pose at the end")

# Event images: 0.5 background, 1.0 where the newest event was positive,
# 0.0 where it was negative.
image = image_from_window(w, scene.sensor_h, scene.sensor_w)
values, counts = np.unique(image.pixels, return_counts=True)
print("pixel value histogram:", dict(zip(values.tolist(), counts.tolist())))
write_pgm(image, os.path.join(OUT, "window_full.pgm"))

# The robustness experiment rebuilds images from only the newest fraction
# of each window's events (ceil(fraction * n), suffix of the time order).
for fraction in (0.1, 0.5, 1.0):
    selected = select_fraction(w, fraction)
    thinned = image_from_window(w, scene.sensor_h, scene.sensor_w, fraction=fraction)
    write_pgm(thinned, os.path.join(OUT, f"window_fraction_{int(fraction * 100):03d}.pgm"))
    print(f"fraction {fraction:.1f}: {len(selected)} events, "
          f"{np.count_nonzero(thinned.pixels != 0.5)} touched pixels")

# The two split protocols used by the experiments: uniformly random
# window selection, and a temporal prefix/suffix split.
train_r, test_r = split_random(windows, 0.7, seed=42)
train_n, test_n = split_novel(windows, 0.7)
print(f"random split: {len(train_r)} train / {len(test_r)} test (seeded, reproducible)")
print(f"novel split:  train = first {len(train_n)} windows, test = remaining {len(test_n)}")
print(f"wrote PGM renderings to {OUT}")
