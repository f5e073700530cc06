"""Generate a synthetic event-camera dataset and poke at its contents.

A wireframe scene is swept past a pinhole camera; pixels where the
rasterized edge mask toggles between consecutive groundtruth samples emit
events. The output is two text files in the same format as real
event-camera exports: `events.txt` (t x y p) and `groundtruth.txt`
(t px py pz qx qy qz qw).

Run from the repository root:  python demos/01_synthetic_dataset.py
"""

import os

import numpy as np

from evpose import config, synth
from evpose.event_image import build_image, write_pgm
from evpose.events import parse_events, parse_poses, window_events

OUT = os.path.join(os.path.dirname(__file__), "output", "01_synthetic")
os.makedirs(OUT, exist_ok=True)

# A short, fast version of the default scene: three quadrilateral
# wireframes and a gentle sinusoidal 6DOF sway, sampled at 200 Hz.
scene = synth.default_scene(seed=7, rate_hz=200.0, duration=0.5)
print(f"scene: {len(scene.segments)} segments, {scene.sensor_w}x{scene.sensor_h} sensor, "
      f"{scene.rate_hz:.0f} Hz for {scene.duration}s")

# The scene config is plain JSON; this is what `evpose synth --config`
# consumes.
config_path = os.path.join(OUT, "scene.json")
with open(config_path, "w") as f:
    f.write(config.to_json(scene))
print(f"wrote {config_path}")

events_text, poses_text = synth.generate_dataset(scene)
events = parse_events(events_text, scene.sensor_w, scene.sensor_h)
poses = parse_poses(poses_text)
print(f"generated {len(events)} events across {len(poses)} groundtruth poses; "
      f"parsed into one {events.dtype.itemsize}-byte-per-event array with fields {events.dtype.names}")

# Windows pair every inter-pose interval with the pose at its end.
windows, skipped = window_events(events, poses)
sizes = [len(w.events) for w in windows]
print(f"{len(windows)} windows ({skipped} intervals had no events); "
      f"events per window: min {min(sizes)}, median {sorted(sizes)[len(sizes) // 2]}, "
      f"max {max(sizes)}")

# What the camera actually "sees": the full edge mask at one pose, versus
# the event image, which only shows pixels that changed inside a window.
mask = synth.render_edge_frame(scene, poses.p[20], poses.q[20])
mask_image = build_image(events[:0], scene.sensor_h, scene.sensor_w)  # no events: the 0.5 background
mask_image.pixels[mask] = 1.0
write_pgm(mask_image, os.path.join(OUT, "edge_mask.pgm"))

window = windows[20]
event_image = build_image(window.events, scene.sensor_h, scene.sensor_w)
write_pgm(event_image, os.path.join(OUT, "event_image.pgm"))
print(f"wrote edge_mask.pgm and event_image.pgm to {OUT}")
print(f"the event image touches {np.count_nonzero(event_image.pixels != 0.5)} pixels; "
      f"the full mask has {int(mask.sum())}")

# Determinism: the generator is a pure function of (config, seed).
again = synth.generate_dataset(scene)
assert again == (events_text, poses_text)
print("re-generating with the same seed reproduces the files byte for byte")
