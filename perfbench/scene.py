"""Write one synthetic scene as events.txt and groundtruth.txt: the benchmark's set-up step.

    python3 perfbench/scene.py --seed N --duration S --sensor PX --out DIR

The workloads run this in a child process and read the files back, as when a
recording is ingested from disk. That keeps the generator's memory out of the
measured process's peak RSS. Prints one JSON line with the wall time of the
``synth.generate_dataset`` call.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from time import perf_counter

from run import use_checkout_sources


def make_scene(seed: int, duration: float, sensor: int):
    """The default wireframe scene, scaled down to a smaller sensor for smoke runs."""
    from evpose import synth

    scene = synth.default_scene(seed=seed, duration=duration)
    if sensor != scene.sensor_w:
        scale = sensor / scene.sensor_w
        scene = dataclasses.replace(scene, sensor_w=sensor, sensor_h=sensor, focal=scene.focal * scale)
    return scene


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--sensor", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if not use_checkout_sources():
        return 2
    from evpose import synth

    scene = make_scene(args.seed, args.duration, args.sensor)
    start = perf_counter()
    events_text, poses_text = synth.generate_dataset(scene)
    generate_s = perf_counter() - start
    (args.out / "events.txt").write_text(events_text, encoding="utf-8")
    (args.out / "groundtruth.txt").write_text(poses_text, encoding="utf-8")
    print(json.dumps({"generate_dataset_s": generate_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
