"""Ternary event images.

A window of events (an ``EVENT_DTYPE`` array) is painted onto an h x w
grid initialized to 0.5: pixels hit by a positive-polarity event become
1.0, negative become 0.0, and later events overwrite earlier ones at the
same pixel. The painter finds the newest event of each pixel itself, so
it never relies on the order numpy's fancy assignment writes repeated
indices in.

Images are float16: it holds 0, 0.5 and 1 exactly, so an image takes 2
bytes a pixel instead of 8, and the model input, which converts to
float64, sees the same values. Training and evaluation paint each
window's image at the step that uses it, so they hold one image at a
time; a caller that keeps many images keeps a quarter of float64's bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import BoundsError
from .events import EventWindow


@dataclass(eq=False)
class EventImage:
    """An (h, w) float16 ``pixels`` grid with values in {0.0, 0.5, 1.0};
    its shape is the image size. Float16 holds the three values exactly at
    a quarter of float64's bytes, which matters to a caller that keeps
    many images; training paints each one at its step and drops it."""

    pixels: np.ndarray


def select_fraction(window: EventWindow, fraction: float) -> np.ndarray:
    """Return the most recent ceil(fraction * n) events, in ascending time
    order, as a view of the window's events."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = len(window.events)
    return window.events[n - math.ceil(fraction * n) :]


def build_image(events: np.ndarray, h: int, w: int) -> EventImage:
    """Paint ``EVENT_DTYPE`` events (assumed ascending by time) onto a fresh 0.5 grid."""
    x, y = events["x"], events["y"]
    if x.size and (x.max() >= w or y.max() >= h):
        i = np.flatnonzero((x >= w) | (y >= h))[0]
        raise BoundsError(f"event at ({x[i]}, {y[i]}) outside {w}x{h} image")
    # y * w + x in place; uint16 when every index fits, which numpy sorts stably by radix
    flat = y.astype(np.uint16 if h * w < 1 << 16 else np.intp)
    flat *= w
    flat += x
    order = np.argsort(flat, kind="stable")  # a pixel's events stay in time order
    flat = flat[order]
    newest = np.empty(flat.size, dtype=bool)  # the last event of each pixel's run
    newest[:-1] = flat[1:] != flat[:-1]
    newest[-1:] = True
    pixels = np.empty((h, w), dtype=np.float16)
    pixels.fill(0.5)
    pixels.reshape(-1)[flat[newest]] = events["rho"][order[newest]] > 0
    return EventImage(pixels)


def image_from_window(
    window: EventWindow, h: int, w: int, fraction: float = 1.0
) -> EventImage:
    """Build the event image for a window, optionally from its newest events only."""
    return build_image(select_fraction(window, fraction), h, w)


def to_pgm(image: EventImage) -> str:
    """Render as an ASCII PGM (P2): 0 -> 0, 0.5 -> 128, 1 -> 255."""
    levels = np.where(image.pixels == 0.5, 128, np.where(image.pixels > 0.5, 255, 0))
    rows = "\n".join(" ".join(str(v) for v in row) for row in levels.tolist())
    h, w = image.pixels.shape
    return f"P2\n{w} {h}\n255\n{rows}\n"


def write_pgm(image: EventImage, path) -> None:
    """Write the PGM rendering of an event image to ``path``."""
    with open(path, "w", encoding="ascii") as f:
        f.write(to_pgm(image))
