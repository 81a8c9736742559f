"""Quick-look PGM rendering of boxes over a confidence map."""

from __future__ import annotations

import numpy as np

from .confmap import ConfMap
from .geometry import Box
from .io_formats import write_pgm


def render_overlay(m: ConfMap, boxes: list[Box]) -> np.ndarray:
    """Map scaled to 0..200 gray with 1-px box borders burned in at 255."""
    img = np.rint(m.values.astype(np.float64) * 200.0).astype(np.uint8)
    for b in boxes:
        if b.x0 >= m.width or b.y0 >= m.height:
            continue
        x1, y1 = min(b.x1, m.width), min(b.y1, m.height)
        img[b.y0, b.x0:x1] = 255
        img[y1 - 1, b.x0:x1] = 255
        img[b.y0:y1, b.x0] = 255
        img[b.y0:y1, x1 - 1] = 255
    return img


def write_overlay(m: ConfMap, boxes: list[Box], path) -> None:
    write_pgm(render_overlay(m, boxes), path)
