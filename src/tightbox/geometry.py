"""Axis-aligned box arithmetic on the half-open integer pixel grid.

A pixel (px, py) belongs to a box iff x0 <= px < x1 and y0 <= py < y1, so
areas, intersections and ring pixel counts are exact integer counts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Rectangle in pixel coordinates, half-open on the right and bottom."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        try:
            for name in ("x0", "y0", "x1", "y1"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        except TypeError:
            raise ValueError(f"box coordinates must be integers: {self}")
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError(f"box coordinates must be non-negative: {self}")
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise ValueError(f"box must have positive width and height: {self}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        return self.width * self.height

    def contains(self, other: "Box") -> bool:
        return (self.x0 <= other.x0 and self.y0 <= other.y0
                and other.x1 <= self.x1 and other.y1 <= self.y1)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x0, self.y0, self.x1, self.y1)


@dataclass(frozen=True)
class RingRegion:
    """Set-difference outer \\ inner; the surrounding context of a proposal."""

    outer: Box
    inner: Box

    def __post_init__(self):
        if not self.outer.contains(self.inner):
            raise ValueError(f"inner box {self.inner} not contained in outer {self.outer}")

    @property
    def pixel_count(self) -> int:
        return self.outer.area - self.inner.area

    @property
    def is_empty(self) -> bool:
        return self.pixel_count == 0


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    ix0 = max(a.x0, b.x0)
    iy0 = max(a.y0, b.y0)
    ix1 = min(a.x1, b.x1)
    iy1 = min(a.y1, b.y1)
    if ix0 >= ix1 or iy0 >= iy1:
        return 0.0
    inter = (ix1 - ix0) * (iy1 - iy0)
    union = a.area + b.area - inter
    return inter / union


def check_ratio(ratio: float) -> None:
    """Reject enlarge ratios that are below 1 or not finite (nan, inf)."""
    if not (math.isfinite(ratio) and ratio >= 1.0):
        raise ValueError(f"enlarge ratio must be a finite number >= 1, got {ratio}")


def enlarge_coords(x0, y0, x1, y1, ratio: float, image_w: int, image_h: int):
    """Enlarged, image-clipped (x0, y0, x1, y1) as int64 values.

    Works elementwise, on ints and on int64 column arrays alike, so the
    single-box and the batch paths share one arithmetic. Inputs are not
    validated; ``enlarge`` is the checked entry point.
    """
    cx = (x0 + x1) / 2.0
    cy = (y0 + y1) / 2.0
    half_w = (x1 - x0) * ratio / 2.0
    half_h = (y1 - y0) * ratio / 2.0
    return (np.maximum(0, np.floor(cx - half_w)).astype(np.int64),
            np.maximum(0, np.floor(cy - half_h)).astype(np.int64),
            np.minimum(image_w, np.ceil(cx + half_w)).astype(np.int64),
            np.minimum(image_h, np.ceil(cy + half_h)).astype(np.int64))


def enlarge(b: Box, ratio: float, image_w: int, image_h: int) -> Box:
    """Scale width and height by ``ratio`` about the box center.

    Fractional coordinates are rounded outward (floor for mins, ceil for
    maxes) so the result always contains ``b``, then clipped to the image.
    """
    check_ratio(ratio)
    if b.x1 > image_w or b.y1 > image_h:
        raise ValueError(f"box {b} exceeds image bounds {image_w}x{image_h}")
    return Box(*enlarge_coords(b.x0, b.y0, b.x1, b.y1, ratio, image_w, image_h))


def ring(b: Box, ratio: float, image_w: int, image_h: int) -> RingRegion:
    """Ring between ``b`` and its enlarged, image-clipped version.

    The ring can be empty: at ratio 1.0, or when clipping eats the whole
    margin (box touching every border). Empty rings are valid values and
    are resolved by the scoring module's empty-ring policy.
    """
    return RingRegion(outer=enlarge(b, ratio, image_w, image_h), inner=b)
