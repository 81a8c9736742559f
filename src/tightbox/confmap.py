"""Per-class confidence maps and summed-area tables for O(1) box statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Box


@dataclass(frozen=True)
class ConfMap:
    """One class's per-pixel segmentation confidence, values in [0, 1].

    ``values`` is a read-only float32 array of shape (height, width),
    row-major: values[y, x] is the confidence of pixel (x, y).
    """

    class_id: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError(f"confidence map must be 2-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("confidence map must have at least one pixel")
        if not np.all(np.isfinite(arr)):
            raise ValueError("confidence map contains non-finite values")
        lo, hi = float(arr.min()), float(arr.max())
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"confidence values outside [0, 1]: min={lo}, max={hi}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def contains_box(self, b: Box) -> bool:
        return b.x1 <= self.width and b.y1 <= self.height


def build_integral(m: ConfMap) -> np.ndarray:
    """Summed-area table over a ConfMap, accumulated in double precision.

    The read-only float64 table has shape (height+1, width+1);
    table[j, i] is the sum of all map values with y < j and x < i, so any
    box sum is a 4-corner query.
    """
    table = np.zeros((m.height + 1, m.width + 1), dtype=np.float64)
    np.cumsum(m.values, axis=0, dtype=np.float64, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    table.flags.writeable = False
    return table
