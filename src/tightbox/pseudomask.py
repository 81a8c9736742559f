"""Pseudo segmentation masks from activation maps and saliency.

Foreground is claimed where a class's normalized activation clears the
foreground threshold; background where saliency is at or below the
background threshold. Ambiguous pixels are ignored rather than guessed:
conflicting claims, unclaimed non-background pixels, and claimed pixels
sitting on low saliency all receive the IGNORE code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confmap import ConfMap

IGNORE = 255
BACKGROUND = 0


@dataclass(frozen=True)
class MaskConfig:
    fg_threshold: float = 0.78
    bg_threshold: float = 0.06

    def __post_init__(self):
        if not 0.0 <= self.bg_threshold < self.fg_threshold <= 1.0:
            raise ValueError(
                f"need 0 <= bg_threshold < fg_threshold <= 1, "
                f"got bg={self.bg_threshold}, fg={self.fg_threshold}")


@dataclass(frozen=True)
class PseudoMask:
    """Per-pixel label map: 0 background, 1..C class codes, 255 ignore."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "labels", arr)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


def normalize_cam(raw, class_id: int | None = None) -> ConfMap:
    """Divide an activation map by its maximum so its peak is 1.0.

    ``raw`` may be a ConfMap or a bare non-negative array (activations
    straight out of a classifier are unbounded, so they cannot be a
    ConfMap until normalized). An all-zero map is returned unchanged.
    """
    if isinstance(raw, ConfMap):
        values = raw.values
        class_id = raw.class_id if class_id is None else class_id
    else:
        values = np.asarray(raw, dtype=np.float32)
        if class_id is None:
            raise ValueError("class_id is required when normalizing a bare array")
        if values.size and float(values.min()) < 0.0:
            raise ValueError("activation map must be non-negative")
    peak = float(values.max()) if values.size else 0.0
    if peak == 0.0:
        return ConfMap(class_id=class_id, values=values)
    return ConfMap(class_id=class_id, values=values / peak)


def generate_mask(cams: list[ConfMap], saliency: ConfMap,
                  cfg: MaskConfig = MaskConfig()) -> PseudoMask:
    """Apply the five-outcome labeling rule per pixel.

    With claims = classes whose cam value >= fg_threshold at the pixel:
      one claim and saliency above background level -> that class;
      two or more claims -> IGNORE (conflict);
      no claim, saliency <= bg_threshold -> background;
      no claim, saliency above -> IGNORE (unlabeled);
      one claim but saliency <= bg_threshold -> IGNORE (low-saliency foreground).
    """
    shape = saliency.values.shape
    for cam in cams:
        if cam.values.shape != shape:
            raise ValueError(f"cam for class {cam.class_id} has shape "
                             f"{cam.values.shape}, saliency has {shape}")
    class_ids = [cam.class_id for cam in cams]
    if len(set(class_ids)) != len(class_ids):
        raise ValueError(f"duplicate class ids in cams: {class_ids}")
    for cid in class_ids:
        if not 1 <= cid < IGNORE:
            raise ValueError(f"foreground class id must be in 1..{IGNORE - 1}, got {cid}")

    claims = np.array([cam.values >= cfg.fg_threshold for cam in cams],
                      dtype=bool).reshape((len(cams),) + shape)
    n_claims = claims.sum(axis=0)

    salient = saliency.values > cfg.bg_threshold

    labels = np.full(shape, IGNORE, dtype=np.uint8)
    labels[(n_claims == 0) & ~salient] = BACKGROUND
    single = (n_claims == 1) & salient
    for idx, cid in enumerate(class_ids):
        labels[single & claims[idx]] = cid
    return PseudoMask(labels=labels)


def mask_stats(m: PseudoMask) -> dict:
    """Pixel counts and fractions per label code; flags all-ignore masks."""
    codes, counts = np.unique(m.labels, return_counts=True)
    total = m.width * m.height
    count_map = {int(c): int(n) for c, n in zip(codes, counts)}
    return {
        "width": m.width,
        "height": m.height,
        "total_pixels": total,
        "counts": count_map,
        "fractions": {code: n / total for code, n in count_map.items()},
        "all_ignore": count_map.get(IGNORE, 0) == total,
    }
