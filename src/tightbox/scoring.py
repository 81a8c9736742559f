"""Proposal objectness scoring: purity minus surrounding-context completeness.

A proposal is rated by two region statistics on one class's confidence map:
the mean confidence inside the box (purity) and the conditional average of
the highest-confidence pixels in the ring between the box and its enlarged
version (surrounding completeness). Tight boxes have high purity and low
surrounding completeness, so the difference ranks them above boxes stuck
on discriminative object parts.

Both statistics come from one kernel over a grid of enlarge ratios and
top fractions: box means from the summed-area table, ring pixels gathered
into a scratch buffer once per ratio and reduced by an exact top-k mean
per fraction. ``score`` and ``score_batch`` call it with a 1x1 grid, the
ablation sweep with its whole grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .confmap import ConfMap, IntegralImage, box_mean, build_integral
from .errors import EmptyRegionError
from .geometry import Box, check_ratio, enlarge_coords


class EmptyRingPolicy(enum.Enum):
    """What to do when the enlarged box clips to the box itself.

    ZERO scores the surround as 0.0 (the box keeps its purity as the full
    score); SKIP marks the proposal excluded from candidate pools.
    """

    ZERO = "zero"
    SKIP = "skip"


@dataclass(frozen=True)
class ScoringConfig:
    enlarge_ratio: float = 1.2
    top_fraction: float = 0.5
    pool_size: int = 200
    empty_ring_policy: EmptyRingPolicy = EmptyRingPolicy.ZERO

    def __post_init__(self):
        check_ratio(self.enlarge_ratio)
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError(f"top_fraction must be in (0, 1], got {self.top_fraction}")
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {self.pool_size}")


@dataclass(frozen=True)
class ScoredProposal:
    """A box with its inside / surround statistics for one class.

    ``excluded`` is only set under the SKIP empty-ring policy; excluded
    proposals carry their purity but never enter candidate pools.
    """

    box: Box
    class_id: int
    p_inside: float
    p_surround: float
    objectness: float
    excluded: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p_inside <= 1.0:
            raise ValueError(f"p_inside out of [0, 1]: {self.p_inside}")
        if not 0.0 <= self.p_surround <= 1.0:
            raise ValueError(f"p_surround out of [0, 1]: {self.p_surround}")
        if self.objectness != self.p_inside - self.p_surround:
            raise ValueError("objectness must equal p_inside - p_surround")


@dataclass(frozen=True)
class CandidatePool:
    """Top proposals for one (image, class), sorted by objectness descending.

    Ties are broken by p_inside descending, then input position ascending,
    so pools are bit-reproducible.
    """

    image_id: str
    class_id: int
    entries: tuple[ScoredProposal, ...] = field(default=())


def top_k_count(n: int, top_fraction: float) -> int:
    """Number of pixels the conditional average keeps: ceil(fraction * n).

    Rounding up guarantees at least one pixel for any non-empty region.
    The product is evaluated in floats; every top-k mean in this module
    goes through this helper, and the naive reference scorer mirrors the
    same expression, so they agree on k even when the product rounds.
    """
    return min(max(math.ceil(top_fraction * n), 1), n)


def conditional_average(values, top_fraction: float) -> float:
    """Mean of the ceil(fraction * N) largest values.

    Equal values contribute equally, so the result does not depend on how
    ties at the cutoff are ordered. Fraction 1 is a plain mean.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError(f"top_fraction must be in (0, 1], got {top_fraction}")
    # a float64 copy, since _topk_mean partitions its buffer in place
    buf = np.array(values, dtype=np.float64).reshape(-1)
    if buf.size == 0:
        raise EmptyRegionError("conditional average of an empty region")
    return _topk_mean(buf, buf.size, top_fraction)


def _gather_ring(values: np.ndarray, buf: np.ndarray,
                 ox0: int, oy0: int, ox1: int, oy1: int,
                 bx0: int, by0: int, bx1: int, by1: int) -> int:
    """Copy ring pixels into ``buf`` as four strips; returns the pixel count.

    Strip order (top, bottom, left, right) is fixed, so the buffer and the
    float sums taken over it are reproducible; the loop is unrolled
    because this sits on the hot path of every scoring call.
    """
    n = 0
    h = by0 - oy0
    if h > 0:
        cnt = h * (ox1 - ox0)
        buf[:cnt].reshape(h, ox1 - ox0)[...] = values[oy0:by0, ox0:ox1]
        n = cnt
    h = oy1 - by1
    if h > 0:
        cnt = h * (ox1 - ox0)
        buf[n:n + cnt].reshape(h, ox1 - ox0)[...] = values[by1:oy1, ox0:ox1]
        n += cnt
    w = bx0 - ox0
    if w > 0:
        cnt = (by1 - by0) * w
        if cnt > 0:
            buf[n:n + cnt].reshape(by1 - by0, w)[...] = values[by0:by1, ox0:bx0]
            n += cnt
    w = ox1 - bx1
    if w > 0:
        cnt = (by1 - by0) * w
        if cnt > 0:
            buf[n:n + cnt].reshape(by1 - by0, w)[...] = values[by0:by1, bx1:ox1]
            n += cnt
    return n


def _topk_mean(buf: np.ndarray, n: int, top_fraction: float,
               copy: bool = False) -> float:
    """Mean of the k largest of buf[:n]; partitions the buffer in place
    unless ``copy`` is set, in which case a copy of it is partitioned."""
    k = top_k_count(n, top_fraction)
    v = buf[:n]
    if k >= n:
        return float(v.sum(dtype=np.float64) / n)
    if copy:
        v = v.copy()
    v.partition(n - k)
    return float(v[n - k:].sum(dtype=np.float64) / k)


def _score_boxes(m: ConfMap, ii: IntegralImage, boxes: list[Box],
                 ratios: list[float], fractions: list[float],
                 policy: EmptyRingPolicy) -> list[list[list[ScoredProposal]]]:
    """The scoring kernel over a (ratio x fraction) grid.

    ``grid[i][j]`` holds one ScoredProposal per box, in input order, at
    ``ratios[i]`` and ``fractions[j]``. Boxes must lie inside the map.
    Box means come from the integral table once; each ring is gathered
    once per ratio with the strip gather. Fractions are taken largest
    first: plain means (k = n) read the gathered ring as it is, the
    others partition a copy, and the smallest fraction partitions the
    ring in place, so a 1x1 grid copies nothing. All sums are float64.
    """
    if not boxes or not fractions:
        return [[[] for _ in fractions] for _ in ratios]
    coords = np.array([b.as_tuple() for b in boxes], dtype=np.int64)
    x0, y0, x1, y1 = coords.T
    t = ii.table
    # same 4-corner expression and operation order as IntegralImage.box_sum
    p_in = (t[y1, x1] - t[y0, x1] - t[y1, x0] + t[y0, x0]) / ((x1 - x0) * (y1 - y0))
    p_in = p_in.tolist()

    skip_on_empty = policy is EmptyRingPolicy.SKIP
    order = sorted(range(len(fractions)), key=fractions.__getitem__, reverse=True)
    copied = [(j, fractions[j]) for j in order[:-1]]
    last, last_frac = order[-1], fractions[order[-1]]
    values = m.values
    class_id = m.class_id
    gather = _gather_ring
    topk = _topk_mean
    buf = np.empty(m.width * m.height, dtype=values.dtype)
    grid = []
    for ratio in ratios:
        outer = enlarge_coords(x0, y0, x1, y1, ratio, m.width, m.height)
        geo = np.stack([*outer, x0, y0, x1, y1], axis=1).tolist()
        cells = [[] for _ in fractions]
        for g, pi, box in zip(geo, p_in, boxes):
            n = gather(values, buf, g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7])
            if n == 0:
                sp = ScoredProposal(box=box, class_id=class_id, p_inside=pi,
                                    p_surround=0.0, objectness=pi,
                                    excluded=skip_on_empty)
                for cell in cells:
                    cell.append(sp)
                continue
            for j, frac in copied:
                ps = topk(buf, n, frac, True)
                cells[j].append(ScoredProposal(box=box, class_id=class_id,
                                               p_inside=pi, p_surround=ps,
                                               objectness=pi - ps))
            ps = topk(buf, n, last_frac)
            cells[last].append(ScoredProposal(box=box, class_id=class_id,
                                              p_inside=pi, p_surround=ps,
                                              objectness=pi - ps))
        grid.append(cells)
    return grid


def score(m: ConfMap, ii: IntegralImage, b: Box,
          cfg: ScoringConfig) -> ScoredProposal:
    """Score one proposal: objectness = purity - surrounding completeness.

    ``ii`` is the map's integral image. An empty ring scores a surround
    of 0.0; under the SKIP policy the proposal is also marked excluded.
    """
    if not m.contains_box(b):
        raise ValueError(f"box {b} exceeds map bounds {m.width}x{m.height}")
    return _score_boxes(m, ii, [b], [cfg.enlarge_ratio], [cfg.top_fraction],
                        cfg.empty_ring_policy)[0][0][0]


def score_batch(m: ConfMap, boxes: list[Box],
                cfg: ScoringConfig) -> list[ScoredProposal]:
    """Score proposals in input order; entries equal single-box score() calls.

    Bounds are validated up front and a ValueError names every offending
    box, so the batch either completes for all boxes or fails before
    scoring any.
    """
    return _score_grid(m, boxes, [cfg.enlarge_ratio], [cfg.top_fraction],
                       cfg.empty_ring_policy)[0][0]


def _score_grid(m: ConfMap, boxes: list[Box], ratios: list[float],
                fractions: list[float],
                policy: EmptyRingPolicy) -> list[list[list[ScoredProposal]]]:
    """Bounds check, the map's integral, then the kernel over the grid.

    The integral is built through this module's ``build_integral`` name,
    once per call whatever the grid's size.
    """
    bad = [i for i, b in enumerate(boxes) if not m.contains_box(b)]
    if bad:
        raise ValueError(f"boxes out of map bounds {m.width}x{m.height} "
                         f"at input positions {bad}")
    return _score_boxes(m, build_integral(m), boxes, ratios, fractions, policy)


def build_pool(scored: list[ScoredProposal], cfg: ScoringConfig,
               image_id: str = "") -> CandidatePool:
    """Keep the top pool_size proposals by objectness, deterministic ties."""
    kept = [s for s in scored if not s.excluded]
    class_ids = {s.class_id for s in kept}
    if len(class_ids) > 1:
        raise ValueError(f"pool entries span multiple classes: {sorted(class_ids)}")
    ranked = sorted(kept, key=lambda s: (-s.objectness, -s.p_inside))
    class_id = kept[0].class_id if kept else -1
    return CandidatePool(image_id=image_id, class_id=class_id,
                         entries=tuple(ranked[:cfg.pool_size]))


def purity_only_score(ii: IntegralImage, b: Box) -> ScoredProposal:
    """Baseline ranking that looks only inside the box (no surround term)."""
    p_in = box_mean(ii, b)
    return ScoredProposal(box=b, class_id=ii.class_id, p_inside=p_in,
                          p_surround=0.0, objectness=p_in)
