"""Proposal objectness scoring: purity minus surrounding-context completeness.

A proposal is rated by two region statistics on one class's confidence map:
the mean confidence inside the box (purity) and the conditional average of
the highest-confidence pixels in the ring between the box and its enlarged
version (surrounding completeness). Tight boxes have high purity and low
surrounding completeness, so the difference ranks them above boxes stuck
on discriminative object parts.

Both statistics come from one kernel over a grid of enlarge ratios and
top fractions, returned as arrays: box means from the summed-area table
(clamped to [0, 1]), ring sizes as outer minus inner area, each ring's
k per fraction as one array expression, and surround means from ring
pixels gathered into a fresh array once per ratio (once per fraction on
the fallback path) and reduced by an exact top-k mean. ``score_batch``
calls it with a 1x1 grid, the ablation sweep with its whole grid.

Sharing work across fractions changes the order in which a ring's values
are added, which in general changes the bits of a float sum. It cannot
when every partial sum is exact: map values are float32 in [0, 1], so
with e = floor(log2) of the map's smallest positive value they are all
multiples of 2**(e - 23), and a sum of at most n of them is a multiple of
that step no larger than n, held exactly by float64 while
n <= 2**(e + 30). A ring within that limit is sorted once and shares
one segment sum across the grid's fractions; a larger ring (or any ring
of a map with a subnormal smallest value) falls back to one fresh gather
and one partition per fraction, the arithmetic a 1x1 grid always uses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .confmap import ConfMap, build_integral
from .geometry import Box, check_ratio, enlarge_coords


class EmptyRingPolicy(enum.Enum):
    """What to do when the enlarged box clips to the box itself.

    ZERO scores the surround as 0.0 (the box keeps its purity as the full
    score); SKIP marks the proposal excluded from candidate pools. At
    enlarge ratio 1 every ring is empty, so ZERO scoring is the inside-only
    baseline.
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


def _gather_ring(values: np.ndarray, ox0: int, oy0: int, ox1: int, oy1: int,
                 bx0: int, by0: int, bx1: int, by1: int) -> np.ndarray:
    """Ring pixels as a new flat array of four strips.

    Strip order (top, bottom, left, right, each row-major) is fixed, so
    the array and the float sums taken over it are reproducible: every
    cell of a grid partitions or sorts the same values in the same order.
    """
    return np.concatenate((values[oy0:by0, ox0:ox1], values[by1:oy1, ox0:ox1],
                           values[by0:by1, ox0:bx0], values[by0:by1, bx1:ox1]),
                          axis=None)


def _topk_mean(v: np.ndarray, k: int) -> float:
    """Mean of the k largest of the ring ``v``; partitions it in place."""
    n = v.size
    if k >= n:
        return float(v.sum(dtype=np.float64) / n)
    v.partition(n - k)
    return float(v[n - k:].sum(dtype=np.float64) / k)


def _exact_ring_limit(values: np.ndarray) -> float:
    """Largest ring size whose float64 sums are exact in any order.

    Map values are float32 in [0, 1], so each is a multiple of
    2**(e - 23), e = floor(log2(v_min)) of the smallest positive value.
    A sum of at most n of them is a multiple of that step no larger than
    n, which float64 holds exactly while n <= 2**53 * 2**(e - 23). A map
    with no positive value has no limit; a subnormal v_min gives a limit
    below 1.
    """
    v_min = float(np.min(values, initial=np.inf, where=values > 0))
    if v_min == math.inf:
        return math.inf
    return 2.0 ** (math.frexp(v_min)[1] - 1 + 30)


def _shared_topk_means(v: np.ndarray, ks: list[int]) -> list[float]:
    """Means of the k largest of the ring for each k of ``ks``, from one sort.

    Only for a ring within ``_exact_ring_limit``: the ring is sorted in
    place, and one reduceat over the distinct cut points n - k gives
    segment sums whose suffix totals are the top-k sums. Exactness makes
    them equal to ``_topk_mean``'s to the bit.
    """
    n = v.size
    v.sort()
    cuts = sorted({n - k for k in ks})
    segments = np.add.reduceat(v, cuts, dtype=np.float64).tolist()
    top = {}
    total = 0.0
    for s, part in zip(reversed(cuts), reversed(segments)):
        total += part
        top[s] = total
    return [top[n - k] / k for k in ks]


def _top_k_counts(sizes: np.ndarray, fractions: list[float]) -> np.ndarray:
    """k = min(max(ceil(f * n), 1), n) for every ring size n and fraction f.

    The surround mean keeps the ceil(f * n) largest ring values, at least
    one of a non-empty ring. Each product is the float64 product of n and
    f, as in ``oracle_score``'s scalar rule, so the two agree on k even
    where the product rounds; an empty ring gets k = 0.
    """
    k = np.ceil(np.multiply.outer(sizes, fractions))
    return np.minimum(np.maximum(k, 1), sizes[..., None]).astype(np.int64)


def _score_boxes(m: ConfMap, boxes: list[Box], ratios: list[float],
                 fractions: list[float]):
    """The scoring kernel over a (ratio x fraction) grid, as arrays.

    Returns ``(p_in, sizes, surround)`` for n boxes, R ratios and F
    fractions, boxes in input order: ``p_in`` (n,) holds the box means,
    ``sizes`` (R, n) the ring pixel counts (outer area minus inner area)
    and ``surround`` (R, n, F) the surround means, 0.0 for an empty ring.

    Bounds are checked first, and a ValueError names every box outside
    the map. The map's integral is then built once, through this module's
    ``build_integral`` name, whatever the grid's size. Box means come from
    it, clamped to [0, 1] (its 4-corner difference can round just outside
    on maps of tiny values); each ring is gathered once per ratio into a
    fresh array, and keeps the ``_top_k_counts`` largest of its values.

    When the grid has two or more fractions below 1, the map's
    ``_exact_ring_limit`` is computed once: every float64 sum over a ring
    within it is exact, so no summation order can change a bit, and such
    a ring shares one in-place sort and one segment sum across the
    fractions (``_shared_topk_means``). Other rings, and every ring of a
    grid with fewer partitioning fractions, take the fractions in grid
    order with a fresh gather each: every cell then partitions its own
    copy of the ring with ``_topk_mean``, the same arithmetic as a 1x1
    grid.
    """
    coords = np.array([b.as_tuple() for b in boxes], dtype=np.int64).reshape(-1, 4)
    x0, y0, x1, y1 = coords.T
    bad = np.flatnonzero((x1 > m.width) | (y1 > m.height)).tolist()
    if bad:
        raise ValueError(f"boxes out of map bounds {m.width}x{m.height} "
                         f"at input positions {bad}")
    t = build_integral(m)
    area = (x1 - x0) * (y1 - y0)
    p_in = np.clip((t[y1, x1] - t[y0, x1] - t[y1, x0] + t[y0, x0]) / area, 0.0, 1.0)

    values = m.values
    partitioning = sum(1 for f in fractions if f < 1.0)
    limit = _exact_ring_limit(values) if partitioning >= 2 else 0
    sizes = np.empty((len(ratios), len(boxes)), dtype=np.int64)
    surround = np.zeros((len(ratios), len(boxes), len(fractions)))
    for i, ratio in enumerate(ratios):
        ox0, oy0, ox1, oy1 = enlarge_coords(x0, y0, x1, y1, ratio, m.width, m.height)
        sizes[i] = (ox1 - ox0) * (oy1 - oy0) - area
        ring_ks = _top_k_counts(sizes[i], fractions).tolist()
        geo = np.stack([ox0, oy0, ox1, oy1, x0, y0, x1, y1], axis=1).tolist()
        rows = surround[i]
        for b, (g, n, ks) in enumerate(zip(geo, sizes[i].tolist(), ring_ks)):
            if n == 0:
                continue
            if n <= limit:
                rows[b] = _shared_topk_means(_gather_ring(values, *g), ks)
            else:
                for j, k in enumerate(ks):
                    rows[b, j] = _topk_mean(_gather_ring(values, *g), k)
    return p_in, sizes, surround


def score_batch(m: ConfMap, boxes: list[Box],
                cfg: ScoringConfig) -> list[ScoredProposal]:
    """Score proposals in input order: objectness = purity - surrounding
    completeness. Each entry depends on its own box only.

    An empty ring scores a surround of 0.0; under the SKIP policy the
    proposal is also marked excluded. Bounds are validated up front: a
    ValueError names every offending box before any is scored.
    """
    p_in, sizes, surround = _score_boxes(
        m, boxes, [cfg.enlarge_ratio], [cfg.top_fraction])
    skip_on_empty = cfg.empty_ring_policy is EmptyRingPolicy.SKIP
    return [ScoredProposal(box=b, class_id=m.class_id, p_inside=pi,
                           p_surround=ps, objectness=pi - ps,
                           excluded=skip_on_empty and n == 0)
            for b, pi, n, ps in zip(boxes, p_in.tolist(), sizes[0].tolist(),
                                    surround[0, :, 0].tolist())]


def build_pool(scored: list[ScoredProposal], cfg: ScoringConfig,
               image_id: str = "") -> CandidatePool:
    """Keep the top pool_size proposals by objectness, deterministic ties:
    p_inside descending, then input order (the sort is stable)."""
    kept = [s for s in scored if not s.excluded]
    class_ids = {s.class_id for s in kept}
    if len(class_ids) > 1:
        raise ValueError(f"pool entries span multiple classes: {sorted(class_ids)}")
    ranked = sorted(kept, key=lambda s: (-s.objectness, -s.p_inside))
    class_id = kept[0].class_id if kept else -1
    return CandidatePool(image_id=image_id, class_id=class_id,
                         entries=tuple(ranked[:cfg.pool_size]))
