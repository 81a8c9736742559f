"""Proposal objectness scoring: purity minus surrounding-context completeness.

A proposal is rated by two region statistics on one class's confidence map:
the mean confidence inside the box (purity) and the conditional average of
the highest-confidence pixels in the ring between the box and its enlarged
version (surrounding completeness). Tight boxes have high purity and low
surrounding completeness, so the difference ranks them above boxes stuck
on discriminative object parts.

Both statistics come from one kernel over a grid of enlarge ratios and
top fractions: box means from the summed-area table (clamped to [0, 1]),
ring pixels gathered into a scratch buffer once per ratio (once per
fraction on the fallback path) and reduced by an exact top-k mean per
fraction. ``score_batch`` calls it with a 1x1 grid, the ablation sweep
with its whole grid.

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


def top_k_count(n: int, top_fraction: float) -> int:
    """Number of pixels the conditional average keeps: ceil(fraction * n).

    Rounding up guarantees at least one pixel for any non-empty region.
    The product is evaluated in floats; every top-k mean in this module
    goes through this helper, and the naive reference scorer mirrors the
    same expression, so they agree on k even when the product rounds.
    """
    return min(max(math.ceil(top_fraction * n), 1), n)


def _gather_ring(values: np.ndarray, buf: np.ndarray,
                 ox0: int, oy0: int, ox1: int, oy1: int,
                 bx0: int, by0: int, bx1: int, by1: int) -> int:
    """Copy ring pixels into ``buf`` as four strips; returns the pixel count.

    Strip order (top, bottom, left, right) is fixed, so the buffer and the
    float sums taken over it are reproducible; the loop is unrolled
    because this sits on the hot path of every scoring call. A Box has
    positive height, so a side strip with w > 0 always holds pixels.
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
        buf[n:n + cnt].reshape(by1 - by0, w)[...] = values[by0:by1, ox0:bx0]
        n += cnt
    w = ox1 - bx1
    if w > 0:
        cnt = (by1 - by0) * w
        buf[n:n + cnt].reshape(by1 - by0, w)[...] = values[by0:by1, bx1:ox1]
        n += cnt
    return n


def _topk_mean(buf: np.ndarray, n: int, top_fraction: float) -> float:
    """Mean of the k largest of buf[:n]; partitions the buffer in place."""
    k = top_k_count(n, top_fraction)
    v = buf[:n]
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


def _shared_topk_means(buf: np.ndarray, n: int,
                       fractions: list[float]) -> list[float]:
    """Top-k means of buf[:n] at each of ``fractions``, from one sort.

    Only for a ring within ``_exact_ring_limit``: the ring is sorted in
    place, and one reduceat over the distinct cut points n - k gives
    segment sums whose suffix totals are the top-k sums. Exactness makes
    them equal to ``_topk_mean``'s to the bit.
    """
    v = buf[:n]
    v.sort()
    ks = [top_k_count(n, f) for f in fractions]
    cuts = sorted({n - k for k in ks})
    segments = np.add.reduceat(v, cuts, dtype=np.float64).tolist()
    top = {}
    total = 0.0
    for s, part in zip(reversed(cuts), reversed(segments)):
        total += part
        top[s] = total
    return [top[n - k] / k for k in ks]


def _score_boxes(m: ConfMap, boxes: list[Box], ratios: list[float],
                 fractions: list[float]):
    """The scoring kernel over a (ratio x fraction) grid, as columns.

    Returns ``(p_inside, rings)``: one box mean per box, in input order,
    and per ratio a pair ``(sizes, surround)`` where ``sizes`` holds each
    box's ring pixel count and ``surround[j]`` its surround mean at
    ``fractions[j]`` (0.0 for an empty ring).

    Bounds are checked first, and a ValueError names every box outside
    the map. The map's integral is then built once, through this module's
    ``build_integral`` name, whatever the grid's size. Box means come from
    it, clamped to [0, 1] (its 4-corner difference can round just outside
    on maps of tiny values); each ring is gathered once per ratio with the
    strip gather.

    When the grid has two or more fractions below 1, the map's
    ``_exact_ring_limit`` is computed once: every float64 sum over a ring
    within it is exact, so no summation order can change a bit, and such
    a ring shares one in-place sort and one segment sum across the
    fractions (``_shared_topk_means``). Other rings, and every ring of a
    grid with fewer partitioning fractions, take the fractions in grid
    order, and the ring is gathered afresh before each fraction after the
    first: every cell then works on a freshly gathered ring with
    ``_topk_mean``, the same arithmetic as a 1x1 grid.
    """
    bad = [i for i, b in enumerate(boxes) if not m.contains_box(b)]
    if bad:
        raise ValueError(f"boxes out of map bounds {m.width}x{m.height} "
                         f"at input positions {bad}")
    t = build_integral(m)
    coords = np.array([b.as_tuple() for b in boxes], dtype=np.int64).reshape(-1, 4)
    x0, y0, x1, y1 = coords.T
    p_in = (t[y1, x1] - t[y0, x1] - t[y1, x0] + t[y0, x0]) / ((x1 - x0) * (y1 - y0))
    p_in = np.clip(p_in, 0.0, 1.0).tolist()

    values = m.values
    partitioning = sum(1 for f in fractions if f < 1.0)
    limit = _exact_ring_limit(values) if partitioning >= 2 else 0
    gather = _gather_ring
    topk = _topk_mean
    shared = _shared_topk_means
    buf = np.empty(m.width * m.height, dtype=values.dtype)
    rings = []
    for ratio in ratios:
        outer = enlarge_coords(x0, y0, x1, y1, ratio, m.width, m.height)
        geo = np.stack([*outer, x0, y0, x1, y1], axis=1).tolist()
        sizes = []
        surround = [[] for _ in fractions]
        for g in geo:
            n = gather(values, buf, g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7])
            sizes.append(n)
            if n == 0:
                for column in surround:
                    column.append(0.0)
            elif n <= limit:
                for column, ps in zip(surround, shared(buf, n, fractions)):
                    column.append(ps)
            else:
                for j, frac in enumerate(fractions):
                    if j:
                        gather(values, buf, *g)
                    surround[j].append(topk(buf, n, frac))
        rings.append((sizes, surround))
    return p_in, rings


def _proposals(class_id: int, boxes: list[Box], p_in: list[float],
               sizes: list[int], surround: list[float],
               policy: EmptyRingPolicy) -> list[ScoredProposal]:
    """One kernel cell as ScoredProposals; an empty ring is excluded
    under the SKIP policy."""
    skip_on_empty = policy is EmptyRingPolicy.SKIP
    return [ScoredProposal(box=b, class_id=class_id, p_inside=pi,
                           p_surround=ps, objectness=pi - ps,
                           excluded=skip_on_empty and n == 0)
            for b, pi, n, ps in zip(boxes, p_in, sizes, surround)]


def score_batch(m: ConfMap, boxes: list[Box],
                cfg: ScoringConfig) -> list[ScoredProposal]:
    """Score proposals in input order: objectness = purity - surrounding
    completeness. Each entry depends on its own box only.

    An empty ring scores a surround of 0.0; under the SKIP policy the
    proposal is also marked excluded. Bounds are validated up front: a
    ValueError names every offending box before any is scored.
    """
    p_in, [(sizes, [surround])] = _score_boxes(
        m, boxes, [cfg.enlarge_ratio], [cfg.top_fraction])
    return _proposals(m.class_id, boxes, p_in, sizes, surround,
                      cfg.empty_ring_policy)


def _pool_rank(objectness: float, p_inside: float) -> tuple[float, float]:
    """Sort key of candidate pools: objectness descending, then p_inside
    descending; a stable sort keeps input order among equal keys."""
    return (-objectness, -p_inside)


def build_pool(scored: list[ScoredProposal], cfg: ScoringConfig,
               image_id: str = "") -> CandidatePool:
    """Keep the top pool_size proposals by objectness, deterministic ties."""
    kept = [s for s in scored if not s.excluded]
    class_ids = {s.class_id for s in kept}
    if len(class_ids) > 1:
        raise ValueError(f"pool entries span multiple classes: {sorted(class_ids)}")
    ranked = sorted(kept, key=lambda s: _pool_rank(s.objectness, s.p_inside))
    class_id = kept[0].class_id if kept else -1
    return CandidatePool(image_id=image_id, class_id=class_id,
                         entries=tuple(ranked[:cfg.pool_size]))
