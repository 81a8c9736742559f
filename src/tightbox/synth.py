"""Synthetic scenes with discriminative-part traps, and a naive reference scorer.

Scenes place a high-confidence "part" region inside each object so that a
box around the part out-scores the true box under inside-only ranking,
while the surround-aware score prefers the true box. Everything is a pure
function of (spec, seed), so corpora are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .confmap import ConfMap
from .errors import TightboxError
from .geometry import Box, iou, ring
from .scoring import EmptyRingPolicy, ScoredProposal, ScoringConfig


@dataclass(frozen=True)
class SceneObject:
    class_id: int
    gt_box: Box
    part_box: Box
    body_conf: float = 0.65
    part_conf: float = 0.95
    bg_conf: float = 0.05

    def __post_init__(self):
        g, p = self.gt_box, self.part_box
        if not (g.x0 < p.x0 and g.y0 < p.y0 and p.x1 < g.x1 and p.y1 < g.y1):
            raise ValueError(f"part box {p} must lie strictly inside gt box {g}")
        if not 0.0 <= self.bg_conf < self.body_conf < self.part_conf <= 1.0:
            raise ValueError(
                f"need 0 <= bg < body < part <= 1, got bg={self.bg_conf}, "
                f"body={self.body_conf}, part={self.part_conf}")


@dataclass(frozen=True)
class SceneSpec:
    image_w: int
    image_h: int
    objects: tuple[SceneObject, ...]
    noise_sigma: float = 0.0
    blur_radius: int = 0
    seed: int = 0
    allow_linked: bool = False

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if self.image_w < 1 or self.image_h < 1:
            raise ValueError(f"image must be at least 1x1, got {self.image_w}x{self.image_h}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.blur_radius < 0:
            raise ValueError(f"blur_radius must be >= 0, got {self.blur_radius}")
        by_class: dict[int, list[SceneObject]] = {}
        for obj in self.objects:
            if obj.gt_box.x1 > self.image_w or obj.gt_box.y1 > self.image_h:
                raise ValueError(f"gt box {obj.gt_box} exceeds image "
                                 f"{self.image_w}x{self.image_h}")
            by_class.setdefault(obj.class_id, []).append(obj)
        for cid, objs in by_class.items():
            bgs = {o.bg_conf for o in objs}
            if len(bgs) > 1:
                raise ValueError(f"class {cid} objects disagree on bg_conf: {sorted(bgs)}")
            if not self.allow_linked:
                for i in range(len(objs)):
                    for j in range(i + 1, len(objs)):
                        if iou(objs[i].gt_box, objs[j].gt_box) > 0:
                            raise ValueError(
                                f"overlapping same-class gt boxes for class {cid}; "
                                f"set allow_linked for the linked-instances corpus")

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(sorted({o.class_id for o in self.objects}))

    def to_dict(self) -> dict:
        return {
            "image_w": self.image_w,
            "image_h": self.image_h,
            "noise_sigma": self.noise_sigma,
            "blur_radius": self.blur_radius,
            "seed": self.seed,
            "allow_linked": self.allow_linked,
            "objects": [
                {
                    "class_id": o.class_id,
                    "gt_box": list(o.gt_box.as_tuple()),
                    "part_box": list(o.part_box.as_tuple()),
                    "body_conf": o.body_conf,
                    "part_conf": o.part_conf,
                    "bg_conf": o.bg_conf,
                } for o in self.objects
            ],
        }


def _blur_axis(a: np.ndarray, radius: int, axis: int) -> np.ndarray:
    """Running mean along one axis with a clamped (truncated) window."""
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    csum = np.zeros((n + 1,) + a.shape[1:], dtype=np.float64)
    np.cumsum(a, axis=0, out=csum[1:])
    hi = np.minimum(np.arange(n) + radius + 1, n)
    lo = np.maximum(np.arange(n) - radius, 0)
    widths = (hi - lo).reshape((-1,) + (1,) * (a.ndim - 1))
    out = (csum[hi] - csum[lo]) / widths
    return np.moveaxis(out, 0, axis)


def box_blur(values: np.ndarray, radius: int) -> np.ndarray:
    """Separable box blur; averages of in-range values stay in range."""
    if radius <= 0:
        return np.asarray(values, dtype=np.float64)
    out = np.asarray(values, dtype=np.float64)
    out = _blur_axis(out, radius, 0)
    out = _blur_axis(out, radius, 1)
    return out


def gen_scene(spec: SceneSpec) -> tuple[dict[int, ConfMap], list[tuple[int, Box]]]:
    """Render per-class confidence maps and return them with the ground truth.

    Per class: background level, body level inside each gt box, part level
    inside each part box, then blur and clamped Gaussian noise. The noise
    stream is consumed in sorted class order, so maps are a deterministic
    function of (spec, spec.seed).
    """
    rng = np.random.default_rng(spec.seed)
    maps: dict[int, ConfMap] = {}
    for cid in spec.class_ids:
        objs = [o for o in spec.objects if o.class_id == cid]
        base = np.full((spec.image_h, spec.image_w), objs[0].bg_conf, dtype=np.float64)
        for o in objs:
            g = o.gt_box
            base[g.y0:g.y1, g.x0:g.x1] = o.body_conf
        for o in objs:
            p = o.part_box
            base[p.y0:p.y1, p.x0:p.x1] = o.part_conf
        base = box_blur(base, spec.blur_radius)
        if spec.noise_sigma > 0:
            base = base + rng.normal(0.0, spec.noise_sigma, size=base.shape)
            np.clip(base, 0.0, 1.0, out=base)
        maps[cid] = ConfMap(class_id=cid, values=base.astype(np.float32))
    gt = [(o.class_id, o.gt_box) for o in spec.objects]
    return maps, gt


# Proposal jitter for gen_proposals.
TIGHT_JITTER = 0.12            # per-side offset, fraction of gt dims
PARTIAL_SCALE = (0.9, 1.3)     # size range vs part box
PARTIAL_SHIFT = 0.2            # center offset, fraction of part dims
LOOSE_MARGIN = (0.15, 0.5)     # per-side growth vs gt dims
BG_SIZE = (8, 48)              # background box side range, pixels
PROPOSAL_ATTEMPTS = 200        # rejection-sampling budget per wanted box


@dataclass(frozen=True)
class ProposalCounts:
    tight: int = 10
    partial: int = 10
    loose: int = 5
    background: int = 10

    def __post_init__(self):
        for name in ("tight", "partial", "loose", "background"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} count must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ProposalFamily:
    """Generated proposals grouped by kind; each entry is (class_id, box).

    Every box was validated against its kind's predicate at generation
    time: tight has IoU >= 0.5 with its gt, partial lies inside gt and
    covers at least 80% of the part box, loose strictly contains gt, and
    background is disjoint from every gt box in the scene.
    """

    tight: tuple[tuple[int, Box], ...] = ()
    partial: tuple[tuple[int, Box], ...] = ()
    loose: tuple[tuple[int, Box], ...] = ()
    background: tuple[tuple[int, Box], ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def counts(self) -> dict[str, int]:
        return {"tight": len(self.tight), "partial": len(self.partial),
                "loose": len(self.loose), "background": len(self.background)}

    def all_entries(self) -> list[tuple[str, int, Box]]:
        out = []
        for kind in ("tight", "partial", "loose", "background"):
            out.extend((kind, cid, box) for cid, box in getattr(self, kind))
        return out


def _coverage(b: Box, target: Box) -> float:
    ix0, iy0 = max(b.x0, target.x0), max(b.y0, target.y0)
    ix1, iy1 = min(b.x1, target.x1), min(b.y1, target.y1)
    if ix0 >= ix1 or iy0 >= iy1:
        return 0.0
    return (ix1 - ix0) * (iy1 - iy0) / target.area


def _try_box(x0, y0, x1, y1, image_w, image_h) -> Box | None:
    x0, y0 = max(0, x0), max(0, y0)
    x1, y1 = min(image_w, x1), min(image_h, y1)
    if x0 >= x1 or y0 >= y1:
        return None
    return Box(x0, y0, x1, y1)


def gen_proposals(spec: SceneSpec, counts: ProposalCounts = ProposalCounts(),
                  seed: int = 0) -> ProposalFamily:
    """Rejection-sample the four proposal families for every scene object.

    Families whose predicate cannot be met within the attempt budget come
    back short (possibly empty) with a warning record instead of an error.
    """
    rng = np.random.default_rng(seed)
    W, H = spec.image_w, spec.image_h
    gt_boxes = [o.gt_box for o in spec.objects]
    tight, partial, loose, background = [], [], [], []
    warnings = []

    def sample(kind, want, make):
        got = []
        attempts = 0
        budget = PROPOSAL_ATTEMPTS * max(want, 1)
        while len(got) < want and attempts < budget:
            attempts += 1
            b = make()
            if b is not None:
                got.append(b)
        if len(got) < want:
            warnings.append(f"{kind}: generated {len(got)}/{want} within budget")
        return got

    for obj_idx, obj in enumerate(spec.objects):
        g, p, cid = obj.gt_box, obj.part_box, obj.class_id

        def make_tight():
            j = TIGHT_JITTER
            dx = (rng.uniform(-j, j, 2) * g.width).round().astype(int)
            dy = (rng.uniform(-j, j, 2) * g.height).round().astype(int)
            b = _try_box(g.x0 + dx[0], g.y0 + dy[0], g.x1 + dx[1], g.y1 + dy[1], W, H)
            return b if b is not None and iou(b, g) >= 0.5 else None

        def make_partial():
            sw = rng.uniform(*PARTIAL_SCALE)
            sh = rng.uniform(*PARTIAL_SCALE)
            w = max(1, round(p.width * sw))
            h = max(1, round(p.height * sh))
            cx = (p.x0 + p.x1) / 2 + rng.uniform(-1, 1) * PARTIAL_SHIFT * p.width
            cy = (p.y0 + p.y1) / 2 + rng.uniform(-1, 1) * PARTIAL_SHIFT * p.height
            x0 = round(cx - w / 2)
            y0 = round(cy - h / 2)
            # shift into the gt box rather than clipping so size is preserved
            x0 = min(max(x0, g.x0), g.x1 - w)
            y0 = min(max(y0, g.y0), g.y1 - h)
            b = _try_box(x0, y0, x0 + w, y0 + h, W, H)
            if b is None or not g.contains(b):
                return None
            return b if _coverage(b, p) >= 0.8 else None

        def make_loose():
            lo, hi = LOOSE_MARGIN
            mx0 = max(1, round(rng.uniform(lo, hi) * g.width))
            mx1 = max(1, round(rng.uniform(lo, hi) * g.width))
            my0 = max(1, round(rng.uniform(lo, hi) * g.height))
            my1 = max(1, round(rng.uniform(lo, hi) * g.height))
            if g.x0 - mx0 < 0 or g.y0 - my0 < 0 or g.x1 + mx1 > W or g.y1 + my1 > H:
                return None
            return Box(g.x0 - mx0, g.y0 - my0, g.x1 + mx1, g.y1 + my1)

        tight.extend((cid, b) for b in sample(
            f"object {obj_idx} tight", counts.tight, make_tight))
        partial.extend((cid, b) for b in sample(
            f"object {obj_idx} partial", counts.partial, make_partial))
        loose.extend((cid, b) for b in sample(
            f"object {obj_idx} loose", counts.loose, make_loose))

        def make_background():
            w = int(rng.integers(BG_SIZE[0], BG_SIZE[1] + 1))
            h = int(rng.integers(BG_SIZE[0], BG_SIZE[1] + 1))
            if w >= W or h >= H:
                return None
            x0 = int(rng.integers(0, W - w))
            y0 = int(rng.integers(0, H - h))
            b = Box(x0, y0, x0 + w, y0 + h)
            return b if all(iou(b, gb) == 0.0 for gb in gt_boxes) else None

        background.extend((cid, b) for b in sample(
            f"object {obj_idx} background", counts.background, make_background))

    return ProposalFamily(tight=tuple(tight), partial=tuple(partial),
                          loose=tuple(loose), background=tuple(background),
                          warnings=tuple(warnings))


def oracle_score(m: ConfMap, b: Box, cfg: ScoringConfig) -> ScoredProposal:
    """Naive reference scorer: per-pixel loops and a full sort, no shortcuts.

    Independent of the integral-image path; the two must agree within
    1e-6, which is the core correctness property of the fast scorer.
    """
    if not m.contains_box(b):
        raise ValueError(f"box {b} exceeds map bounds {m.width}x{m.height}")
    v = m.values
    total = 0.0
    for y in range(b.y0, b.y1):
        for x in range(b.x0, b.x1):
            total += float(v[y, x])
    p_in = total / b.area

    rg = ring(b, cfg.enlarge_ratio, m.width, m.height)
    o, i = rg.outer, rg.inner
    vals = []
    for y in range(o.y0, o.y1):
        for x in range(o.x0, o.x1):
            if i.x0 <= x < i.x1 and i.y0 <= y < i.y1:
                continue
            vals.append(float(v[y, x]))
    if not vals:
        excluded = cfg.empty_ring_policy is EmptyRingPolicy.SKIP
        return ScoredProposal(box=b, class_id=m.class_id, p_inside=p_in,
                              p_surround=0.0, objectness=p_in, excluded=excluded)
    vals.sort(reverse=True)
    k = min(max(math.ceil(cfg.top_fraction * len(vals)), 1), len(vals))
    p_sur = sum(vals[:k]) / k
    return ScoredProposal(box=b, class_id=m.class_id, p_inside=p_in,
                          p_surround=p_sur, objectness=p_in - p_sur)


# Sampling ranges for randomly generated part-trap scenes.
GT_SIZE = (40, 80)             # gt box side range, pixels
PART_FRAC = (0.3, 0.5)         # part side vs gt side
BODY_CONF = (0.55, 0.75)
PART_CONF = (0.9, 1.0)
BG_CONF = (0.02, 0.1)
N_CLASSES = 20
TRAP_ATTEMPTS = 50


@dataclass(frozen=True)
class TrapParams:
    """Image size and degradation for randomly generated part-trap scenes."""

    image_w: int = 128
    image_h: int = 128
    noise_sigma: float = 0.0
    blur_radius: int = 0

    def __post_init__(self):  # the scene's own checks on size, noise and blur
        SceneSpec(image_w=self.image_w, image_h=self.image_h, objects=(),
                  noise_sigma=self.noise_sigma, blur_radius=self.blur_radius)


def make_trap_spec(seed: int, params: TrapParams = TrapParams()) -> SceneSpec:
    """Sample a single-object trap scene and certify the trap holds.

    Certification runs the naive scorer on the noiseless, blur-free map at
    default scoring settings and requires purity(part) > purity(gt) while
    objectness(gt) > objectness(part); failing geometry is resampled.
    """
    rng = np.random.default_rng(seed)
    W, H = params.image_w, params.image_h
    cfg = ScoringConfig()
    for _ in range(TRAP_ATTEMPTS):
        gw = int(rng.integers(GT_SIZE[0], GT_SIZE[1] + 1))
        gh = int(rng.integers(GT_SIZE[0], GT_SIZE[1] + 1))
        # leave room for the enlarged ring so the trap is testable
        margin_x = max(2, math.ceil(gw * 0.12))
        margin_y = max(2, math.ceil(gh * 0.12))
        if W - gw - 2 * margin_x <= 0 or H - gh - 2 * margin_y <= 0:
            continue
        gx0 = int(rng.integers(margin_x, W - gw - margin_x + 1))
        gy0 = int(rng.integers(margin_y, H - gh - margin_y + 1))
        gt_box = Box(gx0, gy0, gx0 + gw, gy0 + gh)

        pw = max(2, round(gw * rng.uniform(*PART_FRAC)))
        ph = max(2, round(gh * rng.uniform(*PART_FRAC)))
        if pw >= gw - 1 or ph >= gh - 1:
            continue
        px0 = gx0 + 1 + int(rng.integers(0, gw - pw - 1))
        py0 = gy0 + 1 + int(rng.integers(0, gh - ph - 1))
        part_box = Box(px0, py0, px0 + pw, py0 + ph)

        obj = SceneObject(
            class_id=int(rng.integers(1, N_CLASSES + 1)),
            gt_box=gt_box, part_box=part_box,
            body_conf=float(rng.uniform(*BODY_CONF)),
            part_conf=float(rng.uniform(*PART_CONF)),
            bg_conf=float(rng.uniform(*BG_CONF)))
        clean = SceneSpec(image_w=W, image_h=H, objects=(obj,), seed=seed)
        maps, _ = gen_scene(clean)
        m = maps[obj.class_id]
        s_gt = oracle_score(m, gt_box, cfg)
        s_part = oracle_score(m, part_box, cfg)
        if s_part.p_inside > s_gt.p_inside and s_gt.objectness > s_part.objectness:
            return replace(clean, noise_sigma=params.noise_sigma,
                           blur_radius=params.blur_radius)
    raise TightboxError(f"could not certify a trap scene for seed {seed} on a "
                        f"{W}x{H} image within {TRAP_ATTEMPTS} attempts")


def make_linked_spec(seed: int, params: TrapParams = TrapParams()) -> SceneSpec:
    """Two touching same-class objects: the documented failure mode.

    Enlarged boxes of either instance pick up the neighbor's confidence,
    so the surround penalty wrongly suppresses tight boxes.
    """
    W, H = params.image_w, params.image_h
    max_w, max_h = min(GT_SIZE[1], W // 2 - 4), min(GT_SIZE[1], H - 4)
    if max_w < GT_SIZE[0] or max_h < GT_SIZE[0]:
        raise TightboxError(f"linked scene for seed {seed} does not fit a {W}x{H} "
                            f"image; it needs at least {2 * GT_SIZE[0] + 8}x{GT_SIZE[0] + 4}")
    rng = np.random.default_rng(seed)
    gw = int(rng.integers(GT_SIZE[0], max_w + 1))
    gh = int(rng.integers(GT_SIZE[0], max_h + 1))
    gx0 = max(2, (W - 2 * gw) // 2)
    gy0 = max(2, (H - gh) // 2)
    cid = int(rng.integers(1, N_CLASSES + 1))
    body = float(rng.uniform(*BODY_CONF))
    part = float(rng.uniform(*PART_CONF))
    bg = float(rng.uniform(*BG_CONF))

    def one(x0):
        gt_box = Box(x0, gy0, x0 + gw, gy0 + gh)
        pw, ph = max(2, gw // 3), max(2, gh // 3)
        px0, py0 = x0 + 2, gy0 + 2
        return SceneObject(class_id=cid, gt_box=gt_box,
                           part_box=Box(px0, py0, px0 + pw, py0 + ph),
                           body_conf=body, part_conf=part, bg_conf=bg)

    objs = (one(gx0), one(gx0 + gw))  # edge-adjacent: linked instances
    return SceneSpec(image_w=W, image_h=H, objects=objs, seed=seed,
                     noise_sigma=params.noise_sigma,
                     blur_radius=params.blur_radius, allow_linked=True)
