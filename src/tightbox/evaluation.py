"""Detection-quality metrics and the scale/fraction ablation harness.

All matching uses the inclusive IoU >= 0.5 criterion. Average precision
follows the VOC greedy matcher: detections sorted by confidence, each
ground-truth instance claimable at most once.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass

from .geometry import Box, iou
from .scoring import (CandidatePool, EmptyRingPolicy, ScoringConfig,
                      _pool_rank, _proposals, _score_boxes, build_pool,
                      score_batch)

IOU_THRESHOLD = 0.5


@dataclass(frozen=True)
class GtInstance:
    class_id: int
    box: Box
    ignore: bool = False  # pass-through flag for real-data protocols; unused here


@dataclass(frozen=True)
class GroundTruth:
    image_id: str
    entries: tuple[GtInstance, ...]


@dataclass(frozen=True)
class RecallCurve:
    ks: tuple[int, ...]
    recalls: tuple[float, ...]
    upper_bound: float  # best possible recall@1 given one box per (image, class)
    total_instances: int

    def at(self, k: int) -> float:
        return self.recalls[self.ks.index(k)]


@dataclass(frozen=True)
class CorLocResult:
    per_class: dict[int, float]
    mean: float


class ApMode(enum.Enum):
    ELEVEN_POINT = "11pt"  # VOC 2007 protocol
    AREA = "area"


@dataclass(frozen=True)
class ApResult:
    per_class: dict[int, float]
    mean_ap: float
    mode: ApMode
    iou_threshold: float = IOU_THRESHOLD
    skipped_classes: tuple[int, ...] = ()  # zero ground-truth instances


def recall_at_k(pools: list[CandidatePool], gts: list[GroundTruth],
                ks: list[int]) -> RecallCurve:
    """Fraction of gt instances hit by any of the top-k pool entries.

    A missing pool for an annotated (image, class) leaves all of its
    instances unrecalled. The upper bound is for k=1: each (image, class)
    pair can recall at most one instance.
    """
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"ks must be positive, got {ks}")
    ks = sorted(set(ks))
    by_key = {(p.image_id, p.class_id): p for p in pools}
    total = 0
    pairs = set()
    hit_ranks = []  # first rank at which each instance is recalled, or None
    for gt in gts:
        for inst in gt.entries:
            total += 1
            pairs.add((gt.image_id, inst.class_id))
            pool = by_key.get((gt.image_id, inst.class_id))
            rank = None
            if pool is not None:
                for r, entry in enumerate(pool.entries, start=1):
                    if iou(entry.box, inst.box) >= IOU_THRESHOLD:
                        rank = r
                        break
            hit_ranks.append(rank)
    if total == 0:
        raise ValueError("no ground-truth instances")
    recalls = tuple(sum(1 for r in hit_ranks if r is not None and r <= k) / total
                    for k in ks)
    return RecallCurve(ks=tuple(ks), recalls=recalls,
                       upper_bound=len(pairs) / total, total_instances=total)


def corloc(pools: list[CandidatePool], gts: list[GroundTruth]) -> CorLocResult:
    """Per-class fraction of positive images whose top box (the first entry
    of the image's pool for the class; a missing or empty pool is a miss)
    hits any gt instance of the class; mean over classes present in the gt."""
    top1 = {(p.image_id, p.class_id): p.entries[0] for p in pools if p.entries}
    images_per_class: dict[int, set[str]] = {}
    hits_per_class: dict[int, set[str]] = {}
    for gt in gts:
        for inst in gt.entries:
            images_per_class.setdefault(inst.class_id, set()).add(gt.image_id)
            top = top1.get((gt.image_id, inst.class_id))
            if top is not None and iou(top.box, inst.box) >= IOU_THRESHOLD:
                hits_per_class.setdefault(inst.class_id, set()).add(gt.image_id)
    per_class = {cid: len(hits_per_class.get(cid, ())) / len(imgs)
                 for cid, imgs in sorted(images_per_class.items())}
    if not per_class:
        raise ValueError("no ground-truth instances")
    mean = sum(per_class.values()) / len(per_class)
    return CorLocResult(per_class=per_class, mean=mean)


def _ap_from_pr(recall: list[float], precision: list[float], mode: ApMode) -> float:
    if mode is ApMode.ELEVEN_POINT:
        total = 0.0
        for t in (i / 10 for i in range(11)):
            best = 0.0
            for r, p in zip(recall, precision):
                if r >= t and p > best:
                    best = p
            total += best
        return total / 11.0
    # AREA: precision envelope, integrated over recall steps
    mrec = [0.0] + list(recall) + [1.0]
    mpre = [0.0] + list(precision) + [0.0]
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    area = 0.0
    for i in range(1, len(mrec)):
        area += (mrec[i] - mrec[i - 1]) * mpre[i]
    return area


def voc_ap(rows, gts: list[GroundTruth],
           mode: ApMode = ApMode.ELEVEN_POINT) -> ApResult:
    """Average precision per class with greedy one-to-one matching.

    ``rows`` are detections as ``io_formats.read_scored`` returns them,
    sorted by objectness descending (stable, so equal scores keep input
    order); each matches the highest-IoU unclaimed gt instance in its
    image, counting as a true positive only at IoU >= 0.5. Classes without
    gt instances are excluded from the mean and reported in skipped_classes.
    """
    gt_index: dict[tuple[str, int], list[GtInstance]] = {}
    npos: dict[int, int] = {}
    for gt in gts:
        for inst in gt.entries:
            gt_index.setdefault((gt.image_id, inst.class_id), []).append(inst)
            npos[inst.class_id] = npos.get(inst.class_id, 0) + 1

    det_classes = {d.class_id for d in rows}
    skipped = tuple(sorted(det_classes - set(npos)))

    per_class: dict[int, float] = {}
    for cid in sorted(npos):
        dets = sorted([d for d in rows if d.class_id == cid],
                      key=lambda d: -d.objectness)
        matched: set[tuple[str, int]] = set()  # (image_id, instance index)
        recall, precision = [], []
        for rank, d in enumerate(dets, start=1):
            instances = gt_index.get((d.image_id, cid), [])
            best_iou, best_idx = 0.0, -1
            for idx, inst in enumerate(instances):
                ov = iou(d.box, inst.box)
                if ov > best_iou:
                    best_iou, best_idx = ov, idx
            if best_iou >= IOU_THRESHOLD and (d.image_id, best_idx) not in matched:
                matched.add((d.image_id, best_idx))
            recall.append(len(matched) / npos[cid])
            precision.append(len(matched) / rank)
        per_class[cid] = _ap_from_pr(recall, precision, mode)

    if not per_class:
        raise ValueError("no classes with ground-truth instances")
    mean_ap = sum(per_class.values()) / len(per_class)
    return ApResult(per_class=per_class, mean_ap=mean_ap, mode=mode,
                    skipped_classes=skipped)


@dataclass(frozen=True)
class SweepCell:
    ratio: float
    fraction: float
    recall_at_1: float
    mean_objectness: float
    is_default: bool


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[SweepCell, ...]
    ratios: tuple[float, ...]
    fractions: tuple[float, ...]

    def to_table(self) -> dict:
        return {
            "ratios": list(self.ratios),
            "fractions": list(self.fractions),
            "cells": {
                f"{c.ratio:g},{c.fraction:g}": {
                    "recall_at_1": c.recall_at_1,
                    "mean_objectness": c.mean_objectness,
                    "is_default": c.is_default,
                } for c in self.cells
            },
        }

    def report(self) -> str:
        """Tab-separated grid of recall@1, ratios down, fractions across."""
        header = "ratio\\fraction\t" + "\t".join(f"{f:g}" for f in self.fractions)
        lines = [header]
        by_key = {(c.ratio, c.fraction): c for c in self.cells}
        for r in self.ratios:
            row = [f"{r:g}"]
            for f in self.fractions:
                c = by_key[(r, f)]
                mark = "*" if c.is_default else ""
                row.append(f"{c.recall_at_1:.4f}{mark}")
            lines.append("\t".join(row))
        lines.append("(* = default configuration; recall@1 per cell)")
        return "\n".join(lines)


def _class_maps(scene):
    """(class_id, ConfMap, boxes) per class with proposals, class ids
    ascending, boxes in proposal order."""
    by_class: dict[int, list[Box]] = {}
    for entry in scene.proposals:
        cid, box = entry[0], entry[1]
        by_class.setdefault(cid, []).append(box)
    for cid in sorted(by_class):
        if cid not in scene.maps:
            raise ValueError(f"{scene.image_id}: proposals for class {cid} "
                             f"but no confidence map")
        yield cid, scene.maps[cid], by_class[cid]


def score_corpus(scenes, cfg: ScoringConfig) -> tuple[list[CandidatePool], list]:
    """Score every scene's proposals per class with ``score_batch`` and
    build candidate pools.

    ``scenes`` is an iterable with image_id, maps (class_id -> ConfMap)
    and proposals [(class_id, Box, ...)] attributes, e.g. loaded scene
    bundles. Returns (pools, all scored proposals). The inside-only
    baseline is ``cfg`` at enlarge ratio 1 under the ZERO empty-ring
    policy: every ring is empty, so objectness is the box mean.
    """
    pools = []
    all_scored = []
    for scene in scenes:
        for cid, m, boxes in _class_maps(scene):
            scored = score_batch(m, boxes, cfg)
            pools.append(build_pool(scored, cfg, image_id=scene.image_id))
            all_scored.extend(scored)
    return pools, all_scored


def sweep_configs(ratios: list[float],
                  fractions: list[float]) -> list[list[ScoringConfig]]:
    """The sweep's ScoringConfig per (ratio, fraction) cell, ratios down.

    Every cell is validated, and a ratio or a fraction whose ``:g`` key
    repeats is a ValueError (1.2 and 1.2000001 would share one cell of
    the sweep table).
    """
    for name, values in (("ratio", ratios), ("fraction", fractions)):
        seen = set()
        for v in values:
            key = f"{v:g}"
            if key in seen:
                raise ValueError(f"repeated sweep {name} {key} (the sweep "
                                 f"table keys cells by :g), got {v!r}")
            seen.add(key)
    return [[ScoringConfig(enlarge_ratio=r, top_fraction=f) for f in fractions]
            for r in ratios]


def ablation_sweep(scenes, ratios: list[float], fractions: list[float]) -> SweepResult:
    """Evaluate recall@1 over the full (ratio, fraction) cross-product, the
    other ScoringConfig fields at their defaults.

    ``scenes`` are as for ``score_corpus``, with a gt of GtInstances. The
    corpus is walked once: each (scene, class) map gets one integral and
    one call of the scoring kernel for the whole grid, which gathers each
    ring once per ratio (once per fraction on the fallback path) and
    yields plain columns. Every cell equals a ``score_corpus`` run at its
    configuration: the same recall@1 and the same mean objectness, summed
    in corpus order. Inside the sweep each pool holds only its first
    entry, the one recall@1 reads, picked with ``build_pool``'s sort key.
    """
    cfgs = sweep_configs(ratios, fractions)
    grid = [(i, j, cfg) for i, row in enumerate(cfgs) for j, cfg in enumerate(row)]
    pools = [[] for _ in grid]
    objectness = [array("d") for _ in grid]
    gts = []
    for scene in scenes:
        gts.append(GroundTruth(image_id=scene.image_id, entries=tuple(scene.gt)))
        for _, m, boxes in _class_maps(scene):
            p_in, rings = _score_boxes(m, boxes, ratios, fractions)
            for c, (i, j, _) in enumerate(grid):
                sizes, surround = rings[i][0], rings[i][1][j]
                obj = [pi - ps for pi, ps in zip(p_in, surround)]
                objectness[c].extend(obj)
                keys = list(map(_pool_rank, obj, p_in))
                t = keys.index(min(keys))
                [top] = _proposals(m.class_id, [boxes[t]], [p_in[t]], [sizes[t]],
                                   [surround[t]], EmptyRingPolicy.ZERO)
                pools[c].append(CandidatePool(image_id=scene.image_id,
                                              class_id=m.class_id, entries=(top,)))
    default = ScoringConfig()
    cells = []
    for c, (_, _, cfg) in enumerate(grid):
        ratio, frac = cfg.enlarge_ratio, cfg.top_fraction
        curve = recall_at_k(pools[c], gts, [1])
        obj = objectness[c]
        # the builtin sum over the corpus-order values, as a score_corpus
        # run's mean is taken
        mean_obj = sum(obj) / len(obj) if obj else 0.0
        cells.append(SweepCell(
            ratio=ratio, fraction=frac,
            recall_at_1=curve.recalls[0], mean_objectness=mean_obj,
            is_default=(ratio == default.enlarge_ratio
                        and frac == default.top_fraction)))
    return SweepResult(cells=tuple(cells), ratios=tuple(ratios),
                       fractions=tuple(fractions))
