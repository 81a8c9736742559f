"""Detection-quality metrics and the scale/fraction ablation harness.

The metrics take flat lists of the rows the CSV readers return:
``ScoredRecord`` detections and ``GtRecord`` ground truth, every gt row a
positive (its ignore flag is not applied). All matching uses the
inclusive IoU >= 0.5 criterion. Average precision follows the VOC greedy
matcher: detections sorted by confidence, each ground-truth instance
claimable at most once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import Box, iou
from .io_formats import GtRecord, ScoredRecord
from .scoring import ScoringConfig, _score_boxes, build_pool, score_batch

IOU_THRESHOLD = 0.5


def _ordered_mean(values) -> float:
    """Mean of floats added left to right. The builtin ``sum`` compensates
    its rounding since Python 3.12, which would change a mean's bits
    between interpreters; this loop gives every version the same bits."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


@dataclass(frozen=True)
class RecallCurve:
    ks: tuple[int, ...]
    recalls: tuple[float, ...]
    upper_bound: float  # best possible recall@1 given one box per (image, class)
    total_instances: int


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


def _ranked(rows) -> dict[tuple[str, int], list[Box]]:
    """Each (image_id, class_id) group's boxes, ranked in the order its
    rows arrive."""
    groups: dict[tuple[str, int], list[Box]] = {}
    for r in rows:
        groups.setdefault((r.image_id, r.class_id), []).append(r.box)
    return groups


def recall_at_k(rows: list[ScoredRecord], gts: list[GtRecord],
                ks: list[int]) -> RecallCurve:
    """Fraction of gt rows hit by any of the top-k rows of their (image,
    class), each group of rows ranked in the order given, as
    ``score_corpus`` returns them and ``write_scored`` writes them.

    An annotated (image, class) without rows leaves all of its instances
    unrecalled. The upper bound is for k=1: each (image, class) pair can
    recall at most one instance.
    """
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"ks must be positive, got {ks}")
    ks = sorted(set(ks))
    ranked = _ranked(rows)
    pairs = set()
    hit_ranks = []  # first rank at which each instance is recalled, or None
    for g in gts:
        pairs.add((g.image_id, g.class_id))
        rank = None
        for r, box in enumerate(ranked.get((g.image_id, g.class_id), ()), start=1):
            if iou(box, g.box) >= IOU_THRESHOLD:
                rank = r
                break
        hit_ranks.append(rank)
    total = len(hit_ranks)
    if total == 0:
        raise ValueError("no ground-truth instances")
    recalls = tuple(sum(1 for r in hit_ranks if r is not None and r <= k) / total
                    for k in ks)
    return RecallCurve(ks=tuple(ks), recalls=recalls,
                       upper_bound=len(pairs) / total, total_instances=total)


def corloc(rows: list[ScoredRecord], gts: list[GtRecord]) -> CorLocResult:
    """Per-class fraction of positive images whose top box (the first row
    given for the image and class; no row is a miss) hits any gt row of
    the class; mean over classes present in the gt."""
    top1 = {key: boxes[0] for key, boxes in _ranked(rows).items()}
    images_per_class: dict[int, set[str]] = {}
    hits_per_class: dict[int, set[str]] = {}
    for g in gts:
        images_per_class.setdefault(g.class_id, set()).add(g.image_id)
        top = top1.get((g.image_id, g.class_id))
        if top is not None and iou(top, g.box) >= IOU_THRESHOLD:
            hits_per_class.setdefault(g.class_id, set()).add(g.image_id)
    per_class = {cid: len(hits_per_class.get(cid, ())) / len(imgs)
                 for cid, imgs in sorted(images_per_class.items())}
    if not per_class:
        raise ValueError("no ground-truth instances")
    mean = _ordered_mean(per_class.values())
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


def voc_ap(rows: list[ScoredRecord], gts: list[GtRecord],
           mode: ApMode = ApMode.ELEVEN_POINT) -> ApResult:
    """Average precision per class with greedy one-to-one matching.

    ``rows`` are detections as ``io_formats.read_scored`` returns them,
    sorted by objectness descending (stable, so equal scores keep input
    order); each takes the highest-IoU gt instance in its image and is a
    true positive only at IoU >= 0.5 with that instance unclaimed. As in
    the VOC devkit, a claimed best instance makes it a false positive even
    when another instance it overlaps is free. Classes without gt
    instances are excluded from the mean and reported in skipped_classes.
    """
    gt_index: dict[tuple[str, int], list[GtRecord]] = {}
    npos: dict[int, int] = {}
    for g in gts:
        gt_index.setdefault((g.image_id, g.class_id), []).append(g)
        npos[g.class_id] = npos.get(g.class_id, 0) + 1

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
    mean_ap = _ordered_mean(per_class.values())
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


def score_corpus(scenes, cfg: ScoringConfig) -> list[ScoredRecord]:
    """Score every scene's proposals per class with ``score_batch``, keep
    each (scene, class)'s ``build_pool`` pool and return its entries as
    the rows ``write_scored`` writes: scenes in order, class ids
    ascending, each pool in rank order.

    ``scenes`` is an iterable with image_id, maps (class_id -> ConfMap)
    and proposals [(class_id, Box, ...)] attributes, e.g. loaded scene
    bundles. The inside-only baseline is ``cfg`` at enlarge ratio 1
    under the ZERO empty-ring policy: every ring is empty, so objectness
    is the box mean.
    """
    pools = (build_pool(score_batch(m, boxes, cfg), cfg, image_id=scene.image_id)
             for scene in scenes for _, m, boxes in _class_maps(scene))
    return [ScoredRecord(image_id=p.image_id, class_id=p.class_id, box=s.box,
                         p_inside=s.p_inside, p_surround=s.p_surround,
                         objectness=s.objectness)
            for p in pools for s in p.entries]


def check_sweep_grid(ratios: list[float], fractions: list[float]) -> None:
    """A ValueError unless every (ratio, fraction) cell is a valid
    ScoringConfig and no ratio or fraction repeats its ``:g`` key (1.2
    and 1.2000001 would share one cell of the sweep table)."""
    for name, values in (("ratio", ratios), ("fraction", fractions)):
        seen = set()
        for v in values:
            key = f"{v:g}"
            if key in seen:
                raise ValueError(f"repeated sweep {name} {key} (the sweep "
                                 f"table keys cells by :g), got {v!r}")
            seen.add(key)
    for r in ratios:
        for f in fractions:
            ScoringConfig(enlarge_ratio=r, top_fraction=f)


def ablation_sweep(scenes, ratios: list[float], fractions: list[float]) -> SweepResult:
    """Evaluate recall@1 over the full (ratio, fraction) cross-product, the
    other ScoringConfig fields at their defaults.

    ``scenes`` are as for ``score_corpus``, with a gt of GtRecords. The
    corpus is walked once: each (scene, class) map gets one integral and
    one call of the scoring kernel for the whole grid, which gathers each
    ring once per ratio (once per fraction on the fallback path) and
    returns arrays, the whole grid's objectness being ``p_in[:, None] -
    surround``. Every cell equals a ``score_corpus`` run at its
    configuration: the same recall@1 and the same mean objectness, summed
    in corpus order. Inside the sweep each (scene, class) gives a cell
    one row, its pool's first entry, the one recall@1 reads: per cell one
    masked argmax picks the highest objectness, then the highest
    p_inside, then the first input position, which is ``build_pool``'s
    order.
    """
    check_sweep_grid(ratios, fractions)
    rows = [[[] for _ in fractions] for _ in ratios]
    objectness = [np.empty((len(ratios), 0, len(fractions)))]
    gts = []
    for scene in scenes:
        gts.extend(scene.gt)
        for _, m, boxes in _class_maps(scene):
            p_in, _, surround = _score_boxes(m, boxes, ratios, fractions)
            obj = p_in[:, None] - surround
            objectness.append(obj)
            tied = obj == obj.max(axis=1, keepdims=True)
            top = np.where(tied, p_in[:, None], -np.inf).argmax(axis=1).tolist()
            for i, picks in enumerate(top):
                for j, t in enumerate(picks):
                    pi, ps = float(p_in[t]), float(surround[i, t, j])
                    rows[i][j].append(ScoredRecord(
                        image_id=scene.image_id, class_id=m.class_id,
                        box=boxes[t], p_inside=pi, p_surround=ps,
                        objectness=pi - ps))
    objectness = np.concatenate(objectness, axis=1)
    default = ScoringConfig()
    cells = []
    for i, ratio in enumerate(ratios):
        for j, frac in enumerate(fractions):
            curve = recall_at_k(rows[i][j], gts, [1])
            obj = objectness[i, :, j].tolist()
            # corpus order, the order score_corpus scores them in
            mean_obj = _ordered_mean(obj) if obj else 0.0
            cells.append(SweepCell(
                ratio=ratio, fraction=frac,
                recall_at_1=curve.recalls[0], mean_objectness=mean_obj,
                is_default=(ratio == default.enlarge_ratio
                            and frac == default.top_fraction)))
    return SweepResult(cells=tuple(cells), ratios=tuple(ratios),
                       fractions=tuple(fractions))
