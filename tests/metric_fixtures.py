"""Hand-traced fixtures for the detection metrics.

Every expected value was worked out by hand from the matching rules
(IoU >= 0.5 inclusive, greedy confidence-descending assignment, each gt
instance usable once). The acceptance suite replays all of them at 1e-9.
"""

from tightbox.evaluation import ApMode
from tightbox.geometry import Box
from tightbox.io_formats import GtRecord, ScoredRecord


def det(image_id, class_id, box, score):
    """A scored row as read_scored returns it, with ``score`` as objectness."""
    return ScoredRecord(image_id=image_id, class_id=class_id, box=box,
                        p_inside=score, p_surround=0.0, objectness=score)


def pool(image_id, class_id, boxes):
    """One (image, class) group of scored rows, ranked in list order."""
    return [det(image_id, class_id, b, 0.5) for b in boxes]


def gt(image_id, *entries):
    """An image's gt rows, one per (class_id, box)."""
    return [GtRecord(image_id=image_id, class_id=c, box=b) for c, b in entries]


def flat(groups):
    """Lists of rows as the one flat list the metrics take."""
    return [row for group in groups for row in group]


G = Box(0, 0, 10, 10)          # reference ground-truth box
HIT = Box(0, 0, 10, 10)        # IoU 1.0
HIT_06 = Box(0, 2, 10, 12)     # IoU 80/120 = 2/3
HIT_EDGE = Box(0, 0, 10, 5)    # IoU exactly 0.5
MISS = Box(0, 0, 10, 4)        # IoU 0.4
FAR = Box(30, 30, 40, 40)      # IoU 0.0

# --- recall_at_k fixtures: (name, pools, gts, ks, expected recalls, upper) ---
RECALL_FIXTURES = [
    ("exact_hit",
     [pool("i1", 1, [HIT])], [gt("i1", (1, G))], [1], (1.0,), 1.0),
    ("iou_06_hit",
     [pool("i1", 1, [HIT_06])], [gt("i1", (1, G))], [1], (1.0,), 1.0),
    ("iou_exactly_half_counts",
     [pool("i1", 1, [HIT_EDGE])], [gt("i1", (1, G))], [1], (1.0,), 1.0),
    ("near_miss_then_hit",
     [pool("i1", 1, [MISS, HIT])], [gt("i1", (1, G))], [1, 2], (0.0, 1.0), 1.0),
    ("two_instances_top1_upper_bound",
     [pool("i1", 1, [HIT, Box(20, 20, 30, 30)])],
     [gt("i1", (1, G), (1, Box(20, 20, 30, 30)))],
     [1, 2], (0.5, 1.0), 0.5),
    ("missing_pool_counts_unrecalled",
     [pool("i1", 1, [HIT])],
     [gt("i1", (1, G)), gt("i2", (1, G))],
     [1], (0.5,), 1.0),
    ("hit_buried_at_rank_three",
     [pool("i1", 1, [FAR, MISS, HIT])], [gt("i1", (1, G))],
     [1, 2, 5], (0.0, 0.0, 1.0), 1.0),
    ("per_class_pools_are_independent",
     [pool("i1", 1, [HIT]), pool("i1", 2, [FAR])],
     [gt("i1", (1, G), (2, G))],
     [1], (0.5,), 1.0),
    ("three_instances_one_candidate",
     [pool("i1", 1, [HIT])],
     [gt("i1", (1, G), (1, Box(20, 20, 30, 30)), (1, Box(40, 40, 50, 50)))],
     [1], (1 / 3,), 1 / 3),
    ("upper_bound_two_images_two_each",
     [pool("i1", 1, [HIT]), pool("i2", 1, [HIT])],
     [gt("i1", (1, G), (1, Box(20, 20, 30, 30))),
      gt("i2", (1, G), (1, Box(20, 20, 30, 30)))],
     [1, 2], (0.5, 0.5), 0.5),
    ("everything_recalled_across_images",
     [pool("i1", 1, [HIT]), pool("i2", 1, [HIT_06])],
     [gt("i1", (1, G)), gt("i2", (1, G))],
     [1], (1.0,), 1.0),
]

# --- corloc fixtures: (name, pools, gts, expected per_class, expected mean) ---
CORLOC_FIXTURES = [
    ("perfect",
     [pool("i1", 1, [HIT])], [gt("i1", (1, G))], {1: 1.0}, 1.0),
    ("no_overlap",
     [pool("i1", 1, [FAR])], [gt("i1", (1, G))], {1: 0.0}, 0.0),
    ("two_of_three_images",
     [pool("i1", 1, [HIT]), pool("i2", 1, [FAR]), pool("i3", 1, [HIT_06])],
     [gt("i1", (1, G)), gt("i2", (1, G)), gt("i3", (1, G))],
     {1: 2 / 3}, 2 / 3),
    ("mean_over_classes",
     [pool("i1", 1, [HIT]), pool("i1", 2, [FAR])],
     [gt("i1", (1, G), (2, G))], {1: 1.0, 2: 0.0}, 0.5),
    ("any_instance_of_the_class_counts",
     [pool("i1", 1, [Box(20, 20, 30, 30)])],
     [gt("i1", (1, G), (1, Box(20, 20, 30, 30)))], {1: 1.0}, 1.0),
    ("missing_top_box_is_a_miss",
     [], [gt("i1", (1, G))], {1: 0.0}, 0.0),
    ("empty_pool_is_a_miss",
     [pool("i1", 1, [])], [gt("i1", (1, G))], {1: 0.0}, 0.0),
    ("only_the_first_entry_counts",
     [pool("i1", 1, [FAR, HIT])], [gt("i1", (1, G))], {1: 0.0}, 0.0),
    ("iou_exactly_half_hits",
     [pool("i1", 1, [HIT_EDGE])], [gt("i1", (1, G))], {1: 1.0}, 1.0),
    ("unbalanced_classes",
     [pool("i1", 1, [HIT]), pool("i2", 1, [FAR]), pool("i1", 2, [HIT])],
     [gt("i1", (1, G), (2, G)), gt("i2", (1, G))],
     {1: 0.5, 2: 1.0}, 0.75),
    ("keyed_by_image_and_class",
     [pool("i1", 1, [HIT]), pool("i2", 1, [FAR])],
     [gt("i1", (1, G)), gt("i2", (1, G))], {1: 0.5}, 0.5),
    ("two_classes_both_hit",
     [pool("i1", 1, [HIT]), pool("i1", 2, [HIT_06])],
     [gt("i1", (1, G), (2, G))], {1: 1.0, 2: 1.0}, 1.0),
]


# --- voc_ap fixtures: (name, detections, gts, expected {mode: (mAP, per_class)}) ---
AP_FIXTURES = [
    ("single_match",
     [det("i1", 1, HIT, 0.9)], [gt("i1", (1, G))],
     {ApMode.ELEVEN_POINT: (1.0, {1: 1.0}), ApMode.AREA: (1.0, {1: 1.0})}),
    ("high_scored_miss_then_hit",
     # FP at rank 1, TP at rank 2: precision 0.5 at recall 1.0
     [det("i1", 1, FAR, 0.9), det("i1", 1, HIT, 0.8)], [gt("i1", (1, G))],
     {ApMode.ELEVEN_POINT: (0.5, {1: 0.5}), ApMode.AREA: (0.5, {1: 0.5})}),
    ("both_instances_found",
     [det("i1", 1, HIT, 0.9), det("i1", 1, Box(20, 20, 30, 30), 0.8)],
     [gt("i1", (1, G), (1, Box(20, 20, 30, 30)))],
     {ApMode.ELEVEN_POINT: (1.0, {1: 1.0}), ApMode.AREA: (1.0, {1: 1.0})}),
    ("duplicate_detection_is_fp_but_ap_stays_one",
     # greedy single-use: the second, lower-scored overlap cannot rematch
     [det("i1", 1, HIT, 0.9), det("i1", 1, HIT_06, 0.8)], [gt("i1", (1, G))],
     {ApMode.ELEVEN_POINT: (1.0, {1: 1.0}), ApMode.AREA: (1.0, {1: 1.0})}),
    ("two_classes_one_perfect_one_empty",
     [det("i1", 1, HIT, 0.9), det("i1", 2, FAR, 0.9)],
     [gt("i1", (1, G), (2, G))],
     {ApMode.ELEVEN_POINT: (0.5, {1: 1.0, 2: 0.0}),
      ApMode.AREA: (0.5, {1: 1.0, 2: 0.0})}),
    ("hit_after_two_misses",
     [det("i1", 1, FAR, 0.9), det("i1", 1, MISS, 0.8), det("i1", 1, HIT, 0.7)],
     [gt("i1", (1, G))],
     {ApMode.ELEVEN_POINT: (1 / 3, {1: 1 / 3}), ApMode.AREA: (1 / 3, {1: 1 / 3})}),
    ("half_recall_then_full",
     # tp, fp, tp over two instances: 11pt (6*1 + 5*2/3)/11, area 0.5+1/3
     [det("i1", 1, HIT, 0.9), det("i1", 1, FAR, 0.8),
      det("i1", 1, Box(20, 20, 30, 30), 0.7)],
     [gt("i1", (1, G), (1, Box(20, 20, 30, 30)))],
     {ApMode.ELEVEN_POINT: (28 / 33, {1: 28 / 33}),
      ApMode.AREA: (5 / 6, {1: 5 / 6})}),
    ("iou_exactly_half_matches",
     [det("i1", 1, HIT_EDGE, 0.9)], [gt("i1", (1, G))],
     {ApMode.ELEVEN_POINT: (1.0, {1: 1.0}), ApMode.AREA: (1.0, {1: 1.0})}),
    ("class_without_detections_scores_zero",
     [det("i1", 1, HIT, 0.9)], [gt("i1", (1, G), (2, G))],
     {ApMode.ELEVEN_POINT: (0.5, {1: 1.0, 2: 0.0}),
      ApMode.AREA: (0.5, {1: 1.0, 2: 0.0})}),
    ("cross_image_matching",
     [det("i1", 1, HIT, 0.9), det("i2", 1, FAR, 0.8)],
     [gt("i1", (1, G)), gt("i2", (1, G))],
     {ApMode.ELEVEN_POINT: (6 / 11, {1: 6 / 11}), ApMode.AREA: (0.5, {1: 0.5})}),
    ("detection_in_wrong_image_is_fp",
     [det("i2", 1, HIT, 0.9), det("i1", 1, HIT, 0.8)],
     [gt("i1", (1, G))],
     {ApMode.ELEVEN_POINT: (0.5, {1: 0.5}), ApMode.AREA: (0.5, {1: 0.5})}),
    ("claimed_best_instance_is_fp_though_another_overlaps",
     # the devkit rule: the second HIT's best instance is G (IoU 1), already
     # claimed, so it is an FP though it overlaps the free HIT_06 at 2/3;
     # recall 0.5 at precision 1, then 0.5 at precision 1/2
     [det("i1", 1, HIT, 0.9), det("i1", 1, HIT, 0.8)],
     [gt("i1", (1, G), (1, HIT_06))],
     {ApMode.ELEVEN_POINT: (6 / 11, {1: 6 / 11}), ApMode.AREA: (0.5, {1: 0.5})}),
]
