import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metric_fixtures import (AP_FIXTURES, CORLOC_FIXTURES, FAR, HIT,
                             RECALL_FIXTURES, det, gt, pool)
from tightbox import evaluation
from tightbox.evaluation import (ApMode, GroundTruth, GtInstance, _ordered_mean,
                                 ablation_sweep, corloc, recall_at_k,
                                 score_corpus, voc_ap)
from tightbox.confmap import ConfMap
from tightbox.geometry import Box
from tightbox.scoring import (EmptyRingPolicy, ScoringConfig, _proposals,
                              _score_boxes, score_batch)
from tightbox.synth import (ProposalCounts, gen_proposals, gen_scene,
                            make_trap_spec, oracle_score)


@pytest.mark.parametrize("name,pools,gts,ks,expected,upper",
                         RECALL_FIXTURES, ids=[f[0] for f in RECALL_FIXTURES])
def test_recall_fixtures(name, pools, gts, ks, expected, upper):
    curve = recall_at_k(pools, gts, ks)
    assert curve.recalls == pytest.approx(expected, abs=1e-9)
    assert curve.upper_bound == pytest.approx(upper, abs=1e-9)


@pytest.mark.parametrize("name,pools,gts,per_class,mean",
                         CORLOC_FIXTURES, ids=[f[0] for f in CORLOC_FIXTURES])
def test_corloc_fixtures(name, pools, gts, per_class, mean):
    result = corloc(pools, gts)
    assert set(result.per_class) == set(per_class)
    for cid, v in per_class.items():
        assert result.per_class[cid] == pytest.approx(v, abs=1e-9)
    assert result.mean == pytest.approx(mean, abs=1e-9)


@pytest.mark.parametrize("name,dets,gts,expected",
                         AP_FIXTURES, ids=[f[0] for f in AP_FIXTURES])
def test_voc_ap_fixtures(name, dets, gts, expected):
    for mode, (mean_ap, per_class) in expected.items():
        result = voc_ap(dets, gts, mode)
        assert result.mean_ap == pytest.approx(mean_ap, abs=1e-9)
        for cid, ap in per_class.items():
            assert result.per_class[cid] == pytest.approx(ap, abs=1e-9)


class TestRecallProperties:
    def test_recall_non_decreasing_in_k(self):
        rng = np.random.default_rng(71)
        G = Box(0, 0, 10, 10)
        pools, gts = [], []
        for i in range(20):
            boxes = []
            for _ in range(10):
                dx = int(rng.integers(0, 12))
                boxes.append(Box(dx, 0, dx + 10, 10))
            pools.append(pool(f"i{i}", 1, boxes))
            gts.append(gt(f"i{i}", (1, G)))
        curve = recall_at_k(pools, gts, [1, 2, 3, 5, 10])
        assert all(curve.recalls[i] <= curve.recalls[i + 1]
                   for i in range(len(curve.recalls) - 1))

    def test_rejects_empty_or_bad_ks(self):
        with pytest.raises(ValueError):
            recall_at_k([], [gt("i1", (1, Box(0, 0, 2, 2)))], [])
        with pytest.raises(ValueError):
            recall_at_k([], [gt("i1", (1, Box(0, 0, 2, 2)))], [0])

    def test_no_instances_is_an_error(self):
        with pytest.raises(ValueError):
            recall_at_k([], [], [1])


class TestCorlocRecallConsistency:
    def test_corloc_equals_recall_at_1_on_single_instance_corpus(self):
        # one instance per (image, class), each class in exactly one image
        G = Box(0, 0, 10, 10)
        hits = [True, True, False, True]
        pools, gts = [], []
        for i, hit in enumerate(hits):
            box = G if hit else Box(30, 30, 40, 40)
            pools.append(pool(f"i{i}", i + 1, [box]))
            gts.append(gt(f"i{i}", (i + 1, G)))
        curve = recall_at_k(pools, gts, [1])
        result = corloc(pools, gts)
        assert curve.recalls[0] == pytest.approx(result.mean, abs=1e-12)


class TestApProperties:
    def test_detection_order_does_not_matter(self):
        rng = np.random.default_rng(72)
        G = Box(0, 0, 10, 10)
        dets = [det("i1", 1, Box(int(d), 0, int(d) + 10, 10), float(s))
                for d, s in zip(rng.integers(0, 15, 30), rng.random(30))]
        gts = [gt("i1", (1, G))]
        base = voc_ap(dets, gts).mean_ap
        for _ in range(5):
            shuffled = list(dets)
            rng.shuffle(shuffled)
            assert voc_ap(shuffled, gts).mean_ap == pytest.approx(base, abs=1e-12)

    def test_modes_agree_on_dense_detection_sets(self):
        rng = np.random.default_rng(73)
        gts, dets = [], []
        for i in range(40):
            G = Box(0, 0, 10, 10)
            gts.append(gt(f"i{i}", (1, G)))
            for _ in range(10):
                dx = int(rng.integers(0, 12))
                dets.append(det(f"i{i}", 1, Box(dx, 0, dx + 10, 10),
                                float(rng.random())))
        a = voc_ap(dets, gts, ApMode.ELEVEN_POINT).mean_ap
        b = voc_ap(dets, gts, ApMode.AREA).mean_ap
        assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0
        assert abs(a - b) <= 0.1

    def test_skipped_classes_are_reported_and_excluded(self):
        G = Box(0, 0, 10, 10)
        dets = [det("i1", 1, G, 0.9), det("i1", 7, G, 0.9)]
        result = voc_ap(dets, [gt("i1", (1, G))])
        assert result.skipped_classes == (7,)
        assert set(result.per_class) == {1}
        assert result.mean_ap == 1.0

    def test_greedy_matching_never_reuses_a_gt_instance(self):
        # ten detections on one instance: exactly one true positive
        G = Box(0, 0, 10, 10)
        dets = [det("i1", 1, G, 0.9 - 0.01 * j) for j in range(10)]
        result = voc_ap(dets, [gt("i1", (1, G), (1, Box(20, 20, 30, 30)))])
        # npos 2, only one matched: final recall 0.5, precision 1/10
        assert result.per_class[1] == pytest.approx(6 / 11, abs=1e-9)


@dataclass
class FakeScene:
    image_id: str
    maps: dict
    gt: list
    proposals: list


def tiny_corpus(n_scenes=6, noise=0.0, blur=0, seed0=500):
    scenes = []
    for i in range(n_scenes):
        spec = make_trap_spec(seed0 + i)
        maps, gt_rows = gen_scene(spec)
        fam = gen_proposals(spec, ProposalCounts(5, 5, 2, 5), seed=seed0 + i)
        proposals = [(cid, box) for _, cid, box in fam.all_entries()]
        scenes.append(FakeScene(image_id=f"s{i}", maps=maps,
                                gt=[GtInstance(class_id=c, box=b)
                                    for c, b in gt_rows],
                                proposals=proposals))
    return scenes


class TestAblationSweep:
    def test_grid_shape_and_default_marking(self):
        scenes = tiny_corpus(3)
        result = ablation_sweep(scenes, [1.1, 1.2], [0.5, 1.0])
        assert len(result.cells) == 4
        marked = [c for c in result.cells if c.is_default]
        assert len(marked) == 1
        assert (marked[0].ratio, marked[0].fraction) == (1.2, 0.5)

    def test_ratio_one_collapses_to_purity_ranking(self):
        scenes = tiny_corpus(3)
        result = ablation_sweep(scenes, [1.0], [0.3, 0.5, 1.0])
        # every ring is empty at ratio 1, so the fraction is irrelevant and
        # objectness equals the inside score
        recalls = {c.recall_at_1 for c in result.cells}
        objs = {round(c.mean_objectness, 12) for c in result.cells}
        assert len(recalls) == 1 and len(objs) == 1
        pools, scored = score_corpus(scenes, ScoringConfig(enlarge_ratio=1.0))
        assert all(s.objectness == s.p_inside for s in scored)

    def test_sweep_is_deterministic(self):
        scenes = tiny_corpus(3)
        a = ablation_sweep(scenes, [1.1, 1.3], [0.3, 0.7])
        b = ablation_sweep(scenes, [1.1, 1.3], [0.3, 0.7])
        assert a == b

    def test_table_and_report_render(self):
        scenes = tiny_corpus(2)
        result = ablation_sweep(scenes, [1.2], [0.5])
        table = result.to_table()
        assert table["cells"]["1.2,0.5"]["is_default"]
        report = result.report()
        assert "1.2" in report and "*" in report

    def test_tiny_value_map_scores_like_the_oracle(self):
        # the 4-corner mean of box (3, 5, 4, 6) rounds below 0 on this map
        rng = np.random.default_rng(1)
        m = ConfMap(class_id=1, values=10 ** -rng.uniform(0, 38, (12, 12)))
        boxes = [Box(3, 5, 4, 6), Box(0, 0, 12, 12), Box(2, 4, 6, 8)]
        scene = FakeScene(image_id="t", maps={1: m},
                          gt=[GtInstance(class_id=1, box=boxes[0])],
                          proposals=[(1, b) for b in boxes])
        result = ablation_sweep([scene], [1.2, 2.0], [0.3, 0.5, 1.0])
        for cell in result.cells:
            cfg = ScoringConfig(enlarge_ratio=cell.ratio, top_fraction=cell.fraction)
            want = [oracle_score(m, b, cfg).objectness for b in boxes]
            assert cell.mean_objectness == pytest.approx(sum(want) / len(want),
                                                         abs=1e-6)

    def test_default_cell_beats_purity_on_trap_corpus(self):
        scenes = tiny_corpus(6)
        result = ablation_sweep(scenes, [1.2], [0.5])
        cell = result.cells[0]
        pools_pi, _ = score_corpus(scenes, ScoringConfig(enlarge_ratio=1.0))
        gts = [GroundTruth(image_id=s.image_id, entries=tuple(s.gt))
               for s in scenes]
        purity_recall = recall_at_k(pools_pi, gts, [1]).recalls[0]
        assert cell.recall_at_1 > purity_recall


def edge_case_corpus(seed):
    """Three small scenes of two classes for checking the sweep bit for bit.

    Class 1's values are multiples of 1/8, so top-k cutoffs fall on ties.
    Half of class 2's values lie in [0.5, 1) and half in [1e-9, 1e-3], so
    float64 sums of a top-k set reaching the small ones depend on the
    order of their terms (the 1e-9 floor keeps box means clear of the
    integral's rounding). Every class gets a whole-map box (its ring is empty at any ratio), boxes
    clipped at the top-left and bottom-right borders, random boxes and a
    duplicate; class 2 of the first scene has a map and an instance but
    no proposals.
    """
    rng = np.random.default_rng(seed)
    scenes = []
    for i in range(3):
        h, w = (int(v) for v in rng.integers(6, 24, 2))
        maps = {1: ConfMap(class_id=1, values=rng.integers(0, 9, (h, w)) / 8),
                2: ConfMap(class_id=2, values=np.where(
                    rng.random((h, w)) < 0.5, rng.uniform(0.5, 1, (h, w)),
                    10.0 ** -rng.uniform(3, 9, (h, w))))}
        proposals, gt = [], []
        for cid in (1, 2):
            boxes = [Box(0, 0, w, h), Box(0, 0, w // 2 + 1, h // 2 + 1),
                     Box(w // 3, h // 3, w, h)]
            for _ in range(6):
                x0, y0 = int(rng.integers(0, w - 1)), int(rng.integers(0, h - 1))
                boxes.append(Box(x0, y0, int(rng.integers(x0 + 1, w + 1)),
                                 int(rng.integers(y0 + 1, h + 1))))
            boxes.append(boxes[3])
            gt.append(GtInstance(class_id=cid, box=boxes[int(rng.integers(0, 10))]))
            if not (i == 0 and cid == 2):
                proposals.extend((cid, b) for b in boxes)
        scenes.append(FakeScene(image_id=f"e{i}", maps=maps, gt=gt,
                                proposals=proposals))
    return scenes


def grid_cell(m, boxes, p_in, rings, i, j, policy):
    """Cell (i, j) of a ``_score_boxes`` result as ScoredProposals."""
    sizes, surround = rings[i]
    return _proposals(m.class_id, boxes, p_in, sizes, surround[j], policy)


RATIOS = st.lists(st.sampled_from([1.0, 1.05, 1.2, 1.5, 3.0]),
                  min_size=1, max_size=4, unique=True)
FRACTIONS = st.lists(st.sampled_from([0.01, 0.3, 0.7, 0.9, 0.999, 1.0]),
                     min_size=1, max_size=4, unique=True)


class TestSweepExactness:
    """Every sweep cell equals a production run at its configuration."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ratios=RATIOS, fractions=FRACTIONS)
    @example(seed=0, ratios=[1.0, 1.2, 3.0], fractions=[1.0, 0.3, 0.9])
    def test_cells_equal_score_corpus(self, seed, ratios, fractions):
        scenes = edge_case_corpus(seed)
        gts = [GroundTruth(image_id=s.image_id, entries=tuple(s.gt))
               for s in scenes]
        result = ablation_sweep(scenes, ratios, fractions)
        assert [(c.ratio, c.fraction) for c in result.cells] == \
            [(r, f) for r in ratios for f in fractions]
        for cell in result.cells:
            cfg = ScoringConfig(enlarge_ratio=cell.ratio, top_fraction=cell.fraction)
            pools, scored = score_corpus(scenes, cfg)
            assert cell.recall_at_1 == recall_at_k(pools, gts, [1]).recalls[0]
            assert cell.mean_objectness == _ordered_mean(
                [s.objectness for s in scored])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ratios=RATIOS, fractions=FRACTIONS,
           policy=st.sampled_from(list(EmptyRingPolicy)))
    @example(seed=0, ratios=[1.0, 1.2, 3.0], fractions=[1.0, 0.3, 0.9],
             policy=EmptyRingPolicy.SKIP)
    def test_grid_cells_equal_score_batch(self, seed, ratios, fractions, policy):
        for scene in edge_case_corpus(seed):
            for cid, m in scene.maps.items():
                boxes = [b for c, b in scene.proposals if c == cid]
                p_in, rings = _score_boxes(m, boxes, ratios, fractions)
                for i, r in enumerate(ratios):
                    for j, f in enumerate(fractions):
                        expected = score_batch(m, boxes, ScoringConfig(
                            enlarge_ratio=r, top_fraction=f,
                            empty_ring_policy=policy))
                        assert grid_cell(m, boxes, p_in, rings, i, j,
                                         policy) == expected
                        one = _score_boxes(m, boxes, [r], [f])
                        assert grid_cell(m, boxes, *one, 0, 0, policy) == expected

    @pytest.mark.parametrize("ratios,fractions,value", [
        ([1.2, 1.2], [0.5], "1.2"),
        ([1.1], [0.5, 0.3, 0.5000001], "0.5000001")])
    def test_repeated_table_key_is_rejected(self, ratios, fractions, value):
        with pytest.raises(ValueError, match=f"got {value}"):
            ablation_sweep(tiny_corpus(1), ratios, fractions)


class TestOrderedMeans:
    """CorLoc, mAP and the sweep's mean objectness add left to right.

    Since Python 3.12 the builtin ``sum`` compensates its rounding. Each
    case shadows ``sum`` in ``tightbox.evaluation`` with ``math.fsum``,
    which rounds the same way, on inputs where the two orders disagree,
    so a builtin ``sum`` in any of the three means fails here on every
    interpreter.
    """

    @pytest.fixture(autouse=True)
    def compensated_sum(self, monkeypatch):
        monkeypatch.setattr(evaluation, "sum", math.fsum, raising=False)

    @staticmethod
    def order_matters(values):
        values = list(values)
        return _ordered_mean(values) != math.fsum(values) / len(values)

    def test_helper_adds_left_to_right(self):
        assert _ordered_mean([1e16, 1.0, -1e16]) == 0.0

    def test_corloc_mean(self):
        # class c hits in c of its 10 images: per-class 0.1, 0.2, 0.3
        pools, gts = [], []
        for cid in (1, 2, 3):
            for i in range(10):
                image_id = f"c{cid}i{i}"
                pools.append(pool(image_id, cid, [HIT if i < cid else FAR]))
                gts.append(gt(image_id, (cid, HIT)))
        result = corloc(pools, gts)
        assert self.order_matters(result.per_class.values())
        assert result.mean == _ordered_mean([0.1, 0.2, 0.3])

    @pytest.mark.parametrize("mode", list(ApMode))
    def test_map(self, mode):
        # each class's one instance is hit at rank 5, 6 or 9: AP 1/rank
        dets, gts = [], []
        for cid, rank in ((1, 5), (2, 6), (3, 9)):
            dets += [det("i1", cid, FAR, 0.9 - r / 100) for r in range(1, rank)]
            dets.append(det("i1", cid, HIT, 0.5))
            gts.append((cid, HIT))
        result = voc_ap(dets, [gt("i1", *gts)], mode)
        aps = list(result.per_class.values())
        assert aps == pytest.approx([1 / 5, 1 / 6, 1 / 9], abs=1e-12)
        assert self.order_matters(aps)
        assert result.mean_ap == _ordered_mean(aps)

    def test_sweep_mean_objectness(self):
        scenes = tiny_corpus(3)
        result = ablation_sweep(scenes, [1.2, 1.5], [0.3, 0.5, 1.0])
        differing = 0
        for cell in result.cells:
            cfg = ScoringConfig(enlarge_ratio=cell.ratio, top_fraction=cell.fraction)
            objs = [s.objectness for s in score_corpus(scenes, cfg)[1]]
            differing += self.order_matters(objs)
            assert cell.mean_objectness == _ordered_mean(objs)
        assert differing
