import numpy as np
import pytest

from tightbox.confmap import ConfMap
from tightbox.geometry import Box, iou
from tightbox.scoring import EmptyRingPolicy, ScoringConfig, score_batch
from tightbox.synth import (ProposalCounts, SceneObject,
                            SceneSpec, TrapParams, box_blur, gen_proposals,
                            gen_scene, make_linked_spec, make_trap_spec,
                            oracle_score)


def simple_spec(**kwargs):
    obj = SceneObject(class_id=1, gt_box=Box(20, 20, 60, 60),
                      part_box=Box(25, 30, 40, 45),
                      body_conf=0.6, part_conf=0.95, bg_conf=0.05)
    defaults = dict(image_w=100, image_h=100, objects=(obj,), seed=9)
    defaults.update(kwargs)
    return SceneSpec(**defaults)


class TestSceneSpec:
    def test_part_box_must_be_strictly_inside(self):
        with pytest.raises(ValueError):
            SceneObject(class_id=1, gt_box=Box(10, 10, 20, 20),
                        part_box=Box(10, 12, 15, 18))

    def test_conf_ordering_enforced(self):
        with pytest.raises(ValueError):
            SceneObject(class_id=1, gt_box=Box(10, 10, 30, 30),
                        part_box=Box(15, 15, 20, 20),
                        body_conf=0.9, part_conf=0.8, bg_conf=0.05)

    def test_same_class_overlap_needs_linked_flag(self):
        objs = (
            SceneObject(class_id=1, gt_box=Box(10, 10, 40, 40),
                        part_box=Box(15, 15, 25, 25)),
            SceneObject(class_id=1, gt_box=Box(30, 30, 60, 60),
                        part_box=Box(35, 35, 45, 45)),
        )
        with pytest.raises(ValueError):
            SceneSpec(image_w=100, image_h=100, objects=objs, seed=0)
        spec = SceneSpec(image_w=100, image_h=100, objects=objs, seed=0,
                         allow_linked=True)
        assert spec.allow_linked

    def test_gt_box_must_fit_image(self):
        with pytest.raises(ValueError):
            simple_spec(image_w=50, image_h=50)


class TestGenScene:
    def test_noiseless_map_is_exact_three_level(self):
        spec = simple_spec()
        maps, gt = gen_scene(spec)
        v = maps[1].values
        assert gt == [(1, Box(20, 20, 60, 60))]
        assert v[0, 0] == np.float32(0.05)
        assert v[21, 21] == np.float32(0.6)
        assert v[35, 30] == np.float32(0.95)
        levels = np.unique(v)
        assert levels.tolist() == [np.float32(0.05), np.float32(0.6),
                                   np.float32(0.95)]

    def test_same_seed_bit_identical(self):
        spec = simple_spec(noise_sigma=0.05, blur_radius=2)
        maps_a, _ = gen_scene(spec)
        maps_b, _ = gen_scene(spec)
        assert np.array_equal(maps_a[1].values, maps_b[1].values)

    def test_different_seed_differs(self):
        a, _ = gen_scene(simple_spec(noise_sigma=0.05))
        b, _ = gen_scene(simple_spec(noise_sigma=0.05, seed=10))
        assert not np.array_equal(a[1].values, b[1].values)

    def test_noisy_blurred_map_stays_in_range_with_signal(self):
        spec = simple_spec(noise_sigma=0.05, blur_radius=2)
        maps, _ = gen_scene(spec)
        v = maps[1].values.astype(np.float64)
        assert v.min() >= 0.0 and v.max() <= 1.0
        inside = v[20:60, 20:60].mean()
        outside_cols = np.concatenate([v[:, :20].ravel(), v[:, 60:].ravel()])
        assert inside > outside_cols.mean()

    def test_multi_class_scene_gets_one_map_per_class(self):
        objs = (
            SceneObject(class_id=1, gt_box=Box(10, 10, 40, 40),
                        part_box=Box(15, 15, 25, 25)),
            SceneObject(class_id=5, gt_box=Box(50, 50, 90, 90),
                        part_box=Box(60, 60, 70, 70)),
        )
        spec = SceneSpec(image_w=100, image_h=100, objects=objs, seed=0)
        maps, _ = gen_scene(spec)
        assert sorted(maps) == [1, 5]
        # class 1's map must not show class 5's object
        assert maps[1].values[65, 65] == np.float32(0.05)
        assert maps[5].values[65, 65] == np.float32(0.95)


class TestBoxBlur:
    def test_radius_zero_is_identity(self):
        rng = np.random.default_rng(61)
        a = rng.random((8, 8))
        assert np.array_equal(box_blur(a, 0), a)

    def test_matches_naive_clamped_window_mean(self):
        rng = np.random.default_rng(62)
        a = rng.random((9, 7))
        r = 2
        got = box_blur(a, r)
        for y in range(9):
            for x in range(7):
                rows = a[max(0, y - r):min(9, y + r + 1), :]
                window = rows[:, max(0, x - r):min(7, x + r + 1)]
                assert got[y, x] == pytest.approx(window.mean(), abs=1e-12)

    def test_preserves_range(self):
        rng = np.random.default_rng(63)
        a = rng.random((16, 16))
        out = box_blur(a, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestGenProposals:
    def test_zero_counts_give_empty_family(self):
        fam = gen_proposals(simple_spec(), ProposalCounts(0, 0, 0, 0), seed=1)
        assert fam.counts == {"tight": 0, "partial": 0, "loose": 0,
                              "background": 0}

    def test_families_meet_their_predicates(self):
        spec = simple_spec()
        gt = spec.objects[0].gt_box
        part = spec.objects[0].part_box
        fam = gen_proposals(spec, ProposalCounts(10, 10, 5, 10), seed=2)
        assert len(fam.tight) == 10
        for _, b in fam.tight:
            assert iou(b, gt) >= 0.5
        assert len(fam.partial) == 10
        for _, b in fam.partial:
            assert gt.contains(b)
            inter_w = min(b.x1, part.x1) - max(b.x0, part.x0)
            inter_h = min(b.y1, part.y1) - max(b.y0, part.y0)
            coverage = max(0, inter_w) * max(0, inter_h) / part.area
            assert coverage >= 0.8
        for _, b in fam.loose:
            assert b.contains(gt) and b.area > gt.area
        for _, b in fam.background:
            assert iou(b, gt) == 0.0

    def test_reproducible_per_seed(self):
        spec = simple_spec()
        a = gen_proposals(spec, ProposalCounts(), seed=5)
        b = gen_proposals(spec, ProposalCounts(), seed=5)
        assert a == b
        c = gen_proposals(spec, ProposalCounts(), seed=6)
        assert a != c

    def test_unsatisfiable_loose_family_degrades_with_warning(self):
        # object fills the image: no room to strictly contain it
        obj = SceneObject(class_id=1, gt_box=Box(0, 0, 100, 100),
                          part_box=Box(10, 10, 30, 30))
        spec = SceneSpec(image_w=100, image_h=100, objects=(obj,), seed=0)
        fam = gen_proposals(spec, ProposalCounts(0, 0, 5, 0), seed=3)
        assert fam.loose == ()
        assert any("loose" in w for w in fam.warnings)


class TestOracleScore:
    def test_uniform_map_scores_zero(self):
        m = ConfMap(class_id=1, values=np.full((20, 20), 0.5))
        s = oracle_score(m, Box(5, 5, 12, 12), ScoringConfig())
        assert s.objectness == pytest.approx(0.0, abs=1e-7)

    def test_perfect_box_scores_one(self):
        values = np.zeros((20, 20))
        values[5, 5] = 0.0
        values[6:14, 6:14] = 1.0
        m = ConfMap(class_id=1, values=values)
        s = oracle_score(m, Box(6, 6, 14, 14), ScoringConfig())
        assert s.objectness == pytest.approx(1.0)

    def test_agrees_with_fast_path(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            w, h = int(rng.integers(8, 40)), int(rng.integers(8, 40))
            m = ConfMap(class_id=1, values=rng.random((h, w)))
            x0 = int(rng.integers(0, w - 1)); y0 = int(rng.integers(0, h - 1))
            b = Box(x0, y0, int(rng.integers(x0 + 1, w + 1)),
                    int(rng.integers(y0 + 1, h + 1)))
            cfg = ScoringConfig(enlarge_ratio=float(rng.uniform(1.0, 1.5)),
                                top_fraction=float(rng.choice([0.3, 0.5, 0.7, 1.0])))
            fast = score_batch(m, [b], cfg)[0]
            ref = oracle_score(m, b, cfg)
            assert fast.p_inside == pytest.approx(ref.p_inside, abs=1e-6)
            assert fast.p_surround == pytest.approx(ref.p_surround, abs=1e-6)
            assert fast.objectness == pytest.approx(ref.objectness, abs=1e-6)

    def test_empty_ring_follows_policy(self):
        m = ConfMap(class_id=1, values=np.full((10, 10), 0.4))
        full = Box(0, 0, 10, 10)
        s = oracle_score(m, full, ScoringConfig())
        assert not s.excluded and s.objectness == s.p_inside
        s = oracle_score(m, full, ScoringConfig(
            empty_ring_policy=EmptyRingPolicy.SKIP))
        assert s.excluded


class TestTrapScenes:
    def test_certified_traps_hold_both_inequalities(self):
        cfg = ScoringConfig()
        for seed in range(20):
            spec = make_trap_spec(seed)
            maps, _ = gen_scene(spec)
            obj = spec.objects[0]
            m = maps[obj.class_id]
            s_gt = oracle_score(m, obj.gt_box, cfg)
            s_part = oracle_score(m, obj.part_box, cfg)
            assert s_part.p_inside > s_gt.p_inside
            assert s_gt.objectness > s_part.objectness

    def test_trap_spec_is_deterministic(self):
        assert make_trap_spec(123) == make_trap_spec(123)

    def test_requested_noise_and_blur_are_applied(self):
        params = TrapParams(noise_sigma=0.04, blur_radius=1)
        spec = make_trap_spec(3, params)
        assert spec.noise_sigma == 0.04
        assert spec.blur_radius == 1

    def test_linked_spec_has_touching_same_class_instances(self):
        spec = make_linked_spec(5)
        assert spec.allow_linked
        assert len(spec.objects) == 2
        a, b = spec.objects
        assert a.class_id == b.class_id
        assert a.gt_box.x1 == b.gt_box.x0  # edge-adjacent
        gen_scene(spec)  # must render without error
