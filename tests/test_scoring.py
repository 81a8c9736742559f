import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tightbox.confmap import ConfMap
from tightbox.geometry import Box, ring
from tightbox.scoring import (EmptyRingPolicy, ScoredProposal,
                              ScoringConfig, _exact_ring_limit, _score_boxes,
                              _top_k_counts, _topk_mean, build_pool,
                              score_batch)
from tightbox.synth import oracle_score


def sort_and_average(values, frac):
    """Reference implementation: full sort descending, mean of top ceil(frac*n)."""
    ordered = sorted(values, reverse=True)
    k = min(max(math.ceil(frac * len(ordered)), 1), len(ordered))
    return sum(ordered[:k]) / k


def random_box(rng, w, h):
    x0 = int(rng.integers(0, w - 1))
    y0 = int(rng.integers(0, h - 1))
    return Box(x0, y0, int(rng.integers(x0 + 1, w + 1)),
               int(rng.integers(y0 + 1, h + 1)))


def part_trap_map():
    """Two-level object with a hot part: gt purity 0.74, part purity 0.95."""
    values = np.zeros((40, 40))
    values[10:20, 10:20] = 0.6          # body, 100 px
    values[12:17, 11:19] = 0.95         # part, 40 px strictly inside
    return (ConfMap(class_id=1, values=values),
            Box(10, 10, 20, 20), Box(11, 12, 19, 17))


class TestScoringConfig:
    def test_defaults_match_published_configuration(self):
        cfg = ScoringConfig()
        assert cfg.enlarge_ratio == 1.2
        assert cfg.top_fraction == 0.5
        assert cfg.pool_size == 200
        assert cfg.empty_ring_policy is EmptyRingPolicy.ZERO

    @pytest.mark.parametrize("kwargs", [
        {"enlarge_ratio": 0.99},
        {"top_fraction": 0.0},
        {"top_fraction": 1.01},
        {"pool_size": 0},
        {"enlarge_ratio": float("nan")},
        {"enlarge_ratio": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ScoringConfig(**kwargs)


def top_k(n, frac):
    """The kernel's k for one ring of n pixels at one fraction."""
    [[k]] = _top_k_counts(np.array([n]), [frac]).tolist()
    return k


def topk_mean(values, frac):
    """The kernel's top-k mean of ``values``, taken on a flat float32 copy
    as the ring gather returns it; the copy is partitioned in place."""
    v = np.array(values, dtype=np.float32).reshape(-1)
    return _topk_mean(v, top_k(v.size, frac))


class TestConditionalAverage:
    """The surround statistic: the mean of the ceil(fraction * n) largest
    ring values, as the scoring kernel's ``_topk_mean`` takes it."""

    def test_top_half_of_four(self):
        assert topk_mean([0.9, 0.8, 0.1, 0.0], 0.5) == pytest.approx(0.85)

    def test_uniform_values_any_fraction(self):
        for frac in (0.25, 0.5, 1.0):
            assert topk_mean([0.3] * 4, frac) == pytest.approx(0.3)

    def test_rounds_k_up(self):
        # k = ceil(0.5 * 5) = 3 -> mean of {0.9, 0.7, 0.5}
        got = topk_mean([0.5, 0.2, 0.9, 0.1, 0.7], 0.5)
        assert got == pytest.approx(0.7)

    def test_matches_sort_oracle_on_random_sequences(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            vals = rng.random(int(rng.integers(1, 60))).astype(np.float32)
            frac = float(rng.uniform(0.05, 1.0))
            assert topk_mean(vals, frac) == pytest.approx(
                sort_and_average(vals.tolist(), frac), abs=1e-12)

    def test_fraction_one_is_plain_mean(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            vals = rng.random(int(rng.integers(1, 40))).astype(np.float32)
            assert topk_mean(vals, 1.0) == pytest.approx(
                float(vals.mean(dtype=np.float64)), abs=1e-12)

    def test_decreasing_fraction_never_decreases_result(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            vals = rng.random(int(rng.integers(2, 50))).astype(np.float32)
            fracs = sorted(rng.uniform(0.05, 1.0, size=5), reverse=True)
            results = [topk_mean(vals, f) for f in fracs]
            assert all(results[i] <= results[i + 1] + 1e-12
                       for i in range(len(results) - 1))

    def test_ties_at_cutoff_are_harmless(self):
        # two orderings of the same multiset give the same value
        assert topk_mean([0.5, 0.5, 0.5, 0.1], 0.5) == \
            topk_mean([0.1, 0.5, 0.5, 0.5], 0.5)

    def test_top_k_count(self):
        assert top_k(4, 0.5) == 2
        assert top_k(5, 0.5) == 3
        assert top_k(10, 0.3) == 3
        assert top_k(1, 0.01) == 1
        assert top_k(7, 1.0) == 7

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 2**31),
           frac=st.floats(0.0, 1.0, exclude_min=True))
    @example(n=100, frac=0.07)     # the product rounds up to 7.000000000000001
    @example(n=100, frac=0.57)     # and down to 56.99999999999999
    @example(n=2**31, frac=5e-324)
    def test_array_k_is_the_scalar_rule(self, n, frac):
        # the same float64 product and clamps as oracle_score's k
        assert top_k(n, frac) == min(max(math.ceil(frac * n), 1), n)

    def test_array_k_follows_each_size_and_fraction(self):
        sizes = np.array([[0, 4, 5], [10, 1, 7]])
        fracs = [0.5, 0.3, 0.01, 1.0]
        got = _top_k_counts(sizes, fracs)
        assert got.shape == (2, 3, 4) and got.dtype == np.int64
        assert got.tolist() == [[[top_k(n, f) for f in fracs] for n in row]
                                for row in sizes.tolist()]


class TestSurroundingCompleteness:
    """The surround term of score_batch: the ring's conditional average."""

    def surround(self, m, b, cfg):
        return score_batch(m, [b], cfg)[0].p_surround

    def test_background_ring_scores_zero(self):
        values = np.zeros((20, 20))
        values[5:15, 5:15] = 1.0
        m = ConfMap(class_id=1, values=values)
        assert self.surround(m, Box(5, 5, 15, 15), ScoringConfig()) == 0.0

    def test_saturated_ring_scores_one(self):
        m = ConfMap(class_id=1, values=np.ones((20, 20)))
        assert self.surround(m, Box(5, 5, 15, 15), ScoringConfig()) == 1.0

    def test_conditional_average_picks_hot_half(self):
        # ring half 0.8 / half 0.0 -> top 50% all 0.8
        values = np.zeros((20, 8))
        values[:10, :] = 0.8
        m = ConfMap(class_id=1, values=values)
        b = Box(1, 8, 7, 12)   # ring straddles the 0.8 / 0.0 boundary
        o = ring(b, 1.5, 8, 20).outer
        in_ring = np.zeros(m.values.shape, dtype=bool)
        in_ring[o.y0:o.y1, o.x0:o.x1] = True
        in_ring[b.y0:b.y1, b.x0:b.x1] = False
        ringvals = m.values[in_ring]
        hot = int((ringvals == np.float32(0.8)).sum())
        assert hot >= ringvals.size // 2  # precondition for the assertion below
        got = self.surround(m, b, ScoringConfig(enlarge_ratio=1.5))
        assert got == pytest.approx(0.8, abs=1e-6)

    def test_empty_ring_zero_policy(self):
        m = ConfMap(class_id=1, values=np.full((10, 10), 0.4))
        cfg = ScoringConfig(empty_ring_policy=EmptyRingPolicy.ZERO)
        assert self.surround(m, Box(0, 0, 10, 10), cfg) == 0.0

    def test_empty_ring_skip_policy_excludes(self):
        m = ConfMap(class_id=1, values=np.full((10, 10), 0.4))
        cfg = ScoringConfig(empty_ring_policy=EmptyRingPolicy.SKIP)
        s = score_batch(m, [Box(0, 0, 10, 10)], cfg)[0]
        assert s.excluded
        assert s.p_surround == 0.0


class TestScore:
    def test_uniform_map_cancels(self):
        m = ConfMap(class_id=1, values=np.full((30, 30), 0.7))
        s = score_batch(m, [Box(8, 8, 20, 20)], ScoringConfig())[0]
        assert s.objectness == pytest.approx(0.0, abs=1e-6)

    def test_perfect_tight_box(self):
        values = np.zeros((30, 30))
        values[10:20, 10:20] = 1.0
        m = ConfMap(class_id=1, values=values)
        s = score_batch(m, [Box(10, 10, 20, 20)], ScoringConfig())[0]
        assert s.objectness == pytest.approx(1.0)

    def test_part_trap_scene_prefers_tight_box(self):
        m, gt, part = part_trap_map()
        cfg = ScoringConfig()
        s_gt = score_batch(m, [gt], cfg)[0]
        s_part = score_batch(m, [part], cfg)[0]
        # values from the construction: gt purity 0.74 over empty ring,
        # part purity 0.95 over a body-level (0.6) ring
        assert s_gt.p_inside == pytest.approx(0.74, abs=1e-6)
        assert s_gt.p_surround == pytest.approx(0.0, abs=1e-6)
        assert s_part.p_inside == pytest.approx(0.95, abs=1e-6)
        assert s_part.p_surround == pytest.approx(0.6, abs=1e-6)
        assert s_gt.objectness > s_part.objectness

    def test_objectness_identity_and_bounds(self):
        rng = np.random.default_rng(34)
        m = ConfMap(class_id=1, values=rng.random((32, 32)))
        for _ in range(200):
            s = score_batch(m, [random_box(rng, 32, 32)], ScoringConfig())[0]
            assert s.objectness == s.p_inside - s.p_surround
            assert -1.0 <= s.objectness <= 1.0

    def test_empty_ring_zero_keeps_purity(self):
        m = ConfMap(class_id=1, values=np.full((10, 10), 0.4))
        s = score_batch(m, [Box(0, 0, 10, 10)], ScoringConfig())[0]
        assert not s.excluded
        assert s.objectness == s.p_inside

    def test_empty_ring_skip_marks_excluded(self):
        m = ConfMap(class_id=1, values=np.full((10, 10), 0.4))
        cfg = ScoringConfig(empty_ring_policy=EmptyRingPolicy.SKIP)
        s = score_batch(m, [Box(0, 0, 10, 10)], cfg)[0]
        assert s.excluded

    def test_uniform_shift_leaves_objectness_unchanged(self):
        rng = np.random.default_rng(35)
        base = rng.random((40, 40)) * 0.5          # headroom for the shift
        boxes = [random_box(rng, 40, 40) for _ in range(50)]
        cfg = ScoringConfig()
        m1 = ConfMap(class_id=1, values=base)
        m2 = ConfMap(class_id=1, values=base + 0.3)
        for b in boxes:
            s1, s2 = score_batch(m1, [b], cfg)[0], score_batch(m2, [b], cfg)[0]
            assert s2.objectness == pytest.approx(s1.objectness, abs=1e-6)

    def test_invariant_enforced_on_construction(self):
        with pytest.raises(ValueError):
            ScoredProposal(box=Box(0, 0, 1, 1), class_id=1, p_inside=0.5,
                           p_surround=0.25, objectness=0.3)
        with pytest.raises(ValueError):
            ScoredProposal(box=Box(0, 0, 1, 1), class_id=1, p_inside=1.5,
                           p_surround=0.0, objectness=1.5)


class TestScoreBatch:
    def test_empty_batch(self):
        m = ConfMap(class_id=1, values=np.zeros((8, 8)))
        assert score_batch(m, [], ScoringConfig()) == []

    def test_singleton_equals_single_call(self):
        # a box scores the same alone as first, middle or last of a batch
        rng = np.random.default_rng(36)
        m = ConfMap(class_id=1, values=rng.random((16, 16)))
        b = Box(2, 3, 10, 12)
        others = [random_box(rng, 16, 16) for _ in range(6)]
        cfg = ScoringConfig()
        [alone] = score_batch(m, [b], cfg)
        for pos in (0, 3, 6):
            batch = others[:pos] + [b] + others[pos:]
            assert score_batch(m, batch, cfg)[pos] == alone

    def test_batch_equals_sequential_singles(self):
        # batch independence: each entry equals its box scored alone
        rng = np.random.default_rng(37)
        m = ConfMap(class_id=1, values=rng.random((48, 48)))
        boxes = [random_box(rng, 48, 48) for _ in range(1000)]
        cfg = ScoringConfig(enlarge_ratio=1.3, top_fraction=0.7)
        batch = score_batch(m, boxes, cfg)
        assert batch == [score_batch(m, [b], cfg)[0] for b in boxes]

    def test_rejects_out_of_bounds_boxes_naming_positions(self):
        m = ConfMap(class_id=1, values=np.zeros((8, 8)))
        boxes = [Box(0, 0, 4, 4), Box(0, 0, 9, 4), Box(1, 1, 2, 9)]
        with pytest.raises(ValueError, match=r"\[1, 2\]"):
            score_batch(m, boxes, ScoringConfig())


class TestBuildPool:
    def make(self, p_inside, p_surround, excluded=False):
        return ScoredProposal(box=Box(0, 0, 2, 2), class_id=1,
                              p_inside=p_inside, p_surround=p_surround,
                              objectness=p_inside - p_surround, excluded=excluded)

    def test_underfull_pool_keeps_everything_sorted(self):
        scored = [self.make(0.2, 0.0), self.make(0.9, 0.0), self.make(0.5, 0.0)]
        pool = build_pool(scored, ScoringConfig(), image_id="img")
        assert [s.objectness for s in pool.entries] == [0.9, 0.5, 0.2]

    def test_truncates_to_pool_size_keeping_the_best(self):
        rng = np.random.default_rng(39)
        scored = [self.make(float(v), 0.0) for v in rng.random(500)]
        pool = build_pool(scored, ScoringConfig(pool_size=200))
        assert len(pool.entries) == 200
        cutoff = min(s.objectness for s in pool.entries)
        excluded = sorted([s.objectness for s in scored], reverse=True)[200:]
        assert all(o <= cutoff for o in excluded)
        # matches a full-sort reference
        expected = sorted([s.objectness for s in scored], reverse=True)[:200]
        assert [s.objectness for s in pool.entries] == expected

    def test_ties_break_by_p_inside_then_input_order(self):
        a = self.make(0.75, 0.25)   # objectness 0.5
        b = self.make(0.625, 0.125)  # objectness 0.5, lower purity
        c = self.make(0.75, 0.25)   # identical to a, later in input
        pool = build_pool([b, a, c], ScoringConfig())
        assert pool.entries == (a, c, b)

    def test_excluded_proposals_never_enter_pools(self):
        kept = self.make(0.5, 0.0)
        dropped = self.make(0.9, 0.0, excluded=True)
        pool = build_pool([kept, dropped], ScoringConfig())
        assert pool.entries == (kept,)

    def test_rejects_mixed_classes(self):
        a = self.make(0.5, 0.0)
        b = ScoredProposal(box=Box(0, 0, 2, 2), class_id=2, p_inside=0.5,
                           p_surround=0.0, objectness=0.5)
        with pytest.raises(ValueError):
            build_pool([a, b], ScoringConfig())


PURITY = ScoringConfig(enlarge_ratio=1.0)


class TestPurityOnly:
    """The inside-only baseline: scoring at ratio 1, where every ring is empty."""

    def test_perfect_tight_box(self):
        values = np.zeros((20, 20))
        values[5:15, 5:15] = 1.0
        m = ConfMap(class_id=1, values=values)
        s = score_batch(m, [Box(5, 5, 15, 15)], PURITY)[0]
        assert s.objectness == 1.0
        assert s.p_surround == 0.0

    def test_part_box_outranks_tight_box(self):
        m, gt, part = part_trap_map()
        s_gt, s_part = score_batch(m, [gt, part], PURITY)
        assert s_part.objectness > s_gt.objectness

    def test_uniform_map_gives_no_discrimination(self):
        m = ConfMap(class_id=1, values=np.full((16, 16), 0.4))
        rng = np.random.default_rng(40)
        scores = {s.objectness for s in score_batch(
            m, [random_box(rng, 16, 16) for _ in range(50)], PURITY)}
        assert all(v == pytest.approx(0.4, abs=1e-6) for v in scores)


class TestPurity:
    def test_delegates_to_box_mean(self):
        # p_inside is the box mean at any ratio; at ratio 1 it is the score
        rng = np.random.default_rng(41)
        m = ConfMap(class_id=1, values=rng.random((16, 16)))
        b = Box(3, 4, 10, 12)
        naive = float(m.values[4:12, 3:10].astype(np.float64).mean())
        inside_only = score_batch(m, [b], PURITY)[0]
        assert inside_only.p_inside == pytest.approx(naive, abs=1e-9)
        assert inside_only.objectness == inside_only.p_inside
        assert score_batch(m, [b], ScoringConfig())[0].p_inside == inside_only.p_inside


def tiny_value_map():
    """Values spanning 38 decades: at box (3, 5, 4, 6), a pixel of 4.4e-28,
    the 4-corner difference of the float64 table is -6.9e-18."""
    rng = np.random.default_rng(1)
    return ConfMap(class_id=1, values=10 ** -rng.uniform(0, 38, (12, 12))), \
        Box(3, 5, 4, 6)


class TestTinyValueMap:
    """Box means are clamped to [0, 1], so valid maps always score."""

    def assert_matches_oracle(self, got, m, b, cfg):
        want = oracle_score(m, b, cfg)
        assert 0.0 <= got.p_inside <= 1.0
        assert got.p_inside == pytest.approx(want.p_inside, abs=1e-6)
        assert got.p_surround == pytest.approx(want.p_surround, abs=1e-6)
        assert got.objectness == pytest.approx(want.objectness, abs=1e-6)

    def test_score(self):
        m, b = tiny_value_map()
        cfg = ScoringConfig()
        self.assert_matches_oracle(score_batch(m, [b], cfg)[0], m, b, cfg)

    def test_score_batch(self):
        m, b = tiny_value_map()
        cfg = ScoringConfig()
        boxes = [Box(0, 0, 12, 12), b, Box(2, 4, 6, 8)]
        for got, box in zip(score_batch(m, boxes, cfg), boxes):
            self.assert_matches_oracle(got, m, box, cfg)

    def test_purity_only_score(self):
        m, b = tiny_value_map()
        got = score_batch(m, [b], PURITY)[0]
        assert got.p_inside == pytest.approx(
            oracle_score(m, b, ScoringConfig()).p_inside, abs=1e-6)
        assert got.objectness == got.p_inside


def bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


def cell(m, boxes, p_in, sizes, surround, i, j, policy):
    """Cell (i, j) of a ``_score_boxes`` result as the ScoredProposals
    that ``score_batch`` builds from a 1x1 grid."""
    skip_on_empty = policy is EmptyRingPolicy.SKIP
    return [ScoredProposal(box=b, class_id=m.class_id, p_inside=pi,
                           p_surround=ps, objectness=pi - ps,
                           excluded=skip_on_empty and n == 0)
            for b, pi, n, ps in zip(boxes, p_in.tolist(), sizes[i].tolist(),
                                    surround[i, :, j].tolist())]


def map_with_smallest(v_min):
    return np.array([[0.0, v_min], [1.0, v_min]], dtype=np.float32)


class TestExactRingLimit:
    """2**(e + 30) ring pixels, e = floor(log2) of the smallest positive value."""

    @pytest.mark.parametrize("v_min,limit", [
        (1.0, 2.0 ** 30),
        (0.5, 2.0 ** 29),
        (2.0 ** -12, 2.0 ** 18),
        (0.3, 2.0 ** 28),
        (float(np.finfo(np.float32).tiny), 2.0 ** -96),
    ])
    def test_limit_follows_the_smallest_positive_value(self, v_min, limit):
        assert _exact_ring_limit(map_with_smallest(v_min)) == limit

    def test_subnormal_value_leaves_no_ring_exact(self):
        sub = float(np.float32(2.0 ** -140))
        assert 0.0 < sub < np.finfo(np.float32).tiny
        assert _exact_ring_limit(map_with_smallest(sub)) < 1

    def test_all_zero_map_has_no_limit(self):
        assert _exact_ring_limit(np.zeros((4, 4), dtype=np.float32)) == math.inf


def small_map_and_boxes(seed, values):
    """A map of ``values(rng, shape)`` with a whole-map box, boxes clipped at
    the top-left and bottom-right borders, random boxes and a duplicate."""
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(4, 20, 2))
    m = ConfMap(class_id=3, values=values(rng, (h, w)))
    boxes = [Box(0, 0, w, h), Box(0, 0, w // 2 + 1, h // 2 + 1),
             Box(w // 3, h // 3, w, h)]
    boxes += [random_box(rng, w, h) for _ in range(5)]
    boxes.append(boxes[3])
    return m, boxes


def certified_values(rng, shape):
    """Multiples of 1/8, or values >= 2**-10: every ring is exact."""
    if rng.random() < 0.5:
        return rng.integers(0, 9, shape) / 8
    return np.where(rng.random(shape) < 0.2, 0.0,
                    rng.uniform(2.0 ** -10, 1.0, shape))


def fallback_values(rng, shape):
    """Half in [0.5, 1), half in [5e-10, 1.5e-9), below 2**-29 so the limit
    is at most 1: float64 sums reaching the small ones depend on the order
    of their terms, so rings must fall back."""
    small = 1e-9 * rng.uniform(0.5, 1.5, shape)
    return np.where(rng.random(shape) < 0.5, rng.uniform(0.5, 1.0, shape), small)


# 1.5 or 3.0 in every grid, so some rings are not empty
GRID_RATIOS = st.lists(st.sampled_from([1.0, 1.05, 1.2, 1.5, 3.0]),
                       min_size=1, max_size=3, unique=True).filter(
                           lambda rs: max(rs) >= 1.5)
# 0.25/0.26 and 0.5/0.51 share a cut point on small rings, 0.999 keeps
# every pixel of a ring under 1,000 pixels
PARTITIONING = st.lists(st.sampled_from([0.01, 0.25, 0.26, 0.5, 0.51, 0.9, 0.999]),
                        min_size=2, max_size=3, unique=True)


class TestExactGrid:
    """Grid cells on the shared path equal 1x1 score_batch runs to the bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), certified=st.booleans(),
           ratios=GRID_RATIOS, fractions=PARTITIONING,
           with_one=st.none() | st.sampled_from(["first", "middle", "last"]),
           policy=st.sampled_from(list(EmptyRingPolicy)))
    @example(seed=0, certified=True, ratios=[1.2, 3.0],
             fractions=[0.5, 0.51, 0.25], with_one="last",
             policy=EmptyRingPolicy.SKIP)
    @example(seed=0, certified=False, ratios=[1.2, 3.0],
             fractions=[0.5, 0.51, 0.25], with_one="last",
             policy=EmptyRingPolicy.ZERO)
    def test_cells_equal_score_batch(self, seed, certified, ratios, fractions,
                                     with_one, policy):
        # 1.0 (a plain mean) at the front, middle or end of the grid, so the
        # fallback cells are checked for independence from fraction order
        if with_one is not None:
            at = {"first": 0, "middle": len(fractions) // 2,
                  "last": len(fractions)}[with_one]
            fractions = fractions[:at] + [1.0] + fractions[at:]
        m, boxes = small_map_and_boxes(
            seed, certified_values if certified else fallback_values)
        limit = _exact_ring_limit(m.values)
        p_in, sizes, surround = _score_boxes(m, boxes, ratios, fractions)
        assert p_in.shape == (len(boxes),)
        assert sizes.shape == (len(ratios), len(boxes))
        assert surround.shape == (len(ratios), len(boxes), len(fractions))
        if certified:
            assert sizes.max() <= limit
        else:
            assert limit < 2 and sizes.max() > limit
        for i, r in enumerate(ratios):
            for j, f in enumerate(fractions):
                expected = score_batch(m, boxes, ScoringConfig(
                    enlarge_ratio=r, top_fraction=f, empty_ring_policy=policy))
                got = cell(m, boxes, p_in, sizes, surround, i, j, policy)
                assert got == expected
                assert bits(surround[i, :, j]) == bits([s.p_surround for s in expected])
                assert bits(p_in) == bits([s.p_inside for s in expected])

    def test_empty_batch_gives_empty_arrays(self):
        m = ConfMap(class_id=1, values=np.full((8, 8), 0.5))
        p_in, sizes, surround = _score_boxes(m, [], [1.2, 1.5], [0.3, 0.5, 1.0])
        assert p_in.shape == (0,)
        assert sizes.shape == (2, 0)
        assert surround.shape == (2, 0, 3)


class TestGridOracle:
    """Every grid cell is within 1e-6 of the naive oracle."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ratios=st.lists(st.floats(1.0, 3.0), min_size=1, max_size=3, unique=True),
           fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True),
                              min_size=1, max_size=3, unique=True))
    @example(seed=1, ratios=[1.0, 3.0], fractions=[1.0, 0.5, 1e-9])
    def test_cells_match_oracle(self, seed, ratios, fractions):
        m, boxes = small_map_and_boxes(seed, lambda rng, shape: rng.random(shape))
        p_in, sizes, surround = _score_boxes(m, boxes, ratios, fractions)
        for i, r in enumerate(ratios):
            for j, f in enumerate(fractions):
                cfg = ScoringConfig(enlarge_ratio=r, top_fraction=f)
                scored = cell(m, boxes, p_in, sizes, surround, i, j,
                              cfg.empty_ring_policy)
                for got, b in zip(scored, boxes):
                    want = oracle_score(m, b, cfg)
                    assert got.p_inside == pytest.approx(want.p_inside, abs=1e-6)
                    assert got.p_surround == pytest.approx(want.p_surround, abs=1e-6)
                    assert got.objectness == pytest.approx(want.objectness, abs=1e-6)


def unit_edge_values(rng, shape, exponent):
    """Zeros, runs of exact 1.0 (a block and whole rows) and values down to
    2**-exponent, plus one pixel of 1e-38 (a subnormal) when exponent > 30."""
    h, w = shape
    values = np.where(rng.random(shape) < 0.3, 0.0,
                      2.0 ** -rng.uniform(0, exponent, shape))
    y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
    values[y0:y0 + int(rng.integers(1, h + 1)), x0:x0 + int(rng.integers(1, w + 1))] = 1.0
    values[rng.random(h) < 0.3] = 1.0
    if exponent > 30:
        values[int(rng.integers(0, h)), int(rng.integers(0, w))] = 1e-38
    return values


class TestKernelRange:
    """Every box mean and ring mean the kernel returns lies in [0, 1]."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), certified=st.booleans(),
           ratios=GRID_RATIOS, fractions=PARTITIONING, with_one=st.booleans())
    def test_columns_lie_in_unit_interval(self, seed, certified, ratios,
                                          fractions, with_one):
        fractions = fractions + [1.0] if with_one else fractions
        # rings of a map under 20x20 stay within the limit 2**10 that
        # values >= 2**-20 give; a 1e-38 pixel leaves no ring exact
        exponent = 20 if certified else 126
        m, boxes = small_map_and_boxes(
            seed, lambda rng, shape: unit_edge_values(rng, shape, exponent))
        limit = _exact_ring_limit(m.values)
        p_in, sizes, surround = _score_boxes(m, boxes, ratios, fractions)
        if certified:
            assert sizes.max() <= limit
        else:
            assert limit < 1 < sizes.max()
        assert all(0.0 <= v <= 1.0 for v in p_in.tolist())
        assert all(0.0 <= v <= 1.0 for v in surround.ravel().tolist())
