import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tightbox.confmap import ConfMap
from tightbox.geometry import Box, RingRegion, enlarge, iou, ring
from tightbox.scoring import _score_boxes


def pixels_inside(b, w, h):
    """Enumeration oracle: the set of grid pixels a box covers."""
    return {(x, y) for y in range(h) for x in range(w)
            if b.x0 <= x < b.x1 and b.y0 <= y < b.y1}


def random_box(rng, w, h):
    x0 = int(rng.integers(0, w - 1))
    y0 = int(rng.integers(0, h - 1))
    x1 = int(rng.integers(x0 + 1, w + 1))
    y1 = int(rng.integers(y0 + 1, h + 1))
    return Box(x0, y0, x1, y1)


@st.composite
def image_and_box(draw, max_side=64):
    """(width, height, box) with the box inside the width x height image."""
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    x0 = draw(st.integers(0, w - 1))
    y0 = draw(st.integers(0, h - 1))
    return w, h, Box(x0, y0, draw(st.integers(x0 + 1, w)),
                     draw(st.integers(y0 + 1, h)))


RATIOS = st.one_of(st.sampled_from([1.0, 1.2, 1.5, 2.0]),
                   st.floats(1.0, 1e6, allow_nan=False))


class TestBox:
    def test_area_uses_half_open_convention(self):
        assert Box(0, 0, 4, 4).area == 16
        assert Box(2, 3, 3, 4).area == 1

    @pytest.mark.parametrize("coords", [
        (0, 0, 0, 4),    # zero width
        (0, 0, 4, 0),    # zero height
        (3, 0, 2, 4),    # inverted x
        (-1, 0, 4, 4),   # negative coordinate
    ])
    def test_rejects_degenerate_boxes(self, coords):
        with pytest.raises(ValueError):
            Box(*coords)

    def test_rejects_fractional_coordinates(self):
        with pytest.raises(ValueError):
            Box(0.5, 0, 4, 4)

    def test_accepts_numpy_integers(self):
        b = Box(np.int64(1), np.int32(2), np.int64(5), np.int64(6))
        assert b.as_tuple() == (1, 2, 5, 6)
        assert isinstance(b.x0, int)


class TestIou:
    def test_identity(self):
        assert iou(Box(0, 0, 4, 4), Box(0, 0, 4, 4)) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 2, 2), Box(5, 5, 7, 7)) == 0.0

    def test_one_pixel_overlap(self):
        # 1 px intersection, 7 px union, by enumeration
        assert iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(1 / 7)

    def test_matches_pixel_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = random_box(rng, 20, 20)
            b = random_box(rng, 20, 20)
            pa, pb = pixels_inside(a, 20, 20), pixels_inside(b, 20, 20)
            expected = len(pa & pb) / len(pa | pb)
            assert iou(a, b) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(a=image_and_box(), b=image_and_box())
    def test_symmetric_and_bounded(self, a, b):
        a, b = a[2], b[2]
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0
        assert iou(a, a) == 1.0


class TestEnlarge:
    def test_scales_about_center(self):
        assert enlarge(Box(10, 10, 30, 50), 1.2, 100, 100) == Box(8, 6, 32, 54)

    @settings(max_examples=200, deadline=None)
    @given(wh_box=image_and_box())
    @example(wh_box=(100, 100, Box(10, 10, 30, 50)))
    def test_identity_ratio(self, wh_box):
        w, h, b = wh_box
        assert enlarge(b, 1.0, w, h) == b

    def test_clips_to_image(self):
        assert enlarge(Box(0, 0, 20, 40), 1.2, 100, 100) == Box(0, 0, 22, 44)

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            enlarge(Box(10, 10, 20, 20), 0.9, 100, 100)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
    def test_rejects_non_finite_ratio(self, ratio):
        with pytest.raises(ValueError, match=f"got {ratio}"):
            enlarge(Box(10, 10, 20, 20), ratio, 100, 100)

    def test_rejects_out_of_bounds_box(self):
        with pytest.raises(ValueError):
            enlarge(Box(10, 10, 120, 20), 1.2, 100, 100)

    @settings(max_examples=300, deadline=None)
    @given(wh_box=image_and_box(), ratio=RATIOS)
    def test_always_contains_original_and_stays_in_image(self, wh_box, ratio):
        w, h, b = wh_box
        e = enlarge(b, ratio, w, h)
        assert e.contains(b)
        assert Box(0, 0, w, h).contains(e)

    def test_monotone_in_ratio(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            b = random_box(rng, 64, 64)
            r1 = float(rng.uniform(1.0, 1.5))
            r2 = float(rng.uniform(r1, 2.0))
            assert enlarge(b, r2, 64, 64).contains(enlarge(b, r1, 64, 64))


class TestRing:
    def test_ring_pixel_count(self):
        r = ring(Box(10, 10, 30, 50), 1.2, 100, 100)
        assert r.outer == Box(8, 6, 32, 54)
        assert r.inner == Box(10, 10, 30, 50)
        assert r.pixel_count == 24 * 48 - 20 * 40 == 352

    def test_full_image_box_has_empty_ring(self):
        r = ring(Box(0, 0, 100, 100), 1.2, 100, 100)
        assert r.is_empty

    def test_identity_ratio_has_empty_ring(self):
        assert ring(Box(10, 10, 30, 50), 1.0, 100, 100).is_empty

    def test_count_matches_pixel_enumeration(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            b = random_box(rng, 40, 40)
            r = ring(b, float(rng.uniform(1.0, 1.8)), 40, 40)
            enumerated = pixels_inside(r.outer, 40, 40) - pixels_inside(r.inner, 40, 40)
            assert r.pixel_count == len(enumerated)

    @settings(max_examples=200, deadline=None)
    @given(wh_box=image_and_box(max_side=40), ratio=RATIOS)
    def test_count_is_area_difference_and_the_kernels_ring_size(self, wh_box, ratio):
        w, h, b = wh_box
        r = ring(b, ratio, w, h)
        assert r.pixel_count == r.outer.area - r.inner.area >= 0
        m = ConfMap(class_id=1, values=np.zeros((h, w)))
        _, [(sizes, _)] = _score_boxes(m, [b], [ratio], [0.5])
        assert sizes == [r.pixel_count]

    def test_inner_must_be_contained(self):
        with pytest.raises(ValueError):
            RingRegion(outer=Box(0, 0, 5, 5), inner=Box(3, 3, 8, 8))
