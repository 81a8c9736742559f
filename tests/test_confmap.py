import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightbox.confmap import ConfMap, build_integral
from tightbox.geometry import Box, ring
from tightbox.scoring import ScoringConfig, _gather_ring, score_batch


def naive_box_sum(values, b):
    total = 0.0
    for y in range(b.y0, b.y1):
        for x in range(b.x0, b.x1):
            total += float(values[y, x])
    return total


def table_box_sum(t, b):
    """The 4-corner query of the summed-area table."""
    return float(t[b.y1, b.x1] - t[b.y0, b.x1] - t[b.y1, b.x0] + t[b.y0, b.x0])


def box_mean(m, b):
    """The box mean as the scorer reports it: p_inside at ratio 1."""
    return score_batch(m, [b], ScoringConfig(enlarge_ratio=1.0))[0].p_inside


def gather(m, r):
    """Ring pixels as the scoring kernel gathers them."""
    o, i = r.outer, r.inner
    return _gather_ring(m.values, o.x0, o.y0, o.x1, o.y1,
                        i.x0, i.y0, i.x1, i.y1)


def mask_ring_values(m, r):
    """Reference: ring pixels picked by a boolean mask, in row-major order."""
    o, i = r.outer, r.inner
    in_ring = np.zeros(m.values.shape, dtype=bool)
    in_ring[o.y0:o.y1, o.x0:o.x1] = True
    in_ring[i.y0:i.y1, i.x0:i.x1] = False
    return m.values[in_ring]


def strip_ring_values(m, r):
    """Reference: ring pixels read one by one, strip by strip (top,
    bottom, left, right), each strip row-major."""
    o, i = r.outer, r.inner
    strips = [(o.x0, o.y0, o.x1, i.y0), (o.x0, i.y1, o.x1, o.y1),
              (o.x0, i.y0, i.x0, i.y1), (i.x1, i.y0, o.x1, i.y1)]
    return [float(m.values[y, x]) for x0, y0, x1, y1 in strips
            for y in range(y0, y1) for x in range(x0, x1)]


class TestConfMap:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            ConfMap(class_id=1, values=np.array([[0.5, 1.5]]))
        with pytest.raises(ValueError):
            ConfMap(class_id=1, values=np.array([[-0.1, 0.5]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ConfMap(class_id=1, values=np.array([[np.nan, 0.5]]))

    def test_values_are_read_only(self):
        m = ConfMap(class_id=1, values=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 1.0

    def test_dimensions(self):
        m = ConfMap(class_id=1, values=np.zeros((3, 5)))
        assert (m.width, m.height) == (5, 3)


class TestIntegralImage:
    def test_is_read_only_float64_table(self):
        m = ConfMap(class_id=0, values=np.ones((3, 5)))
        t = build_integral(m)
        assert isinstance(t, np.ndarray)
        assert (t.shape, t.dtype) == ((4, 6), np.float64)
        assert not t.flags.writeable

    def test_all_ones_full_sum(self):
        m = ConfMap(class_id=0, values=np.ones((2, 2)))
        assert table_box_sum(build_integral(m), Box(0, 0, 2, 2)) == 4.0

    def test_single_pixel_query(self):
        m = ConfMap(class_id=0, values=np.array([[0.5, 0.0], [0.0, 0.5]]))
        t = build_integral(m)
        assert table_box_sum(t, Box(0, 0, 1, 1)) == 0.5
        assert table_box_sum(t, Box(1, 1, 2, 2)) == 0.5

    def test_table_monotone_along_rows_and_columns(self):
        rng = np.random.default_rng(21)
        m = ConfMap(class_id=0, values=rng.random((32, 48)))
        t = build_integral(m)
        assert np.all(np.diff(t, axis=0) >= 0)
        assert np.all(np.diff(t, axis=1) >= 0)

    def test_matches_naive_sum_on_random_boxes(self):
        rng = np.random.default_rng(22)
        m = ConfMap(class_id=0, values=rng.random((64, 64)))
        t = build_integral(m)
        for _ in range(1000):
            x0 = int(rng.integers(0, 63)); y0 = int(rng.integers(0, 63))
            x1 = int(rng.integers(x0 + 1, 65)); y1 = int(rng.integers(y0 + 1, 65))
            b = Box(x0, y0, x1, y1)
            assert table_box_sum(t, b) == pytest.approx(naive_box_sum(m.values, b), abs=1e-9)


class TestBoxMean:
    def test_uniform_map(self):
        m = ConfMap(class_id=0, values=np.full((8, 8), 0.5))
        assert box_mean(m, Box(1, 2, 5, 7)) == pytest.approx(0.5)

    def test_saturated_region(self):
        values = np.zeros((8, 8))
        values[2:6, 2:6] = 1.0
        assert box_mean(ConfMap(class_id=0, values=values), Box(2, 2, 6, 6)) == 1.0

    def test_pixel_index_map(self):
        values = np.arange(16, dtype=np.float64).reshape(4, 4) / 16
        m = ConfMap(class_id=0, values=values)
        # pixels (1,1),(2,1),(1,2),(2,2) -> indices 5,6,9,10; mean 30/64
        assert box_mean(m, Box(1, 1, 3, 3)) == pytest.approx(0.46875)

    def test_in_unit_interval_for_random_boxes(self):
        rng = np.random.default_rng(23)
        m = ConfMap(class_id=0, values=rng.random((32, 32)))
        for _ in range(300):
            x0 = int(rng.integers(0, 31)); y0 = int(rng.integers(0, 31))
            b = Box(x0, y0, int(rng.integers(x0 + 1, 33)), int(rng.integers(y0 + 1, 33)))
            assert 0.0 <= box_mean(m, b) <= 1.0

    def test_rejects_out_of_bounds(self):
        m = ConfMap(class_id=0, values=np.zeros((4, 4)))
        with pytest.raises(ValueError):
            box_mean(m, Box(0, 0, 5, 4))


class TestRingValues:
    def test_empty_ring_gives_empty_sequence(self):
        m = ConfMap(class_id=0, values=np.zeros((8, 8)))
        r = ring(Box(0, 0, 8, 8), 1.2, 8, 8)
        assert gather(m, r).size == 0

    def test_uniform_border(self):
        m = ConfMap(class_id=0, values=np.full((4, 4), 0.3))
        r = ring(Box(1, 1, 3, 3), 2.0, 4, 4)
        vals = gather(m, r)
        assert vals.size == 12
        assert np.all(vals == np.float32(0.3))

    def test_strip_scan_order(self):
        # top strip, bottom strip, then the left and right columns
        values = np.arange(16, dtype=np.float64).reshape(4, 4) / 16
        m = ConfMap(class_id=0, values=values)
        r = ring(Box(1, 1, 3, 3), 2.0, 4, 4)
        got = gather(m, r) * 16
        assert got.tolist() == [0, 1, 2, 3, 12, 13, 14, 15, 4, 8, 7, 11]
        assert sorted(got.tolist()) == (mask_ring_values(m, r) * 16).tolist()

    def test_length_always_matches_area_difference(self):
        rng = np.random.default_rng(24)
        m = ConfMap(class_id=0, values=rng.random((24, 24)))
        for _ in range(300):
            x0 = int(rng.integers(0, 23)); y0 = int(rng.integers(0, 23))
            b = Box(x0, y0, int(rng.integers(x0 + 1, 25)), int(rng.integers(y0 + 1, 25)))
            r = ring(b, float(rng.uniform(1.0, 1.6)), 24, 24)
            assert gather(m, r).size == r.pixel_count

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), w=st.integers(1, 24), h=st.integers(1, 24),
           ratio=st.floats(1.0, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_gather_equals_boolean_mask_as_multiset(self, data, w, h, ratio, seed):
        x0 = data.draw(st.integers(0, w - 1))
        y0 = data.draw(st.integers(0, h - 1))
        b = Box(x0, y0, data.draw(st.integers(x0 + 1, w)),
                data.draw(st.integers(y0 + 1, h)))
        # distinct values, so equal sorted sequences mean equal pixel sets
        values = np.random.default_rng(seed).permutation(w * h).reshape(h, w)
        m = ConfMap(class_id=0, values=values / (w * h))
        r = ring(b, ratio, w, h)
        got = gather(m, r)
        assert got.size == r.pixel_count
        assert np.array_equal(np.sort(got), np.sort(mask_ring_values(m, r)))
        # and in strip order, which keeps every sum over the ring's bits;
        # a ring clipped at an image edge has empty strips
        assert got.tolist() == strip_ring_values(m, r)
