"""Round trips through every file format, and fuzzed bytes into every reader.

A reader given bytes it cannot decode raises its own typed error and
nothing else. Each failure these properties found is kept as an
``@example``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tightbox.confmap import ConfMap
from tightbox.errors import MalformedFileError, ParseError
from tightbox.geometry import Box
from tightbox.io_formats import (BoxRecord, GtRecord, ScoredRecord, read_boxes,
                                 read_confmap, read_ground_truth, read_mask,
                                 read_scored, write_boxes, write_confmap_pgm,
                                 write_confmap_raw, write_ground_truth,
                                 write_pgm, write_scored)

PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))
unit_maps = shapes.flatmap(lambda shape: arrays(
    np.float32, shape, elements=st.floats(-0.0, 1.0, width=32)))
image_ids = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
class_ids = st.integers(-2**40, 2**40)
boxes = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
                  st.integers(0, 4096), st.integers(0, 4096),
                  st.integers(1, 4096), st.integers(1, 4096))
unit = st.floats(0.0, 1.0)
finite = st.floats(allow_nan=False, allow_infinity=False)


def nine_digits(x: float) -> float:
    """What a CSV column written at 9 significant digits reads back as."""
    return float(f"{x:.9g}")


def mutations(valid: bytes):
    """``valid`` truncated, with bytes overwritten, or spliced with noise."""
    n = len(valid)
    return st.one_of(
        st.integers(0, n).map(lambda cut: valid[:cut]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)),
                 min_size=1, max_size=4).map(
            lambda edits: _overwrite(valid, edits)),
        st.tuples(st.integers(0, n), st.binary(max_size=16)).map(
            lambda ins: valid[:ins[0]] + ins[1] + valid[ins[0]:]))


def _overwrite(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for pos, byte in edits:
        out[pos] = byte
    return bytes(out)


# ---------------------------------------------------------------------------
# round trips

class TestMapRoundTrips:
    @PROPERTY
    @given(values=unit_maps, class_id=st.integers(0, 2**32 - 1))
    def test_tscf_is_bit_exact(self, tmp_path, values, class_id):
        path = tmp_path / "m.tscf"
        write_confmap_raw(ConfMap(class_id=class_id, values=values), path)
        back = read_confmap(path, class_id=7)
        assert back.class_id == class_id
        assert np.array_equal(back.values.view(np.uint32), values.view(np.uint32))

    @PROPERTY
    @given(values=unit_maps, maxval=st.sampled_from([255, 65535]),
           class_id=st.integers(0, 254))
    def test_pgm_quantizes_to_the_nearest_code(self, tmp_path, values, maxval,
                                               class_id):
        path = tmp_path / "m.pgm"
        write_confmap_pgm(ConfMap(class_id=0, values=values), path, maxval=maxval)
        back = read_confmap(path, class_id=class_id)
        assert back.class_id == class_id
        codes = np.rint(values.astype(np.float64) * maxval)
        assert np.array_equal(back.values, (codes / maxval).astype(np.float32))
        assert np.all(np.abs(back.values.astype(np.float64) - values)
                      <= 0.5 / maxval + 1e-7)
        again = tmp_path / "again.pgm"
        write_confmap_pgm(back, again, maxval=maxval)
        assert again.read_bytes() == path.read_bytes()

    @PROPERTY
    @given(labels=shapes.flatmap(lambda shape: arrays(np.uint8, shape)))
    def test_mask_codes_are_exact(self, tmp_path, labels):
        path = tmp_path / "mask.pgm"
        write_pgm(labels, path)
        assert np.array_equal(read_mask(path).labels, labels)


class TestCsvRoundTrips:
    @PROPERTY
    @given(rows=st.lists(st.tuples(image_ids, class_ids, boxes), max_size=6),
           scores=st.none() | st.lists(st.floats(allow_nan=False), min_size=6,
                                       max_size=6))
    @example(rows=[("a\rb", 1, Box(0, 0, 1, 1))], scores=None)
    def test_boxes(self, tmp_path, rows, scores):
        records = [BoxRecord(image_id=i, class_id=c, box=b,
                             score=None if scores is None else scores[n])
                   for n, (i, c, b) in enumerate(rows)]
        path = tmp_path / "proposals.csv"
        write_boxes(records, path)
        expected = [BoxRecord(r.image_id, r.class_id, r.box,
                              None if r.score is None else nine_digits(r.score))
                    for r in records]
        assert read_boxes(path) == expected

    @PROPERTY
    @given(rows=st.lists(st.tuples(image_ids, class_ids, boxes, st.booleans()),
                         max_size=6))
    @example(rows=[("\r", 0, Box(0, 0, 1, 1), False)])
    def test_ground_truth(self, tmp_path, rows):
        records = [GtRecord(image_id=i, class_id=c, box=b, ignore=g)
                   for i, c, b, g in rows]
        path = tmp_path / "gt.csv"
        write_ground_truth(records, path)
        assert read_ground_truth(path) == records

    @PROPERTY
    @given(rows=st.lists(st.tuples(image_ids, class_ids, boxes, unit, unit,
                                   finite), max_size=6))
    @example(rows=[("x\r", 3, Box(1, 2, 3, 4), 0.5, 0.25, 0.25)])
    def test_scored(self, tmp_path, rows):
        records = [ScoredRecord(image_id=i, class_id=c, box=b, p_inside=p,
                                p_surround=s, objectness=o)
                   for i, c, b, p, s, o in rows]
        path = tmp_path / "scored.csv"
        write_scored(records, path)
        assert read_scored(path) == [
            ScoredRecord(r.image_id, r.class_id, r.box, nine_digits(r.p_inside),
                         nine_digits(r.p_surround), nine_digits(r.objectness))
            for r in records]


# ---------------------------------------------------------------------------
# fuzzed bytes

def _valid_tscf() -> bytes:
    values = np.linspace(0.0, 1.0, 12, dtype=np.float32).reshape(3, 4)
    return (b"TSCF" + (4).to_bytes(4, "little") + (3).to_bytes(4, "little")
            + (5).to_bytes(4, "little") + values.astype("<f4").tobytes())


VALID_TSCF = _valid_tscf()
VALID_PGM8 = b"P5\n# c\n4 3\n255\n" + bytes(range(0, 240, 20))
VALID_PGM16 = b"P5\n2 2\n65535\n" + bytes(range(8))
VALID_CSV = {
    "boxes": b"image_id,class_id,x0,y0,x1,y1,score\ni,1,0,0,2,2,0.5\n"
             b"i,2,1,1,3,4,0.25\n",
    "gt": b"image_id,class_id,x0,y0,x1,y1,ignore_flag\ni,1,0,0,2,2,0\n"
          b"\"j\",1,1,1,3,4,1\n",
    "scored": b"image_id,class_id,x0,y0,x1,y1,p_inside,p_surround,objectness\n"
              b"i,1,0,0,2,2,0.5,0.25,0.25\ni,1,1,1,3,4,1,0,1\n",
}
CSV_READERS = {"boxes": read_boxes, "gt": read_ground_truth, "scored": read_scored}


def map_bytes():
    return st.one_of(st.binary(max_size=64),
                     st.binary(max_size=48).map(lambda b: b"TSCF" + b),
                     st.binary(max_size=48).map(lambda b: b"P5" + b),
                     mutations(VALID_TSCF), mutations(VALID_PGM8),
                     mutations(VALID_PGM16))


class TestFuzzedBytes:
    @PROPERTY
    @given(data=map_bytes())
    def test_read_confmap_raises_only_malformed_file(self, tmp_path, data):
        path = tmp_path / "m.bin"
        path.write_bytes(data)
        try:
            m = read_confmap(path)
        except MalformedFileError as exc:
            assert exc.path == str(path)
        else:
            assert m.values.size >= 1

    @PROPERTY
    @given(data=map_bytes())
    def test_read_mask_raises_only_malformed_file(self, tmp_path, data):
        path = tmp_path / "mask.pgm"
        path.write_bytes(data)
        try:
            mask = read_mask(path)
        except MalformedFileError as exc:
            assert exc.path == str(path)
        else:
            assert mask.labels.dtype == np.uint8

    @PROPERTY
    @given(case=st.sampled_from(sorted(CSV_READERS)).flatmap(
        lambda kind: st.tuples(st.just(kind), st.one_of(
            st.binary(max_size=64),
            st.text(max_size=64).map(
                lambda t: t.encode("utf-8", "surrogatepass")),
            mutations(VALID_CSV[kind])))))
    @example(case=("boxes", b"\x80"))
    @example(case=("gt", b"\x80"))
    @example(case=("scored", b"\x80"))
    def test_csv_readers_raise_only_parse_error(self, tmp_path, case):
        kind, raw = case
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(raw)
        try:
            rows = CSV_READERS[kind](path)
        except ParseError as exc:
            assert exc.path == str(path) and exc.failures
        else:
            assert all(r.box.area >= 1 for r in rows)

    @pytest.mark.parametrize("kind", sorted(CSV_READERS))
    def test_field_over_the_csv_size_limit_is_a_parse_error(self, tmp_path, kind):
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(VALID_CSV[kind] + b"i," + b"9" * 200_000 + b"\n")
        with pytest.raises(ParseError, match="line 4: field larger than"):
            CSV_READERS[kind](path)

    @pytest.mark.parametrize("kind", sorted(CSV_READERS))
    def test_undecodable_byte_is_a_parse_error_naming_its_line(self, tmp_path,
                                                               kind):
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(VALID_CSV[kind].replace(b"\ni,", b"\n\xffi,", 1))
        with pytest.raises(ParseError) as exc:
            CSV_READERS[kind](path)
        (line, message), = exc.value.failures
        assert line == 2 and message.startswith("byte 0xff at offset")

