import json
import struct

import numpy as np
import pytest

from tightbox.confmap import ConfMap
from tightbox.errors import BundleValidationError, MalformedFileError, ParseError
from tightbox.geometry import Box
from tightbox.io_formats import (BoxRecord, GtRecord, ScoredRecord,
                                 read_boxes, read_bundle, read_confmap,
                                 read_corpus, read_ground_truth, read_mask,
                                 read_scored, write_boxes, write_bundle,
                                 write_confmap_pgm, write_confmap_raw,
                                 write_ground_truth, write_json, write_mask,
                                 write_pgm, write_scored)
from tightbox.pseudomask import IGNORE, PseudoMask


class TestRawFloatFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(81)
        m = ConfMap(class_id=7, values=rng.random((3, 2), dtype=np.float32))
        path = tmp_path / "map.tscf"
        write_confmap_raw(m, path)
        back = read_confmap(path)
        assert back.class_id == 7
        assert np.array_equal(back.values, m.values)
        # writing the read-back map reproduces the file byte for byte
        write_confmap_raw(back, tmp_path / "map2.tscf")
        assert (tmp_path / "map2.tscf").read_bytes() == path.read_bytes()

    def test_header_is_sixteen_bytes_little_endian(self, tmp_path):
        m = ConfMap(class_id=3, values=np.zeros((4, 5), dtype=np.float32))
        path = tmp_path / "m.tscf"
        write_confmap_raw(m, path)
        raw = path.read_bytes()
        assert raw[:4] == b"TSCF"
        assert struct.unpack("<III", raw[4:16]) == (5, 4, 3)
        assert len(raw) == 16 + 20 * 4

    def test_truncated_file_is_rejected_without_partial_map(self, tmp_path):
        m = ConfMap(class_id=1, values=np.zeros((8, 8), dtype=np.float32))
        path = tmp_path / "m.tscf"
        write_confmap_raw(m, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(MalformedFileError) as exc:
            read_confmap(path)
        assert exc.value.code == "truncated"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.tscf"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(MalformedFileError) as exc:
            read_confmap(path)
        assert exc.value.code == "bad_header"

    def test_out_of_range_values_rejected(self, tmp_path):
        path = tmp_path / "m.tscf"
        header = b"TSCF" + struct.pack("<III", 2, 1, 0)
        payload = np.array([0.5, 1.5], dtype="<f4").tobytes()
        path.write_bytes(header + payload)
        with pytest.raises(MalformedFileError) as exc:
            read_confmap(path)
        assert exc.value.code == "out_of_range"

    def test_implausible_dimensions_rejected(self, tmp_path):
        path = tmp_path / "m.tscf"
        path.write_bytes(b"TSCF" + struct.pack("<III", 0, 4, 0))
        with pytest.raises(MalformedFileError) as exc:
            read_confmap(path)
        assert exc.value.code == "dimension_overflow"


class TestPgmFormat:
    def test_eight_bit_quantized_round_trip(self, tmp_path):
        values = np.array([[0, 128, 255]], dtype=np.float64) / 255
        m = ConfMap(class_id=0, values=values)
        path = tmp_path / "m.pgm"
        write_confmap_pgm(m, path)
        back = read_confmap(path, class_id=4)
        assert back.class_id == 4
        assert back.values[0, 1] == np.float32(128 / 255)
        write_confmap_pgm(back, tmp_path / "m2.pgm")
        assert (tmp_path / "m2.pgm").read_bytes() == path.read_bytes()

    def test_sixteen_bit_maxval(self, tmp_path):
        rng = np.random.default_rng(82)
        m = ConfMap(class_id=0, values=rng.random((6, 4), dtype=np.float32))
        path = tmp_path / "m.pgm"
        write_confmap_pgm(m, path, maxval=65535)
        back = read_confmap(path)
        assert np.max(np.abs(back.values.astype(np.float64)
                             - m.values.astype(np.float64))) <= 0.5 / 65535 + 1e-9
        write_confmap_pgm(back, tmp_path / "m2.pgm", maxval=65535)
        assert (tmp_path / "m2.pgm").read_bytes() == path.read_bytes()

    def test_comments_in_header_are_skipped(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x10\x20")
        m = read_confmap(path)
        assert m.values[0, 0] == np.float32(0x10 / 255)

    def test_random_payload_round_trips_at_quantization(self, tmp_path):
        rng = np.random.default_rng(83)
        codes = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        header = b"P5\n7 5\n255\n"
        path = tmp_path / "m.pgm"
        path.write_bytes(header + codes.tobytes())
        m = read_confmap(path)
        write_confmap_pgm(m, tmp_path / "m2.pgm")
        assert (tmp_path / "m2.pgm").read_bytes() == header + codes.tobytes()

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(MalformedFileError) as exc:
            read_confmap(path)
        assert exc.value.code == "truncated"

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(MalformedFileError):
            read_confmap(path)

    @pytest.mark.parametrize("dtype,maxval", [("u1", 255), (">u2", 65535)])
    def test_write_pgm_round_trip(self, tmp_path, dtype, maxval):
        rng = np.random.default_rng(86)
        codes = rng.integers(0, maxval + 1, size=(3, 5)).astype(dtype)
        path = tmp_path / "codes.pgm"
        write_pgm(codes, path)
        assert path.read_bytes() == (f"P5\n5 3\n{maxval}\n".encode()
                                     + codes.tobytes())
        back = read_confmap(path, class_id=2)
        assert back.class_id == 2
        assert np.array_equal(back.values, (codes / maxval).astype(np.float32))
        if maxval == 255:
            assert np.array_equal(read_mask(path).labels, codes)
        else:
            with pytest.raises(MalformedFileError, match="maxval 255"):
                read_mask(path)

    def test_write_pgm_rejects_other_dtypes(self, tmp_path):
        with pytest.raises(ValueError, match="<u2"):
            write_pgm(np.zeros((2, 2), dtype="<u2"), tmp_path / "m.pgm")
        assert not (tmp_path / "m.pgm").exists()


class TestMaskFiles:
    def test_codes_pass_through_unnormalized(self, tmp_path):
        labels = np.array([[0, 1, 20], [IGNORE, 3, 0]], dtype=np.uint8)
        path = tmp_path / "mask.pgm"
        write_mask(PseudoMask(labels=labels), path)
        back = read_mask(path)
        assert np.array_equal(back.labels, labels)


class TestBoxCsv:
    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("image_id,class_id,x0,y0,x1,y1\n")
        assert read_boxes(path) == []

    def test_simple_row(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("image_id,class_id,x0,y0,x1,y1\nimg1,3,10,10,30,50\n")
        assert read_boxes(path) == [
            BoxRecord(image_id="img1", class_id=3, box=Box(10, 10, 30, 50))]

    def test_score_column_round_trip(self, tmp_path):
        records = [BoxRecord("i1", 2, Box(0, 0, 4, 4), 0.123456789),
                   BoxRecord("i2", 3, Box(1, 2, 3, 4), 0.5)]
        path = tmp_path / "b.csv"
        write_boxes(records, path)
        assert read_boxes(path) == records

    def test_scoreless_round_trip(self, tmp_path):
        records = [BoxRecord("i1", 2, Box(0, 0, 4, 4))]
        path = tmp_path / "b.csv"
        write_boxes(records, path)
        assert read_boxes(path) == records

    def test_mixed_scores_rejected_naming_unscored_positions(self, tmp_path):
        records = [BoxRecord("i", 1, Box(0, 0, 1, 1), 0.5),
                   BoxRecord("i", 1, Box(0, 0, 2, 2)),
                   BoxRecord("i", 1, Box(0, 0, 3, 3), 0.25),
                   BoxRecord("i", 1, Box(0, 0, 4, 4))]
        path = tmp_path / "b.csv"
        with pytest.raises(ValueError, match=r"positions \[1, 3\] have no score"):
            write_boxes(records, path)
        assert not path.exists()

    def test_degenerate_box_reports_line_number(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("image_id,class_id,x0,y0,x1,y1\n"
                        "img1,1,0,0,4,4\n"
                        "img1,1,5,0,5,4\n")
        with pytest.raises(ParseError) as exc:
            read_boxes(path)
        assert exc.value.failures[0][0] == 3

    def test_all_bad_rows_reported_not_just_first(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("image_id,class_id,x0,y0,x1,y1\n"
                        "img1,1,5,0,5,4\n"
                        "img1,x,0,0,4,4\n"
                        "img1,1,0,0,4\n")
        with pytest.raises(ParseError) as exc:
            read_boxes(path)
        assert [n for n, _ in exc.value.failures] == [2, 3, 4]

    def test_quoted_newline_does_not_shift_named_lines(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text('image_id,class_id,x0,y0,x1,y1\n"a\nb",1,0,0,2,2\n'
                        "i,1,5,5,2,2\n")
        with pytest.raises(ParseError) as exc:
            read_boxes(path)
        assert [n for n, _ in exc.value.failures] == [4]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("img1,1,0,0,4,4\n")
        with pytest.raises(ParseError):
            read_boxes(path)


class TestGtCsv:
    def test_round_trip_with_ignore_flag(self, tmp_path):
        records = [GtRecord("i1", 1, Box(0, 0, 4, 4), False),
                   GtRecord("i1", 2, Box(1, 1, 5, 5), True)]
        path = tmp_path / "gt.csv"
        write_ground_truth(records, path)
        assert read_ground_truth(path) == records

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("image_id,class_id,x0,y0,x1,y1,ignore_flag\n"
                        "i1,1,0,0,4,4,2\n")
        with pytest.raises(ParseError):
            read_ground_truth(path)


class TestScoredCsv:
    def test_round_trip_at_nine_significant_digits(self, tmp_path):
        records = [ScoredRecord("i1", 1, Box(0, 0, 4, 4),
                                p_inside=0.123456789123, p_surround=0.1,
                                objectness=0.023456789123)]
        path = tmp_path / "s.csv"
        write_scored(records, path)
        back = read_scored(path)
        assert back[0].p_inside == pytest.approx(0.123456789123, abs=1e-9)
        text = path.read_text().splitlines()
        assert text[0] == "image_id,class_id,x0,y0,x1,y1,p_inside,p_surround,objectness"
        assert "0.123456789" in text[1]

    @pytest.mark.parametrize("numbers,problem", [
        ("0.5,0.1,nan", "objectness must be finite, got nan"),
        ("0.5,0.1,inf", "objectness must be finite, got inf"),
        ("nan,0.1,0.4", "p_inside must be in [0, 1], got nan"),
        ("7.5,0.1,7.4", "p_inside must be in [0, 1], got 7.5"),
        ("0.5,-0.25,0.75", "p_surround must be in [0, 1], got -0.25"),
        ("0.5,inf,-inf", "p_surround must be in [0, 1], got inf")],
        ids=["objectness-nan", "objectness-inf", "p_inside-nan", "p_inside-7.5",
             "p_surround-negative", "p_surround-inf"])
    def test_invalid_numbers_rejected(self, tmp_path, numbers, problem):
        path = tmp_path / "s.csv"
        path.write_text("image_id,class_id,x0,y0,x1,y1,p_inside,p_surround,objectness\n"
                        "a,1,0,0,2,2,0.5,0.25,0.25\n"
                        f"a,1,0,0,2,2,{numbers}\n")
        with pytest.raises(ParseError) as err:
            read_scored(path)
        assert err.value.failures == [(3, problem)]

    def test_rows_checked_against_maps_by_file_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("image_id,class_id,x0,y0,x1,y1,p_inside,p_surround,objectness\n"
                        "a,1,0,0,2,2,0.5,0.25,0.25\n"
                        "\n"
                        "a,1,0,0,9,2,0.5,0.25,0.25\n"
                        "a,2,0,0,2,2,0.5,0.25,0.25\n"
                        "b,1,0,0,2,2,0.5,0.25,0.25\n")
        maps = {"a": {1: ConfMap(class_id=1, values=np.zeros((4, 4)))}}
        assert len(read_scored(path)) == 4
        with pytest.raises(ParseError) as err:
            read_scored(path, maps=maps)
        assert err.value.failures == [
            (4, "box (0, 0, 9, 2) exceeds image 'a' of 4x4"),
            (5, "no bundle of the corpus has image 'a' with a map of class 2"),
            (6, "no bundle of the corpus has image 'b' with a map of class 1")]


@pytest.mark.parametrize("reader,header,fields", [
    (read_boxes, "image_id,class_id,x0,y0,x1,y1", 6),
    (read_boxes, "image_id,class_id,x0,y0,x1,y1,score", 7),
    (read_ground_truth, "image_id,class_id,x0,y0,x1,y1,ignore_flag", 7),
    (read_scored, "image_id,class_id,x0,y0,x1,y1,p_inside,p_surround,"
                  "objectness", 9)])
def test_field_count_is_checked_against_the_header(tmp_path, reader, header,
                                                   fields):
    path = tmp_path / "rows.csv"
    path.write_text(f"{header}\ni,1,0,0,2\n\ni,1" + ",0" * fields + "\n")
    with pytest.raises(ParseError) as exc:
        reader(path)
    assert exc.value.failures == [(2, f"expected {fields} fields, got 5"),
                                  (4, f"expected {fields} fields, got "
                                      f"{fields + 2}")]


class TestBundles:
    def make_bundle(self, tmp_path, with_proposals=True):
        rng = np.random.default_rng(84)
        maps = {1: ConfMap(class_id=1, values=rng.random((16, 16))),
                3: ConfMap(class_id=3, values=rng.random((16, 16)))}
        gt = [(1, Box(2, 2, 10, 10)), (3, Box(5, 5, 12, 12))]
        proposals = [(1, Box(2, 2, 9, 9)), (3, Box(4, 4, 12, 12))] \
            if with_proposals else None
        return write_bundle(tmp_path / "scene", "scene", maps, gt,
                            proposals=proposals)

    def test_written_bundle_validates_clean(self, tmp_path):
        path = self.make_bundle(tmp_path)
        bundle = read_bundle(path)
        assert bundle.image_id == "scene"
        assert sorted(bundle.maps) == [1, 3]
        assert len(bundle.gt) == 2
        assert len(bundle.proposals) == 2
        assert bundle.warnings == ()

    def test_gt_rows_load_as_instances_with_ignore_flag(self, tmp_path):
        path = self.make_bundle(tmp_path)
        (path / "gt.csv").write_text(
            "image_id,class_id,x0,y0,x1,y1,ignore_flag\n"
            "scene,1,2,2,10,10,0\n"
            "scene,3,5,5,12,12,1\n")
        assert read_bundle(path).gt == (
            GtRecord("scene", 1, Box(2, 2, 10, 10)),
            GtRecord("scene", 3, Box(5, 5, 12, 12), ignore=True))

    def test_out_of_bounds_gt_box_named_in_failure(self, tmp_path):
        path = self.make_bundle(tmp_path)
        gt_path = path / "gt.csv"
        gt_path.write_text("image_id,class_id,x0,y0,x1,y1,ignore_flag\n"
                           "scene,1,0,0,20,10,0\n")
        with pytest.raises(BundleValidationError) as exc:
            read_bundle(path)
        assert any("gt.csv: line 2: box (0, 0, 20, 10) exceeds image 16x16" in f
                   for f in exc.value.failures)

    @pytest.mark.parametrize("name,header,good", [
        ("gt.csv", "image_id,class_id,x0,y0,x1,y1,ignore_flag", ",0"),
        ("proposals.csv", "image_id,class_id,x0,y0,x1,y1", "")])
    def test_bad_rows_named_by_file_line(self, tmp_path, name, header, good):
        # a blank line 3 must not shift the line numbers of later rows
        path = self.make_bundle(tmp_path)
        (path / name).write_text(f"{header}\n"
                                 f"scene,1,2,2,9,9{good}\n"
                                 "\n"
                                 f"scene,1,0,0,20,10{good}\n"
                                 f"scene,3,4,4,12,12{good}\n"
                                 f"other_image,3,4,4,12,12{good}\n")
        with pytest.raises(BundleValidationError) as exc:
            read_bundle(path)
        assert exc.value.failures == [
            f"{path / name}: line 4: box (0, 0, 20, 10) exceeds image 16x16; "
            f"line 6: image_id 'other_image' is not the bundle's image 'scene'"]

    def test_rows_of_another_image_rejected(self, tmp_path):
        path = self.make_bundle(tmp_path)
        for name in ("gt.csv", "proposals.csv"):
            f = path / name
            f.write_text(f.read_text().replace("scene,", "other_image,"))
        with pytest.raises(BundleValidationError) as exc:
            read_bundle(path)
        problem = "image_id 'other_image' is not the bundle's image 'scene'"
        assert exc.value.failures == [
            f"{path / name}: line 2: {problem}; line 3: {problem}"
            for name in ("gt.csv", "proposals.csv")]

    def test_unknown_extra_file_is_a_warning_not_an_error(self, tmp_path):
        path = self.make_bundle(tmp_path)
        (path / "notes.txt").write_text("scratch")
        bundle = read_bundle(path)
        assert any("notes.txt" in w for w in bundle.warnings)

    def test_missing_map_and_bad_gt_both_reported(self, tmp_path):
        path = self.make_bundle(tmp_path)
        (path / "class_001.tscf").unlink()
        (path / "gt.csv").write_text(
            "image_id,class_id,x0,y0,x1,y1,ignore_flag\nscene,1,0,0,99,10,0\n")
        with pytest.raises(BundleValidationError) as exc:
            read_bundle(path)
        text = "\n".join(exc.value.failures)
        assert "class_001.tscf" in text and "gt.csv" in text

    @pytest.mark.parametrize("edit,field", [
        (lambda meta: [], "top level"),
        (lambda meta: {**meta, "map_files": ["a"]}, "map_files"),
        (lambda meta: {**meta, "map_files": {"1": 5}}, "map_files"),
        (lambda meta: {**meta, "map_files": {"one": "class_001.tscf"}},
         "map_files"),
        (lambda meta: {**meta, "map_files": {"1" * 5000: "class_001.tscf"}},
         "map_files"),
        (lambda meta: {**meta, "width": "a"}, "width"),
        (lambda meta: {**meta, "height": None}, "height"),
        (lambda meta: {**meta, "image_id": 7}, "image_id"),
        (lambda meta: {**meta, "has_proposals": "yes"}, "has_proposals"),
        (lambda meta: {**meta, "has_proposals": 1}, "has_proposals"),
        (lambda meta: {**meta, "has_proposals": None}, "has_proposals"),
        (lambda meta: {**meta, "format_version": True}, "format_version"),
        (lambda meta: {**meta, "format_version": 1.0}, "format_version")],
        ids=["top-level-list", "map-files-list", "map-file-int",
             "class-id-word", "class-id-5000-digits", "width-string",
             "height-null", "image-id-int", "has-proposals-string",
             "has-proposals-int", "has-proposals-null",
             "format-version-true", "format-version-float"])
    def test_malformed_spec_field_named_in_failure(self, tmp_path, edit, field):
        path = self.make_bundle(tmp_path)
        spec = path / "spec.json"
        spec.write_text(json.dumps(edit(json.loads(spec.read_text()))))
        with pytest.raises(BundleValidationError) as exc:
            read_bundle(path)
        assert any(f.startswith(f"spec.json: {field}") for f in exc.value.failures)

    def test_two_map_files_keys_of_one_class_rejected_naming_both(self,
                                                                  tmp_path):
        # "1" and "01" both parse to class 1: loading either one alone
        # would silently drop the other map
        path = self.make_bundle(tmp_path)
        write_confmap_raw(ConfMap(class_id=1, values=np.zeros((16, 16))),
                          path / "other.tscf")
        spec = path / "spec.json"
        meta = json.loads(spec.read_text())
        for extra in ({"01": "other.tscf"},
                      {"1": "other.tscf", "01": "class_001.tscf"}):
            spec.write_text(json.dumps({
                **meta, "map_files": {**meta["map_files"], **extra}}))
            with pytest.raises(BundleValidationError) as exc:
                read_bundle(path)
            assert exc.value.failures == [
                "spec.json: map_files keys '01' and '1' both name class 1"]

    def test_map_file_outside_the_bundle_rejected_naming_its_key(self,
                                                                  tmp_path):
        # a same-class, same-size map of a sibling bundle would load
        # silently under a relative or an absolute path
        path = self.make_bundle(tmp_path / "a")
        sibling = self.make_bundle(tmp_path / "b") / "other.tscf"
        write_confmap_raw(ConfMap(class_id=1, values=np.zeros((16, 16))),
                          sibling)
        spec = path / "spec.json"
        meta = json.loads(spec.read_text())
        for fname in ("../../b/scene/other.tscf", str(sibling), "..", "."):
            spec.write_text(json.dumps({
                **meta, "map_files": {**meta["map_files"], "1": fname}}))
            with pytest.raises(BundleValidationError) as exc:
                read_bundle(path)
            assert exc.value.failures == [
                f"spec.json: map_files '1' must name a file in the bundle, "
                f"got {fname!r}"]

    def test_has_proposals_must_agree_with_proposals_csv(self, tmp_path):
        listed = self.make_bundle(tmp_path / "listed")
        (listed / "proposals.csv").unlink()
        unlisted = self.make_bundle(tmp_path / "unlisted", with_proposals=False)
        write_boxes([BoxRecord("scene", 1, Box(2, 2, 9, 9))],
                    unlisted / "proposals.csv")
        for path, failure in (
                (listed, "has_proposals is true but proposals.csv is missing"),
                (unlisted, "has_proposals is false but proposals.csv exists")):
            with pytest.raises(BundleValidationError) as exc:
                read_bundle(path)
            assert exc.value.failures == [f"spec.json: {failure}"]

    def test_spec_without_has_proposals_is_not_checked(self, tmp_path):
        for name, with_proposals in (("with", True), ("without", False)):
            path = self.make_bundle(tmp_path / name, with_proposals)
            spec = path / "spec.json"
            meta = json.loads(spec.read_text())
            del meta["has_proposals"]
            spec.write_text(json.dumps(meta))
            bundle = read_bundle(path)
            assert (bundle.proposals is not None) == with_proposals

    def test_missing_spec_json_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(BundleValidationError):
            read_bundle(tmp_path / "empty")

    def test_corpus_loading_sorted(self, tmp_path):
        for name in ("b_scene", "a_scene"):
            rng = np.random.default_rng(85)
            maps = {1: ConfMap(class_id=1, values=rng.random((8, 8)))}
            write_bundle(tmp_path / name, name, maps, [(1, Box(1, 1, 5, 5))])
        bundles = read_corpus(tmp_path)
        assert [b.image_id for b in bundles] == ["a_scene", "b_scene"]

    def test_duplicate_image_ids_rejected_naming_both_bundles(self, tmp_path):
        maps = {1: ConfMap(class_id=1, values=np.full((8, 8), 0.5))}
        for name, image_id in (("first", "same_scene"), ("second", "same_scene"),
                               ("third", "third")):
            write_bundle(tmp_path / name, image_id, maps, [(1, Box(1, 1, 5, 5))])
        with pytest.raises(BundleValidationError) as err:
            read_corpus(tmp_path)
        assert err.value.failures == [
            f"image id 'same_scene' given by both {tmp_path / 'first'} "
            f"and {tmp_path / 'second'}"]

    def test_single_bundle_directory_loads(self, tmp_path):
        path = self.make_bundle(tmp_path)
        bundles = read_corpus(path)
        assert len(bundles) == 1

    def test_empty_corpus_rejected(self, tmp_path):
        (tmp_path / "nothing").mkdir()
        with pytest.raises(BundleValidationError):
            read_corpus(tmp_path / "nothing")


def test_write_json_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "manifest.json"
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            write_json({"noise": value}, path)
    assert not path.exists()
