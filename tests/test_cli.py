import json
from pathlib import Path

import numpy as np
import pytest

from tightbox.cli import main
from tightbox.confmap import ConfMap
from tightbox.geometry import Box, ring
from tightbox.io_formats import (MAX_DIMENSION, ScoredRecord, read_corpus,
                                 read_ground_truth, read_mask, read_scored,
                                 write_bundle, write_confmap_raw, write_scored)
from tightbox.scoring import ScoringConfig, build_pool, score_batch


def tree_bytes(root):
    """Relative path -> file bytes for an output tree."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run(args):
    return main([str(a) for a in args])


class TestSynth:
    def test_same_seed_produces_byte_identical_bundles(self, tmp_path, monkeypatch):
        for name in ("run_a", "run_b"):
            workdir = tmp_path / name
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert run(["synth", "--out", "corpus", "--scenes", "2",
                        "--seed", "7"]) == 0
        assert tree_bytes(tmp_path / "run_a") == tree_bytes(tmp_path / "run_b")

    def test_zero_scenes_gives_empty_corpus_with_manifest(self, tmp_path):
        out = tmp_path / "corpus"
        assert run(["synth", "--out", out, "--scenes", "0", "--seed", "1"]) == 0
        assert (out / "manifest.json").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["outputs"] == {}

    def test_negative_scenes_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert run(["synth", "--out", out, "--scenes", "-3"]) == 1
        assert "-3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--noise", "nan"), ("--noise", "inf"), ("--noise", "-1"),
        ("--blur", "-1"), ("--tight", "-1"), ("--width", "0")])
    def test_bad_number_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "corpus"
        assert run(["synth", "--out", out, flag, value]) == 1
        assert f"got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_dimension_the_readers_refuse_is_usage_error(self, tmp_path, capsys,
                                                         flag):
        # raised before any scene is rendered, so nothing large is allocated
        out = tmp_path / "corpus"
        assert run(["synth", "--out", out, flag, MAX_DIMENSION + 1]) == 1
        err = capsys.readouterr().err
        assert flag in err and str(MAX_DIMENSION) in err
        assert f"got {MAX_DIMENSION + 1}" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra,size", [
        (["--width", "8"], "8x128"),
        (["--failure-mode", "linked", "--width", "64"], "64x128")],
        ids=["trap-width-8", "linked-width-64"])
    def test_geometry_that_cannot_fit_is_data_error(self, tmp_path, capsys,
                                                    extra, size):
        assert run(["synth", "--out", tmp_path / "corpus", "--seed", "4",
                    *extra]) == 2
        err = capsys.readouterr().err
        assert "seed 4" in err and size in err

    def test_late_infeasible_scene_leaves_no_bundle(self, tmp_path, capsys):
        # seeds 0-17 fit a 52-pixel-wide image, seed 18 does not
        out = tmp_path / "corpus"
        assert run(["synth", "--out", out, "--width", "52", "--scenes", "20"]) == 2
        assert "seed 18" in capsys.readouterr().err
        assert not out.exists() or not list(out.glob("scene_*"))

    def test_linked_failure_mode_produces_touching_instances(self, tmp_path):
        out = tmp_path / "corpus"
        assert run(["synth", "--out", out, "--scenes", "1", "--seed", "3",
                    "--failure-mode", "linked"]) == 0
        gt = read_ground_truth(out / "scene_0000" / "gt.csv")
        assert len(gt) == 2
        assert gt[0].class_id == gt[1].class_id
        a, b = sorted([gt[0].box, gt[1].box], key=lambda x: x.x0)
        assert a.x1 == b.x0

    def test_bundles_validate_clean(self, tmp_path):
        out = tmp_path / "corpus"
        assert run(["synth", "--out", out, "--scenes", "2", "--seed", "5",
                    "--noise", "0.03", "--blur", "1"]) == 0
        bundles = read_corpus(out)
        assert len(bundles) == 2
        assert all(b.proposals for b in bundles)


@pytest.fixture
def corpus(tmp_path):
    out = tmp_path / "corpus"
    assert run(["synth", "--out", out, "--scenes", "2", "--seed", "11"]) == 0
    return out


class TestScore:
    def test_csv_is_byte_identical_to_library_calls(self, corpus, tmp_path):
        out = tmp_path / "scored.csv"
        assert run(["score", corpus, "--out", out]) == 0
        cfg = ScoringConfig()
        records = []
        for bundle in read_corpus(corpus):
            by_class = {}
            for cid, box, _ in bundle.proposals:
                by_class.setdefault(cid, []).append(box)
            for cid in sorted(by_class):
                scored = score_batch(bundle.maps[cid], by_class[cid], cfg)
                pool = build_pool(scored, cfg, image_id=bundle.image_id)
                records.extend(
                    ScoredRecord(image_id=pool.image_id, class_id=pool.class_id,
                                 box=s.box, p_inside=s.p_inside,
                                 p_surround=s.p_surround, objectness=s.objectness)
                    for s in pool.entries)
        reference = tmp_path / "reference.csv"
        write_scored(records, reference)
        assert reference.read_bytes() == out.read_bytes()

    def test_identity_ratio_collapses_objectness_to_purity(self, corpus, tmp_path):
        out = tmp_path / "scored.csv"
        assert run(["score", corpus, "--out", out, "--ratio", "1.0",
                    "--empty-ring", "zero"]) == 0
        for r in read_scored(out):
            assert r.objectness == r.p_inside
            assert r.p_surround == 0.0

    def test_fraction_one_gives_plain_ring_mean(self, corpus, tmp_path):
        out = tmp_path / "scored.csv"
        assert run(["score", corpus, "--out", out, "--top-frac", "1.0"]) == 0
        bundle = read_corpus(corpus)[0]
        rows = [r for r in read_scored(out) if r.image_id == bundle.image_id]
        m = bundle.maps[rows[0].class_id]
        r0 = rows[0]
        b, o = r0.box, ring(r0.box, 1.2, m.width, m.height).outer
        in_ring = np.zeros(m.values.shape, dtype=bool)
        in_ring[o.y0:o.y1, o.x0:o.x1] = True
        in_ring[b.y0:b.y1, b.x0:b.x1] = False
        vals = m.values[in_ring]
        assert vals.size > 0
        assert r0.p_surround == pytest.approx(
            float(vals.astype(np.float64).mean()), abs=1e-8)

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_non_finite_ratio_is_usage_error(self, corpus, tmp_path, capsys, ratio):
        assert run(["score", corpus, "--out", tmp_path / "s.csv",
                    "--ratio", ratio]) == 1
        assert f"got {ratio}" in capsys.readouterr().err

    def test_purity_baseline(self, corpus, tmp_path):
        # the baseline is ratio-1 scoring under the zero empty-ring policy
        for extra, pool in (([], []), (["--ratio", "1", "--empty-ring", "zero"], []),
                            (["--pool", "5"], ["--pool", "5"])):
            out = tmp_path / "scored.csv"
            assert run(["score", corpus, "--out", out, "--baseline", "purity",
                        *extra]) == 0
            for r in read_scored(out):
                assert r.p_surround == 0.0
                assert r.objectness == r.p_inside
            ratio_one = tmp_path / "ratio1.csv"
            assert run(["score", corpus, "--out", ratio_one, "--ratio", "1",
                        "--empty-ring", "zero", *pool]) == 0
            assert out.read_bytes() == ratio_one.read_bytes()

    @pytest.mark.parametrize("flag", [["--ratio", "1.5"], ["--ratio", "1.2"],
                                      ["--empty-ring", "skip"],
                                      ["--top-frac", "0.1"],
                                      ["--top-frac", "0.5"]])
    def test_purity_baseline_refuses_a_flag_it_would_override(
            self, corpus, tmp_path, capsys, flag):
        out = tmp_path / "scored.csv"
        assert run(["score", corpus, "--out", out, "--baseline", "purity",
                    *flag]) == 1
        assert " ".join(flag) in capsys.readouterr().err
        assert not out.exists()

    def test_purity_manifest_records_the_flags_as_given(self, corpus, tmp_path):
        out = tmp_path / "scored.csv"
        assert run(["score", corpus, "--out", out, "--baseline", "purity"]) == 0
        manifest = json.loads((tmp_path / "scored.csv.manifest.json").read_text())
        assert manifest["config"] == {"baseline": "purity", "empty_ring": "zero",
                                      "pool": 200, "ratio": 1.2, "top_frac": 0.5}

    def test_bundle_rows_of_another_image_are_a_data_error(self, corpus, tmp_path,
                                                          capsys):
        scored = tmp_path / "scored.csv"
        assert run(["score", corpus, "--out", scored]) == 0
        for f in (corpus / "scene_0001").glob("*.csv"):
            f.write_text(f.read_text().replace("scene_0001,", "other_image,"))
        problem = "image_id 'other_image' is not the bundle's image 'scene_0001'"
        for argv in (["score", corpus, "--out", tmp_path / "again.csv"],
                     ["eval", "recall", "--corpus", corpus, "--scored", scored]):
            assert run(argv) == 2
            err = capsys.readouterr().err
            for name in ("gt.csv", "proposals.csv"):
                assert f"{name}: line 2: {problem}" in err

    def test_manifest_checksums_cover_output(self, corpus, tmp_path):
        out = tmp_path / "scored.csv"
        assert run(["score", corpus, "--out", out]) == 0
        manifest = json.loads(
            (tmp_path / "scored.csv.manifest.json").read_text())
        assert manifest["command"] == "score"
        assert manifest["config"]["ratio"] == 1.2
        assert str(out) in manifest["outputs"]
        assert manifest["outputs"][str(out)].startswith("sha256:")

    def test_malformed_spec_json_is_a_data_error(self, corpus, capsys):
        spec = corpus / "scene_0001" / "spec.json"
        spec.write_text(json.dumps({**json.loads(spec.read_text()),
                                    "width": "a"}))
        assert run(["score", corpus, "--out", corpus / "s.csv"]) == 2
        assert "spec.json: width must be a positive integer, got 'a'" \
            in capsys.readouterr().err

    def test_corpus_without_proposals_is_a_data_error(self, tmp_path):
        rng = np.random.default_rng(1)
        maps = {1: ConfMap(class_id=1, values=rng.random((8, 8)))}
        write_bundle(tmp_path / "b", "b", maps, [(1, Box(1, 1, 5, 5))])
        assert run(["score", tmp_path / "b", "--out", tmp_path / "s.csv"]) == 2


class TestEval:
    def scored_for(self, corpus, tmp_path, extra=()):
        out = tmp_path / "scored.csv"
        assert run(["score", corpus, "--out", out, *extra]) == 0
        return out

    def test_recall_on_trap_corpus(self, corpus, tmp_path):
        scored = self.scored_for(corpus, tmp_path)
        out = tmp_path / "recall.json"
        assert run(["eval", "recall", "--corpus", corpus, "--scored", scored,
                    "--ks", "1,5", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["recall"]["1"] == 1.0
        assert payload["total_instances"] == 2

    def test_corloc(self, corpus, tmp_path):
        scored = self.scored_for(corpus, tmp_path)
        out = tmp_path / "corloc.json"
        assert run(["eval", "corloc", "--corpus", corpus, "--scored", scored,
                    "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["mean"] == 1.0

    def test_map_reproduces_hand_traced_half(self, tmp_path):
        # one gt, two detections: the higher-scored one misses
        rng = np.random.default_rng(2)
        maps = {1: ConfMap(class_id=1, values=rng.random((20, 20)))}
        gt_box = Box(2, 2, 12, 12)
        write_bundle(tmp_path / "b", "b", maps, [(1, gt_box)])
        rows = [ScoredRecord("b", 1, Box(14, 14, 19, 19), 0.5, 0.0, 0.9),
                ScoredRecord("b", 1, gt_box, 0.5, 0.0, 0.8)]
        scored = tmp_path / "scored.csv"
        write_scored(rows, scored)
        out = tmp_path / "map.json"
        assert run(["eval", "map", "--corpus", tmp_path / "b",
                    "--scored", scored, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["mAP"] == pytest.approx(0.5, abs=1e-9)
        assert payload["mode"] == "11pt"

    @pytest.mark.parametrize("command", ["recall", "corloc", "map"])
    @pytest.mark.parametrize("row,problem", [
        ("other_scene,1,2,2,9,9,0.5,0.1,0.4",
         "line 3: no bundle of the corpus has image 'other_scene' with a map "
         "of class 1"),
        ("scene_0001,9,2,2,9,9,0.5,0.1,0.4",
         "line 3: no bundle of the corpus has image 'scene_0001' with a map "
         "of class 9"),
        ("scene_0001,10,2,2,9000,9000,0.5,0.1,0.4",
         "line 3: box (2, 2, 9000, 9000) exceeds image 'scene_0001' of 128x128")],
        ids=["unknown-image", "class-without-map", "box-outside-image"])
    def test_scored_rows_from_another_corpus_are_a_data_error(
            self, corpus, tmp_path, capsys, command, row, problem):
        scored = self.scored_for(corpus, tmp_path)
        lines = scored.read_text().splitlines()
        scored.write_text("\n".join(lines[:2] + [row] + lines[2:]) + "\n")
        out = tmp_path / "metric.json"
        assert run(["eval", command, "--corpus", corpus, "--scored", scored,
                    "--out", out]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()

    def test_blank_line_does_not_shift_named_lines(self, corpus, tmp_path, capsys):
        scored = self.scored_for(corpus, tmp_path)
        lines = scored.read_text().splitlines()
        scored.write_text("\n".join(
            lines[:2] + ["", "scene_0001,10,2,2,9000,9000,0.5,0.1,0.4"]
            + lines[2:4] + ["other_scene,1,2,2,9,9,0.5,0.1,0.4"] + lines[4:]) + "\n")
        assert run(["eval", "recall", "--corpus", corpus, "--scored", scored]) == 2
        assert ("line 4: box (2, 2, 9000, 9000) exceeds image 'scene_0001' of "
                "128x128; line 7: no bundle of the corpus has image "
                "'other_scene' with a map of class 1") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["recall", "corloc", "map"])
    def test_invalid_scored_numbers_are_a_data_error(
            self, corpus, tmp_path, capsys, command):
        # every bad line is named; nan objectness used to give mAP 1.0
        scored = self.scored_for(corpus, tmp_path)
        lines = scored.read_text().splitlines()
        image, cid = lines[1].split(",")[:2]
        bad = [f"{image},{cid},2,2,9,9,{numbers}"
               for numbers in ("0.5,0.1,nan", "7.5,0.1,7.4", "0.5,-inf,inf")]
        scored.write_text("\n".join(lines[:2] + bad + lines[2:]) + "\n")
        out = tmp_path / "metric.json"
        assert run(["eval", command, "--corpus", corpus, "--scored", scored,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        for problem in ("line 3: objectness must be finite, got nan",
                        "line 4: p_inside must be in [0, 1], got 7.5",
                        "line 5: p_surround must be in [0, 1], got -inf"):
            assert problem in err
        assert not out.exists()

    @pytest.mark.parametrize("args,value", [
        (["recall", "--ks", "0"], "0"),
        (["sweep", "--ratios", "nan"], "nan"),
        (["sweep", "--ratios", "1.2,0.5"], "0.5"),
        (["sweep", "--fracs", "0"], "0"),
        (["sweep", "--ratios", "1.2,1.2"], "1.2"),
        (["sweep", "--fracs", "0.5,0.3,0.5000001"], "0.5000001")],
        ids=["ks-0", "ratios-nan", "ratios-0.5", "fracs-0", "ratios-repeat",
             "fracs-same-key"])
    def test_bad_list_value_is_usage_error(self, corpus, tmp_path, capsys,
                                           args, value):
        # the scored file does not exist: validation comes before any reading
        extra = ["--scored", tmp_path / "none.csv"] if args[0] == "recall" else []
        assert run(["eval", args[0], "--corpus", corpus, *args[1:], *extra]) == 1
        assert f"got {value}" in capsys.readouterr().err

    def test_sweep_grid_and_report(self, corpus, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["eval", "sweep", "--corpus", corpus,
                    "--ratios", "1.1,1.2,1.3,1.4",
                    "--fracs", "0.3,0.5,0.7,1.0", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["cells"]) == 16
        assert payload["cells"]["1.2,0.5"]["is_default"]
        report = (tmp_path / "sweep.tsv").read_text()
        assert report.count("\n") >= 5

    def test_sweep_deterministic(self, corpus, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["eval", "sweep", "--corpus", corpus,
                        "--ratios", "1.1,1.2", "--fracs", "0.5",
                        "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestMask:
    def write_map(self, path, values, class_id=0):
        write_confmap_raw(ConfMap(class_id=class_id, values=values), path)

    def test_defaults_recorded_in_manifest(self, tmp_path):
        self.write_map(tmp_path / "cam.tscf", np.full((4, 4), 0.9), class_id=2)
        self.write_map(tmp_path / "sal.tscf", np.full((4, 4), 0.5))
        out = tmp_path / "mask.pgm"
        assert run(["mask", "--cams", tmp_path / "cam.tscf",
                    "--saliency", tmp_path / "sal.tscf", "--out", out]) == 0
        manifest = json.loads(
            (tmp_path / "mask.pgm.manifest.json").read_text())
        assert manifest["config"]["fg_thresh"] == 0.78
        assert manifest["config"]["bg_thresh"] == 0.06
        mask = read_mask(out)
        # cam normalized to peak 1.0 >= 0.78, salient -> class 2 everywhere
        assert np.all(mask.labels == 2)
        stats = json.loads((tmp_path / "mask.pgm.stats.json").read_text())
        assert stats["counts"]["2"] == 16

    def test_bad_threshold_is_usage_error(self, tmp_path):
        self.write_map(tmp_path / "cam.tscf", np.full((4, 4), 0.9))
        self.write_map(tmp_path / "sal.tscf", np.full((4, 4), 0.5))
        assert run(["mask", "--cams", tmp_path / "cam.tscf",
                    "--saliency", tmp_path / "sal.tscf",
                    "--out", tmp_path / "m.pgm", "--fg-thresh", "1.01"]) == 1

    def test_zero_saliency_no_claimants_gives_all_background(self, tmp_path):
        self.write_map(tmp_path / "cam.tscf", np.full((4, 4), 0.1), class_id=1)
        self.write_map(tmp_path / "sal.tscf", np.zeros((4, 4)))
        out = tmp_path / "mask.pgm"
        assert run(["mask", "--cams", tmp_path / "cam.tscf",
                    "--saliency", tmp_path / "sal.tscf", "--out", out,
                    "--no-normalize"]) == 0
        assert np.all(read_mask(out).labels == 0)

    def test_classes_relabel_raw_cams_and_enter_the_manifest(self, tmp_path):
        self.write_map(tmp_path / "cam.tscf", np.full((4, 4), 0.9), class_id=9)
        self.write_map(tmp_path / "sal.tscf", np.full((4, 4), 0.5))
        base = ["mask", "--cams", tmp_path / "cam.tscf",
                "--saliency", tmp_path / "sal.tscf"]
        for name, extra, label in (("plain", [], 9), ("five", ["--classes", "5"], 5)):
            out = tmp_path / f"{name}.pgm"
            assert run([*base, "--out", out, *extra]) == 0
            assert np.all(read_mask(out).labels == label)
        config = {name: json.loads(
            (tmp_path / f"{name}.pgm.manifest.json").read_text())["config"]
            for name in ("plain", "five")}
        assert "classes" not in config["plain"]
        assert config["five"] == {**config["plain"], "classes": [5]}

    @pytest.mark.parametrize("classes", [["0"], ["255"], ["3", "3"]],
                             ids=["zero", "ignore-code", "repeated"])
    def test_bad_classes_is_usage_error(self, tmp_path, capsys, classes):
        cams = []
        for i, _ in enumerate(classes):
            cams.append(tmp_path / f"cam{i}.tscf")
            self.write_map(cams[-1], np.full((4, 4), 0.9), class_id=i + 1)
        self.write_map(tmp_path / "sal.tscf", np.full((4, 4), 0.5))
        out = tmp_path / "mask.pgm"
        assert run(["mask", "--cams", *cams, "--saliency", tmp_path / "sal.tscf",
                    "--out", out, "--classes", *classes]) == 1
        assert "--classes" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch_is_data_error(self, tmp_path):
        self.write_map(tmp_path / "cam.tscf", np.full((4, 4), 0.9), class_id=1)
        self.write_map(tmp_path / "sal.tscf", np.full((5, 5), 0.5))
        assert run(["mask", "--cams", tmp_path / "cam.tscf",
                    "--saliency", tmp_path / "sal.tscf",
                    "--out", tmp_path / "m.pgm"]) == 2


class TestOverlay:
    def test_renders_pgm_with_box_borders(self, tmp_path, corpus):
        bundle = read_corpus(corpus)[0]
        map_file = next(Path(bundle.path).glob("class_*.tscf"))
        out = tmp_path / "overlay.pgm"
        assert run(["overlay", "--map", map_file,
                    "--boxes", Path(bundle.path) / "proposals.csv",
                    "--out", out]) == 0
        assert out.read_bytes()[:2] == b"P5"


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--out", tmp_path / "c", "--bogus"])
        assert exc.value.code == 1

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert run(["score", tmp_path / "nowhere",
                    "--out", tmp_path / "s.csv"]) == 2

    @pytest.mark.parametrize("argv", [
        lambda corpus, path: ["score", corpus, "--out", path],
        lambda corpus, path: ["eval", "recall", "--corpus", corpus,
                              "--scored", path],
        lambda corpus, path: ["overlay", "--map", path, "--boxes",
                              corpus / "scene_0000" / "proposals.csv",
                              "--out", corpus / "o.pgm"],
        lambda corpus, path: ["synth", "--out", path / "taken"]],
        ids=["score-out-dir", "eval-scored-dir", "overlay-map-dir",
             "synth-out-existing-file"])
    def test_unusable_path_is_data_error_naming_it(self, corpus, tmp_path,
                                                   capsys, argv):
        path = tmp_path / "dir"
        path.mkdir()
        (path / "taken").write_text("")
        assert run(argv(corpus, path)) == 2
        assert str(path) in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0


class TestPipelineDeterminism:
    def test_full_pipeline_byte_identical_across_runs(self, tmp_path, monkeypatch):
        for name in ("x", "y"):
            workdir = tmp_path / name
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert run(["synth", "--out", "corpus", "--scenes", "2",
                        "--seed", "42", "--noise", "0.02", "--blur", "1"]) == 0
            assert run(["score", "corpus", "--out", "scored.csv"]) == 0
            assert run(["eval", "recall", "--corpus", "corpus",
                        "--scored", "scored.csv", "--ks", "1,5",
                        "--out", "recall.json"]) == 0
        assert tree_bytes(tmp_path / "x") == tree_bytes(tmp_path / "y")
