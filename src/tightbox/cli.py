"""Batch command-line surface for the scoring pipeline.

Subcommands: synth (generate a scene corpus), score (rank proposals on
confidence maps), eval (recall / corloc / map / sweep), mask (pseudo
segmentation masks) and overlay (box inspection images). Every run that
writes files, except overlay's, also writes a manifest recording the
configuration, the seed and a checksum per output, so identical
manifests imply identical outputs.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import TightboxError
from .evaluation import (ApMode, ablation_sweep, check_sweep_grid, corloc,
                         recall_at_k, score_corpus, voc_ap)
from .io_formats import (MAX_DIMENSION, GtRecord, SceneBundle, ScoredRecord,
                         read_boxes, read_confmap, read_corpus, read_scored,
                         write_bundle, write_json, write_mask, write_scored)
from .pseudomask import (IGNORE, MaskConfig, generate_mask, mask_stats,
                         normalize_cam)
from .scoring import EmptyRingPolicy, ScoringConfig
from .synth import (ProposalCounts, TrapParams, gen_proposals, gen_scene,
                    make_linked_spec, make_trap_spec)
from .overlay import write_overlay

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, command: str, config: dict, inputs: list,
                    outputs: list[Path], seed=None) -> None:
    """The manifest of a run whose output is ``out``: ``out/manifest.json``
    for a directory, ``<out>.manifest.json`` otherwise."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "seed": seed,
        "version": __version__,
        "outputs": {str(p): _sha256(Path(p)) for p in sorted(outputs, key=str)},
    }
    write_json(manifest, out / "manifest.json" if out.is_dir()
               else out.with_name(out.name + ".manifest.json"))


def _number_list(text: str, kind=float) -> list:
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"expected a comma-separated {kind.__name__} list, "
                         f"got {text!r}")
    if not values:
        raise UsageError(f"empty {kind.__name__} list: {text!r}")
    return values


# ---------------------------------------------------------------------------
# score

def _read_scorable_corpus(path) -> list[SceneBundle]:
    """The corpus's bundles; each must hold a proposals.csv to score."""
    bundles = read_corpus(path)
    missing = [b.path for b in bundles if b.proposals is None]
    if missing:
        raise TightboxError(f"no proposals.csv to score in {', '.join(missing)}")
    return bundles


def cmd_score(args) -> int:
    try:
        cfg = ScoringConfig(enlarge_ratio=args.ratio, top_fraction=args.top_frac,
                            pool_size=args.pool,
                            empty_ring_policy=EmptyRingPolicy(args.empty_ring))
    except ValueError as exc:
        raise UsageError(str(exc))
    bundles = _read_scorable_corpus(args.corpus)
    records = score_corpus(bundles, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_scored(records, out)
    _write_manifest(
        out, "score",
        {"ratio": args.ratio, "top_frac": args.top_frac, "pool": args.pool,
         "empty_ring": args.empty_ring},
        [args.corpus], [out])
    print(f"scored {len(records)} pooled proposals from {len(bundles)} "
          f"scene(s) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    if args.scenes < 0:
        raise UsageError(f"--scenes must be >= 0, got {args.scenes}")
    for flag, size in (("--width", args.width), ("--height", args.height)):
        if size > MAX_DIMENSION:
            raise UsageError(f"{flag} must be <= {MAX_DIMENSION} (the largest "
                             f"map the readers accept), got {size}")
    try:
        params = TrapParams(image_w=args.width, image_h=args.height,
                            noise_sigma=args.noise, blur_radius=args.blur)
        counts = ProposalCounts(tight=args.tight, partial=args.partial,
                                loose=args.loose, background=args.background)
    except ValueError as exc:
        raise UsageError(str(exc))
    # every scene's geometry is built and certified before anything is
    # written, so an infeasible scene leaves no partial corpus behind
    make_spec = make_linked_spec if args.failure_mode == "linked" else make_trap_spec
    specs = [make_spec(args.seed + i, params) for i in range(args.scenes)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for i, spec in enumerate(specs):
        scene_seed = args.seed + i
        maps, gt = gen_scene(spec)
        family = gen_proposals(spec, counts, seed=scene_seed)
        image_id = f"scene_{i:04d}"
        bundle_dir = write_bundle(
            out / image_id, image_id, maps, gt,
            proposals=[(cid, box) for _, cid, box in family.all_entries()],
            generator={"scene_seed": scene_seed, "scene_spec": spec.to_dict(),
                       "proposal_counts": family.counts,
                       "warnings": list(family.warnings)})
        outputs.extend(sorted(bundle_dir.iterdir()))
    _write_manifest(
        out, "synth",
        {"scenes": args.scenes, "width": args.width, "height": args.height,
         "noise": args.noise, "blur": args.blur,
         "failure_mode": args.failure_mode, "tight": args.tight,
         "partial": args.partial, "loose": args.loose,
         "background": args.background},
        [], outputs, seed=args.seed)
    print(f"wrote {args.scenes} scene bundle(s) under {out}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _eval_inputs(args) -> tuple[list[ScoredRecord], list[GtRecord]]:
    """The scored rows, each checked against the corpus's maps, and the
    corpus's gt rows."""
    bundles = read_corpus(args.corpus)
    rows = read_scored(args.scored, maps={b.image_id: b.maps for b in bundles})
    return rows, [g for b in bundles for g in b.gt]


def _emit_result(args, name: str, payload: dict, inputs: list,
                 config: dict | None = None, report: str | None = None) -> None:
    """The payload as JSON at ``--out`` (the report beside it as .tsv) with
    a manifest, or both printed."""
    if not args.out:
        print(json.dumps(payload, indent=2, sort_keys=True))
        if report is not None:
            print(report)
        return
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(payload, out)
    outputs = [out]
    if report is not None:
        outputs.append(out.with_suffix(".tsv"))
        outputs[1].write_text(report + "\n")
    _write_manifest(out, f"eval {name}", config or {}, inputs, outputs)
    print("wrote " + " and ".join(map(str, outputs)))


def cmd_eval_recall(args) -> int:
    ks = _number_list(args.ks, int)
    if min(ks) < 1:
        raise UsageError(f"--ks values must be >= 1, got {min(ks)}")
    rows, gts = _eval_inputs(args)
    curve = recall_at_k(rows, gts, ks)
    payload = {
        "ks": list(curve.ks),
        "recall": dict(zip(map(str, curve.ks), curve.recalls)),
        "upper_bound_top1": curve.upper_bound,
        "total_instances": curve.total_instances,
    }
    _emit_result(args, "recall", payload, [args.corpus, args.scored])
    return 0


def cmd_eval_corloc(args) -> int:
    rows, gts = _eval_inputs(args)
    result = corloc(rows, gts)
    payload = {
        "per_class": {str(c): v for c, v in result.per_class.items()},
        "mean": result.mean,
    }
    _emit_result(args, "corloc", payload, [args.corpus, args.scored])
    return 0


def cmd_eval_map(args) -> int:
    rows, gts = _eval_inputs(args)
    mode = ApMode.ELEVEN_POINT if args.mode == "11pt" else ApMode.AREA
    result = voc_ap(rows, gts, mode)
    payload = {
        "per_class_ap": {str(c): v for c, v in result.per_class.items()},
        "mAP": result.mean_ap,
        "mode": result.mode.value,
        "iou_threshold": result.iou_threshold,
        "skipped_classes": list(result.skipped_classes),
    }
    _emit_result(args, "map", payload, [args.corpus, args.scored])
    return 0


def cmd_eval_sweep(args) -> int:
    ratios, fracs = _number_list(args.ratios), _number_list(args.fracs)
    try:
        check_sweep_grid(ratios, fracs)
    except ValueError as exc:
        raise UsageError(str(exc))
    result = ablation_sweep(_read_scorable_corpus(args.corpus), ratios, fracs)
    _emit_result(args, "sweep", result.to_table(), [args.corpus],
                 {"ratios": args.ratios, "fracs": args.fracs}, result.report())
    return 0


# ---------------------------------------------------------------------------
# mask

def cmd_mask(args) -> int:
    try:
        cfg = MaskConfig(fg_threshold=args.fg_thresh, bg_threshold=args.bg_thresh)
    except ValueError as exc:
        raise UsageError(str(exc))
    config = {"fg_thresh": args.fg_thresh, "bg_thresh": args.bg_thresh,
              "normalize": not args.no_normalize}
    if args.classes is not None:
        if len(args.classes) != len(args.cams):
            raise UsageError(f"--classes needs one id per cam file "
                             f"({len(args.cams)} cams, {len(args.classes)} ids)")
        if (len(set(args.classes)) != len(args.classes)
                or not all(1 <= c < IGNORE for c in args.classes)):
            raise UsageError(f"--classes needs distinct ids in 1..{IGNORE - 1}, "
                             f"got {args.classes}")
        config["classes"] = args.classes
    cams = []
    for idx, cam_path in enumerate(args.cams):
        cam = read_confmap(cam_path, class_id=idx + 1)
        if args.classes is not None:
            cam = replace(cam, class_id=args.classes[idx])
        if not args.no_normalize:
            cam = normalize_cam(cam)
        cams.append(cam)
    saliency = read_confmap(args.saliency, class_id=0)
    mask = generate_mask(cams, saliency, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_mask(mask, out)
    stats = mask_stats(mask)
    stats_path = (Path(args.stats) if args.stats
                  else out.with_suffix(out.suffix + ".stats.json"))
    write_json(stats, stats_path)
    _write_manifest(out, "mask", config, list(args.cams) + [args.saliency],
                    [out, stats_path])
    print(f"wrote {out} and {stats_path}")
    return 0


# ---------------------------------------------------------------------------
# overlay

def cmd_overlay(args) -> int:
    m = read_confmap(args.map)
    boxes = [r.box for r in read_boxes(args.boxes)]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_overlay(m, boxes, out)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tightbox",
                     description="Proposal mining on segmentation confidence maps")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("score", help="rank a corpus's proposals per class")
    p.add_argument("corpus", help="scene bundle or corpus directory")
    p.add_argument("--out", required=True, help="scored CSV path")
    p.add_argument("--ratio", type=float, default=ScoringConfig.enlarge_ratio,
                   help="box enlargement ratio (default 1.2); 1 leaves the ring "
                        "empty and scores the inside-only baseline")
    p.add_argument("--top-frac", type=float, default=ScoringConfig.top_fraction,
                   help="conditional-average fraction (default 0.5)")
    p.add_argument("--pool", type=int, default=200,
                   help="candidate pool size per image and class (default 200)")
    p.add_argument("--empty-ring", choices=["zero", "skip"], default="zero")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", help="generate a synthetic trap-scene corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--height", type=int, default=128)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--blur", type=int, default=0)
    p.add_argument("--failure-mode", choices=["none", "linked"], default="none",
                   help="'linked' generates touching same-class instances")
    p.add_argument("--tight", type=int, default=10)
    p.add_argument("--partial", type=int, default=10)
    p.add_argument("--loose", type=int, default=5)
    p.add_argument("--background", type=int, default=10)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="detection-quality metrics")
    esub = p.add_subparsers(dest="eval_command", required=True,
                            parser_class=_Parser)

    e = esub.add_parser("recall", help="recall@k of pooled proposals")
    e.add_argument("--corpus", required=True)
    e.add_argument("--scored", required=True)
    e.add_argument("--ks", default="1,5,10,50,100,200")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval_recall)

    e = esub.add_parser("corloc", help="correct-localization rate of top-1 boxes")
    e.add_argument("--corpus", required=True)
    e.add_argument("--scored", required=True)
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval_corloc)

    e = esub.add_parser("map", help="VOC-style mean average precision")
    e.add_argument("--corpus", required=True)
    e.add_argument("--scored", required=True)
    e.add_argument("--mode", choices=["11pt", "area"], default="11pt")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval_map)

    e = esub.add_parser("sweep", help="ratio x fraction ablation grid")
    e.add_argument("--corpus", required=True)
    e.add_argument("--ratios", default="1.1,1.2,1.3,1.4")
    e.add_argument("--fracs", default="0.3,0.5,0.7,1.0")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval_sweep)

    p = sub.add_parser("mask", help="pseudo segmentation mask from CAMs + saliency")
    p.add_argument("--cams", nargs="+", required=True,
                   help="activation map files, one per image label")
    p.add_argument("--classes", type=int, nargs="+",
                   help="distinct class ids in 1..254, one per cam file "
                        "(default: raw-format header, or 1..N for PGM)")
    p.add_argument("--saliency", required=True)
    p.add_argument("--out", required=True, help="mask PGM path")
    p.add_argument("--stats", help="stats JSON path (default <out>.stats.json)")
    p.add_argument("--fg-thresh", type=float, default=0.78)
    p.add_argument("--bg-thresh", type=float, default=0.06)
    p.add_argument("--no-normalize", action="store_true",
                   help="skip per-map max normalization of the cams")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("overlay", help="render boxes over a map as PGM")
    p.add_argument("--map", required=True)
    p.add_argument("--boxes", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_overlay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"tightbox: usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (TightboxError, OSError, ValueError) as exc:
        print(f"tightbox: data error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
