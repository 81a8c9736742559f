"""Readers and writers for every on-disk format the pipeline shares.

Formats:
  - confidence maps: binary PGM (P5, maxval 255 or 65535, normalized on
    load) or a raw little-endian float32 container ("TSCF" magic) that
    round-trips bit-exactly;
  - label masks: PGM P5 with raw codes (no normalization);
  - boxes, ground truth and scored proposals: headed CSV;
  - scene bundles: a directory with per-class maps, gt.csv, optional
    proposals.csv and a spec.json carrying format_version 1.

Readers fail with typed errors carrying location info and never return
partial data.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .confmap import ConfMap
from .errors import BundleValidationError, MalformedFileError, ParseError
from .evaluation import GtInstance
from .geometry import Box
from .pseudomask import PseudoMask

FORMAT_VERSION = 1
RAW_MAGIC = b"TSCF"
MAX_DIMENSION = 1 << 16

BOX_HEADER = ["image_id", "class_id", "x0", "y0", "x1", "y1"]
SCORED_HEADER = ["image_id", "class_id", "x0", "y0", "x1", "y1",
                 "p_inside", "p_surround", "objectness"]
GT_HEADER = ["image_id", "class_id", "x0", "y0", "x1", "y1", "ignore_flag"]


# ---------------------------------------------------------------------------
# confidence maps

def write_confmap(m: ConfMap, path) -> None:
    """Write by extension: .pgm -> quantized PGM, anything else -> raw float."""
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        write_confmap_pgm(m, path)
    else:
        write_confmap_raw(m, path)


def read_confmap(path, class_id: int = 0) -> ConfMap:
    """Sniff the magic bytes and dispatch. ``class_id`` applies to PGM only
    (the raw format carries its own)."""
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == RAW_MAGIC:
        return read_confmap_raw(path)
    if magic[:2] == b"P5":
        return read_confmap_pgm(path, class_id=class_id)
    raise MalformedFileError(path, "bad_header",
                             f"unrecognized magic bytes {magic!r}")


def write_confmap_raw(m: ConfMap, path) -> None:
    header = RAW_MAGIC + struct.pack("<III", m.width, m.height, m.class_id)
    payload = np.ascontiguousarray(m.values, dtype="<f4").tobytes()
    Path(path).write_bytes(header + payload)


def read_confmap_raw(path) -> ConfMap:
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 16 or data[:4] != RAW_MAGIC:
        raise MalformedFileError(path, "bad_header", "missing TSCF header")
    width, height, class_id = struct.unpack("<III", data[4:16])
    if not (1 <= width <= MAX_DIMENSION and 1 <= height <= MAX_DIMENSION):
        raise MalformedFileError(path, "dimension_overflow",
                                 f"implausible dimensions {width}x{height}")
    expected = 16 + width * height * 4
    if len(data) != expected:
        raise MalformedFileError(path, "truncated",
                                 f"expected {expected} bytes, found {len(data)}")
    values = np.frombuffer(data, dtype="<f4", offset=16).reshape(height, width)
    if not np.all(np.isfinite(values)) or values.min() < 0.0 or values.max() > 1.0:
        raise MalformedFileError(path, "out_of_range",
                                 "values outside [0, 1] after decoding")
    return ConfMap(class_id=class_id, values=values)


def write_confmap_pgm(m: ConfMap, path, maxval: int = 255) -> None:
    if maxval not in (255, 65535):
        raise ValueError(f"PGM maxval must be 255 or 65535, got {maxval}")
    quantized = np.rint(m.values.astype(np.float64) * maxval)
    data = quantized.astype(">u2" if maxval > 255 else "u1").tobytes()
    header = f"P5\n{m.width} {m.height}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + data)


def _read_pgm_tokens(path, data: bytes):
    """Parse the three PGM header tokens, honoring '#' comments."""
    pos = 0
    tokens = []
    while len(tokens) < 4 and pos < len(data):
        c = data[pos:pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    if len(tokens) < 4:
        raise MalformedFileError(path, "bad_header", "incomplete PGM header")
    return tokens, pos + 1  # single whitespace byte separates header and raster


def read_pgm_codes(path) -> tuple[np.ndarray, int]:
    """Decode a P5 file into its raw integer sample array and maxval."""
    path = Path(path)
    data = path.read_bytes()
    tokens, offset = _read_pgm_tokens(path, data)
    if tokens[0] != b"P5":
        raise MalformedFileError(path, "bad_header",
                                 f"not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise MalformedFileError(path, "bad_header",
                                 f"non-numeric PGM header fields {tokens[1:4]}")
    if not (1 <= width <= MAX_DIMENSION and 1 <= height <= MAX_DIMENSION):
        raise MalformedFileError(path, "dimension_overflow",
                                 f"implausible dimensions {width}x{height}")
    if maxval < 1 or maxval > 65535:
        raise MalformedFileError(path, "out_of_range", f"bad maxval {maxval}")
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    expected = offset + width * height * dtype.itemsize
    if len(data) < expected:
        raise MalformedFileError(path, "truncated",
                                 f"expected {expected} bytes, found {len(data)}")
    codes = np.frombuffer(data, dtype=dtype, count=width * height,
                          offset=offset).reshape(height, width)
    if codes.max(initial=0) > maxval:
        raise MalformedFileError(path, "out_of_range",
                                 f"sample exceeds maxval {maxval}")
    return codes, maxval


def read_confmap_pgm(path, class_id: int = 0) -> ConfMap:
    codes, maxval = read_pgm_codes(path)
    values = (codes.astype(np.float64) / maxval).astype(np.float32)
    return ConfMap(class_id=class_id, values=values)


# ---------------------------------------------------------------------------
# label masks (raw codes, not normalized)

def write_mask(m: PseudoMask, path) -> None:
    header = f"P5\n{m.width} {m.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + m.labels.tobytes())


def read_mask(path) -> PseudoMask:
    codes, maxval = read_pgm_codes(path)
    if maxval != 255:
        raise MalformedFileError(path, "bad_header",
                                 f"mask PGM must have maxval 255, got {maxval}")
    return PseudoMask(labels=codes)


# ---------------------------------------------------------------------------
# CSV formats

@dataclass(frozen=True)
class BoxRecord:
    image_id: str
    class_id: int
    box: Box
    score: float | None = None


@dataclass(frozen=True)
class GtRecord:
    image_id: str
    class_id: int
    box: Box
    ignore: bool = False


@dataclass(frozen=True)
class ScoredRecord:
    image_id: str
    class_id: int
    box: Box
    p_inside: float
    p_surround: float
    objectness: float


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _parse_rows(path, expected_headers, parse_row):
    """Shared all-or-nothing CSV scaffold; collects every row failure."""
    path = Path(path)
    with open(path, "r", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(path, [(1, "missing header row")])
        header = [h.strip() for h in header]
        if header not in expected_headers:
            raise ParseError(path, [(1, f"bad header {header}, expected one of "
                                        f"{expected_headers}")])
        rows, failures = [], []
        for lineno, raw in enumerate(reader, start=2):
            if not raw:
                continue
            try:
                rows.append(parse_row(header, raw))
            except (ValueError, IndexError) as exc:
                failures.append((lineno, str(exc)))
    if failures:
        raise ParseError(path, failures)
    return rows


def _parse_box(fields: list[str]) -> Box:
    x0, y0, x1, y1 = (int(v) for v in fields)
    return Box(x0, y0, x1, y1)


def read_boxes(path) -> list[BoxRecord]:
    """Proposal CSV; the trailing score column is optional."""
    def parse(header, raw):
        if len(raw) != len(header):
            raise ValueError(f"expected {len(header)} fields, got {len(raw)}")
        score = float(raw[6]) if len(header) == 7 else None
        return BoxRecord(image_id=raw[0], class_id=int(raw[1]),
                         box=_parse_box(raw[2:6]), score=score)

    return _parse_rows(path, [BOX_HEADER, BOX_HEADER + ["score"]], parse)


def write_boxes(records: list[BoxRecord], path) -> None:
    has_scores = any(r.score is not None for r in records)
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(BOX_HEADER + ["score"] if has_scores else list(BOX_HEADER))
        for r in records:
            row = [r.image_id, r.class_id, *r.box.as_tuple()]
            if has_scores:
                row.append(_fmt(r.score if r.score is not None else 0.0))
            w.writerow(row)


def read_ground_truth(path) -> list[GtRecord]:
    def parse(header, raw):
        if len(raw) != 7:
            raise ValueError(f"expected 7 fields, got {len(raw)}")
        flag = int(raw[6])
        if flag not in (0, 1):
            raise ValueError(f"ignore_flag must be 0 or 1, got {raw[6]}")
        return GtRecord(image_id=raw[0], class_id=int(raw[1]),
                        box=_parse_box(raw[2:6]), ignore=bool(flag))

    return _parse_rows(path, [GT_HEADER], parse)


def write_ground_truth(records: list[GtRecord], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(GT_HEADER)
        for r in records:
            w.writerow([r.image_id, r.class_id, *r.box.as_tuple(), int(r.ignore)])


def read_scored(path) -> list[ScoredRecord]:
    """Scored-proposal CSV; p_inside and p_surround must lie in [0, 1] and
    objectness must be finite."""
    def parse(header, raw):
        if len(raw) != 9:
            raise ValueError(f"expected 9 fields, got {len(raw)}")
        p_inside, p_surround, objectness = (float(v) for v in raw[6:9])
        for name, v in (("p_inside", p_inside), ("p_surround", p_surround)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not math.isfinite(objectness):
            raise ValueError(f"objectness must be finite, got {objectness}")
        return ScoredRecord(image_id=raw[0], class_id=int(raw[1]),
                            box=_parse_box(raw[2:6]), p_inside=p_inside,
                            p_surround=p_surround, objectness=objectness)

    return _parse_rows(path, [SCORED_HEADER], parse)


def write_scored(records: list[ScoredRecord], path) -> None:
    """Scored-proposal CSV at 9 significant digits, rows as given (callers
    are responsible for a deterministic order)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(SCORED_HEADER)
        for r in records:
            w.writerow([r.image_id, r.class_id, *r.box.as_tuple(),
                        _fmt(r.p_inside), _fmt(r.p_surround), _fmt(r.objectness)])


# ---------------------------------------------------------------------------
# scene bundles

KNOWN_BUNDLE_FILES = {"spec.json", "gt.csv", "proposals.csv", "manifest.json"}


@dataclass(frozen=True)
class SceneBundle:
    path: str
    image_id: str
    meta: dict
    maps: dict[int, ConfMap]
    gt: tuple[GtInstance, ...]
    proposals: tuple[tuple[int, Box, float | None], ...] | None
    warnings: tuple[str, ...] = ()


def map_filename(class_id: int) -> str:
    return f"class_{class_id:03d}.tscf"


def write_bundle(directory, image_id: str, maps: dict[int, ConfMap],
                 gt: list[tuple[int, Box]],
                 proposals: list[tuple[int, Box]] | None = None,
                 generator: dict | None = None) -> Path:
    """Write a validated-layout scene bundle; returns the bundle directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if not maps:
        raise ValueError("bundle needs at least one confidence map")
    dims = {(m.width, m.height) for m in maps.values()}
    if len(dims) > 1:
        raise ValueError(f"maps disagree on dimensions: {sorted(dims)}")
    width, height = next(iter(dims))
    for cid in sorted(maps):
        write_confmap_raw(maps[cid], directory / map_filename(cid))
    write_ground_truth(
        [GtRecord(image_id=image_id, class_id=cid, box=b) for cid, b in gt],
        directory / "gt.csv")
    if proposals is not None:
        write_boxes(
            [BoxRecord(image_id=image_id, class_id=cid, box=b)
             for cid, b in proposals],
            directory / "proposals.csv")
    meta = {
        "format_version": FORMAT_VERSION,
        "image_id": image_id,
        "width": width,
        "height": height,
        "class_ids": sorted(maps),
        "map_files": {str(cid): map_filename(cid) for cid in sorted(maps)},
        "has_proposals": proposals is not None,
    }
    if generator is not None:
        meta["generator"] = generator
    write_json(meta, directory / "spec.json")
    return directory


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def read_bundle(directory) -> SceneBundle:
    """Load and validate a bundle, reporting every failure at once.

    Unknown extra files are tolerated with a warning for forward
    compatibility.
    """
    directory = Path(directory)
    failures: list[str] = []
    warnings: list[str] = []
    spec_path = directory / "spec.json"
    if not directory.is_dir():
        raise BundleValidationError(directory, [f"not a directory: {directory}"])
    if not spec_path.is_file():
        raise BundleValidationError(directory, ["missing spec.json"])
    try:
        meta = json.loads(spec_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BundleValidationError(directory, [f"spec.json unreadable: {exc}"])
    if not isinstance(meta, dict):
        raise BundleValidationError(directory, [
            f"spec.json: top level must be an object, got {type(meta).__name__}"])
    if meta.get("format_version") != FORMAT_VERSION:
        failures.append(f"spec.json: unsupported format_version "
                        f"{meta.get('format_version')!r}")
    image_id = meta.get("image_id", directory.name)
    if not isinstance(image_id, str):
        failures.append(f"spec.json: image_id must be a string, got {image_id!r}")
    width, height = meta.get("width"), meta.get("height")
    bad_dims = [f"spec.json: {name} must be a positive integer, got {v!r}"
                for name, v in (("width", width), ("height", height))
                if type(v) is not int or v < 1]
    if bad_dims:
        failures += bad_dims
        width = height = None
    map_files = meta.get("map_files", {})
    if not (isinstance(map_files, dict) and all(
            k.isdecimal() and isinstance(f, str) for k, f in map_files.items())):
        failures.append(f"spec.json: map_files must map class ids to file "
                        f"names, got {map_files!r}")
        map_files = {}

    maps: dict[int, ConfMap] = {}
    for cid_str, fname in sorted(map_files.items()):
        fpath = directory / fname
        if not fpath.is_file():
            failures.append(f"missing map file {fname}")
            continue
        try:
            m = read_confmap(fpath, class_id=int(cid_str))
        except MalformedFileError as exc:
            failures.append(f"{fname}: {exc}")
            continue
        if m.class_id != int(cid_str):
            failures.append(f"{fname}: header class {m.class_id} != spec {cid_str}")
        elif width and (m.width, m.height) != (width, height):
            failures.append(f"{fname}: dimensions {m.width}x{m.height} "
                            f"!= spec {width}x{height}")
        else:
            maps[m.class_id] = m

    def load_rows(name, reader):
        path = directory / name
        if not path.is_file():
            return None
        try:
            return reader(path)
        except ParseError as exc:
            failures.append(str(exc))
            return None

    gt_records = load_rows("gt.csv", read_ground_truth)
    if gt_records is None and not (directory / "gt.csv").is_file():
        failures.append("missing gt.csv")
        gt_records = []
    gt_records = gt_records or []
    for row_idx, r in enumerate(gt_records, start=2):
        if width and height and (r.box.x1 > width or r.box.y1 > height):
            failures.append(f"gt.csv row {row_idx}: box {r.box.as_tuple()} "
                            f"exceeds image {width}x{height}")

    prop_records = load_rows("proposals.csv", read_boxes)
    if prop_records is not None:
        for row_idx, r in enumerate(prop_records, start=2):
            if width and height and (r.box.x1 > width or r.box.y1 > height):
                failures.append(f"proposals.csv row {row_idx}: box "
                                f"{r.box.as_tuple()} exceeds image {width}x{height}")

    if failures:
        raise BundleValidationError(directory, failures)
    known = KNOWN_BUNDLE_FILES | set(map_files.values())
    for child in sorted(directory.iterdir()):
        if child.name not in known:
            warnings.append(f"unknown file ignored: {child.name}")
    return SceneBundle(
        path=str(directory), image_id=image_id, meta=meta, maps=maps,
        gt=tuple(GtInstance(r.class_id, r.box, r.ignore) for r in gt_records),
        proposals=(None if prop_records is None else
                   tuple((r.class_id, r.box, r.score) for r in prop_records)),
        warnings=tuple(warnings))


def read_corpus(directory) -> list[SceneBundle]:
    """Load a directory of bundles (or a single bundle) sorted by name;
    no two bundles may give the same image id."""
    directory = Path(directory)
    if (directory / "spec.json").is_file():
        return [read_bundle(directory)]
    bundles = []
    for child in sorted(directory.iterdir()):
        if child.is_dir() and (child / "spec.json").is_file():
            bundles.append(read_bundle(child))
    if not bundles:
        raise BundleValidationError(directory, ["no scene bundles found"])
    first: dict[str, str] = {}
    duplicates = []
    for b in bundles:
        if b.image_id in first:
            duplicates.append(f"image id {b.image_id!r} given by both "
                              f"{first[b.image_id]} and {b.path}")
        else:
            first[b.image_id] = b.path
    if duplicates:
        raise BundleValidationError(directory, duplicates)
    return bundles
