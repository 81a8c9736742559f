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
import io
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

def write_pgm(codes: np.ndarray, path) -> None:
    """Binary PGM (P5) of a 2-D code array: uint8 gives maxval 255, big-endian
    uint16 (``>u2``) gives 65535."""
    maxval = {"|u1": 255, ">u2": 65535}.get(codes.dtype.str)
    if maxval is None:
        raise ValueError(f"PGM codes must be uint8 or >u2, got {codes.dtype.str}")
    height, width = codes.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + codes.tobytes())


def read_confmap(path, class_id: int = 0) -> ConfMap:
    """Read the file once and decode it by its magic bytes. ``class_id``
    applies to PGM only (the raw format carries its own)."""
    path = Path(path)
    data = path.read_bytes()
    if data[:4] == RAW_MAGIC:
        return _decode_raw(path, data)
    if data[:2] == b"P5":
        codes, maxval = _decode_pgm(path, data)
        values = (codes.astype(np.float64) / maxval).astype(np.float32)
        return ConfMap(class_id=class_id, values=values)
    raise MalformedFileError(path, "bad_header",
                             f"unrecognized magic bytes {data[:4]!r}")


def write_confmap_raw(m: ConfMap, path) -> None:
    header = RAW_MAGIC + struct.pack("<III", m.width, m.height, m.class_id)
    payload = np.ascontiguousarray(m.values, dtype="<f4").tobytes()
    Path(path).write_bytes(header + payload)


def _decode_raw(path, data: bytes) -> ConfMap:
    """A TSCF file's bytes, magic already matched."""
    if len(data) < 16:
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
    write_pgm(quantized.astype(">u2" if maxval > 255 else "u1"), path)


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


def _decode_pgm(path, data: bytes) -> tuple[np.ndarray, int]:
    """A P5 file's bytes as its raw integer sample array and maxval."""
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


# ---------------------------------------------------------------------------
# label masks (raw codes, not normalized)

def write_mask(m: PseudoMask, path) -> None:
    write_pgm(m.labels, path)


def read_mask(path) -> PseudoMask:
    codes, maxval = _decode_pgm(path, Path(path).read_bytes())
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
    """Shared all-or-nothing UTF-8 CSV scaffold; collects every row failure."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, [(data.count(b"\n", 0, exc.start) + 1,
                                 f"byte {data[exc.start]:#04x} at offset "
                                 f"{exc.start} is not UTF-8 text")])
    # decoded as read, so the text is never held whole beside the bytes
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                         newline=""))
    rows, failures = [], []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(path, [(1, "missing header row")])
        header = [h.strip() for h in header]
        if header not in expected_headers:
            raise ParseError(path, [(1, f"bad header {header}, expected one of "
                                        f"{expected_headers}")])
        for raw in reader:
            if not raw:
                continue
            try:
                rows.append(parse_row(header, raw))
            except (ValueError, IndexError) as exc:
                # the line the row ends on; a quoted field may span lines
                failures.append((reader.line_num, str(exc)))
    except csv.Error as exc:
        failures.append((reader.line_num, str(exc)))
    if failures:
        raise ParseError(path, failures)
    return rows


def _write_rows(path, header: list[str], rows) -> None:
    """UTF-8 CSV; an image_id with "\\r" has its row quoted, or the reader splits it."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        plain = csv.writer(f, lineterminator="\n")
        quoted = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(header)
        for row in rows:
            (quoted if "\r" in row[0] else plain).writerow(row)


def _parse_box(fields: list[str]) -> Box:
    x0, y0, x1, y1 = (int(v) for v in fields)
    return Box(x0, y0, x1, y1)


def _check_bundle_row(r, image_id: str | None, size: tuple[int, int] | None):
    """A bundle row names the bundle's image and its box lies inside it."""
    if image_id is not None and r.image_id != image_id:
        raise ValueError(f"image_id {r.image_id!r} is not the bundle's "
                         f"image {image_id!r}")
    if size is not None and (r.box.x1 > size[0] or r.box.y1 > size[1]):
        raise ValueError(f"box {r.box.as_tuple()} exceeds image "
                         f"{size[0]}x{size[1]}")
    return r


def read_boxes(path, size=None, image_id=None) -> list[BoxRecord]:
    """Proposal CSV; the trailing score column is optional. Given a
    (width, height) ``size`` or an ``image_id``, every row must fit it."""
    def parse(header, raw):
        if len(raw) != len(header):
            raise ValueError(f"expected {len(header)} fields, got {len(raw)}")
        score = float(raw[6]) if len(header) == 7 else None
        return _check_bundle_row(BoxRecord(image_id=raw[0], class_id=int(raw[1]),
                                      box=_parse_box(raw[2:6]), score=score),
                            image_id, size)

    return _parse_rows(path, [BOX_HEADER, BOX_HEADER + ["score"]], parse)


def write_boxes(records: list[BoxRecord], path) -> None:
    has_scores = any(r.score is not None for r in records)
    _write_rows(path, BOX_HEADER + ["score"] if has_scores else BOX_HEADER, (
        [r.image_id, r.class_id, *r.box.as_tuple()]
        + ([_fmt(r.score if r.score is not None else 0.0)] if has_scores else [])
        for r in records))


def read_ground_truth(path, size=None, image_id=None) -> list[GtRecord]:
    """Ground-truth CSV; ``size`` and ``image_id`` as for read_boxes."""
    def parse(header, raw):
        if len(raw) != 7:
            raise ValueError(f"expected 7 fields, got {len(raw)}")
        flag = int(raw[6])
        if flag not in (0, 1):
            raise ValueError(f"ignore_flag must be 0 or 1, got {raw[6]}")
        return _check_bundle_row(GtRecord(image_id=raw[0], class_id=int(raw[1]),
                                     box=_parse_box(raw[2:6]), ignore=bool(flag)),
                            image_id, size)

    return _parse_rows(path, [GT_HEADER], parse)


def write_ground_truth(records: list[GtRecord], path) -> None:
    _write_rows(path, GT_HEADER, ([r.image_id, r.class_id, *r.box.as_tuple(),
                                   int(r.ignore)] for r in records))


def read_scored(path, maps=None) -> list[ScoredRecord]:
    """Scored-proposal CSV; p_inside and p_surround must lie in [0, 1] and
    objectness must be finite. Given ``maps`` ({image_id: {class_id:
    ConfMap}}), each row's image and class must have a map that holds its
    box: rows of another corpus would all score as misses."""
    def parse(header, raw):
        if len(raw) != 9:
            raise ValueError(f"expected 9 fields, got {len(raw)}")
        p_inside, p_surround, objectness = (float(v) for v in raw[6:9])
        for name, v in (("p_inside", p_inside), ("p_surround", p_surround)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not math.isfinite(objectness):
            raise ValueError(f"objectness must be finite, got {objectness}")
        r = ScoredRecord(image_id=raw[0], class_id=int(raw[1]),
                         box=_parse_box(raw[2:6]), p_inside=p_inside,
                         p_surround=p_surround, objectness=objectness)
        if maps is not None:
            m = maps.get(r.image_id, {}).get(r.class_id)
            if m is None:
                raise ValueError(f"no bundle of the corpus has image "
                                 f"{r.image_id!r} with a map of class {r.class_id}")
            if not m.contains_box(r.box):
                raise ValueError(f"box {r.box.as_tuple()} exceeds image "
                                 f"{r.image_id!r} of {m.width}x{m.height}")
        return r

    return _parse_rows(path, [SCORED_HEADER], parse)


def write_scored(records: list[ScoredRecord], path) -> None:
    """Scored-proposal CSV at 9 significant digits, rows as given (callers
    are responsible for a deterministic order)."""
    _write_rows(path, SCORED_HEADER, (
        [r.image_id, r.class_id, *r.box.as_tuple(),
         _fmt(r.p_inside), _fmt(r.p_surround), _fmt(r.objectness)]
        for r in records))


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
        meta = json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
        image_id = None
    width, height = meta.get("width"), meta.get("height")
    bad_dims = [f"spec.json: {name} must be a positive integer, got {v!r}"
                for name, v in (("width", width), ("height", height))
                if type(v) is not int or v < 1]
    failures += bad_dims
    size = None if bad_dims else (width, height)
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
        elif size and (m.width, m.height) != size:
            failures.append(f"{fname}: dimensions {m.width}x{m.height} "
                            f"!= spec {width}x{height}")
        else:
            maps[m.class_id] = m

    rows = {}
    for name, reader in (("gt.csv", read_ground_truth), ("proposals.csv", read_boxes)):
        try:
            rows[name] = reader(directory / name, size, image_id)
        except FileNotFoundError:
            if name == "gt.csv":
                failures.append("missing gt.csv")
        except ParseError as exc:
            failures.append(str(exc))
    if failures:
        raise BundleValidationError(directory, failures)
    known = KNOWN_BUNDLE_FILES | set(map_files.values())
    for child in sorted(directory.iterdir()):
        if child.name not in known:
            warnings.append(f"unknown file ignored: {child.name}")
    return SceneBundle(
        path=str(directory), image_id=image_id, meta=meta, maps=maps,
        gt=tuple(GtInstance(r.class_id, r.box, r.ignore) for r in rows["gt.csv"]),
        proposals=(tuple((r.class_id, r.box, r.score) for r in rows["proposals.csv"])
                   if "proposals.csv" in rows else None),
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
