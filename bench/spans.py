"""Span recorder for the benchmark's traced runs.

The recorder wraps public tightbox functions at the names where each module
imports them (``tightbox.cli.read_corpus``, ``tightbox.evaluation.score_batch``,
...), so calls made from inside the package are seen as well as calls made
by the benchmark. Nothing in the package is edited: ``install`` swaps module
attributes and ``uninstall`` puts the originals back, so untraced passes run
the unmodified program.

A span is ``[name, start, end, parent_index, payload]``. Spans stay in memory
and are written out once, at the end of the run. ``payload`` holds the few
facts a per-layer count needs (a box list, a file path, a row count); the
counts themselves are computed after the traced pass, outside its timing.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time


def _score_batch_args(args, kwargs, result):
    m, boxes, cfg = args[0], args[1], args[2] if len(args) > 2 else kwargs["cfg"]
    return (m.width, m.height, m.values.itemsize, cfg.enlarge_ratio, boxes)


def _build_pool_args(args, kwargs, result):
    scored, cfg = args[0], args[1] if len(args) > 1 else kwargs["cfg"]
    kept = sum(1 for s in scored if not s.excluded)
    return (kept, cfg.pool_size, len(result.entries))


def _integral_dims(args, kwargs, result):
    return (args[0].width, args[0].height)


def _first_arg(args, kwargs, result):
    return str(args[0])


def _result_len(args, kwargs, result):
    return len(result)


def _first_arg_len(args, kwargs, result):
    return len(args[0])


def _sweep_cells(args, kwargs, result):
    return len(result.cells)


def _proposal_family(args, kwargs, result):
    return (sum(result.counts.values()), len(result.warnings))


def _mask_pixels(args, kwargs, result):
    return int(result.labels.size)


# (module, attribute, span name, payload extractor). A function imported by
# several modules is wrapped under each name so every call site is seen.
TARGETS = [
    ("tightbox.cli", "read_corpus", "io_formats.read_corpus", None),
    ("tightbox.io_formats", "read_bundle", "io_formats.read_bundle", None),
    ("tightbox.io_formats", "read_confmap", "io_formats.read_confmap", _first_arg),
    ("tightbox.cli", "read_confmap", "io_formats.read_confmap", _first_arg),
    ("tightbox.cli", "read_scored", "io_formats.read_scored", _result_len),
    ("tightbox.cli", "write_scored", "io_formats.write_scored", _first_arg_len),
    ("tightbox.cli", "write_bundle", "io_formats.write_bundle", None),
    ("tightbox.scoring", "build_integral", "confmap.build_integral", _integral_dims),
    ("tightbox.scoring", "score_batch", "scoring.score_batch", _score_batch_args),
    ("tightbox.evaluation", "score_batch", "scoring.score_batch", _score_batch_args),
    ("tightbox.scoring", "build_pool", "scoring.build_pool", _build_pool_args),
    ("tightbox.evaluation", "build_pool", "scoring.build_pool", _build_pool_args),
    ("tightbox.cli", "score_corpus", "evaluation.score_corpus", None),
    ("tightbox.evaluation", "score_corpus", "evaluation.score_corpus", None),
    ("tightbox.cli", "recall_at_k", "evaluation.recall_at_k", None),
    ("tightbox.evaluation", "recall_at_k", "evaluation.recall_at_k", None),
    ("tightbox.cli", "corloc", "evaluation.corloc", None),
    ("tightbox.cli", "voc_ap", "evaluation.voc_ap", _first_arg_len),
    ("tightbox.cli", "ablation_sweep", "evaluation.ablation_sweep", _sweep_cells),
    ("tightbox.cli", "make_trap_spec", "synth.make_trap_spec", None),
    ("tightbox.synth", "oracle_score", "synth.oracle_score", None),
    ("tightbox.cli", "gen_scene", "synth.gen_scene", None),
    ("tightbox.synth", "gen_scene", "synth.gen_scene", None),
    ("tightbox.cli", "gen_proposals", "synth.gen_proposals", _proposal_family),
    ("tightbox.cli", "generate_mask", "pseudomask.generate_mask", _mask_pixels),
    ("tightbox.cli", "normalize_cam", "pseudomask.normalize_cam", None),
    ("tightbox.cli", "write_overlay", "overlay.write_overlay", None),
]


class Tracer:
    """In-memory spans for one run; ``run_id`` tags every span it writes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _record(self, name, fn, extract):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapped(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if extract is not None:
                rec[4] = extract(args, kwargs, result)
            return result

        return wrapped

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into the program."""
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    @contextlib.contextmanager
    def installed(self):
        """The wrappers in place for the duration of the block."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        for module_name, attr, name, extract in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._record(name, fn, extract))
        # ConfMap validation is its __post_init__; patching the class keeps
        # isinstance checks elsewhere in the package working.
        confmap = importlib.import_module("tightbox.confmap")
        post = confmap.ConfMap.__post_init__
        self._saved.append((confmap.ConfMap, "__post_init__", post))
        confmap.ConfMap.__post_init__ = self._record("confmap.ConfMap", post, None)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        """One JSON line per span; parents are indexes into the same file."""
        with open(path, "w") as f:
            f.write(json.dumps({"run_id": self.run_id,
                                "fields": ["id", "name", "start", "end", "parent"]}) + "\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                f.write(json.dumps([i, name, start, end, parent]) + "\n")


def self_times(spans: list[list], lo: int, hi: int) -> dict[str, list]:
    """{name: [calls, self seconds]} over spans[lo:hi].

    Self time is a span's duration minus the time its direct children
    cover; one thread runs everything, so children never overlap.
    """
    child = [0.0] * (hi - lo)
    for s in spans[lo:hi]:
        if s[3] >= lo:
            child[s[3] - lo] += s[2] - s[1]
    out: dict[str, list] = {}
    for i, s in enumerate(spans[lo:hi]):
        entry = out.setdefault(s[0], [0, 0.0])
        entry[0] += 1
        entry[1] += (s[2] - s[1]) - child[i]
    return out


def under(spans: list[list], lo: int, hi: int, ancestor: str) -> dict[str, int]:
    """Calls per span name made (at any depth) inside spans named ``ancestor``."""
    inside = [False] * (hi - lo)
    counts: dict[str, int] = {}
    for i, s in enumerate(spans[lo:hi]):
        p = s[3]
        if p >= lo and (inside[p - lo] or spans[p][0] == ancestor):
            inside[i] = True
            counts[s[0]] = counts.get(s[0], 0) + 1
    return counts
