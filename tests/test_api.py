"""The public surface that users and the traced benchmark run rely on."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import tightbox
from tightbox.confmap import ConfMap
from tightbox.geometry import Box
from tightbox.scoring import ScoringConfig

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_exported_name_resolves():
    missing = [name for name in tightbox.__all__ if not hasattr(tightbox, name)]
    assert missing == []


def test_every_traced_target_exists():
    missing = [(module, attr) for module, attr, _, _ in load_targets()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_score_batch_builds_its_integral_through_the_module_global(monkeypatch):
    # the traced run counts integral builds by wrapping this module attribute
    scoring = importlib.import_module("tightbox.scoring")
    calls = []
    real = scoring.build_integral

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(scoring, "build_integral", counting)
    m = ConfMap(class_id=1, values=np.full((8, 8), 0.5))
    scoring.score_batch(m, [Box(1, 1, 4, 4)], ScoringConfig())
    scoring.score_batch(m, [], ScoringConfig())
    assert len(calls) == 2
