"""The public surface that users and the traced benchmark run rely on."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from types import SimpleNamespace

import numpy as np
import pytest

import tightbox
from tightbox.confmap import ConfMap
from tightbox.evaluation import GtInstance, ablation_sweep
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


# (module, function, positional and keyword arguments) of every call that
# bench/run.py makes into the program directly
BENCHMARK_CALLS = [
    ("tightbox.io_formats", "read_bundle", ("corpus/scene_0000",), {}),
    ("tightbox.io_formats", "read_scored", ("scored.csv",), {}),
    ("tightbox.scoring", "ScoringConfig", (), {}),
    ("tightbox.scoring", "score_batch", ("m", "boxes", "cfg"), {}),
    ("tightbox.scoring", "build_pool", ("scored", "cfg"), {"image_id": "img"}),
    ("tightbox.synth", "oracle_score", ("m", "box", "cfg"), {}),
    ("tightbox.geometry", "ring", ("b", 1.2, 512, 512), {}),
    ("tightbox.cli", "main", (["score", "corpus", "--out", "scored.csv"],), {}),
]


@pytest.mark.parametrize("module,name,args,kwargs", BENCHMARK_CALLS,
                         ids=[f"{m.split('.')[1]}.{n}" for m, n, _, _ in BENCHMARK_CALLS])
def test_every_benchmark_call_binds(module, name, args, kwargs):
    inspect.signature(getattr(importlib.import_module(module), name)).bind(*args, **kwargs)


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


def test_ablation_sweep_builds_one_integral_per_map(monkeypatch):
    # a 4x4 grid scores each (scene, class) map once, through the module
    # global that the traced run wraps, not once per cell
    scoring = importlib.import_module("tightbox.scoring")
    calls = []
    real = scoring.build_integral

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(scoring, "build_integral", counting)
    rng = np.random.default_rng(3)
    scenes, scored_maps = [], []
    for i in range(3):
        maps = {cid: ConfMap(class_id=cid, values=rng.random((16, 16)))
                for cid in (1, 2)}
        classes = (1,) if i == 0 else (1, 2)
        proposals = [(cid, Box(2 + k, 3, 9 + k, 12)) for cid in classes
                     for k in range(4)]
        scored_maps += [maps[cid] for cid in classes]
        scenes.append(SimpleNamespace(
            image_id=f"s{i}", maps=maps, proposals=proposals,
            gt=[GtInstance(class_id=1, box=Box(2, 3, 9, 12))]))
    result = ablation_sweep(scenes, [1.1, 1.2, 1.3, 1.4], [0.3, 0.5, 0.7, 1.0])
    assert len(result.cells) == 16
    assert [id(m) for m in calls] == [id(m) for m in scored_maps]
