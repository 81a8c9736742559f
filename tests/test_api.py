"""The public surface that users and the traced benchmark run rely on."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

from types import SimpleNamespace

import numpy as np
import pytest

import tightbox
from tightbox.confmap import ConfMap
from tightbox.evaluation import ablation_sweep
from tightbox.geometry import Box, ring
from tightbox.io_formats import GtRecord, read_bundle, write_bundle
from tightbox.scoring import ScoringConfig, build_pool, score_batch

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
PACKAGE = Path(tightbox.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_exported_name_resolves():
    missing = [name for name in tightbox.__all__ if not hasattr(tightbox, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # a fresh interpreter per module, so a module that only imports once
    # another has loaded it fails here
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", f"import tightbox.{module}"],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr


def test_package_imports_form_no_cycle():
    # module-level ``from .x import ...`` edges; ``from . import name``
    # reads the package's __init__
    graph = {}
    for path in PACKAGE.glob("*.py"):
        graph[path.stem] = {
            node.module or "__init__"
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.level == 1}
    done, path = set(), []

    def visit(name):
        assert name not in path, f"import cycle: {' -> '.join(path + [name])}"
        if name in done:
            return
        path.append(name)
        for target in sorted(graph[name]):
            visit(target)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


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


def test_results_have_the_shapes_the_benchmark_reads(tmp_path):
    # bench/run.py unpacks bundle proposals, reads these attributes of
    # score_batch entries, pools and rings, and checks pool order by the
    # identity of the entries
    maps = {1: ConfMap(class_id=1, values=np.full((16, 16), 0.5))}
    path = write_bundle(tmp_path / "scene", "scene", maps, [(1, Box(2, 2, 8, 8))],
                        proposals=[(1, Box(2, 2, 8, 8)), (1, Box(4, 4, 12, 12))])
    bundle = read_bundle(path)
    boxes = []
    for cid, box, score in bundle.proposals:
        assert (cid, score) == (1, None)
        boxes.append(box)
    cfg = ScoringConfig()
    scored = score_batch(bundle.maps[1], boxes, cfg)
    for s, box in zip(scored, boxes):
        assert s.box == box
        assert s.objectness == s.p_inside - s.p_surround
        assert s.excluded is False
    pool = build_pool(scored, cfg, image_id="scene")
    assert (pool.image_id, pool.class_id) == ("scene", 1)
    assert isinstance(pool.entries, tuple)
    assert all(any(e is s for s in scored) for e in pool.entries)
    assert ring(Box(2, 2, 8, 8), 1.2, 16, 16).pixel_count == 8 * 8 - 6 * 6


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
            gt=[GtRecord(f"s{i}", 1, Box(2, 3, 9, 12))]))
    result = ablation_sweep(scenes, [1.1, 1.2, 1.3, 1.4], [0.3, 0.5, 0.7, 1.0])
    assert len(result.cells) == 16
    assert [id(m) for m in calls] == [id(m) for m in scored_maps]
