"""CLI outputs do not depend on which SIMD kernels numpy dispatches to.

numpy picks AVX2 or AVX-512 loops at run time; a reduction whose bits
follow the loop's lane order would make a seeded run's files differ from
machine to machine. The pipeline runs twice in fresh interpreters, once
with numpy's defaults and once with the wide targets switched off by
``NPY_DISABLE_CPU_FEATURES``, and every output and manifest must hash the
same.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tightbox

umath = pytest.importorskip("numpy._core._multiarray_umath",
                            reason="numpy < 2 has no numpy._core")

WIDE_TARGETS = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]

PIPELINE = [
    ["synth", "--out", "corpus", "--scenes", "4", "--seed", "11",
     "--noise", "0.05", "--blur", "1"],
    ["score", "corpus", "--out", "scored.csv"],
    ["eval", "recall", "--corpus", "corpus", "--scored", "scored.csv",
     "--ks", "1,5,10", "--out", "recall.json"],
    ["eval", "corloc", "--corpus", "corpus", "--scored", "scored.csv",
     "--out", "corloc.json"],
    ["eval", "map", "--corpus", "corpus", "--scored", "scored.csv",
     "--out", "map_11pt.json"],
    ["eval", "map", "--corpus", "corpus", "--scored", "scored.csv",
     "--mode", "area", "--out", "map_area.json"],
    ["eval", "sweep", "--corpus", "corpus", "--out", "sweep.json"],
]

# runs PIPELINE (argv[1]) in the working directory, then prints whether
# each named CPU feature (argv[2:]) was enabled
CHILD = """\
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
from tightbox.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps([__cpu_features__[f] for f in sys.argv[2:]]))
"""


def run_pipeline(workdir: Path, disable: str | None):
    """Run the pipeline in a new interpreter; returns (file hashes, the
    enabled state of each wide target)."""
    workdir.mkdir()
    env = dict(os.environ)
    src = str(Path(tightbox.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(PIPELINE),
                           *WIDE_TARGETS], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    hashes = {str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(workdir.rglob("*")) if p.is_file()}
    return hashes, json.loads(done.stdout.splitlines()[-1])


def test_outputs_are_byte_identical_without_wide_simd(tmp_path):
    missing = [t for t in WIDE_TARGETS if t not in umath.__cpu_dispatch__]
    if missing:
        pytest.skip(f"numpy dispatches no {', '.join(missing)} kernels "
                    f"(dispatch list: {umath.__cpu_dispatch__})")
    default, _ = run_pipeline(tmp_path / "default", None)
    narrow, enabled = run_pipeline(tmp_path / "narrow", " ".join(WIDE_TARGETS))
    assert not any(enabled), dict(zip(WIDE_TARGETS, enabled))
    assert any(name.endswith("manifest.json") for name in default)
    assert {"scored.csv", "sweep.json", "map_area.json"} <= set(default)
    assert narrow == default
