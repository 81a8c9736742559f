#!/usr/bin/env python3
"""tightbox benchmark: one workload per process, one thread, one client.

Run from the repository root:

    python3 bench/run.py --workload corpus128 --seed 1 --seconds 20 --trace 0

The run drives the public CLI (``tightbox.cli.main``, in-process) and the
public library (``score_batch``, ``build_pool``) as a closed loop: each call
starts when the previous one has returned. It repeats whole passes over the
workload for ``--seconds``, checks every output outside the timed regions,
and prints one JSON object as its last line. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports per-layer metrics from spans
recorded around the package's public functions (see spans.py). Workloads,
metrics and how to compare two commits are described in bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".tbbench"

MIN_PASSES = 3            # medians need at least three passes
MIN_CALL_SAMPLES = 110    # p10 and p90 need at least ten samples beyond them
SETUP_PROBES = 8          # extra set-ups in fresh interpreters, spread over the run
MAX_LOOP_S = 140.0        # stop starting passes past this, whatever else holds
ORACLE_TOL = 1e-6

# Corpus workloads run the CLI stages. After each stage in library_after,
# every map of the corpus goes through score_batch + build_pool, timed per
# call. Spreading these calls over the pass samples the host's speed at
# several points instead of one (see end_to_end).
CORPUS = {
    "corpus128": {
        "scenes": 200,
        "synth": ["--noise", "0.03", "--blur", "1"],
        "evals": ["recall", "corloc", "map"],
        "mask_overlay": False,
        "library_after": ("synth_s", "score_s", "eval_s", "sweep_s"),
        "sample_every": 10,
    },
    "corpus512": {
        "scenes": 24,
        "synth": ["--width", "512", "--height", "512", "--blur", "2",
                  "--tight", "100", "--partial", "100", "--loose", "100",
                  "--background", "100"],
        "evals": ["recall", "map"],
        "mask_overlay": True,
        "library_after": ("score_s", "sweep_s", "mask_overlay_s"),
        "sample_every": 3,
    },
}
DENSE = {"maps": 20, "side": 512, "boxes": 2000, "box_range": (16, 192),
         "oracle_maps": (0, 7, 14), "oracle_every": 250}
WORKLOADS = list(CORPUS) + ["dense512"]

END_TO_END = [
    ("setup_s", "s"), ("pass_s", "s"), ("score_boxes_per_s", "1/s"),
    ("map_score_ms_p90", "ms"), ("peak_rss_mb", "MB"),
]

# Per-layer metrics in the result line: the self time and call count of
# every wrapped function, the self time of every CLI subcommand, and per-pass
# counts. A function that a workload never reaches reads 0 on it.
LAYER_CALLS = [
    "io_formats.read_corpus", "io_formats.read_bundle", "io_formats.read_confmap",
    "io_formats.read_scored", "io_formats.write_scored", "io_formats.write_bundle",
    "confmap.ConfMap", "confmap.build_integral",
    "scoring.score_batch", "scoring.build_pool",
    "evaluation.score_corpus", "evaluation.recall_at_k", "evaluation.corloc",
    "evaluation.voc_ap", "evaluation.ablation_sweep",
    "synth.make_trap_spec", "synth.oracle_score", "synth.gen_scene",
    "synth.gen_proposals",
    "pseudomask.generate_mask", "pseudomask.normalize_cam", "overlay.write_overlay",
]
CLI_SPANS = ["cli.synth", "cli.score", "cli.eval_recall", "cli.eval_corloc", "cli.eval_map",
             "cli.eval_sweep", "cli.mask", "cli.overlay"]
LAYER_TIMES = LAYER_CALLS + CLI_SPANS
LAYER_COUNTS = [
    ("io_formats.map_bytes_read", "bytes"), ("io_formats.scored_rows", "count"),
    ("io_formats.bytes_written", "bytes"),
    ("confmap.integral_bytes", "bytes"),
    ("scoring.boxes_scored", "count"), ("scoring.empty_rings", "count"),
    ("scoring.ring_pixels", "count"), ("scoring.ring_bytes", "bytes"),
    ("scoring.pool_truncations", "count"), ("scoring.pool_entries", "count"),
    ("evaluation.detections", "count"), ("evaluation.sweep_cells", "count"),
    ("evaluation.sweep_score_batch_calls", "count"),
    ("evaluation.sweep_build_integral_calls", "count"),
    ("synth.proposals_generated", "count"), ("synth.generator_warnings", "count"),
    ("pseudomask.mask_pixels", "count"),
    ("cli.calls", "count"), ("cli.manifest_bytes_hashed", "bytes"),
]
PER_LAYER = ([(f"{n}.self_s", "s") for n in LAYER_TIMES]
             + [(f"{n}.calls", "count") for n in LAYER_CALLS]
             + LAYER_COUNTS + [("trace.overhead_frac", "frac")])

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program to measure)."""


# ---------------------------------------------------------------------------
# set-up

def import_program() -> None:
    """Import tightbox from this checkout's src/ and nowhere else."""
    if not (SRC / "tightbox" / "__init__.py").is_file():
        raise BenchError(f"no tightbox package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tightbox
    if Path(tightbox.__file__).resolve().parent != (SRC / "tightbox").resolve():
        raise BenchError(f"imported tightbox from {tightbox.__file__}, not {SRC}")
    import tightbox.cli  # noqa: F401  (the CLI is a timed entry point)


def dense_inputs(seed: int):
    import numpy as np
    from tightbox import Box, ConfMap
    rng = np.random.default_rng([seed, 512])
    side, lo, hi = DENSE["side"], *DENSE["box_range"]
    maps = [ConfMap(class_id=c, values=rng.random((side, side), dtype=np.float32))
            for c in range(1, DENSE["maps"] + 1)]
    boxes = []
    for _ in range(DENSE["boxes"]):
        w = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
        h = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
        x0 = int(rng.integers(0, side - w))
        y0 = int(rng.integers(0, side - h))
        boxes.append(Box(x0, y0, x0 + w, y0 + h))
    return [(f"map_{m.class_id:02d}", m, boxes) for m in maps]


def setup(workload: str, seed: int):
    """Everything before the first timed call; returns the workload inputs."""
    import_program()
    return dense_inputs(seed) if workload == "dense512" else None


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured from its own start."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# operations

class Op:
    """One operation: a CLI call or a score_batch + build_pool call."""

    __slots__ = ("label", "seconds", "ok", "why", "outputs", "pass_no")

    def __init__(self, label, seconds, ok, why="", outputs=()):
        self.label, self.seconds, self.ok, self.why = label, seconds, ok, why
        self.outputs, self.pass_no = outputs, -1

    def fail(self, why: str) -> None:
        if why and self.ok:
            self.ok, self.why = False, why


def traced_by(tracer):
    """The tracer's wrappers for the duration of one call into the program."""
    return tracer.installed() if tracer else contextlib.nullcontext()


def run_cli(argv: list[str], outputs: tuple[str, ...], tracer) -> Op:
    """One in-process CLI call; its stdout and stderr are kept, not printed."""
    from tightbox import cli
    label = " ".join(argv[:2] if argv[0] == "eval" else argv[:1])
    captured = io.StringIO()
    span = tracer.span("cli." + label.replace(" ", "_")) if tracer else contextlib.nullcontext()
    with traced_by(tracer), \
            contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        t0 = clock()
        try:
            with span:
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit through here
            rc = exc.code
        except Exception:
            rc = "exception: " + traceback.format_exc(limit=3)
        seconds = clock() - t0
    ok = rc == 0
    return Op(label, seconds, ok, "" if ok else f"exit {rc}: {captured.getvalue()[-300:]}",
              outputs)


def corpus_pass(spec: dict, seed: int, tracer, library) -> tuple[dict, list[Op]]:
    """The CLI stages of one pass, run in the current (empty) work directory.

    ``library()`` runs after each stage named in spec["library_after"],
    outside the stage's time.
    """
    synth_seed = str(seed * 100_003)
    stages = {}
    ops = []

    def stage(name, calls):
        t0 = clock()
        for argv, outputs in calls:
            ops.append(run_cli(argv, outputs, tracer))
        stages[name] = clock() - t0
        if name in spec["library_after"]:
            library()

    stage("synth_s", [(["synth", "--out", "corpus", "--scenes", str(spec["scenes"]),
                        "--seed", synth_seed, *spec["synth"]], ("corpus/",))])
    stage("score_s", [(["score", "corpus", "--out", "scored.csv"], ("scored.csv",))])
    stage("eval_s", [(["eval", e, "--corpus", "corpus", "--scored", "scored.csv",
                       "--out", f"{e}.json"], (f"{e}.json",)) for e in spec["evals"]])
    stage("sweep_s", [(["eval", "sweep", "--corpus", "corpus", "--out", "sweep.json"],
                       ("sweep.",))])
    if spec["mask_overlay"]:
        maps = sorted(Path("corpus").glob("scene_*/class_*.tscf"))
        calls = []
        for m in maps:
            scene = m.parent.name
            calls.append((["mask", "--cams", str(m), "--saliency", str(m),
                           "--out", f"masks/{scene}.pgm"], (f"masks/{scene}.",)))
            calls.append((["overlay", "--map", str(m), "--boxes",
                           str(m.parent / "proposals.csv"), "--out",
                           f"overlays/{scene}.pgm"], (f"overlays/{scene}.pgm",)))
        stage("mask_overlay_s", calls)
    return stages, ops


def library_pass(source, tracer, check) -> tuple[list[Op], list[int]]:
    """score_batch + build_pool per map, each call timed on its own.

    ``source()`` yields (image_id, map, boxes). ``check(i, map, scored,
    pool)`` runs after call i, outside its time, and returns a failure or
    ""; no result outlives its check. A traced pass installs the wrappers
    around each timed call only, so reading the inputs leaves no spans. The
    functions are looked up on the module at every call so that the
    wrappers see them.
    """
    from tightbox import scoring
    cfg = scoring.ScoringConfig()
    ops, sizes = [], []
    for image_id, m, boxes in source():
        with traced_by(tracer):
            t0 = clock()
            scored = scoring.score_batch(m, boxes, cfg)
            pool = scoring.build_pool(scored, cfg, image_id=image_id)
            seconds = clock() - t0
        op = Op(f"score_batch {image_id}", seconds, True)
        op.fail(check(len(ops), m, scored, pool))
        ops.append(op)
        sizes.append(len(boxes))
    return ops, sizes


def corpus_bundles():
    """The corpus's bundles in read_corpus order, read one at a time.

    The benchmark never holds more than one scene's maps, so the run's peak
    memory is the program's own.
    """
    from tightbox.io_formats import read_bundle
    for d in sorted(Path("corpus").iterdir()):
        if d.is_dir() and (d / "spec.json").is_file():
            yield read_bundle(d)


def corpus_library_inputs():
    """(image_id, map, boxes) per scene and class, grouped as score_corpus does."""
    for b in corpus_bundles():
        by_class = {}
        for cid, box, _ in b.proposals:
            by_class.setdefault(cid, []).append(box)
        for cid in sorted(by_class):
            yield b.image_id, b.maps[cid], by_class[cid]


# ---------------------------------------------------------------------------
# output checks (outside every timed region)

def tree_digests(ops: list[Op]) -> dict[int, str]:
    """sha256 over the files each CLI op wrote, keyed by op index."""
    files = sorted(str(p) for p in Path(".").rglob("*") if p.is_file())
    out = {}
    for i, op in enumerate(ops):
        if not op.outputs:
            continue
        h = hashlib.sha256()
        for f in files:
            if f.startswith(op.outputs):
                h.update(f.encode() + b"\0" + Path(f).read_bytes())
        out[i] = h.hexdigest()
    return out


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def formatted(entries) -> list:
    """Box and statistics as the CLI writes them, at 9 significant digits."""
    fmt = "{:.9g}".format
    return [(e.box.as_tuple(), fmt(e.p_inside), fmt(e.p_surround), fmt(e.objectness))
            for e in entries]


def check_pool_order(scored, pool, pool_size: int) -> str:
    """Pools hold the top pool_size kept entries by (-objectness, -p_inside,
    input position), the documented tie order."""
    ranked = sorted(((-s.objectness, -s.p_inside, i), s)
                    for i, s in enumerate(scored) if not s.excluded)
    expect = [s for _, s in ranked[:pool_size]]
    if len(expect) != len(pool.entries) or any(a is not b for a, b in zip(expect, pool.entries)):
        return "pool does not follow the documented tie order"
    return ""


def check_oracle(m, scored_entries, cfg) -> str:
    from tightbox.synth import oracle_score
    for s in scored_entries:
        o = oracle_score(m, s.box, cfg)
        for field in ("p_inside", "p_surround", "objectness"):
            if abs(getattr(s, field) - getattr(o, field)) > ORACLE_TOL:
                return f"{field} of {s.box} off the oracle by more than {ORACLE_TOL}"
    return ""


def library_checker(reference: list[str], pools: dict, oracle_sample):
    """The check for one round of library calls (see library_pass).

    The first round of a run checks every pool's tie order and a sample of
    entries, ``oracle_sample(i, scored, pool)``, against the oracle. It
    records a digest of each pool in ``reference`` and of each formatted
    pool in ``pools``, keyed by (image, class). Every later round must give
    the same pools.
    """
    from tightbox.scoring import ScoringConfig
    cfg = ScoringConfig()
    first = not reference

    def check(i, m, scored, pool) -> str:
        sig = digest([(e.box.as_tuple(), e.p_inside, e.p_surround, e.objectness)
                      for e in pool.entries])
        if not first:
            return "" if sig == reference[i] else "pool differs from the first round"
        reference.append(sig)
        pools[(pool.image_id, pool.class_id)] = digest(formatted(pool.entries))
        return (check_pool_order(scored, pool, cfg.pool_size)
                or check_oracle(m, oracle_sample(i, scored, pool), cfg))

    return check


def corpus_oracle_sample(spec: dict):
    """First, middle and last entry of every n-th (image, class) pool."""
    def sample(i, scored, pool):
        if i % spec["sample_every"]:
            return []
        e = pool.entries
        return [e[0], e[len(e) // 2], e[-1]]
    return sample


def dense_oracle_sample(i, scored, pool):
    return scored[::DENSE["oracle_every"]] if i in DENSE["oracle_maps"] else []


def check_corpus_outputs(spec: dict, ops: list[Op], pools: dict) -> None:
    """Check one pass's CLI outputs against the library pools and the corpus."""
    from tightbox.io_formats import read_scored
    by_label = {}
    for op in ops:
        by_label.setdefault(op.label, []).append(op)
    score_op = by_label["score"][0]
    if not score_op.ok:
        return

    # the CLI's rows are the library's pools, formatted, in (image, class) order
    groups = {}
    for r in read_scored("scored.csv"):
        groups.setdefault((r.image_id, r.class_id), []).append(r)
    if list(groups) != sorted(groups) or set(groups) != set(pools):
        score_op.fail("scored rows are not one group per (image, class) in order")
        return
    for key, group in groups.items():
        if digest(formatted(group)) != pools[key]:
            score_op.fail(f"scored rows for {key} differ from score_batch + build_pool")
            return
        keys = [(-r.objectness, -r.p_inside) for r in group]
        if keys != sorted(keys):
            score_op.fail(f"scored rows for {key} are not in tie order")
            return
    n_gt = sum(len(b.gt) for b in corpus_bundles())

    def load(name):
        with open(name) as f:
            return json.load(f)

    if "recall" in spec["evals"] and by_label["eval recall"][0].ok:
        rec = load("recall.json")
        values = [rec["recall"][str(k)] for k in rec["ks"]]
        if (rec["total_instances"] != n_gt or values != sorted(values)
                or not all(0.0 <= v <= 1.0 for v in values)):
            by_label["eval recall"][0].fail("recall.json is inconsistent")
        sweep = load("sweep.json")["cells"]
        default = sweep.get("1.2,0.5", {})
        if (len(sweep) != 16 or not default.get("is_default")
                or default.get("recall_at_1") != rec["recall"]["1"]):
            by_label["eval sweep"][0].fail("sweep default cell disagrees with eval recall")
    if "corloc" in spec["evals"] and by_label["eval corloc"][0].ok:
        if not 0.0 <= load("corloc.json")["mean"] <= 1.0:
            by_label["eval corloc"][0].fail("corloc mean outside [0, 1]")
    if "map" in spec["evals"] and by_label["eval map"][0].ok:
        if not 0.0 <= load("map.json")["mAP"] <= 1.0:
            by_label["eval map"][0].fail("mAP outside [0, 1]")
    for op in by_label.get("mask", []):
        stats = load(op.outputs[0] + "pgm.stats.json")
        if sum(stats["counts"].values()) != stats["total_pixels"]:
            op.fail("mask stats do not add up")
    for op in by_label.get("overlay", []):
        data = Path(op.outputs[0]).read_bytes()
        _, w, h, _ = data[:32].split(maxsplit=3)
        if len(data) != len(b"P5\n%s %s\n255\n" % (w, h)) + int(w) * int(h):
            op.fail("overlay has the wrong size")


# ---------------------------------------------------------------------------
# per-layer counts, computed by the benchmark from the calls it observed

def layer_metrics(tracer, lo: int, hi: int) -> tuple[dict, dict]:
    from tightbox.geometry import ring
    metrics = {k: 0 for k, _ in LAYER_COUNTS}
    paths = []
    for name, _, _, _, payload in tracer.spans[lo:hi]:
        if name == "scoring.score_batch":
            w, h, itemsize, ratio, boxes = payload
            metrics["scoring.boxes_scored"] += len(boxes)
            for b in boxes:
                px = ring(b, ratio, w, h).pixel_count
                metrics["scoring.ring_pixels"] += px
                metrics["scoring.ring_bytes"] += px * itemsize
                metrics["scoring.empty_rings"] += px == 0
        elif name == "scoring.build_pool":
            kept, size, entries = payload
            metrics["scoring.pool_truncations"] += kept > size
            metrics["scoring.pool_entries"] += entries
        elif name == "confmap.build_integral":
            metrics["confmap.integral_bytes"] += (payload[0] + 1) * (payload[1] + 1) * 8
        elif name == "io_formats.read_confmap":
            paths.append(payload)
        elif name in ("io_formats.read_scored", "io_formats.write_scored"):
            metrics["io_formats.scored_rows"] += payload
        elif name == "evaluation.voc_ap":
            metrics["evaluation.detections"] += payload
        elif name == "evaluation.ablation_sweep":
            metrics["evaluation.sweep_cells"] += payload
        elif name == "synth.gen_proposals":
            metrics["synth.proposals_generated"] += payload[0]
            metrics["synth.generator_warnings"] += payload[1]
        elif name == "pseudomask.generate_mask":
            metrics["pseudomask.mask_pixels"] += payload
        elif name.startswith("cli."):
            metrics["cli.calls"] += 1
    metrics["io_formats.map_bytes_read"] = sum(os.path.getsize(p) for p in paths)
    files = [p for p in Path(".").rglob("*") if p.is_file()]
    metrics["io_formats.bytes_written"] = sum(p.stat().st_size for p in files)
    for p in files:
        if p.name.endswith("manifest.json"):
            with open(p) as f:
                outputs = json.load(f)["outputs"]
            metrics["cli.manifest_bytes_hashed"] += sum(os.path.getsize(o) for o in outputs)
    in_sweep = spans.under(tracer.spans, lo, hi, "evaluation.ablation_sweep")
    metrics["evaluation.sweep_score_batch_calls"] = in_sweep.get("scoring.score_batch", 0)
    metrics["evaluation.sweep_build_integral_calls"] = in_sweep.get("confmap.build_integral", 0)
    selfs = spans.self_times(tracer.spans, lo, hi)
    for n in LAYER_CALLS:
        metrics[f"{n}.calls"] = selfs.get(n, [0, 0.0])[0]
    return metrics, selfs


# ---------------------------------------------------------------------------
# the run

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; insists on ten samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    if min(rank - 1, len(ordered) - rank) < 10:
        raise BenchError(f"p{q:g} needs ten samples beyond it; have {len(ordered)} in all")
    return ordered[rank - 1]


def fingerprint(workload: str, seed: int, trace: int) -> dict:
    import numpy
    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
    code = hashlib.sha256()
    for p in sorted((SRC / "tightbox").glob("*.py")):
        code.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": commit,
        "code_sha256": code.hexdigest(), "loadavg_1m": os.getloadavg()[0],
        "cpu_pinning": "none", "cache_dropping": "none",
        "loop": "closed", "clients": 1, "threads": 1,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, inputs) -> dict:
    """Passes until the time is up; returns everything the run reports."""
    tracer = spans.Tracer(f"{workload}-seed{seed}-pid{os.getpid()}") if trace else None
    spec = CORPUS.get(workload)
    passes = []          # per pass: {"traced", "wall", "op_s", "stages", "lib_s"}
    all_ops: list[Op] = []
    calls: list[tuple[float, int]] = []   # untraced library calls: (seconds, boxes)
    reference_digests: dict[int, str] = {}
    reference_pools: list[str] = []       # per library call of a round
    pools: dict = {}                      # (image, class) -> formatted pool digest
    layer_passes = []    # per traced pass: (counts, self times)
    source = corpus_library_inputs if spec else (lambda: inputs)
    oracle_sample = corpus_oracle_sample(spec) if spec else dense_oracle_sample
    setups: list[float] = []  # untraced runs only; probe k is due at k/SETUP_PROBES of the time
    t_loop = clock()

    def more() -> bool:
        """Start another pass while it will mostly fit in the time left."""
        elapsed = clock() - t_loop
        if elapsed > MAX_LOOP_S:
            return False
        if trace:
            need = len(passes) < 2
        else:
            need = len(passes) < MIN_PASSES or len(calls) < MIN_CALL_SAMPLES
        return need or elapsed + elapsed / len(passes) / 2 < seconds

    while more():
        traced = trace and len(passes) % 2 == 1
        if spec:
            for child in Path(".").iterdir():
                shutil.rmtree(child) if child.is_dir() else child.unlink()
        lo = len(tracer.spans) if tracer else 0
        lib_ops, sizes = [], []

        def library():
            o, n = library_pass(source, tracer if traced else None,
                                library_checker(reference_pools, pools, oracle_sample))
            lib_ops.extend(o)
            sizes.extend(n)

        if spec:
            stages, cli_ops = corpus_pass(spec, seed, tracer if traced else None, library)
        else:
            stages, cli_ops = {}, []
            library()
        ops = cli_ops + lib_ops
        digests = tree_digests(cli_ops)
        if not passes:
            reference_digests = digests
            if spec:
                check_corpus_outputs(spec, cli_ops, pools)
        else:
            for i, d in digests.items():
                if reference_digests.get(i) != d:
                    cli_ops[i].fail("output bytes differ from the first pass")
        if traced:
            layer_passes.append(layer_metrics(tracer, lo, len(tracer.spans)))
        for op in ops:
            op.pass_no = len(passes)
        all_ops.extend(ops)
        lib_s = sum(op.seconds for op in lib_ops)
        passes.append({"traced": traced, "wall": sum(stages.values()) if spec else lib_s,
                       "op_s": [op.seconds for op in (cli_ops if spec else lib_ops)],
                       "stages": stages, "lib_s": lib_s})
        if not traced:
            calls.extend(zip((op.seconds for op in lib_ops), sizes))
        if not trace and clock() - t_loop >= len(setups) * seconds / SETUP_PROBES:
            setups.append(setup_probe(workload, seed))

    while not trace and len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload, seed))
    return {"tracer": tracer, "passes": passes, "ops": all_ops, "calls": calls,
            "layer_passes": layer_passes, "setups": setups}


def end_to_end(m: dict, setup_main: float) -> tuple[dict, dict]:
    """Result-line metrics, and medians that are printed but not bounded.

    The host this was tuned on alternates between a fast and a 1.5x slower
    speed in stretches of seconds, and the share of fast time differs a lot
    from run to run. A median or a quartile lands in whichever speed held
    most of the run, so it jumps between runs; the slow tail stays put. So
    latency is given at p90, throughput at the 10th percentile of per-call
    boxes per second, a pass as the sum of each of its operations' p90 time
    across passes (with fewer than ten passes, that operation's slowest
    time), and set-up as the 75th percentile of the run's own set-up and the
    probes spread over the run.
    """
    plain = [p for p in m["passes"] if not p["traced"]]
    ms = [s * 1e3 for s, _ in m["calls"]]
    rate = [b / s for s, b in m["calls"]]
    per_op = zip(*(p["op_s"] for p in plain))
    setups = sorted([setup_main] + m["setups"])
    metrics = {
        "setup_s": setups[math.ceil(0.75 * len(setups)) - 1],
        "pass_s": sum(sorted(t)[math.ceil(0.9 * len(t)) - 1] for t in per_op),
        "score_boxes_per_s": percentile(rate, 10),
        "map_score_ms_p90": percentile(ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    medians = {
        "pass_s_median": (statistics.median(p["wall"] for p in plain), "s"),
        "map_score_ms_p50": (statistics.median(ms), "ms"),
        "score_boxes_per_s_median": (statistics.median(rate), "1/s"),
    }
    return metrics, medians


def per_layer(m: dict) -> tuple[dict, dict]:
    """Result-line metrics and the full self-time table of the traced passes."""
    traced = [p for p in m["passes"] if p["traced"]]
    plain = [p for p in m["passes"] if not p["traced"]]
    counts, _ = m["layer_passes"][0]
    table = {}
    for _, selfs in m["layer_passes"]:
        for name, (calls, self_s) in selfs.items():
            table.setdefault(name, {"calls": calls, "self_s": []})["self_s"].append(self_s)
    table = {n: {"calls": v["calls"], "self_s": statistics.median(v["self_s"])}
             for n, v in sorted(table.items())}
    metrics = {f"{n}.self_s": table[n]["self_s"] if n in table else 0.0 for n in LAYER_TIMES}
    metrics.update(counts)
    untraced = statistics.median(p["wall"] + p["lib_s"] for p in plain)
    traced_s = statistics.median(p["wall"] + p["lib_s"] for p in traced)
    metrics["trace.overhead_frac"] = traced_s / untraced - 1.0
    return metrics, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    inputs = setup(args.workload, args.seed)
    setup_main = clock() - T_START
    if args.setup_probe:
        print(repr(setup_main))
        return 0

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = OUT_ROOT / "work" / run_id
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), inputs)
        if args.trace:
            metrics, table = per_layer(m)
            units, extra = dict(PER_LAYER), {}
        else:
            metrics, extra = end_to_end(m, setup_main)
            units, table = dict(END_TO_END), {}
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    ops = m["ops"]
    failed = [op for op in ops if not op.ok]
    for op in failed[:10]:
        print(f"FAILED {op.label}: {op.why}", file=sys.stderr)
    stages = {}
    for p in m["passes"]:
        if not p["traced"]:
            for k, v in p["stages"].items():
                stages.setdefault(k, []).append(v)
    for k, v in stages.items():
        extra[k] = (statistics.median(v), "s")
    extra["failed_frac"] = (len(failed) / len(ops), "frac")
    info = {
        "fingerprint": fingerprint(args.workload, args.seed, args.trace),
        "passes": len(m["passes"]),
        "traced_passes": sum(p["traced"] for p in m["passes"]),
        "map_score_samples": len(m["calls"]),
        "unbounded": extra,
        "self_time_table": table,
        "op_seconds": [[op.pass_no, op.label, op.seconds] for op in ops],
    }
    OUT_ROOT.joinpath("results").mkdir(parents=True, exist_ok=True)
    if m["tracer"] is not None:
        OUT_ROOT.joinpath("traces").mkdir(parents=True, exist_ok=True)
        m["tracer"].write(OUT_ROOT / "traces" / f"{run_id}.jsonl")

    print("fingerprint " + json.dumps(info["fingerprint"], sort_keys=True))
    print(f"passes {info['passes']} (traced {info['traced_passes']}), "
          f"score_batch+build_pool samples {info['map_score_samples']}, "
          f"{len(failed)} of {len(ops)} operations failed")
    for k, (v, unit) in extra.items():
        print(f"also {k} = {v:.6g} {unit} (printed only, no bound)")
    for name, row in table.items():
        print(f"layer {name}.self_s = {row['self_s']:.6f} s, calls {row['calls']} (per pass)")
    computed = dict(LAYER_COUNTS)
    for k, v in metrics.items():
        note = " (computed from the observed calls' inputs)" if k in computed else ""
        print(f"metric {k} = {v if isinstance(v, int) else format(v, '.6g')} {units[k]}{note}")
    result = {
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT_ROOT / "results" / f"{run_id}.json", "w") as f:
        json.dump({**info, **result}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
