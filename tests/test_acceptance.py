"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (visible with
``pytest -v -s tests/test_acceptance.py``). Tolerances and runtime
budgets are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from metric_fixtures import AP_FIXTURES, CORLOC_FIXTURES, RECALL_FIXTURES
from test_pseudomask import rule_oracle
from tightbox.cli import main as cli_main
from tightbox.confmap import ConfMap
from tightbox.evaluation import corloc, recall_at_k, voc_ap
from tightbox.geometry import Box, iou
from tightbox.pseudomask import MaskConfig, generate_mask
from tightbox.scoring import ScoringConfig, build_pool, score_batch
from tightbox.synth import (ProposalCounts, TrapParams, gen_proposals,
                            gen_scene, make_trap_spec, oracle_score)


def report(num, name, ok):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def random_box(rng, w, h):
    x0 = int(rng.integers(0, w - 1))
    y0 = int(rng.integers(0, h - 1))
    return Box(x0, y0, int(rng.integers(x0 + 1, w + 1)),
               int(rng.integers(y0 + 1, h + 1)))


def test_criterion_1_oracle_equivalence():
    """10,000 randomized cases: fast path == naive oracle within 1e-6."""
    rng = np.random.default_rng(10_101)
    fractions = [0.3, 0.5, 0.7, 1.0]
    n_cases = 0
    worst = 0.0
    start = time.perf_counter()
    for _ in range(250):
        w = int(rng.integers(4, 129))
        h = int(rng.integers(4, 129))
        m = ConfMap(class_id=1, values=rng.random((h, w)))
        for _ in range(40):
            b = random_box(rng, w, h)
            cfg = ScoringConfig(
                enlarge_ratio=float(rng.uniform(1.0, 1.5)),
                top_fraction=fractions[int(rng.integers(0, 4))])
            fast = score_batch(m, [b], cfg)[0]
            ref = oracle_score(m, b, cfg)
            worst = max(worst,
                        abs(fast.p_inside - ref.p_inside),
                        abs(fast.p_surround - ref.p_surround),
                        abs(fast.objectness - ref.objectness))
            n_cases += 1
    elapsed = time.perf_counter() - start
    ok = n_cases >= 10_000 and worst <= 1e-6 and elapsed < 60.0
    print(f"\n  cases={n_cases} worst|delta|={worst:.2e} elapsed={elapsed:.1f}s")
    report(1, "oracle equivalence", ok)


def test_criterion_2_part_trap_separation():
    """200 noiseless trap scenes: surround-aware ranking always prefers the
    tight box; inside-only ranking is fooled by a part box in >= 90%."""
    start = time.perf_counter()
    cfg = ScoringConfig()
    cfg_purity = ScoringConfig(enlarge_ratio=1.0)
    n = 200
    tight_wins = 0
    purity_fooled = 0
    for i in range(n):
        spec = make_trap_spec(20_000 + i)
        maps, _ = gen_scene(spec)
        obj = spec.objects[0]
        m = maps[obj.class_id]
        fam = gen_proposals(spec, ProposalCounts(0, 10, 0, 0), seed=i)
        partials = [b for _, b in fam.partial]
        assert partials, f"scene {i} generated no partial boxes"
        scored = score_batch(m, [obj.gt_box] + partials, cfg)
        if scored[0].objectness > max(s.objectness for s in scored[1:]):
            tight_wins += 1
        # the inside-only baseline: at ratio 1 every ring is empty
        purity = [s.objectness for s in score_batch(m, [obj.gt_box] + partials,
                                                    cfg_purity)]
        if max(purity[1:]) > purity[0]:
            purity_fooled += 1
    elapsed = time.perf_counter() - start
    ok = tight_wins == n and purity_fooled >= 0.9 * n and elapsed < 30.0
    print(f"\n  tight wins {tight_wins}/{n}, purity fooled "
          f"{purity_fooled}/{n}, elapsed={elapsed:.1f}s")
    report(2, "part-trap separation", ok)


def _trap_corpus_hits():
    """500 noisy trap scenes; per-scene top-1 hit indicators for the
    surround-aware score at fractions 0.5 / 1.0 and the purity baseline."""
    seed0 = 30_000
    n = 500
    params = TrapParams(noise_sigma=0.03, blur_radius=1)
    counts = ProposalCounts(tight=10, partial=10, loose=5, background=10)
    cfg_half = ScoringConfig(top_fraction=0.5)
    cfg_full = ScoringConfig(top_fraction=1.0)
    cfg_purity = ScoringConfig(enlarge_ratio=1.0)
    hits = {"half": [], "full": [], "purity": []}
    for i in range(n):
        spec = make_trap_spec(seed0 + i, params)
        maps, _ = gen_scene(spec)
        obj = spec.objects[0]
        m = maps[obj.class_id]
        fam = gen_proposals(spec, counts, seed=seed0 + i)
        boxes = [b for _, cid, b in fam.all_entries()]
        ranked = {
            "half": score_batch(m, boxes, cfg_half),
            "full": score_batch(m, boxes, cfg_full),
            "purity": score_batch(m, boxes, cfg_purity),
        }
        for key, scored in ranked.items():
            top = build_pool(scored, cfg_half).entries[0].box
            hits[key].append(1 if iou(top, obj.gt_box) >= 0.5 else 0)
    return {k: np.array(v) for k, v in hits.items()}


@pytest.fixture(scope="module")
def trap_corpus_hits():
    return _trap_corpus_hits()


def test_criterion_3_recall_improvement(trap_corpus_hits):
    """Recall@1 gap of surround-aware over inside-only ranking: >= 10 points,
    positive at 99% bootstrap confidence, on 500 noisy trap scenes."""
    start = time.perf_counter()
    h_obj = trap_corpus_hits["half"]
    h_pur = trap_corpus_hits["purity"]
    gap = float(h_obj.mean() - h_pur.mean())
    rng = np.random.default_rng(999)
    n = len(h_obj)
    diffs = h_obj - h_pur
    boot = np.array([diffs[rng.integers(0, n, n)].mean()
                     for _ in range(10_000)])
    ci_low = float(np.percentile(boot, 1))
    elapsed = time.perf_counter() - start
    ok = gap >= 0.10 and ci_low > 0.0 and elapsed < 120.0
    print(f"\n  recall@1: objectness={h_obj.mean():.3f} purity={h_pur.mean():.3f} "
          f"gap={100 * gap:.1f}pp ci1%={ci_low:.3f} elapsed={elapsed:.1f}s")
    report(3, "recall improvement over purity ranking", ok)


def test_criterion_4_conditional_average_fraction(trap_corpus_hits):
    """Top-50% conditional average does not trail the plain ring mean."""
    r_half = float(trap_corpus_hits["half"].mean())
    r_full = float(trap_corpus_hits["full"].mean())
    ok = r_half >= r_full
    print(f"\n  recall@1 fraction 0.5: {r_half:.3f}, fraction 1.0: {r_full:.3f}")
    report(4, "conditional-average fraction sanity", ok)


def test_criterion_5_metric_correctness():
    """Every hand-traced metric fixture reproduces exactly (1e-9)."""
    checked = 0
    for name, pools, gts, ks, expected, upper in RECALL_FIXTURES:
        curve = recall_at_k(pools, gts, ks)
        for got, want in zip(curve.recalls, expected):
            assert abs(got - want) <= 1e-9, f"recall fixture {name}"
        assert abs(curve.upper_bound - upper) <= 1e-9, f"recall fixture {name}"
        checked += 1
    n_recall = checked
    for name, pools, gts, per_class, mean in CORLOC_FIXTURES:
        result = corloc(pools, gts)
        assert abs(result.mean - mean) <= 1e-9, f"corloc fixture {name}"
        for cid, v in per_class.items():
            assert abs(result.per_class[cid] - v) <= 1e-9, f"corloc fixture {name}"
        checked += 1
    n_corloc = checked - n_recall
    for name, dets, gts, expected in AP_FIXTURES:
        for mode, (mean_ap, per_class) in expected.items():
            result = voc_ap(dets, gts, mode)
            assert abs(result.mean_ap - mean_ap) <= 1e-9, \
                f"ap fixture {name} ({mode})"
            for cid, ap in per_class.items():
                assert abs(result.per_class[cid] - ap) <= 1e-9, \
                    f"ap fixture {name} ({mode})"
        checked += 1
    n_ap = checked - n_recall - n_corloc
    ok = n_recall >= 10 and n_corloc >= 10 and n_ap >= 10
    print(f"\n  fixtures: recall={n_recall} corloc={n_corloc} ap={n_ap}")
    report(5, "metric correctness on hand-traced fixtures", ok)


def test_criterion_6_pseudo_mask_rule_table():
    """Exhaustive quantized enumeration of the five-outcome rule table."""
    cfg = MaskConfig()
    grid = [round(0.01 * i, 2) for i in range(101)]
    mismatches = 0
    total = 0

    def check(combos, n_classes):
        nonlocal mismatches, total
        cams = [ConfMap(class_id=cid,
                        values=np.array([[c[0].get(cid, 0.0) for c in combos]]))
                for cid in range(1, n_classes + 1)]
        sal = ConfMap(class_id=0, values=np.array([[c[1] for c in combos]]))
        got = generate_mask(cams, sal, cfg).labels[0]
        for idx, (cam_values, s) in enumerate(combos):
            expected = rule_oracle(cam_values, s, cfg.fg_threshold,
                                   cfg.bg_threshold)
            if got[idx] != expected:
                mismatches += 1
            total += 1

    check([({1: c}, s) for c in grid for s in grid], 1)
    sub = grid[::4]
    check([({1: c1, 2: c2}, s) for c1 in sub for c2 in sub for s in sub], 2)
    sub = grid[::10]
    check([({1: c1, 2: c2, 3: c3}, s)
           for c1 in sub for c2 in sub for c3 in sub for s in sub], 3)
    ok = mismatches == 0 and total > 20_000
    print(f"\n  combinations checked={total} mismatches={mismatches}")
    report(6, "pseudo-mask rule table", ok)


def test_criterion_7_performance():
    """2,000 proposals x 20 classes on 512x512 maps scored in under a
    second; the naive oracle is at least 10x slower on the same workload
    (timed on a 1-in-20 systematic sample, scaled)."""
    rng = np.random.default_rng(70_707)
    side = 512
    maps = [ConfMap(class_id=c, values=rng.random((side, side), dtype=np.float32))
            for c in range(1, 21)]
    boxes = []
    for _ in range(2000):
        w = int(round(math.exp(rng.uniform(math.log(16), math.log(192)))))
        h = int(round(math.exp(rng.uniform(math.log(16), math.log(192)))))
        x0 = int(rng.integers(0, side - w))
        y0 = int(rng.integers(0, side - h))
        boxes.append(Box(x0, y0, x0 + w, y0 + h))
    cfg = ScoringConfig()

    score_batch(maps[0], boxes[:64], cfg)  # warm-up
    fast = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for m in maps:
            score_batch(m, boxes, cfg)
        fast = min(fast, time.perf_counter() - t0)

    sample = boxes[::20]
    t0 = time.perf_counter()
    for m in maps:
        for b in sample:
            oracle_score(m, b, cfg)
    oracle_scaled = (time.perf_counter() - t0) * (len(boxes) / len(sample))

    ok = fast < 1.0 and oracle_scaled >= 10.0 * fast
    print(f"\n  fast={fast:.2f}s oracle~{oracle_scaled:.0f}s "
          f"ratio={oracle_scaled / fast:.0f}x")
    report(7, "integral-image scoring performance", ok)


def test_criterion_8_pipeline_determinism(tmp_path, monkeypatch):
    """synth + score + eval with fixed seeds: byte-identical across runs."""
    def run_pipeline(workdir):
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli_main(["synth", "--out", "corpus", "--scenes", "3",
                         "--seed", "77", "--noise", "0.02", "--blur", "1"]) == 0
        assert cli_main(["score", "corpus", "--out", "scored.csv"]) == 0
        assert cli_main(["eval", "recall", "--corpus", "corpus",
                         "--scored", "scored.csv", "--ks", "1,5,10",
                         "--out", "recall.json"]) == 0
        assert cli_main(["eval", "sweep", "--corpus", "corpus",
                         "--ratios", "1.1,1.2", "--fracs", "0.5,1.0",
                         "--out", "sweep.json"]) == 0
        return {str(p.relative_to(workdir)): p.read_bytes()
                for p in sorted(workdir.rglob("*")) if p.is_file()}

    tree_a = run_pipeline(tmp_path / "run_a")
    tree_b = run_pipeline(tmp_path / "run_b")
    ok = tree_a == tree_b and len(tree_a) > 10
    print(f"\n  files compared: {len(tree_a)}")
    report(8, "pipeline determinism", ok)
