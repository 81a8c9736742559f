#!/usr/bin/env python3
"""Compare two commits on the benchmark, from the repository root:

    python3 bench/compare.py BASE HEAD

Both commits run the benchmark files of the working tree (this directory and
BENCHMARK.json), so only the program differs. Each commit's src/ is
exported with ``git archive`` under .tbbench/compare/. Every workload in
BENCHMARK.json runs with seeds 1 to 10 for its run_seconds; for every seed
and workload the two sides run back to back, alternating which goes first.
The table gives each side's median and quartiles per end-to-end metric, how
many pairs the head won, and a verdict against the bound in BENCHMARK.json:

  better      head won at least 9 in 10 pairs and the medians differ by more
              than the base's own quartile spread
  worse       head's median is worse than base's by more than the bound
  unresolved  the base's quartile spread is wider than the bound, and not
              every head run beat every base run
  same        none of the above
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".tbbench" / "compare"
SEEDS = 10


def export(rev: str) -> Path:
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    dest = OUT / sha
    shutil.rmtree(dest, ignore_errors=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    shutil.copytree(BENCH_DIR, dest / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def run(tree: Path, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{tree.name[:10]} {workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {tree.name[:10]} {workload} seed {seed}: "
              f"{result['failed']}/{result['attempted']} operations failed", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better: str, bound: float) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    b1, bm, b3 = quartiles(base)
    _, hm, _ = quartiles(head)
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if sign * (hm - bm) < -bound * bm:
        return "worse", wins
    if (b3 - b1) > bound * bm and not all_better:
        return "unresolved", wins
    if wins >= 0.9 * len(base) and abs(hm - bm) > b3 - b1:
        return "better", wins
    return "same", wins


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    args = ap.parse_args()

    trees = [export(args.base), export(args.head)]
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {w: ([], []) for w in workloads}
    for seed in range(1, SEEDS + 1):
        for w in workloads:
            order = (0, 1) if seed % 2 else (1, 0)
            for side in order:
                results[w][side].append(run(trees[side], spec["command"], w, seed, seconds))
            print(f"seed {seed} {w} done", file=sys.stderr)

    summary = {}
    print(f"base {trees[0].name[:12]}  head {trees[1].name[:12]}  "
          f"{SEEDS} seeds x {seconds} s")
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            base = [r[name] for r in results[w][0]]
            head = [r[name] for r in results[w][1]]
            v, wins = verdict(base, head, m["better"], m["bound"])
            b1, bm, b3 = quartiles(base)
            h1, hm, h3 = quartiles(head)
            summary[f"{w}/{name}"] = {"base": base, "head": head, "verdict": v, "wins": wins}
            print(f"{w:10s} {name:18s} base {bm:11.5g} [{b1:.5g}, {b3:.5g}]  "
                  f"head {hm:11.5g} [{h1:.5g}, {h3:.5g}]  {100 * (hm / bm - 1):+6.1f}%  "
                  f"wins {wins}/{len(base)}  {v} ({m['unit']}, bound {m['bound']})")
    out = OUT / f"{trees[0].name[:12]}_{trees[1].name[:12]}.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"runs saved to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
