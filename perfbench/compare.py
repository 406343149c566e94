"""Compare two result sets written with ``run.py --out``.

For every workload and end-to-end metric it prints both medians, the ratio
change/base and a verdict against the metric's bound from BENCHMARK.json:

* ``within bound`` - the change is no worse than the bound allows;
* ``worse``        - the change is worse by more than the bound;
* ``unresolved``   - the spread between runs (interquartile distance over the
  median, the wider of the two sides) exceeds the bound, so the runs cannot
  tell, unless every run of the change reads better than every run of the
  base, which is reported as ``better``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import stats


def load(path) -> dict:
    """{workload: {metric: [values]}} from the untraced records of a JSON-lines file."""
    out = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        for name, m in rec["metrics"].items():
            out[rec["workload"]][name].append(m["value"])
    return out


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[float, str]:
    """(ratio of medians change/base, verdict) for one metric on one workload."""
    mb, mc = stats.median(base), stats.median(change)
    ratio = mc / mb
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    all_better = (max(change) < min(base)) if better == "lower" else (min(change) > max(base))
    if max(stats.spread(base), stats.spread(change)) > bound:
        return ratio, "better" if all_better else "unresolved"
    return ratio, "worse" if worse_by > bound else "within bound"


def main(base_path, change_path, benchmark_path) -> int:
    spec = json.loads(Path(benchmark_path).read_text())
    base, change = load(base_path), load(change_path)
    print(f"{'workload':18s} {'metric':14s} {'base':>12s} {'change':>12s} {'ratio':>7s} "
          f"{'bound':>6s}  verdict (runs)")
    for wl in [w["name"] for w in spec["workloads"]]:
        if wl not in base or wl not in change:
            print(f"{wl:18s} missing from {'base' if wl not in base else 'change'}")
            continue
        for m in spec["end_to_end"]:
            a, b = base[wl].get(m["name"]), change[wl].get(m["name"])
            if not a or not b:
                continue
            ratio, word = verdict(a, b, m["better"], m["bound"])
            print(f"{wl:18s} {m['name']:14s} {stats.median(a):12.5g} {stats.median(b):12.5g} "
                  f"{ratio:7.3f} {m['bound']:6.2f}  {word} ({len(a)}/{len(b)})")
    return 0
