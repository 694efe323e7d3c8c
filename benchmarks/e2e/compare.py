#!/usr/bin/env python3
"""Compare two end-to-end benchmark result sets metric by metric.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

Both files are the ``--json`` envelopes ``bench_e2e.py`` writes in suite
mode.  For every workload and end-to-end metric the verdict uses the bound
``BENCHMARK.json`` fixes for that metric:

* ``unresolved`` when either side's spread (quartile distance over median)
  is wider than the bound, unless every NEW run reads better (``better``)
  or every NEW run reads worse (``worse``) than every BASE run;
* otherwise ``worse`` / ``better`` when NEW's median moved against / for
  the metric by more than the bound, ``unchanged`` if not.

``fail_frac`` has no bound in ``BENCHMARK.json`` (it is 0 on a healthy run):
any increase is ``worse``.  Every ratio is printed with its base.  The exit
code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def _load(path) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _spread(values: List[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(base: List[float], new: List[float], bound: float, better: str) -> str:
    """One metric's verdict; see the module docstring for the rule."""
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        delta = sign * (statistics.median(new) - statistics.median(base))
        return "worse" if delta > 0 else "better" if delta < 0 else "unchanged"
    if max(_spread(base), _spread(new)) > bound:
        if all(sign * (b - a) < 0 for a in base for b in new):
            return "better"
        if all(sign * (b - a) > 0 for a in base for b in new):
            return "worse"
        return "unresolved"
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(new) - base_median) / base_median
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "unchanged"


def compare(base: Dict[str, object], new: Dict[str, object],
            spec: Dict[str, object]) -> Tuple[List[str], int]:
    """Report lines plus the number of ``worse`` verdicts."""
    rules = {e["name"]: (e["bound"], e["better"]) for e in spec["end_to_end"]}
    rules["fail_frac"] = (0.0, "lower")
    base_w, new_w = base["meta"]["workloads"], new["meta"]["workloads"]
    lines, worse = [], 0
    for workload in [name for name in base_w if name in new_w]:
        for metric, (bound, better) in rules.items():
            a = base_w[workload]["end_to_end"].get(metric)
            b = new_w[workload]["end_to_end"].get(metric)
            if a is None or b is None:
                lines.append(f"{workload:<16} {metric:<12} missing on one side")
                worse += 1
                continue
            result = verdict(a["values"], b["values"], bound, better)
            worse += result == "worse"
            ma, mb = statistics.median(a["values"]), statistics.median(b["values"])
            ratio = f"{mb / ma:.3f}" if ma else "n/a"
            lines.append(
                f"{workload:<16} {metric:<12} {result:<10} new/base {ratio} "
                f"(base {ma:.4g} {a['unit']} over {len(a['values'])} runs, "
                f"spread {_spread(a['values']):.3f}; new {mb:.4g}, "
                f"spread {_spread(b['values']):.3f}; bound {bound:g}, {better} is better)")
    return lines, worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, worse = compare(_load(argv[0]), _load(argv[1]), _load(ROOT / "BENCHMARK.json"))
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
