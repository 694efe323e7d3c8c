#!/usr/bin/env python
"""Fold benchmark artifacts + obs exports into one perf-trajectory report.

Inputs (any mix, in any order):

- ``bench-emit/v1`` envelopes — what every CLI benchmark's ``--json`` writes
  since the shared emitter landed (``benchmarks/_emit.py``): uniform
  ``rows: [{name, value, unit, budget, direction}]``.
- Legacy ``BENCH_delivery.json`` / ``BENCH_traffic.json`` payloads from
  earlier runs (recognized by their headline keys); their headline metrics
  are lifted into the same row shape so old artifacts stay comparable.
- ``repro-obs/v1`` JSONL exports (``--obs-out`` of the experiments and shard
  CLIs, merged sharded-bench exports, campaign files with their pre-folded
  ``merged`` line): counters, span aggregates and protocol-event summaries
  become informational rows, plus derived headlines — windows/s,
  cross-shard delivery fraction, convergence-time p95.

Output: ``PERF_TRAJECTORY.md`` (human) + ``PERF_TRAJECTORY.json`` (machine),
both pure functions of the inputs — no timestamps, no environment probes —
so the report is diffable across CI runs and PRs.  Exit status is non-zero
when any benchmark row breaks its budget (CI uses this as the perf gate);
``--no-fail`` downgrades regressions to warnings.  ``--history PATH``
threads a run-indexed trend file through the gate: the previous entry feeds
a ``Δ prev`` column and the current bench rows are appended (no
timestamps, so the file stays deterministic per run sequence).

Usage::

    python scripts/perf_trajectory.py BENCH_*.json metrics.jsonl \
        --out PERF_TRAJECTORY.md --json-out PERF_TRAJECTORY.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Optional

BENCH_SCHEMA = "bench-emit/v1"
OBS_SCHEMA = "repro-obs/v1"

#: Budgets of the legacy (pre-v1) delivery payload headlines, keyed by quick
#: mode.  The legacy payload records targets implicitly (they only live in
#: the benchmark source), so lifting old artifacts re-states them here.
LEGACY_DELIVERY_BUDGETS = {
    False: {"broadcast_speedup_lossy": 9.4, "refresh_speedup_10pct_movers": 18.0},
    True: {"broadcast_speedup_lossy": 3.3, "refresh_speedup_10pct_movers": 4.6},
}


def _row(name: str, value: object, unit: str, budget: Optional[float] = None,
         direction: str = "min") -> Dict[str, object]:
    return {"name": name, "value": value, "unit": unit, "budget": budget,
            "direction": direction}


# --------------------------------------------------------------- bench inputs

def _from_envelope(data: Dict[str, object], source: str) -> Dict[str, object]:
    return {"kind": "bench", "bench": data.get("bench", "?"),
            "quick": bool(data.get("quick", False)),
            "rows": list(data.get("rows", [])), "source": source}


def _from_legacy_delivery(data: Dict[str, object], source: str) -> Dict[str, object]:
    quick = bool(data.get("quick", False))
    budgets = LEGACY_DELIVERY_BUDGETS[quick]
    rows = [
        _row("broadcast_speedup_lossy", data["headline_broadcast_speedup"],
             "x", budgets["broadcast_speedup_lossy"]),
        _row("refresh_speedup_10pct_movers", data["headline_refresh_speedup"],
             "x", budgets["refresh_speedup_10pct_movers"]),
    ]
    scale = data.get("scale")
    if scale:
        rows.append(_row("scale_10k_wall", scale["wall_s"], "s",
                         scale.get("budget_s"), "max"))
    return {"kind": "bench", "bench": "delivery", "quick": quick,
            "rows": rows, "source": source}


def _from_legacy_traffic(data: Dict[str, object], source: str) -> Dict[str, object]:
    rows = [_row("app_throughput", data["headline_app_msgs_per_s"], "msg/s",
                 data.get("target_app_msgs_per_s"))]
    return {"kind": "bench", "bench": "traffic",
            "quick": bool(data.get("quick", False)), "rows": rows,
            "source": source}


# ----------------------------------------------------------------- obs inputs

def _obs_rows_from_export(export: Dict[str, object]) -> List[Dict[str, object]]:
    """Informational rows from one ``ObsContext.export()``-shaped blob."""
    rows = []
    for name, value in sorted(export.get("counters", {}).items()):
        rows.append(_row(name, value, "count"))
    for name, stats in sorted(export.get("spans", {}).items()):
        p95 = stats.get("wall_ns_p95")
        if p95 is not None:
            rows.append(_row(f"{name}.p95", round(p95 / 1e6, 3), "ms"))
        rows.append(_row(f"{name}.count", stats.get("count", 0), "spans"))
    heap = export.get("heap_peak_bytes")
    if heap is not None:
        rows.append(_row("heap_peak", round(heap / 1e6, 1), "MB"))
    return rows


def _nearest_rank_p95(values: List[float]) -> Optional[float]:
    """Nearest-rank 95th percentile, ``None`` on an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * 95 // 100))  # ceil without math import
    return ordered[rank - 1]


def _derived_obs_rows(counters: Dict[str, float],
                      spans: Dict[str, Dict[str, object]],
                      event_times: Dict[str, List[float]],
                      event_kinds: Dict[str, float]) -> List[Dict[str, object]]:
    """Cross-instrument headline rows (sharded throughput, convergence)."""
    rows: List[Dict[str, object]] = []
    windows = counters.get("shard.windows")
    window_span = spans.get("shard.window") or {}
    window_wall_s = (window_span.get("wall_ns_total") or 0) / 1e9
    if windows and window_wall_s > 0:
        rows.append(_row("windows_per_s", round(windows / window_wall_s, 1),
                         "windows/s"))
    delivered = counters.get("net.delivered")
    remote = counters.get("shard.remote_in")
    if delivered and remote is not None:
        rows.append(_row("cross_shard_delivery_fraction",
                         round(remote / delivered, 4), "fraction"))
    p95 = _nearest_rank_p95(event_times.get("convergence.first_legitimate", []))
    if p95 is not None:
        rows.append(_row("convergence_time_p95", round(p95, 3), "sim s"))
    for kind in sorted(event_kinds):
        rows.append(_row(f"events.{kind}", event_kinds[kind], "events"))
    return rows


def _load_obs_jsonl(path: str) -> Dict[str, object]:
    """One section from a ``repro-obs/v1`` JSONL export.

    Handles every shape the CLIs write: the single-run and sharded exports
    (``write_blob_jsonl``: counter / gauge / histogram / span / event
    lines) and the campaign export (``task`` lines each carrying a full
    ``obs`` blob, plus one ``merged`` line).  The ``merged`` line is the
    campaign's fold (``repro.obs.merge_export_blobs``) and the only one
    read; ``task`` lines are just counted for the label.
    """
    counters: Dict[str, float] = {}
    spans: Dict[str, Dict[str, object]] = {}
    event_times: Dict[str, List[float]] = {}
    line_kinds: Dict[str, float] = {}
    summary_kinds: Dict[str, float] = {}
    merged_blob: Optional[Dict[str, object]] = None
    tasks = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            kind = entry.get("type")
            if kind == "counter":
                counters[entry["name"]] = counters.get(entry["name"], 0) + entry["value"]
            elif kind == "span":
                spans[entry["name"]] = entry
            elif kind == "event":
                line_kinds[entry["kind"]] = line_kinds.get(entry["kind"], 0) + 1
                event_times.setdefault(entry["kind"], []).append(entry["sim_time"])
            elif kind == "event_summary":
                # Kind counts cover dropped records too; they win over
                # counting the (bounded) event lines.
                for name, count in (entry.get("kinds") or {}).items():
                    summary_kinds[name] = summary_kinds.get(name, 0) + count
            elif kind == "merged":
                merged_blob = entry.get("obs") or {}
            elif kind == "task":
                tasks += 1
    event_kinds = summary_kinds or line_kinds
    if merged_blob is not None:
        counters = dict(merged_blob.get("counters", {}))
        spans = dict(merged_blob.get("spans", {}))
        events = merged_blob.get("events") or {}
        event_kinds = dict(events.get("kinds", {}))
        event_times = {}
        for record in events.get("records", ()):
            event_times.setdefault(record["kind"], []).append(record["sim_time"])
    rows = _obs_rows_from_export({"counters": counters, "spans": spans})
    rows.extend(_derived_obs_rows(counters, spans, event_times, event_kinds))
    label = os.path.basename(path)
    if tasks:
        label += f" ({tasks} tasks)"
    return {"kind": "obs", "bench": label, "quick": False, "rows": rows,
            "source": path}


# -------------------------------------------------------------------- loading

def load_input(path: str) -> Optional[Dict[str, object]]:
    """Parse one artifact into a report section, or ``None`` if unrecognized."""
    if path.endswith(".jsonl"):
        return _load_obs_jsonl(path)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        return None
    if data.get("schema") == BENCH_SCHEMA:
        return _from_envelope(data, path)
    if "headline_broadcast_speedup" in data:
        return _from_legacy_delivery(data, path)
    if "headline_app_msgs_per_s" in data:
        return _from_legacy_traffic(data, path)
    return None


def _violates(row: Dict[str, object]) -> bool:
    budget = row.get("budget")
    if budget is None:
        return False
    value = row.get("value")
    if not isinstance(value, (int, float)):
        return False
    if row.get("direction", "min") == "min":
        return value < budget
    return value > budget


# ------------------------------------------------------------------ rendering

def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _trend_cell(section: Dict[str, object], row: Dict[str, object],
                previous: Optional[Dict[str, float]]) -> str:
    """Δ vs the previous gate run for one bench row (``—`` when unknown)."""
    if previous is None:
        return "—"
    value = row.get("value")
    prev = previous.get(f"{section['bench']}/{row['name']}")
    if not isinstance(value, (int, float)) or not isinstance(prev, (int, float)):
        return "—"
    delta = value - prev
    return f"{delta:+g}" if delta else "±0"


def render_markdown(sections: List[Dict[str, object]],
                    previous: Optional[Dict[str, float]] = None) -> str:
    lines = ["# Performance trajectory", "",
             "Folded benchmark artifacts and observability exports "
             "(`scripts/perf_trajectory.py`).  `status` is `ok` when the "
             "value meets its budget, `REGRESSION` when it does not, and "
             "blank for untracked (informational) rows."
             + ("  `Δ prev` compares against the previous run recorded in "
                "the trajectory history." if previous is not None else ""),
             ""]
    bench_sections = [s for s in sections if s["kind"] == "bench"]
    obs_sections = [s for s in sections if s["kind"] == "obs"]
    regressions = []
    trend = previous is not None
    for section in bench_sections:
        mode = "quick" if section["quick"] else "full"
        lines.append(f"## bench: {section['bench']} ({mode}) — "
                     f"`{section['source']}`")
        lines.append("")
        lines.append("| metric | value | unit | budget | status |"
                     + (" Δ prev |" if trend else ""))
        lines.append("|---|---:|---|---:|---|" + ("---:|" if trend else ""))
        for row in section["rows"]:
            budget = row.get("budget")
            if budget is None:
                status = ""
                budget_cell = "—"
            else:
                op = ">=" if row.get("direction", "min") == "min" else "<="
                budget_cell = f"{op} {_fmt(budget)}"
                status = "REGRESSION" if _violates(row) else "ok"
                if status == "REGRESSION":
                    regressions.append((section, row))
            cells = (f"| {row['name']} | {_fmt(row['value'])} "
                     f"| {row.get('unit', '')} | {budget_cell} | {status} |")
            if trend:
                cells += f" {_trend_cell(section, row, previous)} |"
            lines.append(cells)
        lines.append("")
    for section in obs_sections:
        lines.append(f"## obs: {section['bench']}")
        lines.append("")
        lines.append("| metric | value | unit |")
        lines.append("|---|---:|---|")
        for row in section["rows"]:
            lines.append(f"| {row['name']} | {_fmt(row['value'])} "
                         f"| {row.get('unit', '')} |")
        lines.append("")
    if bench_sections:
        lines.append(f"**budget summary:** {len(regressions)} regression(s) "
                     f"across {sum(len(s['rows']) for s in bench_sections)} "
                     f"tracked row(s) in {len(bench_sections)} benchmark(s).")
        lines.append("")
    return "\n".join(lines)


# ------------------------------------------------------------------- history

def _bench_values(sections: List[Dict[str, object]]) -> Dict[str, float]:
    """Numeric bench-row values keyed ``bench/metric`` for trend tracking."""
    values: Dict[str, float] = {}
    for section in sections:
        if section["kind"] != "bench":
            continue
        for row in section["rows"]:
            if isinstance(row.get("value"), (int, float)):
                values[f"{section['bench']}/{row['name']}"] = row["value"]
    return values


def load_history(path: str) -> List[Dict[str, object]]:
    """Read the run-indexed history file (missing file = empty history)."""
    entries: List[Dict[str, object]] = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def append_history(path: str, entries: List[Dict[str, object]],
                   values: Dict[str, float]) -> Dict[str, object]:
    """Append this gate run to the history (run-indexed, no timestamps)."""
    entry = {"run": len(entries) + 1, "values": values}
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


# ----------------------------------------------------------------------- main

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="*",
                        help="bench JSON payloads and/or obs .jsonl exports "
                             "(default: BENCH_*.json in the current directory)")
    parser.add_argument("--out", default="PERF_TRAJECTORY.md", metavar="PATH",
                        help="markdown report path (default: %(default)s)")
    parser.add_argument("--json-out", default="PERF_TRAJECTORY.json",
                        metavar="PATH",
                        help="machine-readable report path (default: %(default)s)")
    parser.add_argument("--no-fail", action="store_true",
                        help="exit 0 even when a benchmark row breaks its "
                             "budget (regressions still reported)")
    parser.add_argument("--history", default=None, metavar="PATH",
                        help="run-indexed trend file (e.g. "
                             "PERF_TRAJECTORY_HISTORY.jsonl): the previous "
                             "entry feeds a 'Δ prev' column in the markdown "
                             "report and this run's bench rows are appended")
    args = parser.parse_args(argv)

    paths = args.inputs or sorted(glob.glob("BENCH_*.json"))
    if not paths:
        print("perf_trajectory: no inputs (pass artifact paths or run from a "
              "directory containing BENCH_*.json)", file=sys.stderr)
        return 2

    sections = []
    for path in paths:
        try:
            section = load_input(path)
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            print(f"perf_trajectory: skipping {path}: {exc}", file=sys.stderr)
            continue
        if section is None:
            print(f"perf_trajectory: skipping {path}: unrecognized payload",
                  file=sys.stderr)
            continue
        sections.append(section)
    if not sections:
        print("perf_trajectory: no parseable inputs", file=sys.stderr)
        return 2

    previous: Optional[Dict[str, float]] = None
    history_entries: List[Dict[str, object]] = []
    if args.history:
        history_entries = load_history(args.history)
        previous = history_entries[-1].get("values", {}) if history_entries else {}

    markdown = render_markdown(sections, previous=previous)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(markdown)
    regressions = [{"source": s["source"], "bench": s["bench"], **row}
                   for s in sections if s["kind"] == "bench"
                   for row in s["rows"] if _violates(row)]
    with open(args.json_out, "w", encoding="utf-8") as handle:
        json.dump({"schema": "perf-trajectory/v1", "sections": sections,
                   "regressions": regressions}, handle, indent=2)
        handle.write("\n")
    if args.history:
        entry = append_history(args.history, history_entries,
                               _bench_values(sections))
        print(f"history: appended run {entry['run']} to {args.history}")
    print(f"wrote {args.out} and {args.json_out} "
          f"({len(sections)} section(s), {len(regressions)} regression(s))")
    for entry in regressions:
        print(f"REGRESSION: {entry['bench']}/{entry['name']} = "
              f"{entry['value']} {entry.get('unit', '')} "
              f"(budget {entry['budget']}, {entry['direction']})")
    if regressions and not args.no_fail:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
