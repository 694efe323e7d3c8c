"""Sharded mega-world benchmark: bit-identity plus worker scaling.

Runs one ``city_scale`` field through the sharded executor
(:mod:`repro.shard`) at increasing shard counts and checks two things:

1. **bit-identity** — every shard count must reproduce the ``shards=1``
   reference fingerprint exactly (event/message counters and post-run RNG
   states; quick mode also compares views, topology edges and the overhead
   report).  An identity failure is a correctness bug and always fails the
   benchmark, noise notwithstanding.
2. **scaling** — wall-clock time per shard count, with the multi-shard runs
   on the ``mp`` transport (one OS process per shard).  The speedup target
   (>= 3x at 8 workers, full mode) is physically impossible below 8 cores,
   so it is only *enforced* when enough cores exist; the measured value is
   recorded either way.

Two hot-path measurements ride along:

- **incremental CSR refresh** — a raw :class:`ArrayLinkState` microbench
  (100k nodes full, 2k quick; 1% movers/step) timing the dirty-row patch
  against a per-step full rebuild, with a final CSR-equality check.  The
  patch must be >= 5x faster in full mode.
- **snapshot-restore amortization** — every run builds the world once;
  in-process hosts each unpickle a snapshot of it (``mp`` workers inherit
  the build with the fork and restore nothing).  The bench times one
  scenario build (:meth:`ShardWorld.build_base`) against one in-process
  restore (:meth:`ShardWorld.from_snapshot`) of the top shard count's
  snapshot: the cost a host would pay if it built the world on its own.

Quick mode (CI) shrinks the city to 2,000 nodes and keeps every run
in-process where noted; full mode runs the 100,000-node default city.

Run with ``PYTHONPATH=src python benchmarks/bench_sharded.py``; add
``--quick`` for the CI smoke grid and ``--json PATH`` for a bench-emit/v1
envelope (see ``benchmarks/_emit.py``).
"""

from __future__ import annotations

import argparse
import gc
import os
import time

import numpy as np

import _emit

from repro.metrics.report import print_table
from repro.net.arraystate import ArrayLinkState, NodeArrayStore
from repro.shard import ShardSpec, ShardWorld, run_sharded

#: Full-mode wall budget (seconds) for the 100k-node single-shard reference
#: on one core; measured ~121 s (1.20 M events, ~9.9 k events/s) on the
#: baseline box, with headroom for slower runners.
FULL_WALL_BUDGET_S = 300.0

#: Full-mode floor for the incremental CSR patch vs per-step full rebuild
#: at 100k nodes / 1% movers per step (issue acceptance: >= 5x).
CSR_PATCH_SPEEDUP_BUDGET = 5.0

#: Full-mode floor for the snapshot-restore amortization: one scenario
#: build vs one in-process snapshot unpickle of the same 100k-node world,
#: both timed in one process with nothing else running.
SNAPSHOT_SPEEDUP_BUDGET = 2.0

#: Simulated seconds for the observability leg.  On the quick city the first
#: multi-node groups form past t ~ 3 (tc = 1.0 plus the dmax = 3 quarantine),
#: so the bench-grid duration of 2.0 would record zero lifecycle events;
#: 4.0 s reliably produces group.formed events and convergence milestones.
OBS_DURATION = 4.0


def bench_spec(quick: bool, shards: int) -> ShardSpec:
    """The benchmark workload at one shard count (same world throughout)."""
    if quick:
        params = {"n": 2_000, "area": 4_000.0, "hotspot_sigma": 300.0}
        duration = 2.0
    else:
        params = {"n": 100_000}
        duration = 1.0
    # Full mode skips the fingerprint extras (views over 100k nodes, payload
    # estimates); counters + RNG states still pin down bit-identity.
    return ShardSpec.create("city_scale", params=params, seed=2024,
                            duration=duration, shards=shards, fingerprint=quick)


def refresh_bench(quick: bool, seed: int = 2024):
    """Time incremental CSR patch vs full rebuild on identical move streams.

    Builds a raw :class:`NodeArrayStore` (no world, no simulator), then
    applies the same seeded sequence of bulk position writes (1% of rows per
    step, uniform destinations) to two :class:`ArrayLinkState` instances —
    one with ``incremental=True`` (dirty-row patch), one with ``False``
    (full rebuild every step) — timing only the ``_ensure()`` refresh.
    Returns mean per-step seconds for each path, whether the final CSRs are
    bit-identical, and the patch/rebuild counters.
    """
    if quick:
        n, area, steps = 2_000, 4_000.0, 5
    else:
        n, area, steps = 100_000, 30_000.0, 10
    radius = 100.0
    movers = max(1, n // 100)
    mean_s = {}
    counters = {}
    final = {}
    for label, incremental in (("patch", True), ("rebuild", False)):
        rng = np.random.default_rng(seed)
        store = NodeArrayStore()
        pts = rng.uniform(0.0, area, size=(n, 2))
        for i in range(n):
            store.insert(i, (pts[i, 0], pts[i, 1]), None, True)
        ls = ArrayLinkState(radius, store, obs=None, incremental=incremental)
        ls._ensure()  # initial build (caches the cell binning on the patch path)
        times = []
        for _ in range(steps):
            rows = rng.choice(n, size=movers, replace=False)
            coords = rng.uniform(0.0, area, size=(movers, 2))
            store.write_rows(rows, coords)
            ls.mark_rows_dirty(rows)
            t0 = time.perf_counter()
            ls._ensure()
            times.append(time.perf_counter() - t0)
        mean_s[label] = sum(times) / len(times)
        counters[label] = (ls.patch_count, ls.rebuild_count)
        final[label] = (ls._indptr[: n + 1].copy(),
                       ls._indices[: ls._indptr[n]].copy())
    identical = (np.array_equal(final["patch"][0], final["rebuild"][0])
                 and np.array_equal(final["patch"][1], final["rebuild"][1]))
    return {
        "n": n, "steps": steps, "movers_per_step": movers, "radius": radius,
        "patch_mean_s": mean_s["patch"], "rebuild_mean_s": mean_s["rebuild"],
        "patch_counters": counters["patch"],
        "rebuild_counters": counters["rebuild"],
        "identical": identical,
    }


def restore_bench(spec: ShardSpec):
    """One scenario build against one in-process restore of its snapshot.

    Only the shard-independent phase is compared; the shard-specific
    finalize runs after either and would just dilute the signal.  Both
    phases run with the cyclic collector paused, so neither walks older
    objects while it works.  The collector clears the garbage before each
    phase instead: a paused build leaves its dropped world uncollected, and
    a restore next to a dead 100k-node world read 0.84-0.87 s instead of
    0.65 s on a 2-core VM (it grows the heap instead of reusing freed
    memory).
    """
    gc.collect()
    t0 = time.perf_counter()
    ShardWorld.build_base(spec)
    scenario_build_s = time.perf_counter() - t0
    blob = ShardWorld.snapshot_base(spec)
    gc.collect()
    restore_s = ShardWorld.from_snapshot(spec, 0, blob).base_phase_s
    return {"scenario_build_s": scenario_build_s, "restore_s": restore_s,
            "blob_bytes": len(blob)}


def obs_leg(out_path: str):
    """Observed sharded run vs its unobserved twin (quick city, 2 shards, mp).

    Runs the 2,000-node quick city for :data:`OBS_DURATION` simulated
    seconds twice over the ``mp`` transport — once plain, once with every
    worker under its own ObsContext — and checks the PR-7 contract end to
    end: the fingerprints must be bit-identical, the merged export must
    contain group-lifecycle events and a convergence milestone, and every
    per-shard blob must carry the shard window/outbox instruments.  Writes
    the merged export to ``out_path`` as repro-obs/v1 JSONL.
    """
    from repro.obs import write_blob_jsonl

    spec = ShardSpec.create("city_scale", seed=2024, duration=OBS_DURATION,
                            shards=2, fingerprint=True,
                            params={"n": 2_000, "area": 4_000.0,
                                    "hotspot_sigma": 300.0})
    t0 = time.perf_counter()
    plain = run_sharded(spec, transport="mp")
    plain_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    observed = run_sharded(spec, transport="mp", obs=True)
    observed_s = time.perf_counter() - t0
    identical = observed.fingerprint == plain.fingerprint
    merged = observed.obs["merged"]
    per_shard = observed.obs["per_shard"]
    kinds = merged["events"]["kinds"]
    lifecycle = sum(v for k, v in kinds.items() if k.startswith("group."))
    milestones = sum(v for k, v in kinds.items() if k.startswith("convergence."))
    instruments_ok = all(
        "shard.windows" in blob["counters"] and
        "shard.outbox_entries" in blob["counters"] and
        "shard.window" in blob.get("spans", {})
        for blob in per_shard)
    write_blob_jsonl(out_path, merged,
                     meta={"bench": "sharded", "leg": "obs",
                           "scenario": spec.scenario, "seed": spec.seed,
                           "duration": spec.duration, "shards": spec.shards,
                           "transport": "mp", "per_shard": len(per_shard)})
    print(f"\nobs leg ({spec.shards} shards, mp, duration {spec.duration}): "
          f"identical={identical}, {merged['events']['count']} events "
          f"({lifecycle} lifecycle, {milestones} convergence), per-shard "
          f"instruments={'ok' if instruments_ok else 'MISSING'}; "
          f"plain {plain_s:.1f} s -> observed {observed_s:.1f} s; "
          f"merged export -> {out_path}")
    return {
        "identical": identical,
        "lifecycle_events": lifecycle,
        "convergence_milestones": milestones,
        "instruments_ok": instruments_ok,
        "event_count": merged["events"]["count"],
        "plain_wall_s": plain_s,
        "observed_wall_s": observed_s,
        "obs_overhead_x": observed_s / plain_s if plain_s > 0 else float("inf"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small city + in-process transport for CI smoke runs")
    parser.add_argument("--shards", type=int, nargs="*", default=None,
                        help="shard counts to benchmark "
                             "(default: 1 2 4 quick, 1 8 full)")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="also write a bench-emit/v1 envelope "
                             "(see benchmarks/_emit.py)")
    parser.add_argument("--obs-out", type=str, default=None, metavar="PATH",
                        help="run the observability leg (quick city, 2 shards, "
                             "mp, obs-on vs obs-off identity) and write the "
                             "merged repro-obs/v1 export to PATH")
    args = parser.parse_args()

    shard_counts = args.shards or ([1, 2, 4] if args.quick else [1, 8])
    if 1 not in shard_counts:
        shard_counts = [1] + shard_counts
    shard_counts = sorted(set(shard_counts))
    cores = os.cpu_count() or 1
    # Quick mode stays on the in-process transport: CI measures the engine,
    # not process spawn latency.  Full mode shards over real processes.
    transport_for = (lambda k: "inproc") if args.quick else (
        lambda k: "inproc" if k == 1 else "mp")
    spec1 = bench_spec(args.quick, 1)
    print(f"city_scale n={dict(spec1.params)['n']}, duration={spec1.duration}, "
          f"shard counts {shard_counts}, {cores} cores available")

    rows = []
    reference = None
    serial = None
    identical_all = True
    top_stats = None
    for shards in shard_counts:
        spec = bench_spec(args.quick, shards)
        start = time.perf_counter()
        result = run_sharded(spec, transport=transport_for(shards))
        elapsed = time.perf_counter() - start
        if shards == 1:
            reference, serial = result.fingerprint, elapsed
            identical = True
        else:
            identical = result.fingerprint == reference
            identical_all = identical_all and identical
        events = result.fingerprint["processed_events"]
        top_stats = result.stats
        rows.append({
            "shards": shards,
            "transport": transport_for(shards),
            "events": events,
            "remote": result.stats["remote_deliveries"],
            "wall s": round(elapsed, 2),
            "build s": round(result.stats["build_s"], 2),
            "run s": round(result.stats["run_s"], 2),
            "events/s": round(events / elapsed, 0) if elapsed > 0 else float("inf"),
            "speedup": round(serial / elapsed, 2) if serial and elapsed > 0 else 1.0,
            "identical": identical,
        })
    print_table(rows, title="sharded execution (reference = 1 shard, inproc)")

    top = rows[-1]
    top_count = top["shards"]
    # The 3x target presumes one core per shard; below that the speedup is
    # physically capped, so the row is emitted untracked.
    speedup_budget = 3.0 if (not args.quick and cores >= top_count) else None

    # --- incremental CSR refresh: dirty-row patch vs per-step full rebuild.
    refresh = refresh_bench(args.quick)
    csr_speedup = (refresh["rebuild_mean_s"] / refresh["patch_mean_s"]
                   if refresh["patch_mean_s"] > 0 else float("inf"))
    identical_all = identical_all and refresh["identical"]
    print(f"\ncsr refresh ({refresh['n']} nodes, "
          f"{refresh['movers_per_step']} movers/step, "
          f"{refresh['steps']} steps): "
          f"patch {refresh['patch_mean_s'] * 1e3:.2f} ms, "
          f"rebuild {refresh['rebuild_mean_s'] * 1e3:.2f} ms, "
          f"{csr_speedup:.1f}x, identical={refresh['identical']}")

    # --- snapshot-restore amortization at the top shard count.
    restore = restore_bench(bench_spec(args.quick, top_count))
    snap_speedup = (restore["scenario_build_s"] / restore["restore_s"]
                    if restore["restore_s"] > 0 else float("inf"))
    print(f"snapshot restore ({top_count} shards, "
          f"{restore['blob_bytes'] / 1e6:.1f} MB blob): scenario build "
          f"{restore['scenario_build_s']:.2f} s -> in-process restore "
          f"{restore['restore_s']:.2f} s ({snap_speedup:.1f}x); "
          f"{transport_for(top_count)} run setup {top_stats['build_s']:.2f} s")

    # --- observability leg: obs-on vs obs-off identity plus event coverage.
    obs = None
    obs_ok = True
    if args.obs_out:
        obs = obs_leg(args.obs_out)
        identical_all = identical_all and obs["identical"]
        obs_ok = (obs["lifecycle_events"] > 0
                  and obs["convergence_milestones"] > 0
                  and obs["instruments_ok"])

    if args.json:
        emit_rows = [_emit.row("bit_identical", 1.0 if identical_all else 0.0,
                               "bool", budget=1.0)]
        if not args.quick:
            emit_rows.append(_emit.row("wall_s_100k_1shard", rows[0]["wall s"],
                                       "s", budget=FULL_WALL_BUDGET_S,
                                       direction="max"))
        for r in rows:
            emit_rows.append(_emit.row(f"events_per_s_{r['shards']}shards",
                                       r["events/s"], "events/s"))
        if top_count > 1:
            emit_rows.append(_emit.row(f"speedup_{top_count}shards",
                                       top["speedup"], "x",
                                       budget=speedup_budget))
        # Quick-mode fields are too small to budget (sub-ms refreshes,
        # sub-second builds); the rows are still emitted for trend-watching.
        emit_rows.append(_emit.row("csr_patch_ms",
                                   refresh["patch_mean_s"] * 1e3, "ms"))
        emit_rows.append(_emit.row("csr_rebuild_ms",
                                   refresh["rebuild_mean_s"] * 1e3, "ms"))
        emit_rows.append(_emit.row(
            "csr_patch_speedup", round(csr_speedup, 2), "x",
            budget=None if args.quick else CSR_PATCH_SPEEDUP_BUDGET))
        emit_rows.append(_emit.row(
            "snapshot_restore_speedup", round(snap_speedup, 2), "x",
            budget=None if args.quick else SNAPSHOT_SPEEDUP_BUDGET))
        if transport_for(top_count) == "mp":
            emit_rows.append(_emit.row("mp_setup_s",
                                       round(top_stats["build_s"], 3), "s"))
        if obs is not None:
            emit_rows.append(_emit.row("obs_identical",
                                       1.0 if obs["identical"] else 0.0,
                                       "bool", budget=1.0))
            emit_rows.append(_emit.row("obs_lifecycle_events",
                                       obs["lifecycle_events"], "events"))
            emit_rows.append(_emit.row("obs_overhead",
                                       round(obs["obs_overhead_x"], 2), "x"))
        _emit.emit(args.json, bench="sharded", quick=args.quick,
                   rows=emit_rows,
                   meta={"cores": cores,
                         "worker_counts": shard_counts,
                         "duration": spec1.duration,
                         "params": dict(spec1.params),
                         "rows": rows,
                         "csr_refresh": refresh,
                         "snapshot": {
                             "shards": top_count,
                             "transport": transport_for(top_count),
                             "base_build_s": top_stats["base_build_s"],
                             "setup_s": top_stats["build_s"],
                             "worker_build_s": top_stats["worker_build_s"],
                             **restore,
                         },
                         "obs": obs})

    if not identical_all:
        print("ERROR: sharded run diverged from the 1-shard reference "
              "fingerprint — determinism bug, not noise")
        return 1
    if not obs_ok:
        print("ERROR: obs leg missing lifecycle events, convergence "
              "milestone or per-shard instruments — observability regression")
        return 1
    if top_count > 1:
        print(f"\nspeedup at {top_count} shards: {top['speedup']}x "
              f"(target >= 3x with >= {top_count} cores)")
        if speedup_budget is not None and top["speedup"] < speedup_budget:
            print("WARNING: sharded executor below target speedup")
            return 1
        if speedup_budget is None and not args.quick:
            print(f"note: only {cores} core(s) available; "
                  f"target needs >= {top_count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
