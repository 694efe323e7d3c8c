#!/usr/bin/env python3
"""End-to-end GRP benchmark: four workloads through the production entry points.

Every workload goes through the path users run — ``scenarios.build(spec)``
then ``deployment.start()`` / ``run()`` (or ``run_with_sampler``), or
``run_sharded`` for the sharded one.  A *unit* is one set-up plus one run of
one world.  A run draws its workload's worlds (12, or 8 when sharded) from
its seed and, after one untimed warm-up unit, cycles through them for
``--seconds`` and until each ran once; it reports, per metric, the mean
over its worlds of each world's median unit.  A short host-speed
probe runs between units, and each unit's times are scaled to the speed
of a reference host, so the swings of a shared machine cancel out.

One workload, one process (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/bench_e2e.py --workload manet_dense --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced units (see ``layers.py``).  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it, prefixed ``detail``, carries the full catalogue, the samples,
the unscaled wall times and the output digests.  The exit code is 0 only
for a correct run.

Every workload, each run in a fresh subprocess, workloads interleaved
round-robin, then one traced run per workload::

    python3 benchmarks/e2e/bench_e2e.py --repeats 3 --json OUT.json

Correctness: each unit's output digest (views, event and message counts,
post-run RNG states, plus ledger and sampler facts or the sharded
fingerprint) must equal the first digest of its world, and the committed
``reference.json`` digest for that workload, seed and world when there is
one.  Traced units must reproduce the untraced digest: the wrappers only
observe.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from layers import Tracer  # noqa: E402
from repro.experiments.runner import run_with_sampler  # noqa: E402
from repro.scenarios import ScenarioSpec, build  # noqa: E402
from repro.shard import ShardSpec, run_sharded  # noqa: E402
from repro.traffic import TrafficSpec, attach_traffic  # noqa: E402

BENCHMARK_FILE = ROOT / "BENCHMARK.json"
REFERENCE_FILE = HERE / "reference.json"
SHARDS = 2
#: A child run that takes longer than this counts as failed (suite mode).
CHILD_TIMEOUT_S = 180


@dataclass(frozen=True)
class Workload:
    """One named workload: a registered scenario at a fixed size.

    Sizes keep each scenario's node density (area and hotspot spread scale
    with the square root of the node count) but shrink the world so one unit
    takes about a second: a run then covers many worlds, which is what keeps
    a run steady on a small shared machine.  ``tiny`` is the self-test's
    shrunken variant.
    """

    name: str
    scenario: str
    params: Tuple[Tuple[str, object], ...]
    duration: float
    kind: str  # "plain", "app" (traffic + sampler) or "sharded"
    #: Worlds one run measures, drawn from its seed.  One world's run time
    #: depends on where its hotspots or clusters happen to fall (it varies
    #: by 15-20% from world to world); the mean over this many worlds keeps
    #: the seed-to-seed spread of a run's result small.  More worlds would
    #: not fit in a run on a slow host; sharded units cost twice as much.
    worlds: int
    tiny: Tuple[Tuple[str, object], ...]
    tiny_duration: float

    def shrunk(self) -> "Workload":
        return replace(self, params=self.tiny, duration=self.tiny_duration, worlds=1)


_CITY = (("n", 1000), ("area", 9487.0), ("hotspot_sigma", 632.0))
_CITY_TINY = (("n", 300), ("area", 5196.0), ("hotspot_sigma", 346.0))

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Protocol-bound: dense mobile groups forming and merging under Dmax on a
    # perfect zero-delay channel.  GRPNode.compute dominates.
    Workload("manet_dense", "large_manet_waypoint",
             (("n", 100), ("area", 632.0)), 6.0, "plain", 12,
             (("n", 40), ("area", 400.0)), 3.0),
    # Engine- and delivery-bound: mostly isolated nodes, short lists, lossy
    # channel with 0.05 s delay (so every delivery is a scheduled event).
    Workload("city_static", "city_scale", _CITY, 6.0, "plain", 12, _CITY_TINY, 3.0),
    # App payloads, the sampler and the incremental-CSR patch path, run the
    # way the experiment suite runs it.
    Workload("city_mobile_app", "city_scale_mobile",
             (("n", 400), ("area", 6000.0), ("hotspot_sigma", 400.0)), 15.0, "app", 12,
             (("n", 200), ("area", 4243.0), ("hotspot_sigma", 283.0)), 4.0),
    # The city_static world split across two spawned worker processes.
    Workload("city_sharded", "city_scale", _CITY, 6.0, "sharded", 8, _CITY_TINY, 3.0),
)}

#: ``host_probe()`` seconds on the reference host.  Each unit's times are
#: scaled by ``PROBE_REF_S`` over the mean of the probes run just before and
#: just after it: they read as reference-host seconds, so the speed swings
#: of a shared machine cancel out.  Changing this constant rescales every
#: time the benchmark has reported.
PROBE_REF_S = 0.18


def world_seeds(seed: int, worlds: int) -> List[int]:
    """The scenario seeds of a run with benchmark seed ``seed``."""
    return [int.from_bytes(hashlib.sha256(f"{seed}/world/{k}".encode()).digest()[:4], "little")
            for k in range(worlds)]


def host_probe() -> float:
    """Seconds a fixed pure-Python workload takes on this host right now.

    Dict, set and sort work shaped like the protocol's list folds, but no
    code of the package: a change to the program never moves it.  The work
    is split evenly over the CPUs the run is pinned to, one at a time.
    """
    fresh_heap()
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    cpus = sorted(allowed) or [None]
    levels = [{(k * 7919 + j * 31) % 2003: (k + j) % 3 for j in range(32)} for k in range(300)]
    t0 = time.perf_counter()
    try:
        for cpu in cpus:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            for _ in range(220 // len(cpus)):
                merged: Dict[int, int] = {}
                for level in levels:
                    for node, mark in level.items():
                        if merged.get(node, -1) < mark:
                            merged[node] = mark
                groups: Dict[int, set] = {}
                for node, mark in merged.items():
                    groups.setdefault(mark, set()).add(node)
                sum(len(frozenset(group)) for group in groups.values())
                sorted(merged, key=str)
    finally:
        if allowed:
            os.sched_setaffinity(0, allowed)
    return time.perf_counter() - t0


@contextlib.contextmanager
def pinned(n_cpus: int):
    """Run on the first ``n_cpus`` CPUs this process may use, no others.

    The workload and its probes then share the same CPUs, so a CPU slowed
    by other tenants slows both alike and the scaling cancels it.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(sorted(allowed)[:n_cpus]))
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def fresh_heap() -> None:
    """Collect garbage, then freeze what survives out of later collections.

    Array-backed worlds stay alive once discarded (object-dtype numpy arrays
    hold their processes, and the cyclic collector cannot see through
    them), so every unit would otherwise pay to re-scan all earlier worlds.
    Frozen, they cost memory but no time: each unit sees the collector a
    fresh process would.
    """
    gc.collect()
    gc.freeze()


E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "1"}

LAYER_UNITS = {
    "sim.events": "count", "sim.self_s": "s", "sim.events_per_s": "1/s", "sim.share": "1",
    "core.compute_calls": "count", "core.compute_self_s": "s", "core.compute_us": "us",
    "core.build_calls": "count", "core.build_self_s": "s", "core.decode_calls": "count",
    "core.decodes_per_send": "1", "core.ant_calls": "count", "core.share": "1",
    "net.broadcast_calls": "count", "net.broadcast_self_s": "s", "net.decide_self_s": "s",
    "net.delivered": "count", "net.dropped": "count", "net.drop_frac": "1",
    "net.deliver_calls": "count", "net.fast_path_frac": "1", "net.trace_records": "count",
    "net.topology_calls": "count", "net.topology_self_s": "s", "net.csr_rebuilds": "count",
    "net.csr_patches": "count", "net.share": "1",
    "mobility.step_calls": "count", "mobility.step_self_s": "s", "mobility.share": "1",
    "traffic.send_calls": "count", "traffic.send_self_s": "s",
    "traffic.record_delivery_calls": "count", "traffic.record_delivery_self_s": "s",
    "traffic.delivery_ratio": "1", "traffic.share": "1",
    "metrics.sample_calls": "count", "metrics.sample_self_s": "s",
    "metrics.predicates_self_s": "s", "metrics.share": "1",
    "shard.windows": "count", "shard.window_s": "s", "shard.barrier_wait_s": "s",
    "shard.barrier_frac": "1", "shard.remote_deliveries": "count",
    "shard.cross_shard_frac": "1", "shard.halo_send_frac": "1", "shard.base_build_s": "s",
    "shard.worker_build_s": "s",
    "scenarios.build_s": "s", "bench.trace_overhead": "1", "bench.layer_sum_frac": "1",
}

UNITS = {**E2E_UNITS, **LAYER_UNITS}


# -------------------------------------------------------------------- units

@dataclass
class Unit:
    """Outcome of one set-up + run of a workload's world."""

    setup_s: float
    run_s: float
    build_s: float
    facts: Dict[str, object]
    problems: List[str]
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.facts, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _deployment_facts(deployment) -> Dict[str, object]:
    network = deployment.network
    return {
        "views": {str(node): sorted(map(str, view))
                  for node, view in deployment.views().items()},
        "processed_events": deployment.sim.processed_events,
        "sent": network.messages_sent,
        "delivered": network.messages_delivered,
        "dropped": network.messages_dropped,
        "sim_rng": repr(deployment.sim.rng.bit_generator.state),
    }


def _deployment_problems(facts: Dict[str, object]) -> List[str]:
    problems = []
    if not all(node in view for node, view in facts["views"].items()):
        problems.append("a node's view does not contain the node itself")
    if facts["sent"] <= 0 or facts["delivered"] <= 0:
        problems.append("no message was sent or delivered")
    return problems


def run_unit(w: Workload, seed: int, tracer: Optional[Tracer] = None) -> Unit:
    """Build, start and run ``w`` once; time set-up and run separately.

    With a ``tracer``, its wrappers are installed before the build (so
    bound methods cached at set-up go through them) and its record is
    cleared once set-up ends: the trace covers the run phase only.
    """
    if w.kind == "sharded":
        return _sharded_unit(w, seed)
    fresh_heap()
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        deployment = build(ScenarioSpec.create(w.scenario, **dict(w.params)), seed=seed)
        t_built = time.perf_counter()
        driver = None
        if w.kind == "app":
            driver = attach_traffic(deployment, TrafficSpec.create("request_reply"), seed=seed)
        deployment.start()
        t_setup = time.perf_counter()
        if tracer is not None:
            tracer.reset()
            t_setup = time.perf_counter()
        sampler = None
        if w.kind == "app":
            sampler = run_with_sampler(deployment, duration=w.duration, sample_interval=1.0)
        else:
            deployment.run(w.duration)
        t_end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    facts = _deployment_facts(deployment)
    problems = _deployment_problems(facts)
    extra: Dict[str, object] = {}
    if driver is not None:
        ledger = driver.ledger
        facts["ledger"] = ledger.totals(w.duration)
        reports = [sample.report for sample in sampler.samples]
        facts["sampler"] = {
            "samples": len(reports),
            "legitimate": sum(r.legitimate for r in reports),
            "agreement_violations": sum(not r.agreement for r in reports),
            "safety_violations": sum(not r.safety for r in reports),
            "maximality_violations": sum(not r.maximality for r in reports),
            "best_effort_violations": len(sampler.best_effort_violations()),
        }
        extra["delivery_ratio"] = facts["ledger"].get("delivery_ratio")
        if ledger.replies_matched > ledger.requests_sent or ledger.receptions <= 0:
            problems.append("ledger: more replies than requests, or no reception")
    return Unit(setup_s=t_setup - t0, run_s=t_end - t_setup, build_s=t_built - t0,
                facts=facts, problems=problems, extra=extra)


def _sharded_unit(w: Workload, seed: int, transport: str = "mp", obs: bool = False,
                  tracer: Optional[Tracer] = None) -> Unit:
    spec = ShardSpec.create(w.scenario, seed=seed, duration=w.duration, shards=SHARDS,
                            params=dict(w.params), fingerprint=False)
    fresh_heap()
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        result = run_sharded(spec, transport=transport, build="snapshot", obs=obs)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    facts = dict(result.fingerprint)
    problems = []
    if facts["processed_events"] <= 0 or facts["sent"] <= 0 or facts["delivered"] <= 0:
        problems.append("no event ran or no message was sent or delivered")
    stats = result.stats
    return Unit(setup_s=stats["build_s"], run_s=stats["run_s"], build_s=stats["base_build_s"],
                facts=facts, problems=problems,
                extra={"wall_s": wall, "stats": stats,
                       "obs": result.obs["merged"] if result.obs else None})


# ---------------------------------------------------------- per-layer view

def _div(a, b):
    return None if a is None or b is None or b == 0 else a / b


def layer_metrics(tr: Tracer, wall_s: float, unit: Unit) -> Dict[str, Optional[float]]:
    """The catalogue's per-layer metrics of one traced unit.

    ``wall_s`` is the traced interval: the run phase of a plain unit, the
    whole ``run_sharded`` call of the sharded attribution unit.
    """
    facts = unit.facts
    calls, self_t = tr.n_calls, tr.self_time

    def share(layer):
        return None if tr.layer_missing(layer) else tr.layer_self(layer) / wall_s

    compute_calls = calls("core.compute")
    broadcasts = calls("net.broadcast")
    decide_fast = calls("net.decide_fast")
    delivered, dropped = facts["delivered"], facts["dropped"]
    m = {
        "sim.events": facts["processed_events"],
        "sim.self_s": self_t("sim.run"),
        "sim.share": share("sim"),
        "core.compute_calls": compute_calls,
        "core.compute_self_s": self_t("core.compute"),
        "core.compute_us": (None if compute_calls is None
                            else _div(tr.total_s["core.compute"] * 1e6, compute_calls)),
        "core.build_calls": calls("core.build"),
        "core.build_self_s": self_t("core.build"),
        "core.decode_calls": calls("core.decode"),
        "core.decodes_per_send": _div(calls("core.decode"), calls("core.build")),
        "core.ant_calls": calls("core.ant"),
        "core.share": share("core"),
        "net.broadcast_calls": broadcasts,
        "net.broadcast_self_s": self_t("net.broadcast"),
        "net.decide_self_s": self_t("net.decide", "net.decide_fast"),
        "net.delivered": delivered,
        "net.dropped": dropped,
        "net.drop_frac": _div(dropped, delivered + dropped),
        "net.deliver_calls": calls("net.deliver"),
        "net.fast_path_frac": (None if decide_fast is None
                               else _div(tr.hits["net.decide_fast"], broadcasts)),
        "net.trace_records": calls("net.trace"),
        "net.topology_calls": calls("net.topology"),
        "net.topology_self_s": self_t("net.topology"),
        "net.csr_rebuilds": calls("net.csr_rebuild"),
        "net.csr_patches": calls("net.csr_patch"),
        "net.share": share("net"),
        "mobility.step_calls": calls("mobility.step"),
        "mobility.step_self_s": self_t("mobility.step"),
        "mobility.share": share("mobility"),
        "traffic.send_calls": calls("traffic.send"),
        "traffic.send_self_s": self_t("traffic.send"),
        "traffic.record_delivery_calls": calls("traffic.record_delivery"),
        "traffic.record_delivery_self_s": self_t("traffic.record_delivery"),
        "traffic.delivery_ratio": unit.extra.get("delivery_ratio"),
        "traffic.share": share("traffic"),
        "metrics.sample_calls": calls("metrics.sample"),
        "metrics.sample_self_s": self_t("metrics.sample"),
        "metrics.predicates_self_s": self_t("metrics.predicates"),
        "metrics.share": share("metrics"),
        "scenarios.build_s": unit.build_s,
        "bench.layer_sum_frac": tr.root_s / wall_s,
    }
    m["sim.events_per_s"] = _div(m["sim.events"], m["sim.self_s"])
    return m


def shard_metrics(unit: Optional[Unit]) -> Dict[str, float]:
    """Shard-sync metrics from an observed mp run; zeros for unsharded ones.

    Wrappers cannot reach spawned workers, so these come from
    ``ShardRunResult.stats`` and the merged ``obs`` export.
    """
    if unit is None:
        return {"shard.windows": 0, "shard.window_s": 0.0, "shard.barrier_wait_s": 0.0,
                "shard.barrier_frac": 0.0, "shard.remote_deliveries": 0,
                "shard.cross_shard_frac": 0.0, "shard.halo_send_frac": 0.0,
                "shard.base_build_s": 0.0, "shard.worker_build_s": 0.0}
    stats, blob = unit.extra["stats"], unit.extra["obs"] or {}
    spans, counters = blob.get("spans", {}), blob.get("counters", {})
    window_s = spans.get("shard.window", {}).get("wall_ns_total", 0) / 1e9
    barrier_s = spans.get("shard.barrier_wait", {}).get("wall_ns_total", 0) / 1e9
    halo = counters.get("shard.halo_sends", 0)
    interior = counters.get("shard.interior_sends", 0)
    return {
        "shard.windows": stats["rounds"],
        "shard.window_s": window_s,
        "shard.barrier_wait_s": barrier_s,
        "shard.barrier_frac": _div(barrier_s, barrier_s + window_s),
        "shard.remote_deliveries": stats["remote_deliveries"],
        "shard.cross_shard_frac": _div(stats["remote_deliveries"], unit.facts["delivered"]),
        "shard.halo_send_frac": _div(halo, halo + interior),
        "shard.base_build_s": stats["base_build_s"],
        "shard.worker_build_s": sum(stats["worker_build_s"]),
    }


def traced_unit(w: Workload, seed: int) -> Tuple[List[Unit], Dict[str, Optional[float]], float]:
    """One traced measurement: ``(units, per-layer metrics, traced wall)``.

    Plain workloads: one unit with the wrappers on.  The sharded workload:
    an observed mp run for the shard-sync metrics (its wall is the traced
    wall), plus an in-process run of the same ShardWorld code under the
    wrappers for the layer attribution.  Every unit's digest is checked
    against the untraced one by the caller.
    """
    if w.kind != "sharded":
        tracer = Tracer()
        unit = run_unit(w, seed, tracer)
        metrics = layer_metrics(tracer, unit.run_s, unit)
        metrics.update(shard_metrics(None))
        return [unit], metrics, unit.run_s
    observed = _sharded_unit(w, seed, obs=True)
    tracer = Tracer()
    attributed = _sharded_unit(w, seed, transport="inproc", tracer=tracer)
    metrics = layer_metrics(tracer, attributed.extra["wall_s"], attributed)
    metrics["scenarios.build_s"] = (None if "scenarios.build" in tracer.missing
                                    else tracer.total_s["scenarios.build"])
    metrics.update(shard_metrics(observed))
    return [observed, attributed], metrics, observed.extra["wall_s"]


# -------------------------------------------------------------- measuring

def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Measurement:
    """Everything one run of one workload reports."""

    workload: str
    seed: int
    trace: bool
    digests: List[Optional[str]]  # one per world, filled by check()
    reference: Optional[List[str]] = None
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def attempt(self, fn: Callable[[], object]):
        """Run ``fn`` as one attempt; a crash fails it and returns ``None``."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # reported in the result, not fatal to the run
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.problems.append("crashed")
            return None

    def check(self, units: List[Unit], world: int) -> bool:
        """Fail the attempt that made ``units`` unless every output is right.

        A world's first digest anchors it (and must match the committed
        reference when there is one); every later unit of that world,
        traced or not, must reproduce it.
        """
        problems = [p for unit in units for p in unit.problems]
        for unit in units:
            anchor = self.digests[world]
            if anchor is None:
                self.digests[world] = anchor = unit.digest
                expected = self.reference[world] if self.reference else None
                if expected is not None and anchor != expected:
                    problems.append(f"world {world}: digest {anchor} differs from "
                                    f"the reference {expected}")
            elif unit.digest != anchor:
                problems.append(f"world {world}: digest {unit.digest} differs from {anchor}")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def detail(self) -> Dict[str, object]:
        return {"workload": self.workload, "seed": self.seed, "trace": int(self.trace),
                "correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "digests": self.digests, "problems": self.problems, "raw": self.raw,
                "samples": self.samples,
                "metrics": {name: {"value": value, "unit": UNITS[name]}
                            for name, value in self.metrics.items()}}


def _median_per_world(per_world: List[List[float]]) -> float:
    """Mean over the worlds of each world's median."""
    return statistics.mean(statistics.median(values) for values in per_world)


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            reference: Optional[List[str]] = None) -> Measurement:
    """Measure ``w`` for ``seconds`` after one untimed warm-up unit.

    Untraced: units cycle through the run's worlds until the time is up and
    every world ran at least once, with a host probe between units.  Traced:
    untraced and traced units of the first world alternate, so both see the
    same machine.  The run is pinned to as many CPUs as it has processes.
    """
    try:
        with pinned(SHARDS if w.kind == "sharded" else 1):
            return _measure(w, seed, seconds, trace, reference)
    finally:
        gc.unfreeze()  # hand the frozen heap back to the collector


def _measure(w: Workload, seed: int, seconds: float, trace: bool,
             reference: Optional[List[str]]) -> Measurement:
    m = Measurement(workload=w.name, seed=seed, trace=trace, digests=[None] * w.worlds,
                    reference=reference)
    seeds = world_seeds(seed, w.worlds)

    def untraced(world: int) -> Optional[Unit]:
        unit = m.attempt(lambda: run_unit(w, seeds[world]))
        return unit if unit is not None and m.check([unit], world) else None

    if untraced(0) is None:
        return m
    rss = peak_rss_mb()  # one world in a fresh process, as a user runs it
    deadline = time.perf_counter() + seconds
    if not trace:
        # A probe before and after every unit: each unit's times are scaled
        # by the host speed its two neighbouring probes saw.
        probes = [host_probe()]
        walls = {"run_s": [[] for _ in seeds], "setup_s": [[] for _ in seeds]}
        scaled = {"run_s": [[] for _ in seeds], "setup_s": [[] for _ in seeds]}
        done = 0
        while done < w.worlds or time.perf_counter() < deadline:
            world = done % w.worlds
            unit = untraced(world)
            if unit is None:
                return m
            probes.append(host_probe())
            scale = 2 * PROBE_REF_S / (probes[-2] + probes[-1])
            for name, value in (("run_s", unit.run_s), ("setup_s", unit.setup_s)):
                walls[name][world].append(value)
                scaled[name][world].append(value * scale)
            done += 1
        m.raw = {"run_wall_s": _median_per_world(walls["run_s"]),
                 "setup_wall_s": _median_per_world(walls["setup_s"]),
                 "host_slowdown": statistics.median(probes) / PROBE_REF_S}
        m.samples = {name: [v for values in per_world for v in values]
                     for name, per_world in scaled.items()}
        m.samples["probe_s"] = probes
        m.metrics = {"run_s": _median_per_world(scaled["run_s"]),
                     "setup_s": _median_per_world(scaled["setup_s"]), "peak_rss_mb": rss}
        return m
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    layers: List[Dict[str, Optional[float]]] = []
    while not layers or time.perf_counter() < deadline:
        unit = untraced(0)
        if unit is None:
            return m
        plain_walls.append(unit.extra["wall_s"] if w.kind == "sharded" else unit.run_s)
        traced = m.attempt(lambda: traced_unit(w, seeds[0]))
        if traced is None or not m.check(traced[0], 0):
            return m
        traced_walls.append(traced[2])
        layers.append(traced[1])
    m.samples = {"untraced_s": plain_walls, "traced_s": traced_walls}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if any(v is None for v in values):
            m.metrics[name] = None
        elif all(isinstance(v, int) for v in values):  # counts stay whole
            m.metrics[name] = statistics.median_low(values)
        else:
            m.metrics[name] = statistics.median(values)
    m.metrics["bench.trace_overhead"] = (statistics.median(traced_walls)
                                         / statistics.median(plain_walls) - 1.0)
    return m


# ---------------------------------------------------------------- plumbing

def load_json(path: Path) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@contextlib.contextmanager
def local_tempdir():
    """Keep temporary files (the sharded snapshot blob) inside the checkout."""
    path = tempfile.mkdtemp(prefix=".bench_e2e_tmp", dir=ROOT)
    previous = tempfile.tempdir
    tempfile.tempdir = path
    try:
        yield
    finally:
        tempfile.tempdir = previous
        shutil.rmtree(path, ignore_errors=True)


def stop_resource_tracker() -> None:
    """Stop (and wait for) the helper process spawned workers start."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def contract_line(m: Measurement, spec: Dict[str, object]) -> Dict[str, object]:
    """The final stdout line: every metric ``BENCHMARK.json`` lists for the mode."""
    listed = spec["per_layer"] if m.trace else spec["end_to_end"]
    return {"correct": m.correct, "attempted": m.attempted, "failed": m.failed,
            "metrics": {e["name"]: {"value": m.metrics.get(e["name"]), "unit": UNITS[e["name"]]}
                        for e in listed}}


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    references = load_json(REFERENCE_FILE) if REFERENCE_FILE.exists() else {}
    reference = (None if args.record_reference
                 else references.get(w.name, {}).get(str(args.seed)))
    try:
        with local_tempdir():
            m = measure(w, args.seed, args.seconds, bool(args.trace), reference)
    finally:
        stop_resource_tracker()
    for name, value in m.metrics.items():
        line = f"{w.name} {name} {_fmt(value)} {UNITS[name]}"
        if name in m.samples:
            q1, _, q3 = _quartiles(m.samples[name])
            line += (f"  (reference-host seconds; {len(m.samples[name])} units, "
                     f"q1 {q1:.4g}, q3 {q3:.4g}; {name[:-2]}_wall_s "
                     f"{m.raw[name[:-2] + '_wall_s']:.4g}, host slowdown "
                     f"{m.raw['host_slowdown']:.3f})")
        print(line)
    for problem in m.problems:
        print(f"{w.name} problem: {problem}")
    print(f"{w.name} digests {' '.join(d or '-' for d in m.digests)} "
          f"attempted {m.attempted} failed {m.failed}")
    if args.record_reference and m.correct and not args.trace:
        references.setdefault(w.name, {})[str(args.seed)] = m.digests
        with open(REFERENCE_FILE, "w", encoding="utf-8") as handle:
            json.dump(references, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("detail " + json.dumps(m.detail()))
    print(json.dumps(contract_line(m, load_json(BENCHMARK_FILE))))
    return 0 if m.correct else 1


# -------------------------------------------------------------- suite mode

def _child(name: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    """Run one workload in a fresh interpreter; a crash or timeout fails it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    failed = {"workload": name, "correct": False, "attempted": 1, "failed": 1,
              "digests": [None] * WORKLOADS[name].worlds, "metrics": {}, "samples": {}}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**failed, "problems": ["timed out"]}
    sys.stderr.write(proc.stderr)
    for line in proc.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    return {**failed, "problems": [f"exit code {proc.returncode}, no result"]}


def machine_fingerprint() -> Dict[str, object]:
    import networkx
    import numpy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "networkx": networkx.__version__}


def summarize(runs: List[Dict[str, object]],
              traced: Dict[str, object]) -> Dict[str, object]:
    """End-to-end distributions over the repeats plus the traced catalogue."""
    good = [r for r in runs if r["correct"]]
    digests = [tuple(r["digests"]) for r in good]
    majority = max(set(digests), key=digests.count) if digests else None
    agreeing = [r for r in good if tuple(r["digests"]) == majority]
    end_to_end: Dict[str, object] = {}
    for metric in ("run_s", "setup_s", "peak_rss_mb"):
        values = [r["metrics"][metric]["value"] for r in agreeing]
        if values:
            q1, med, q3 = _quartiles(values)
            end_to_end[metric] = {"unit": E2E_UNITS[metric], "values": values,
                                  "median": med, "q1": q1, "q3": q3, "n": len(values)}
    fail_frac = 1.0 - len(agreeing) / len(runs)
    end_to_end["fail_frac"] = {"unit": "1", "values": [fail_frac], "median": fail_frac,
                               "q1": fail_frac, "q3": fail_frac, "n": len(runs)}
    traced_ok = (traced["correct"] and majority is not None
                 and traced["digests"][0] == majority[0])
    return {"end_to_end": end_to_end, "digests": list(majority or ()),
            "traced_digest_ok": traced_ok,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "problems": sorted({p for r in runs + [traced] for p in r.get("problems", [])})}


def run_suite(args) -> int:
    spec = load_json(BENCHMARK_FILE)
    names = [entry["name"] for entry in spec["workloads"]]
    runs: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    for repeat in range(args.repeats):
        for name in names:
            print(f"repeat {repeat + 1}/{args.repeats}: {name}", flush=True)
            runs[name].append(_child(name, args.seed, args.seconds, 0))
    summary = {}
    for name in names:
        print(f"traced: {name}", flush=True)
        summary[name] = summarize(runs[name], _child(name, args.seed, args.seconds, 1))
    ok = True
    for name, s in summary.items():
        print(f"\n{name}  world digests {' '.join(map(str, s['digests']))}  traced digest "
              f"{'equal' if s['traced_digest_ok'] else 'DIFFERENT'}")
        for metric, d in s["end_to_end"].items():
            print(f"  {metric:<12} median {_fmt(d['median'])} {d['unit']}  "
                  f"[q1 {_fmt(d['q1'])}, q3 {_fmt(d['q3'])}]  n={d['n']}")
        for metric, value in s["per_layer"].items():
            print(f"  {metric:<32} {_fmt(value)} {LAYER_UNITS.get(metric, '')}")
        for problem in s["problems"]:
            print(f"  problem: {problem}")
        ok = ok and s["end_to_end"]["fail_frac"]["median"] == 0 and s["traced_digest_ok"]
    if args.json:
        sys.path.insert(0, str(ROOT / "benchmarks"))
        import _emit
        direction = {"lower": "max", "higher": "min"}
        better = {e["name"]: e["better"] for e in spec["end_to_end"]}
        rows = [_emit.row(f"{name}.{metric}", d["median"], d["unit"],
                          direction=direction[better.get(metric, "lower")])
                for name, s in summary.items() for metric, d in s["end_to_end"].items()]
        rows += [_emit.row(f"{name}.{metric}", value, LAYER_UNITS[metric])
                 for name, s in summary.items() for metric, value in s["per_layer"].items()
                 if value is not None]
        _emit.emit(args.json, "e2e", False, rows, meta={
            "machine": machine_fingerprint(), "seed": args.seed, "seconds": args.seconds,
            "repeats": args.repeats, "workloads": summary})
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    run_seconds = load_json(BENCHMARK_FILE)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: the suite)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="how long one run measures (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite mode: untraced runs per workload")
    parser.add_argument("--json", metavar="OUT",
                        help="suite mode: write a bench-emit/v1 envelope")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's digest in reference.json")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
