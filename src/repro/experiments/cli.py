"""Command-line entry point of the experiment harness.

Examples
--------
Run one experiment (quick parameters)::

    python -m repro.experiments.cli E3

Run the full suite with paper-scale parameters and write a report::

    python -m repro.experiments.cli all --full --output results.txt

Run E1–E10 as a multi-seed campaign on 4 worker processes, with a resumable
result store::

    python -m repro.experiments.cli all --seeds 8 --jobs 4 --store results.jsonl

List the registered scenarios, then sweep one of them as a workload grid::

    python -m repro.experiments.cli --list-scenarios
    python -m repro.experiments.cli E3 --scenario manet_waypoint \
        --set area=400 --sweep n=10,20,40 --seeds 4 --jobs 2 --store grid.jsonl

Campaign mode
-------------
``--seeds N`` (N > 1), ``--jobs K`` (K > 1), ``--store PATH``, ``--sweep``,
``--traffic-sweep``, ``--progress``, ``--task-timeout`` or ``--task-retries``
switch the CLI from the single-run path to the campaign orchestrator
(:mod:`repro.campaign`).
Without any of them the CLI behaves exactly as before — one process, one seed
per experiment, byte-identical report output.

*Execution policy.*  ``--task-timeout SECONDS`` bounds each task attempt's
wall clock and ``--task-retries N`` grants extra attempts after a crash or
timeout; a task that exhausts its attempts records a structured failure row
(``status="failed"``) instead of killing the campaign.  ``--progress``
streams one ``[done/total] task`` line to *stderr* per completed task (store
replays included), on both backends; the stdout report is unchanged.

*Scenario axis.*  ``--scenario NAME`` selects a registered scenario
(:mod:`repro.scenarios`) as the workload of the selected experiments in place
of their defaults.  Repeatable ``--set param=value`` pins scenario
parameters; repeatable ``--sweep param=v1,v2,...`` turns a parameter into a
grid axis (multiple sweeps form their cartesian product, in flag order).
Values are validated and coerced against the scenario's declared schema
before anything runs; tuple-valued parameters use ``+`` separators
(``--set group_sizes=4+4+3``).  In single-run mode ``--scenario`` (with
optional ``--set``) simply overrides the workload of the one run.

*Traffic axis.*  ``--traffic NAME`` selects a registered application
workload generator (:mod:`repro.traffic`, see ``--list-traffic``) injected by
traffic-aware experiments (E11); ``--traffic-set`` / ``--traffic-sweep``
mirror ``--set`` / ``--sweep`` against the traffic schema.  Traffic cells are
a campaign grid axis exactly like scenario cells: they appear in task ids,
the spec hash and the per-task seed derivation, and the report renders one
block per {experiment x scenario x traffic} cell.  Campaigns without traffic
flags keep their pre-axis task ids, seeds and hashes.

*Observability.*  ``--obs`` (or ``--obs-out PATH``, which implies it)
collects runtime metrics + sim-time-correlated spans (:mod:`repro.obs`)
around every run: single runs print a one-line counter digest to stderr and
export a ``repro-obs/v1`` JSONL file to ``--obs-out``; campaigns persist
each task's export blob in its store record and write per-task export lines
to ``--obs-out``.  ``--obs-heap`` adds tracemalloc peak-heap tracking
(slower); ``--profile DIR`` dumps one cProfile file per run/task.  None of
these change the stdout report or any simulation result — the obs layer
never consumes RNG and never reorders events.

After a campaign, one final summary line goes to stderr —
``campaign summary: N tasks (X executed, Y resumed, F failed, R retried)`` —
so scripts see failure/retry counts without parsing the report.

*Spec format.*  The selected experiments, the scenario cells, the replicate
count (``--seeds``), the root seed (``--seed``, default 0) and the workload
size (``--full``) define a :class:`repro.campaign.CampaignSpec`.  The spec
expands into one task per {experiment x scenario cell x replicate}; each
task's seed is derived deterministically from the root seed via SHA-256
(:func:`repro.sim.randomness.derive_seed`), mixing in the scenario cell's
canonical JSON, so the task list — identifiers, seeds and order — is a pure
function of the spec.

*Result store schema.*  ``--store`` appends one JSON line per completed task
(see :mod:`repro.campaign.store`), including the scenario cell the task ran
under.

*Resume semantics.*  Rerunning the same command against the same store skips
every task whose ``(spec_hash, task_id)`` is already recorded and replays its
rows from the store — an interrupted campaign loses at most its in-flight
tasks.  Changing any spec field (experiments, scenario cells, seeds, root
seed, ``--full``) changes the spec hash, so stale records of a different
campaign are never reused.  Corrupt trailing lines (crashed writer) are
skipped and their tasks re-run.

*Aggregation.*  The campaign report prints one table per {experiment x
scenario cell} with replicate rows collapsed to ``mean ± std`` cells
(:func:`repro.metrics.report.aggregate_rows`), grouped by the experiment's
parameter-grid columns (:data:`repro.experiments.suite.AGGREGATE_KEYS`).
Aggregates are computed in canonical task order, so serial (``--jobs 1``) and
parallel executions produce identical tables.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

from .runner import ExperimentResult
from .suite import ALL_EXPERIMENTS, run_experiment

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (separated for testability)."""
    parser = argparse.ArgumentParser(
        prog="grp-experiments",
        description="Reproduction experiments for 'Best-effort Group Service in Dynamic "
                    "Networks' (SPAA 2010).")
    parser.add_argument("experiment", nargs="?", default="all",
                        help="Experiment identifier (E1..E10) or 'all'.")
    parser.add_argument("--full", action="store_true",
                        help="Use the full (slower) workload sizes instead of the quick ones.")
    parser.add_argument("--seed", type=int, default=None,
                        help="Override the experiment seed (campaign mode: the root seed).")
    parser.add_argument("--output", type=str, default=None,
                        help="Also write the report to this file.")
    parser.add_argument("--list", action="store_true", help="List available experiments.")
    parser.add_argument("--seeds", type=int, default=1,
                        help="Seed replicates per experiment; > 1 runs a multi-seed campaign "
                             "with cross-seed aggregated tables.")
    parser.add_argument("--jobs", type=int, default=1,
                        help="Worker processes for campaign execution (1 = serial reference).")
    parser.add_argument("--store", type=str, default=None,
                        help="JSONL result store file; reruns resume by skipping "
                             "recorded tasks.")
    parser.add_argument("--progress", action="store_true",
                        help="Stream one '[done/total] task' line to stderr per completed "
                             "campaign task (serial and pool backends).")
    parser.add_argument("--task-timeout", type=float, default=None, metavar="SECONDS",
                        help="Wall-clock budget per campaign task attempt; a task whose "
                             "attempts all time out records a failure row.")
    parser.add_argument("--task-retries", type=int, default=0, metavar="N",
                        help="Extra attempts after a crashed or timed-out task attempt "
                             "(default 0).")
    parser.add_argument("--scenario", type=str, default=None,
                        help="Registered scenario overriding the experiments' default "
                             "workload (see --list-scenarios).")
    parser.add_argument("--set", dest="set_params", action="append", default=[],
                        metavar="PARAM=VALUE",
                        help="Pin one scenario parameter (repeatable; requires --scenario; "
                             "tuple values use '+', e.g. group_sizes=4+4+3).")
    parser.add_argument("--sweep", dest="sweep_params", action="append", default=[],
                        metavar="PARAM=V1,V2,...",
                        help="Sweep one scenario parameter as a grid axis (repeatable; "
                             "requires --scenario; multiple sweeps form their cartesian "
                             "product and imply campaign mode).")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="List registered scenarios with their parameter schemas.")
    parser.add_argument("--traffic", type=str, default=None,
                        help="Registered application-traffic pattern injected by "
                             "traffic-aware experiments (see --list-traffic).")
    parser.add_argument("--traffic-set", dest="traffic_set_params", action="append",
                        default=[], metavar="PARAM=VALUE",
                        help="Pin one traffic parameter (repeatable; requires "
                             "--traffic).")
    parser.add_argument("--traffic-sweep", dest="traffic_sweep_params", action="append",
                        default=[], metavar="PARAM=V1,V2,...",
                        help="Sweep one traffic parameter as a grid axis (repeatable; "
                             "requires --traffic; implies campaign mode).")
    parser.add_argument("--list-traffic", action="store_true",
                        help="List registered traffic patterns with their parameter "
                             "schemas.")
    parser.add_argument("--obs", action="store_true",
                        help="Collect runtime observability (per-subsystem metrics and "
                             "sim-time-correlated spans, see repro.obs) around every run; "
                             "results are bit-identical either way.  In campaign mode the "
                             "export blob is persisted per task record.")
    parser.add_argument("--obs-out", type=str, default=None, metavar="PATH",
                        help="Write the collected metrics as JSON lines to PATH "
                             "(implies --obs).")
    parser.add_argument("--obs-heap", action="store_true",
                        help="Also track peak heap via tracemalloc (noticeably slower; "
                             "requires --obs/--obs-out).")
    parser.add_argument("--profile", type=str, default=None, metavar="DIR",
                        help="Dump a cProfile .prof file per experiment run / campaign "
                             "task into DIR.")
    return parser


def _expand_variants(kind: str, definition, spec_factory, name: str,
                     set_params: List[str], sweep_params: List[str],
                     set_flag: str, sweep_flag: str) -> List["object"]:
    """Expand --*-set/--*-sweep assignments into validated grid cells.

    Shared by the scenario and traffic axes: pins coerce against the
    definition's schema, sweeps form their cartesian product in flag order,
    every cell fully validates (so a typo'd parameter fails before any
    simulation runs) and duplicate cells are rejected.
    """
    base = {}
    for assignment in set_params:
        key, value = definition.split_assignment(assignment, set_flag)
        base[key] = definition.parameter(key).coerce(value)
    variants = [spec_factory(name, **base)]
    for sweep in sweep_params:
        key, value = definition.split_assignment(sweep, sweep_flag)
        parameter = definition.parameter(key)
        points = [parameter.coerce(v) for v in value.split(",") if v]
        if not points:
            raise ValueError(f"{sweep_flag} {key} needs at least one value")
        variants = [variant.with_params(**{key: point})
                    for variant in variants for point in points]
    for variant in variants:
        definition.resolve_params(variant.param_dict)
    labels = [variant.label() for variant in variants]
    if len(set(labels)) != len(labels):
        duplicates = sorted({label for label in labels if labels.count(label) > 1})
        raise ValueError(f"duplicate {kind} cell(s) from {sweep_flag}: {duplicates}")
    return variants


def _scenario_variants(args: argparse.Namespace) -> Optional[List["object"]]:
    """Expand --scenario/--set/--sweep into the list of scenario cells.

    Returns ``None`` when no scenario was selected.
    """
    from repro.scenarios import ScenarioSpec, get_scenario

    if args.scenario is None:
        if args.set_params or args.sweep_params:
            raise ValueError("--set/--sweep require --scenario")
        return None
    return _expand_variants("scenario", get_scenario(args.scenario),
                            ScenarioSpec.create, args.scenario,
                            args.set_params, args.sweep_params, "--set", "--sweep")


def _traffic_variants(args: argparse.Namespace) -> Optional[List["object"]]:
    """Expand --traffic/--traffic-set/--traffic-sweep into traffic cells.

    Returns ``None`` when no traffic was selected.
    """
    from repro.traffic import TrafficSpec, get_traffic

    if args.traffic is None:
        if args.traffic_set_params or args.traffic_sweep_params:
            raise ValueError("--traffic-set/--traffic-sweep require --traffic")
        return None
    return _expand_variants("traffic", get_traffic(args.traffic),
                            TrafficSpec.create, args.traffic,
                            args.traffic_set_params, args.traffic_sweep_params,
                            "--traffic-set", "--traffic-sweep")


def _run(experiment_ids: List[str], quick: bool, seed: Optional[int],
         scenario=None, traffic=None,
         profile_dir: Optional[str] = None) -> List[ExperimentResult]:
    from repro.obs import profiling

    if profile_dir is not None:
        import os
        os.makedirs(profile_dir, exist_ok=True)
    results = []
    for experiment_id in experiment_ids:
        start = time.time()
        profile_path = (None if profile_dir is None
                        else f"{profile_dir}/{experiment_id}.prof")
        with profiling(profile_path):
            result = run_experiment(experiment_id, quick=quick, seed=seed,
                                    scenario=scenario, traffic=traffic)
        result.add_note(f"wall time: {time.time() - start:.1f}s")
        results.append(result)
    return results


def _campaign_spec(experiment_ids: List[str], args: argparse.Namespace, scenarios,
                   traffics):
    """Build the campaign spec (raises ValueError on invalid policy flags)."""
    from repro.campaign import CampaignSpec

    return CampaignSpec(
        name=args.experiment.lower(),
        experiments=tuple(experiment_ids),
        replicates=max(1, args.seeds),
        root_seed=args.seed if args.seed is not None else 0,
        quick=not args.full,
        scenarios=tuple(scenarios) if scenarios else (),
        task_timeout=args.task_timeout,
        task_retries=args.task_retries,
        traffics=tuple(traffics) if traffics else (),
        obs=bool(args.obs or args.obs_out),
        obs_heap=args.obs_heap,
    )


def _write_campaign_obs(path: str, spec, result) -> None:
    """Write per-task obs blobs as JSON lines (meta, one per task, merged).

    The final ``{"type": "merged"}`` line folds every task blob through
    :func:`repro.obs.merge_export_blobs`, the one fold, so campaign-wide
    readers need not re-implement the merge.
    """
    import json

    from repro.obs import merge_export_blobs

    task_blobs = []
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "meta", "schema": "repro-obs/v1",
                                 "campaign": spec.name,
                                 "spec_hash": spec.spec_hash()}) + "\n")
        for outcome in result.outcomes:
            if outcome.obs is not None:
                task_blobs.append(outcome.obs)
                handle.write(json.dumps({"type": "task",
                                         "task_id": outcome.task_id,
                                         "wall_time": outcome.wall_time,
                                         "obs": outcome.obs}) + "\n")
        if task_blobs:
            handle.write(json.dumps({"type": "merged",
                                     "tasks": len(task_blobs),
                                     "obs": merge_export_blobs(task_blobs)})
                         + "\n")


def _run_campaign(spec, store, args: argparse.Namespace) -> Tuple[str, int]:
    """Execute the campaign; returns (report, permanently-failed task count)."""
    from repro.campaign import campaign_report, run_campaign

    progress = None
    if args.progress:
        total = spec.task_count()
        done = [0]

        def progress(outcome) -> None:
            done[0] += 1
            suffix = "resumed" if outcome.from_store else f"{outcome.wall_time:.1f}s"
            print(f"[{done[0]}/{total}] {outcome.task_id} ({suffix})",
                  file=sys.stderr, flush=True)

    result = run_campaign(spec, store=store, jobs=max(1, args.jobs), progress=progress,
                          profile_dir=args.profile)
    if args.obs_out:
        _write_campaign_obs(args.obs_out, spec, result)
    failed = sum(1 for outcome in result.outcomes
                 if any(row.get("status") == "failed" for row in outcome.rows))
    retried = sum(1 for outcome in result.outcomes if outcome.attempts > 1)
    # The per-task --progress stream only says how far the campaign got; the
    # final summary says how it went — failure and retry counts included —
    # on stderr, so the stdout report stays byte-identical.
    print(f"campaign summary: {len(result.outcomes)} tasks "
          f"({result.executed} executed, {result.skipped} resumed, "
          f"{failed} failed, {retried} retried)",
          file=sys.stderr, flush=True)
    return campaign_report(result), failed


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for key, func in sorted(ALL_EXPERIMENTS.items(), key=lambda kv: int(kv[0][1:])):
            print(f"{key}: {func.__doc__.splitlines()[0] if func.__doc__ else ''}")
        return 0
    if args.list_scenarios:
        from repro.scenarios import format_catalog
        print(format_catalog())
        return 0
    if args.list_traffic:
        from repro.traffic import format_traffic_catalog
        print(format_traffic_catalog())
        return 0
    if args.experiment.lower() == "all":
        experiment_ids = sorted(ALL_EXPERIMENTS, key=lambda k: int(k[1:]))
    else:
        experiment_ids = [args.experiment]
    try:
        scenarios = _scenario_variants(args)
        traffics = _traffic_variants(args)
    except (KeyError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    campaign_mode = (args.seeds > 1 or args.jobs > 1 or args.store is not None
                     or bool(args.sweep_params) or bool(args.traffic_sweep_params)
                     or args.progress
                     or args.task_timeout is not None or args.task_retries != 0)
    failed_tasks = 0
    try:
        if campaign_mode:
            from repro.campaign import ResultStore
            try:
                # Spec construction validates the policy flags and the store
                # constructor the store path; only *their* ValueError is a
                # bad-input exit — errors raised later, deep inside
                # experiments, must keep their tracebacks.
                spec = _campaign_spec(experiment_ids, args, scenarios, traffics)
                store = ResultStore(args.store) if args.store else None
            except ValueError as exc:
                print(str(exc), file=sys.stderr)
                return 2
            report, failed_tasks = _run_campaign(spec, store, args)
        else:
            scenario = scenarios[0] if scenarios else None
            traffic = traffics[0] if traffics else None
            obs_ctx = None
            if args.obs or args.obs_out:
                from repro.obs import ObsContext, observing, write_blob_jsonl
                with observing(ObsContext(track_heap=args.obs_heap)) as obs_ctx:
                    results = _run(experiment_ids, quick=not args.full,
                                   seed=args.seed, scenario=scenario,
                                   traffic=traffic, profile_dir=args.profile)
            else:
                results = _run(experiment_ids, quick=not args.full, seed=args.seed,
                               scenario=scenario, traffic=traffic,
                               profile_dir=args.profile)
            report = "\n\n".join(result.to_text() for result in results)
            if obs_ctx is not None:
                if args.obs_out:
                    write_blob_jsonl(args.obs_out,
                                     obs_ctx.export(include_records=True),
                                     meta={"experiments": experiment_ids,
                                           "quick": not args.full,
                                           "seed": args.seed})
                # A one-line digest on stderr keeps the stdout report
                # byte-identical to an unobserved run.
                counters = obs_ctx.registry.as_dict()["counters"]
                digest = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
                print(f"obs: {digest or 'no counters recorded'}",
                      file=sys.stderr, flush=True)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    if failed_tasks:
        # The failure-row policy keeps the campaign (and its report) alive,
        # but scripts and CI must still see a nonzero exit.
        print(f"{failed_tasks} task(s) failed permanently (see report)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
