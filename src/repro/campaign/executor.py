"""Campaign execution backends: serial reference and multiprocessing pool.

The serial executor is the semantic reference: the worker pool shards the same
task list across processes and must produce bit-identical metric rows (and
therefore bit-identical aggregate tables), because every task is fully seeded
and shares nothing with its siblings.  Only ``wall_time`` is allowed to differ
between backends.

Failure policy
--------------
``CampaignSpec.task_timeout`` bounds the wall clock of each task *attempt*
(enforced with a per-attempt ``SIGALRM`` interval timer inside the executing
process — the worker's main thread on the pool backend, the caller's on the
serial one; on platforms without ``SIGALRM`` the timeout is ignored) and
``task_retries`` grants extra attempts after a crash or timeout.  A task that
exhausts its attempts does not kill the campaign: it completes with a
*structured failure row* (``status="failed"``, the error text and the attempt
count) that flows through the store, resume and the report like any metric
row.  Every attempt re-runs from the task's derived seed, so a retry that
succeeds is bit-identical to a first attempt that succeeded.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.scenarios import ScenarioSpec
from repro.traffic import TrafficSpec

from .spec import CampaignSpec, CampaignTask
from .store import ResultStore, TaskRecord

__all__ = ["TaskTimeoutError", "TaskOutcome", "CampaignResult", "execute_task",
           "run_campaign"]


class TaskTimeoutError(RuntimeError):
    """An attempt exceeded ``CampaignSpec.task_timeout`` seconds."""


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one campaign task (fresh or replayed from the store)."""

    task_id: str
    experiment: str
    replicate: int
    seed: int
    quick: bool
    description: str
    wall_time: float
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    from_store: bool = False
    #: ``ScenarioSpec.as_dict()`` of the scenario cell (``None`` = default).
    scenario: Optional[Dict[str, object]] = None
    #: ``TrafficSpec.as_dict()`` of the traffic cell (``None`` = default).
    traffic: Optional[Dict[str, object]] = None
    #: Attempts the task consumed (> 1 means at least one retry fired).
    attempts: int = 1
    #: ``ObsContext.export()`` blob of the run (``None`` without ``obs``).
    obs: Optional[Dict[str, object]] = None

    @functools.cached_property
    def scenario_label(self) -> Optional[str]:
        """The scenario cell's label, or ``None`` on the default cell.

        Cached: report rendering queries it once per (outcome x cell) pair,
        and rebuilding a spec from its dict each time is pure waste.
        """
        if self.scenario is None:
            return None
        return ScenarioSpec.from_dict(self.scenario).label()

    @functools.cached_property
    def traffic_label(self) -> Optional[str]:
        """The traffic cell's label, or ``None`` on the default cell."""
        if self.traffic is None:
            return None
        return TrafficSpec.from_dict(self.traffic).label()

    def to_record(self, spec_hash: str) -> TaskRecord:
        return TaskRecord(
            spec_hash=spec_hash, task_id=self.task_id, experiment=self.experiment,
            replicate=self.replicate, seed=self.seed, quick=self.quick,
            description=self.description, wall_time=self.wall_time,
            rows=self.rows, notes=self.notes, scenario=self.scenario,
            traffic=self.traffic, attempts=self.attempts, obs=self.obs)


def _outcome_from_record(record: TaskRecord) -> TaskOutcome:
    return TaskOutcome(
        task_id=record.task_id, experiment=record.experiment,
        replicate=record.replicate, seed=record.seed, quick=record.quick,
        description=record.description, wall_time=record.wall_time,
        rows=record.rows, notes=record.notes, from_store=True,
        scenario=record.scenario, traffic=record.traffic,
        attempts=record.attempts, obs=record.obs)


class _attempt_deadline:
    """Context manager aborting the block after ``seconds`` of wall clock.

    Implemented with ``signal.setitimer(ITIMER_REAL)`` in the current
    process, so it works unchanged in the serial backend and inside pool
    workers (task code runs in each process's main thread).  The deadline is
    silently disabled where signals cannot work — ``None``, platforms
    without ``SIGALRM``, or a caller off the main thread (where
    ``signal.signal`` would raise and the retry loop would misread it as a
    task failure).
    """

    def __init__(self, seconds: Optional[float]):
        usable = (hasattr(signal, "SIGALRM")
                  and threading.current_thread() is threading.main_thread())
        self.seconds = seconds if usable else None
        self._previous = None

    def __enter__(self) -> "_attempt_deadline":
        if self.seconds is not None:
            def _expired(signum, frame):
                raise TaskTimeoutError(
                    f"task attempt exceeded {self.seconds}s wall-clock budget")
            self._previous = signal.signal(signal.SIGALRM, _expired)
            try:
                signal.setitimer(signal.ITIMER_REAL, self.seconds)
            except BaseException:
                signal.signal(signal.SIGALRM, self._previous)
                raise
        return self

    def __exit__(self, *exc_info) -> None:
        # try/finally on both steps: the timer can expire inside this very
        # method (raising TaskTimeoutError out of the disarm sequence), and
        # neither a leaked armed timer nor a leaked handler may survive into
        # the next attempt's retry accounting.
        if self.seconds is not None:
            try:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            finally:
                signal.signal(signal.SIGALRM, self._previous)


def _failure_outcome(task: CampaignTask, error: BaseException,
                     attempts: int, wall_time: float) -> TaskOutcome:
    """The structured failure recorded when a task exhausts its attempts.

    The single row carries machine-readable failure columns; ``status`` is a
    string (never aggregated as a metric) and ``attempts`` is numeric, so
    cross-seed aggregation and report rendering handle mixed
    success/failure replicate sets without special cases.
    """
    kind = "timeout" if isinstance(error, TaskTimeoutError) else type(error).__name__
    row = {
        "task": task.task_id,
        "status": "failed",
        "failure": kind,
        "attempts": attempts,
        "error": str(error),
    }
    return TaskOutcome(
        task_id=task.task_id, experiment=task.experiment, replicate=task.replicate,
        seed=task.seed, quick=task.quick,
        description=f"{task.experiment} (failed)",
        wall_time=wall_time, rows=[row],
        notes=[f"FAILED after {attempts} attempt(s): {kind}: {error}"],
        scenario=None if task.scenario is None else task.scenario.as_dict(),
        traffic=None if task.traffic is None else task.traffic.as_dict(),
        attempts=attempts)


def execute_task(task: CampaignTask,
                 timeout: Optional[float] = None,
                 retries: int = 0,
                 obs: bool = False,
                 obs_heap: bool = False,
                 profile_dir: Optional[str] = None) -> TaskOutcome:
    """Run one task in the current process and return its outcome.

    This is the unit of work both backends share; it is a module-level
    function so the multiprocessing pool can pickle it.  Each of the
    ``1 + retries`` attempts is bounded by ``timeout`` seconds; a task whose
    attempts are all lost to crashes or timeouts resolves to a structured
    failure outcome instead of propagating (``KeyboardInterrupt`` and friends
    still propagate).

    ``obs`` collects a fresh :class:`repro.obs.ObsContext` around each
    attempt (installed process-locally, so pool workers observe only their
    own task) and attaches the export blob of the successful attempt to the
    outcome.  ``profile_dir`` dumps a cProfile ``<task_id>.prof`` per task;
    both are runtime observation and never change metric rows.
    """
    # Imported lazily: the experiment suite sits above the campaign layer.
    from repro.experiments.suite import ALL_EXPERIMENTS, run_experiment
    from repro.obs import ObsContext, observing, profiling

    if task.experiment.upper() not in ALL_EXPERIMENTS:
        # A malformed spec is a configuration error, not a task failure:
        # propagate instead of burning retries on every replicate.
        raise KeyError(f"unknown experiment {task.experiment!r}; "
                       f"valid: {sorted(ALL_EXPERIMENTS)}")
    profile_path = None
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)
        profile_path = os.path.join(profile_dir,
                                    task.task_id.replace("/", "_") + ".prof")
    start = time.perf_counter()
    attempts = 1 + max(0, retries)
    last_error: Optional[Exception] = None
    for attempt in range(1, attempts + 1):
        result = None
        # A fresh context per attempt: a retried attempt must not inherit the
        # half-collected metrics of the crashed one.
        ctx = ObsContext(track_heap=obs_heap) if obs else None
        obs_scope = observing(ctx) if ctx is not None else contextlib.nullcontext()
        try:
            attempt_start = time.perf_counter()
            with _attempt_deadline(timeout), profiling(profile_path), obs_scope:
                result = run_experiment(task.experiment, quick=task.quick,
                                        seed=task.seed, scenario=task.scenario,
                                        traffic=task.traffic)
            wall_time = time.perf_counter() - attempt_start
        except Exception as exc:  # noqa: BLE001 - the retry/failure boundary
            # Disarm race: the interval timer can fire in the sliver between
            # the experiment returning and the deadline's __exit__ disarming
            # it.  A TaskTimeoutError with the result already bound means the
            # attempt finished inside its budget — keep it.
            if result is None or not isinstance(exc, TaskTimeoutError):
                last_error = exc
                continue
            wall_time = time.perf_counter() - attempt_start
        return TaskOutcome(
            task_id=task.task_id, experiment=task.experiment, replicate=task.replicate,
            seed=task.seed, quick=task.quick, description=result.description,
            wall_time=wall_time, rows=result.rows, notes=result.notes,
            scenario=None if task.scenario is None else task.scenario.as_dict(),
            traffic=None if task.traffic is None else task.traffic.as_dict(),
            attempts=attempt,
            obs=None if ctx is None else ctx.export())
    return _failure_outcome(task, last_error, attempts, time.perf_counter() - start)


@dataclass
class CampaignResult:
    """Outcome of a whole campaign, in canonical (spec expansion) order."""

    spec: CampaignSpec
    outcomes: List[TaskOutcome]
    executed: int
    skipped: int

    def outcomes_for(self, experiment: str,
                     scenario_label: Optional[str] = None,
                     traffic_label: Optional[str] = None) -> List[TaskOutcome]:
        """Outcomes of one experiment, optionally restricted to one grid cell.

        ``scenario_label`` / ``traffic_label`` are the ``label()`` values of
        the cells; ``None`` matches the respective default (axis-less) cell
        only.
        """
        return [o for o in self.outcomes
                if o.experiment == experiment.upper()
                and o.scenario_label == scenario_label
                and o.traffic_label == traffic_label]


def run_campaign(spec: CampaignSpec,
                 store: Optional[ResultStore] = None,
                 jobs: int = 1,
                 progress: Optional[Callable[[TaskOutcome], None]] = None,
                 profile_dir: Optional[str] = None) -> CampaignResult:
    """Execute ``spec``, resuming from ``store`` when one is given.

    Tasks already recorded in the store (matched by spec hash + task id) are
    not re-run; fresh outcomes are appended to the store as they complete, so
    an interrupted campaign loses at most its in-flight tasks.  ``jobs <= 1``
    uses the in-process serial reference backend; ``jobs > 1`` shards the
    pending tasks over a process pool.  Outcomes are always returned in the
    canonical expansion order, whatever order workers finish in.

    ``progress`` is invoked once per completed task on both backends — first
    for every store-replayed outcome (``from_store=True``), then for each
    fresh outcome as its worker finishes.

    ``profile_dir`` enables per-task cProfile dumps (one ``.prof`` per task,
    written by whichever process ran it).  It is a runtime argument, not a
    spec field: profiling changes no stored result, so profiled and
    unprofiled runs share the same spec hash and resume each other.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tasks = spec.expand()
    spec_hash = spec.spec_hash()
    done = store.completed(spec_hash) if store is not None else {}
    outcomes_by_id: Dict[str, TaskOutcome] = {
        task.task_id: _outcome_from_record(done[task.task_id])
        for task in tasks if task.task_id in done}
    pending = [task for task in tasks if task.task_id not in outcomes_by_id]
    if progress is not None:
        for task in tasks:
            if task.task_id in outcomes_by_id:
                progress(outcomes_by_id[task.task_id])

    def _finish(outcome: TaskOutcome) -> None:
        outcomes_by_id[outcome.task_id] = outcome
        if store is not None:
            store.append(outcome.to_record(spec_hash))
        if progress is not None:
            progress(outcome)

    worker = functools.partial(execute_task, timeout=spec.task_timeout, retries=spec.task_retries,
                               obs=spec.obs, obs_heap=spec.obs_heap,
                               profile_dir=profile_dir)
    if jobs > 1 and len(pending) > 1:
        with multiprocessing.Pool(processes=min(jobs, len(pending))) as pool:
            for outcome in pool.imap_unordered(worker, pending):
                _finish(outcome)
    else:
        for task in pending:
            _finish(worker(task))

    return CampaignResult(
        spec=spec,
        outcomes=[outcomes_by_id[task.task_id] for task in tasks],
        executed=len(pending),
        skipped=len(tasks) - len(pending))
