"""Persistent, resumable JSONL result store.

One line per completed task.  Record schema (all keys always present)::

    {
      "spec_hash":  str,   # CampaignSpec.spec_hash() of the owning campaign
      "task_id":    str,   # e.g. "E3/r1" or "E3/manet_waypoint[n=30]/r1"
      "experiment": str,   # "E1" ... "E10"
      "replicate":  int,
      "seed":       int,   # derived per-task seed
      "quick":      bool,
      "scenario":   null | {"name": str, "params": {...}},  # scenario cell
                           # (optional on load: absent in pre-axis stores)
      "traffic":    null | {"name": str, "params": {...}},  # traffic cell
                           # (optional on load: absent in pre-axis stores)
      "description": str,  # experiment description (for report headers)
      "wall_time":  float, # seconds spent executing the task
      "rows":       [ {column: value, ...}, ... ],   # metric rows
      "notes":      [ str, ... ],
      "attempts":   int,   # attempts the task consumed (optional, default 1)
      "obs":        null | {...}  # ObsContext.export() blob (optional:
                           # present only for campaigns run with obs=True)
    }

Append-only semantics make the store crash-safe: a run killed mid-task loses
at most the line being written.  :meth:`ResultStore.load` skips blank and
corrupt (partially written) lines, so resuming against a truncated store
simply re-runs the lost task.  Records are namespaced by ``spec_hash``;
:meth:`ResultStore.completed` only reports tasks of the requested campaign, so
one file can accumulate several campaigns without cross-talk.  Duplicate
``(spec_hash, task_id)`` lines can appear if two runs race on the same store
or a task is retried; the last line wins, matching the append order.
:meth:`ResultStore.compact` rewrites the file with only the surviving line
per ``(spec_hash, task_id)``.  Only the campaign's parent process appends
(pool workers return their outcomes to it), so one process writes a store at
a time.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

__all__ = ["TaskRecord", "ResultStore"]


def _json_default(value: object) -> object:
    """Best-effort JSON coercion (numpy scalars expose ``item()``)."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


@dataclass(frozen=True)
class TaskRecord:
    """One completed campaign task, as persisted in the store."""

    spec_hash: str
    task_id: str
    experiment: str
    replicate: int
    seed: int
    quick: bool
    description: str
    wall_time: float
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: ``ScenarioSpec.as_dict()`` of the task's scenario cell, or ``None`` for
    #: the default-workload cell (scenario-less campaigns).
    scenario: Optional[Dict[str, object]] = None
    #: ``TrafficSpec.as_dict()`` of the task's traffic cell, or ``None`` for
    #: the default cell (traffic-less campaigns).
    traffic: Optional[Dict[str, object]] = None
    #: How many attempts the task consumed (1 = first attempt succeeded);
    #: the CLI's final campaign summary counts retried tasks from it.
    attempts: int = 1
    #: ``ObsContext.export()`` blob of the task run (counters, gauges,
    #: histograms, span aggregates), or ``None`` when the campaign ran
    #: without observability.
    obs: Optional[Dict[str, object]] = None

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


#: Keys every persisted record must carry to parse (see module docstring).
_REQUIRED_KEYS = frozenset(
    ("spec_hash", "task_id", "experiment", "replicate", "seed", "quick",
     "description", "wall_time", "rows", "notes"))


def _record_from_json(line: str) -> Optional[TaskRecord]:
    """Parse one persisted JSON record; ``None`` for corrupt/foreign data."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(data, dict) or not _REQUIRED_KEYS <= set(data):
        return None
    # "scenario", "traffic", "attempts" and "obs" are optional so stores
    # written before those fields existed keep loading (records default to
    # the axis-less cell / single attempt / no observability).
    return TaskRecord(scenario=data.get("scenario"),
                      traffic=data.get("traffic"),
                      attempts=int(data.get("attempts", 1)),
                      obs=data.get("obs"),
                      **{k: data[k] for k in _REQUIRED_KEYS})


class ResultStore:
    """Append-only JSONL store of :class:`TaskRecord` lines."""

    REQUIRED_KEYS = _REQUIRED_KEYS

    def __init__(self, path: str):
        self.path = str(path)
        # A store path meant for the removed SQLite backend would otherwise
        # be decoded as (or silently written as) JSONL.
        if self.path.startswith("sqlite:") or self.path.endswith((".sqlite", ".db")):
            raise ValueError(
                f"store {self.path!r}: the SQLite store backend was removed; "
                "result stores are JSONL files (e.g. results.jsonl)")

    def append(self, record: TaskRecord) -> None:
        """Persist one completed task (flushed immediately)."""
        # Keys keep insertion order: metric-row column order is part of the
        # report rendering, so a resumed campaign must replay it exactly.
        line = json.dumps(record.as_dict(), default=_json_default)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    def load(self, spec_hash: Optional[str] = None) -> List[TaskRecord]:
        """All parseable records (of ``spec_hash`` if given), in file order.

        Blank and corrupt lines — e.g. the partial trailing line of a crashed
        writer — are skipped silently; their tasks will simply re-run.
        """
        if not os.path.exists(self.path):
            return []
        records: List[TaskRecord] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = _record_from_json(line)
                if record is None:
                    continue
                if spec_hash is not None and record.spec_hash != spec_hash:
                    continue
                records.append(record)
        return records

    def completed(self, spec_hash: str) -> Dict[str, TaskRecord]:
        """Mapping task_id -> record for one campaign (last duplicate wins)."""
        return {record.task_id: record for record in self.load(spec_hash)}

    def compact(self) -> int:
        """Drop superseded duplicate lines; returns how many were removed.

        Keeps, for every ``(spec_hash, task_id)``, only the *last* line —
        exactly the record :meth:`completed` already resolves to — so retried
        or raced tasks stop accumulating dead weight.  Corrupt and blank
        lines are dropped too (same as :meth:`load` skipping them; their
        tasks re-run either way).  The rewrite goes through a temp file and
        an atomic rename, so a crash mid-compaction leaves the original
        store intact.  Not safe against a *concurrent* appender — compact
        between campaign runs, not during one.
        """
        if not os.path.exists(self.path):
            return 0
        survivors: Dict[tuple, str] = {}
        total = 0
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                stripped = line.strip()
                if not stripped:
                    continue
                total += 1
                record = _record_from_json(stripped)
                if record is None:
                    continue
                key = (record.spec_hash, record.task_id)
                # Re-insertion keeps first-occurrence order while the value
                # (the surviving line) is the last occurrence.
                survivors[key] = stripped
        tmp_path = self.path + ".compact.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for line in survivors.values():
                handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        return total - len(survivors)
