"""Parallel campaign orchestrator.

A new layer between the simulator and the experiment suite: declarative
multi-seed campaign specs (:mod:`~repro.campaign.spec`), a resumable,
append-only JSONL result store (:mod:`~repro.campaign.store`), serial and
multiprocessing execution backends (:mod:`~repro.campaign.executor`) and
cross-seed aggregation (:mod:`~repro.campaign.aggregate`).
"""

from .aggregate import (ColumnStats, aggregate_metrics, campaign_report, column_stats,
                        deterministic_report)
from .executor import CampaignResult, TaskOutcome, execute_task, run_campaign
from .spec import CampaignSpec, CampaignTask
from .store import ResultStore, TaskRecord

__all__ = [
    "CampaignSpec",
    "CampaignTask",
    "CampaignResult",
    "TaskOutcome",
    "TaskRecord",
    "ResultStore",
    "ColumnStats",
    "aggregate_metrics",
    "column_stats",
    "campaign_report",
    "deterministic_report",
    "execute_task",
    "run_campaign",
]
