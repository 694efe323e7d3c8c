"""Experiment harness: runner and the E1..E11 reproduction suite.

Workloads come from the scenario registry (:mod:`repro.scenarios`).
"""

from .runner import ExperimentResult, attach_baseline, run_with_sampler, sweep
from .suite import ALL_EXPERIMENTS, run_experiment

__all__ = [
    "ExperimentResult", "attach_baseline", "run_with_sampler", "sweep",
    "ALL_EXPERIMENTS", "run_experiment",
]
