"""Experiment harness: the runner and the E1..E11 reproduction suite.

Workloads come from the scenario registry (:mod:`repro.scenarios`).  This
package re-exports only the runner, which loads neither networkx nor the
baselines; import the suite from :mod:`repro.experiments.suite`.
"""

from .runner import ExperimentResult, attach_baseline, run_with_sampler

__all__ = ["ExperimentResult", "attach_baseline", "run_with_sampler"]
