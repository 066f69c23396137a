"""Experiment harness: one module per concern.

* :mod:`repro.experiments.spec` -- declarative Scenario/Sweep specs.
* :mod:`repro.experiments.executor` -- serial/parallel execution + the
  content-addressed on-disk result cache.
* :mod:`repro.experiments.figures` -- one function per paper artifact,
  declared as scenario grids with shape claims.
* :mod:`repro.experiments.runner` -- regenerate them all
  (``python -m repro.experiments``); also the single owner of the
  fast/full problem-size policy (:func:`runner.experiment_results`).
* :mod:`repro.experiments.campaign` -- workloads x hierarchies x
  protocols fleets and the stall-attribution matrix.
* :mod:`repro.experiments.plan` -- replay-first campaign planning
  (record one cell per frontend-identity group, replay the rest).
* :mod:`repro.experiments.dispatch` -- the filesystem-backed
  distributed campaign queue (``repro campaign --workers/--queue``).
* :mod:`repro.experiments.cachetool` -- result-cache maintenance
  (``repro cache info|verify|prune``).

Results land in artifacts documented in ``docs/ARTIFACTS.md`` and are
ingestable into the results database (:mod:`repro.results`).
"""

from repro.experiments.executor import ScenarioRecord, execute, results_by_name
from repro.experiments.figures import (
    Claim,
    ExperimentResult,
    fig61,
    fig62,
    fig63,
    fig64,
    fig_hierarchy,
    overhead_experiment,
    table51,
)
from repro.experiments.spec import Scenario, Sweep, load_scenarios

__all__ = [
    "Claim",
    "ExperimentResult",
    "Scenario",
    "ScenarioRecord",
    "Sweep",
    "execute",
    "fig61",
    "fig62",
    "fig63",
    "fig64",
    "fig_hierarchy",
    "load_scenarios",
    "overhead_experiment",
    "results_by_name",
    "table51",
]
