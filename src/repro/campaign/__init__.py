"""Experiment campaigns: declarative grids, fan-out, results, dashboards.

The paper's point is that a scale model makes infrastructure *experiment
campaigns* cheap and repeatable.  This package is that leverage layer:

* :class:`CampaignSpec` (``spec.py``) -- a parameter grid over a named
  scenario, loaded from a small YAML/JSON file or a dict.
* the scenario registry (``scenarios.py``) -- the built-in bodies
  (``availability_mtbf``, ``scale_perf``, ``flashcrowd_slo``,
  ``partition_chaos``), plus dotted-path refs for scenarios defined
  outside the library.  Scenarios return reproducible metrics only;
  performance is measured by ``bench/``, not by campaigns.
* :class:`CampaignRunner` / :func:`run_campaign` (``runner.py``) --
  fan runs out across worker processes under the kernel's run budgets,
  with per-run retry/timeout and deterministic run IDs.
* :class:`ResultStore` / :class:`RunRecord` (``store.py``) -- one
  structured JSONL record per run (+ SQLite index), tolerant of a
  killed writer.
* :func:`render_dashboard` (``dashboard.py``) -- a static HTML view of
  metric grids, per-cell sparklines, and baseline regression deltas.

CLI: ``repro campaign run specs/availability_mtbf.yaml`` /
``repro campaign report <store>``.  See ``docs/campaigns.md``.
"""

from repro.campaign.dashboard import render_dashboard
from repro.campaign.runner import CampaignResult, CampaignRunner, run_campaign
from repro.campaign.scenarios import (
    RunContext,
    register_scenario,
    registered_scenarios,
    resolve_scenario,
)
from repro.campaign.spec import CampaignSpec, RunSpec, load_spec
from repro.campaign.store import ResultStore, RunRecord

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "ResultStore",
    "RunContext",
    "RunRecord",
    "RunSpec",
    "load_spec",
    "register_scenario",
    "registered_scenarios",
    "render_dashboard",
    "resolve_scenario",
    "run_campaign",
]
