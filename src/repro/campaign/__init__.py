"""Declarative, parallel, cached experiment campaigns.

The layer between the simulator and the figure drivers: figure sweeps
are expressed as lists of pure-data :class:`ScenarioSpec` cells and
executed by :func:`run_specs` — in-process, or fanned out over a
process pool with one ``SIGALRM`` deadline per cell, retries, crash
isolation, and a content-addressed result cache. See
``python -m repro campaign --help`` for the CLI entry point.
"""

from repro.campaign.cache import (PruneStats, ResultCache, VerifyReport,
                                  default_cache_root)
from repro.campaign.progress import CampaignProgress, ProgressPrinter
from repro.campaign.runner import (CampaignError, CampaignResult, CellResult,
                                   CellTimeout, execute_spec, run_campaign,
                                   run_specs)
from repro.campaign.spec import ScenarioSpec, TraceSpec, code_fingerprint
from repro.campaign.summary import (FlowSummary, ScenarioSummary,
                                    summary_lines)

__all__ = [
    "CampaignError",
    "CampaignProgress",
    "CampaignResult",
    "CellResult",
    "CellTimeout",
    "VerifyReport",
    "FlowSummary",
    "ProgressPrinter",
    "PruneStats",
    "ResultCache",
    "ScenarioSpec",
    "ScenarioSummary",
    "TraceSpec",
    "code_fingerprint",
    "default_cache_root",
    "execute_spec",
    "run_campaign",
    "run_specs",
    "summary_lines",
]
