"""City driver: generate, shard, simulate, and merge a fleet campaign.

This is the ROADMAP item-2 milestone driver: it turns one
:class:`~repro.city.gen.CityGenSpec` into a contention-domain-sharded
campaign and reports fleet-wide delay percentiles. The pipeline is

1. :meth:`CityGenSpec.build` — deterministic TopologySpec;
2. :func:`~repro.city.shard.partition_topology` — shard specs, each an
   ordinary standalone topology (so each cell caches under its own
   content hash and a re-run with a different ``--jobs`` or shard
   completion order is served from cache);
3. :func:`~repro.campaign.runner.run_campaign` with a ``consume``
   callback streaming every finished shard straight into a
   :class:`~repro.city.merge.FleetAccumulator` — per-shard sample
   series are released as soon as they are folded, so peak memory
   stays bounded no matter how many shards the city has;
4. :meth:`FleetAccumulator.finalize` — the fleet summary and its
   shard-count-independent digest.

Because the sharder is bit-exact (each shard simulates identically to
its slice of the whole city), ``run_city(..., shard_aps=0)`` — one
unsharded cell — produces the same fleet digest as any sharded run of
the same city. CI pins that equality (``city-smoke``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.campaign import (CampaignError, CampaignResult, ScenarioSpec,
                            TraceSpec, run_campaign)
from repro.city.gen import CityGenSpec
from repro.city.merge import FleetAccumulator, FleetSummary
from repro.city.shard import ShardPlan, partition_topology
from repro.obs.session import TraceConfig

#: Default per-shard simulated duration: long enough past the 5 s
#: warmup for stable percentiles, short enough that a 1000-AP city
#: finishes on a laptop.
CITY_DURATION = 20.0
#: Default trace family feeding every wireless edge (scaled per edge
#: by the generator's ``trace_scale`` jitter).
CITY_FAMILY = "W2"


@dataclass
class CityResult:
    """Everything one city campaign produced."""

    gen: CityGenSpec
    plan: ShardPlan
    campaign: CampaignResult
    fleet: FleetSummary


def city_specs(gen: CityGenSpec, *,
               duration: float = CITY_DURATION,
               family: str = CITY_FAMILY,
               shard_aps: int = 32,
               trace_config: Optional[TraceConfig] = None
               ) -> tuple[ShardPlan, list[ScenarioSpec]]:
    """The shard plan and one ScenarioSpec per shard, in shard order.

    When tracing is requested, each shard's config gets a
    ``shard<index>`` tag so per-shard artifacts are attributable and
    never overwrite each other.
    """
    plan = partition_topology(gen.build(), max_shard_aps=shard_aps)
    specs = []
    for index, shard in enumerate(plan.shards):
        config = trace_config
        if config is not None and len(plan.shards) > 1:
            config = replace(config, tag=f"shard{index:03d}")
        specs.append(ScenarioSpec(
            trace=TraceSpec.for_family(family, duration=duration,
                                       seed=gen.seed),
            protocol="rtp", cca="gcc", ap_mode=gen.ap_mode,
            queue_kind=gen.queue_kind,
            queue_capacity=gen.queue_capacity,
            wan_delay=gen.wan_delay, uplink_scale=gen.uplink_scale,
            duration=duration, seed=gen.seed,
            topology=shard, trace_config=config))
    return plan, specs


def run_city(gen: CityGenSpec, *,
             duration: float = CITY_DURATION,
             family: str = CITY_FAMILY,
             shard_aps: int = 32,
             jobs: int = 0,
             cache=None,
             timeout: Optional[float] = None,
             retries: int = 1,
             progress: Optional[Callable] = None,
             trace_config: Optional[TraceConfig] = None,
             sample_budget: int = FleetAccumulator.DEFAULT_SAMPLE_BUDGET,
             worker: Optional[Callable] = None) -> CityResult:
    """Run one city campaign end to end; raises on any failed shard.

    A killed city campaign resumes by running it again with the same
    ``cache``: finished shards replay from it into the accumulator, so
    the fleet digest is bit-identical to an uninterrupted run. Past
    ``sample_budget`` pooled samples the fleet percentiles come from
    the sketch; the budget is part of the request, so the digest never
    depends on the host's memory.
    """
    plan, specs = city_specs(gen, duration=duration, family=family,
                             shard_aps=shard_aps,
                             trace_config=trace_config)
    accumulator = FleetAccumulator(sample_budget=sample_budget)

    def consume(cell) -> None:
        accumulator.add(cell.index, cell.summary)

    result = run_campaign(
        specs, jobs=jobs, cache=cache, timeout=timeout, retries=retries,
        progress=progress, consume=consume, worker=worker)
    failures = result.failures()
    if failures:
        detail = "; ".join(f"shard {c.index}: {c.error}"
                           for c in failures[:5])
        raise CampaignError(
            f"{len(failures)} of {len(result.cells)} shards failed: "
            f"{detail}")
    return CityResult(gen=gen, plan=plan, campaign=result,
                      fleet=accumulator.finalize())
