"""The benchmark's four sweep workloads, built from ``--seed``.

Each builder returns a ``repro`` :class:`ScenarioSet`; the seed only feeds
``ExperimentConfig.seed`` (and, for the grids, the seed axis), so the same
seed always gives the same points.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``README.md`` next to this file.
"""

from __future__ import annotations

from repro.harness.config import ExperimentConfig
from repro.harness.runner import ScenarioSet

WORKLOADS = ("hop_chain", "broker_gather", "grid_fill", "cache_replay")

#: Workloads whose sweep runs through a sharded ResultCache.
CACHED = ("grid_fill", "cache_replay")

#: Points per seed on the grid workloads' seed axis.
GRID_SEEDS = 16


def hop_chain(seed: int) -> ScenarioSet:
    """Uncontended per-hop machinery: DTS and PRS work sharing, 4 producers."""
    base = ExperimentConfig(workload="Dstream", pattern="work_sharing",
                            num_producers=4, messages_per_producer=200,
                            seed=seed)
    return ScenarioSet.grid(base, architectures=["DTS", "PRS(HAProxy)"],
                            consumer_counts=[1, 4, 8], equal_producers=False)


def broker_gather(seed: int) -> ScenarioSet:
    """The contended broker path: fan-out queues, replies, failover.

    Broadcast-gather runs at and above the 100-message prefetch window and
    the feedback points run with and without a broker kill at 100 messages
    per producer; both expose known model defects (a broadcast stall and a
    kill that silently loses messages) that the benchmark counts.
    """
    feedback = ExperimentConfig(workload="Dstream",
                                pattern="work_sharing_feedback",
                                num_producers=4, num_consumers=8,
                                messages_per_producer=100, seed=seed)
    gather = ExperimentConfig(workload="Dstream", pattern="broadcast_gather",
                              num_producers=1, num_consumers=8, seed=seed)
    architectures = ["MSS", "PRS(HAProxy)"]
    scenarios = ScenarioSet.product(
        feedback, {"architecture": architectures,
                   "faults.broker_kill_rate": [0.0, 1.0]})
    return scenarios.extend(ScenarioSet.product(
        gather, {"architecture": architectures,
                 "messages_per_producer": [100, 150]}))


def grid_fill(seed: int) -> ScenarioSet:
    """~192 tiny points: fixed per-point costs and the cache write path."""
    base = ExperimentConfig(workload="Dstream", messages_per_producer=2,
                            seed=seed)
    return ScenarioSet.grid(
        base, architectures=["DTS", "PRS(HAProxy)", "MSS"],
        consumer_counts=[1, 2, 4, 8],
        seeds=[seed * GRID_SEEDS + index for index in range(GRID_SEEDS)])


def build(name: str, seed: int) -> ScenarioSet:
    """The workload's grid (``cache_replay`` replays ``grid_fill``'s)."""
    if name == "hop_chain":
        return hop_chain(seed)
    if name == "broker_gather":
        return broker_gather(seed)
    if name in CACHED:
        return grid_fill(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")
