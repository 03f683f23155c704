"""Comparative-study API: the paper's primary contribution as a library.

The paper's contribution is not a single algorithm but a *controlled
comparison*: deploy DTS, PRS and MSS on the same infrastructure, drive them
with the same workloads and messaging patterns, and quantify throughput,
RTT and overhead relative to DTS.  :func:`compare_architectures` packages
exactly that loop; :func:`deployment_comparison` reproduces the qualitative
feasibility comparison of §2/§6 from actually-deployed architectures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from ..architectures import DeploymentReport, TestbedConfig
from ..harness import (
    ExperimentConfig,
    ExperimentResult,
    PointFailure,
    ScenarioSet,
    Session,
    run_scenarios,
)
from ..metrics import OverheadResult, overhead_table

__all__ = ["ComparisonResult", "compare_architectures", "deployment_comparison",
           "PAPER_ARCHITECTURES", "BASELINE_ARCHITECTURE"]

#: The architecture labels evaluated in the paper's figures.
PAPER_ARCHITECTURES = ("DTS", "PRS(Stunnel)", "PRS(HAProxy)",
                       "PRS(HAProxy,4conns)", "MSS")

#: §5.2: DTS is the overhead baseline.
BASELINE_ARCHITECTURE = "DTS"


@dataclass
class ComparisonResult:
    """Per-architecture results plus overhead factors for one scenario.

    With extra ``axes`` (see :func:`compare_architectures`) the comparison
    repeats at every axis coordinate: ``grid`` maps coordinate tuples (axis
    values, in ``axes``' key order) to per-architecture results, overheads
    are computed within each coordinate group, and :meth:`rows` gains one
    column per axis.  Without extra axes there is a single empty coordinate
    and ``results`` keeps the historical label-keyed view.
    """

    config: ExperimentConfig
    results: dict[str, ExperimentResult] = field(default_factory=dict)
    baseline: str = BASELINE_ARCHITECTURE
    #: Architectures whose point exhausted the execution policy's attempts.
    failures: list[PointFailure] = field(default_factory=list)
    #: Extra swept axes: name -> values (empty for a plain comparison).
    axes: dict[str, tuple] = field(default_factory=dict)
    #: grid[(axis values...)][architecture] -> ExperimentResult.
    grid: dict[tuple, dict[str, ExperimentResult]] = field(default_factory=dict)

    def _group_overheads(self, results: dict[str, ExperimentResult],
                         metric: str, higher_is_better: bool
                         ) -> list[OverheadResult]:
        if metric == "median_rtt_s":
            values = {label: result.median_rtt_s
                      for label, result in results.items()
                      if result.feasible and result.rtt_samples.size}
        else:
            values = {label: getattr(result, metric)
                      for label, result in results.items() if result.feasible}
        if self.baseline not in values:
            return []
        return overhead_table(values, baseline=self.baseline, metric=metric,
                              higher_is_better=higher_is_better)

    def _require_single_coordinate(self) -> None:
        if self.axes:
            raise ValueError(
                "this comparison swept extra axes, so overheads are "
                "per-coordinate; read them from rows() or compute on "
                "grid[coordinate] instead")

    def throughput_overheads(self) -> list[OverheadResult]:
        self._require_single_coordinate()
        return self._group_overheads(self.results, "throughput_msgs_per_s",
                                     higher_is_better=True)

    def rtt_overheads(self) -> list[OverheadResult]:
        self._require_single_coordinate()
        return self._group_overheads(self.results, "median_rtt_s",
                                     higher_is_better=False)

    def rows(self) -> list[dict]:
        axis_names = tuple(self.axes)
        grid = self.grid or {(): dict(self.results)}
        rows = []
        for coordinate, by_label in grid.items():
            overhead = {o.architecture: o.factor for o in self._group_overheads(
                by_label, "throughput_msgs_per_s", higher_is_better=True)}
            rtt_overhead = {o.architecture: o.factor for o in self._group_overheads(
                by_label, "median_rtt_s", higher_is_better=False)}
            for label, result in by_label.items():
                row = result.as_row()
                row.update(dict(zip(axis_names, coordinate)))
                row["throughput_overhead_vs_dts"] = overhead.get(
                    label, 1.0 if label == self.baseline else float("nan"))
                row["rtt_overhead_vs_dts"] = rtt_overhead.get(
                    label, 1.0 if label == self.baseline else float("nan"))
                rows.append(row)
        return rows


def compare_architectures(*, workload: str = "Dstream",
                          pattern: str = "work_sharing",
                          consumers: int = 4,
                          producers: Optional[int] = None,
                          architectures: Sequence[str] = PAPER_ARCHITECTURES,
                          messages_per_producer: int = 30,
                          runs: int = 1,
                          seed: int = 1,
                          baseline: str = BASELINE_ARCHITECTURE,
                          testbed: Optional[TestbedConfig] = None,
                          axes: Optional[dict] = None,
                          session: Optional[Session] = None,
                          **config_overrides) -> ComparisonResult:
    """Run the same scenario through several architectures and compare.

    Returns a :class:`ComparisonResult` whose ``results`` map architecture
    labels to averaged :class:`~repro.harness.results.ExperimentResult`.
    ``session`` carries the execution context; a parallel session runs the
    architectures concurrently through the unified scenario runner with
    results identical to serial execution, and under a session policy with
    ``on_error="record"`` a crashed architecture lands in
    ``ComparisonResult.failures`` instead of aborting the comparison.

    ``axes`` forwards extra sweep axes to
    :meth:`~repro.harness.ScenarioSet.product` (dotted config paths such as
    ``{"testbed.dsn_count": [1, 3, 5]}``): the whole comparison repeats at
    every axis coordinate, with overheads computed against the baseline *at
    the same coordinate*; results land in ``ComparisonResult.grid`` and
    :meth:`ComparisonResult.rows` gains one column per axis.
    """
    if pattern in ("broadcast", "broadcast_gather"):
        producer_count = 1
    else:
        producer_count = producers if producers is not None else consumers
    config = ExperimentConfig(
        architecture=baseline,
        workload=workload,
        pattern=pattern,
        num_producers=producer_count,
        num_consumers=consumers,
        messages_per_producer=messages_per_producer,
        runs=runs,
        seed=seed,
        testbed=testbed or TestbedConfig(),
        **config_overrides,
    )
    comparison = ComparisonResult(config=config, baseline=baseline)
    if axes:
        if "architecture" in axes:
            raise ValueError("pass extra sweep axes only; the architecture "
                             "axis comes from the architectures argument")
        # equal_producers=False: the producer count is already fixed above.
        scenarios = ScenarioSet.product(
            config, {"architecture": list(architectures), **axes},
            equal_producers=False)
        axis_names = tuple(axes)
        comparison.axes = {
            name: tuple(dict.fromkeys(point.axes[name]
                                      for point in scenarios))
            for name in axis_names}
    else:
        scenarios = ScenarioSet.grid(config,
                                     architectures=list(architectures),
                                     equal_producers=False)
        axis_names = ()
    for outcome in run_scenarios(scenarios, session=session):
        if not outcome.ok:
            comparison.failures.append(PointFailure(
                label=outcome.point.label, axes=dict(outcome.point.axes),
                error=outcome.error or "", attempts=outcome.attempts))
            continue
        coordinate = tuple(outcome.point.axes[name] for name in axis_names)
        comparison.grid.setdefault(coordinate, {})[outcome.point.label] = (
            outcome.result)
        if not axis_names:
            comparison.results[outcome.point.label] = outcome.result
    return comparison


def deployment_comparison(architectures: Iterable[str] = PAPER_ARCHITECTURES, *,
                          testbed_config: Optional[TestbedConfig] = None,
                          session: Optional[Session] = None
                          ) -> dict[str, DeploymentReport]:
    """Deploy each architecture (control plane only) and report feasibility.

    This regenerates the qualitative §2/§6 comparison — hop counts, firewall
    rules, exposed ports, administrative and user steps — from real deployed
    objects rather than prose.  Each architecture deploys on its own testbed
    with a distinct derived seed so the placements are independent.
    ``session`` carries the execution context (deployment points are never
    cached, so a session cache is simply unused here); under a non-raising
    session policy a crashed deployment is simply absent from the returned
    mapping.
    """
    config = testbed_config or TestbedConfig(producer_nodes=2, consumer_nodes=2)
    base = ExperimentConfig(testbed=config, seed=config.seed)
    scenarios = ScenarioSet.deployments(list(architectures), base)
    return {outcome.point.label: outcome.result
            for outcome in run_scenarios(scenarios, session=session)
            if outcome.ok}
