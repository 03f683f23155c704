"""Parameter sweeps: consumer scaling and testbed-axis sensitivity studies.

The paper varies the number of consumers from 1 to 64 (powers of two) and,
except for broadcast and gather, keeps the number of producers equal to the
number of consumers (§5.2).  A :class:`ConsumerSweep` runs one experiment
per (architecture, consumer-count) pair and collects the results in a form
the figure generators consume directly.

Beyond the paper's five axes, :func:`sensitivity_sweep` runs a
:meth:`~repro.harness.runner.ScenarioSet.product` grid over arbitrary
config/testbed axes (``testbed.link_bandwidth_bps``, ``testbed.dsn_count``,
``testbed.ack_policy.mode``, ...) and collects the outcomes into a
:class:`SensitivitySweep` of long-format rows keyed by axis values — the
engine behind the ``repro-streamsim sensitivity`` subcommand and the §6
bandwidth ablation figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .config import ExperimentConfig
from .results import ExperimentResult, PointFailure
from .runner import PointOutcome, ScenarioPoint, ScenarioSet, run_scenarios

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import Session

__all__ = ["PAPER_CONSUMER_COUNTS", "SweepResult", "ConsumerSweep",
           "SensitivitySweep", "sensitivity_sweep", "scale_link_tiers"]

#: The x-axis of Figures 4–8.
PAPER_CONSUMER_COUNTS = (1, 2, 4, 8, 16, 32, 64)


@dataclass
class SweepResult:
    """Results of a consumer sweep over several architectures."""

    workload: str
    pattern: str
    consumer_counts: tuple[int, ...]
    #: results[architecture][consumers] -> ExperimentResult
    results: dict[str, dict[int, ExperimentResult]] = field(default_factory=dict)
    #: Points that exhausted their execution policy under on_error="record"
    #: (on_error="skip" drops failed points before the sweep sees them).
    failures: list[PointFailure] = field(default_factory=list)

    def record_failure(self, outcome: PointOutcome) -> None:
        self.failures.append(PointFailure(
            label=outcome.point.label, axes=dict(outcome.point.axes),
            error=outcome.error or "", attempts=outcome.attempts,
            coordinates=outcome.point.describe()))

    def series(self, architecture: str, metric: str = "throughput_msgs_per_s"
               ) -> list[tuple[int, float]]:
        """(consumers, value) pairs for one architecture; infeasible = omitted."""
        points = []
        for consumers in self.consumer_counts:
            result = self.results.get(architecture, {}).get(consumers)
            if result is None or not result.feasible:
                continue
            points.append((consumers, getattr(result, metric)))
        return points

    def architectures(self) -> list[str]:
        return list(self.results)

    def rows(self, metric: str = "throughput_msgs_per_s") -> list[dict]:
        """Long-format rows (architecture, consumers, value) for tables/CSV."""
        rows = []
        for architecture, by_consumers in self.results.items():
            for consumers in self.consumer_counts:
                result = by_consumers.get(consumers)
                if result is None:
                    continue
                rows.append({
                    "workload": self.workload,
                    "pattern": self.pattern,
                    "architecture": architecture,
                    "consumers": consumers,
                    "feasible": result.feasible,
                    metric: getattr(result, metric) if result.feasible else float("nan"),
                })
        return rows

    def get(self, architecture: str, consumers: int) -> Optional[ExperimentResult]:
        return self.results.get(architecture, {}).get(consumers)


class ConsumerSweep:
    """Sweep consumer counts for several architectures from one base config."""

    def __init__(self, base_config: ExperimentConfig, *,
                 architectures: Sequence[str],
                 consumer_counts: Iterable[int] = PAPER_CONSUMER_COUNTS,
                 equal_producers: bool = True) -> None:
        self.base_config = base_config
        self.architectures = list(architectures)
        self.consumer_counts = tuple(consumer_counts)
        self.equal_producers = equal_producers

    def scenario_set(self) -> ScenarioSet:
        """The sweep as scenario points, in the historical execution order."""
        return ScenarioSet.consumer_sweep(
            self.base_config, architectures=self.architectures,
            consumer_counts=self.consumer_counts,
            equal_producers=self.equal_producers)

    def run(self, *,
            session: Optional[Session] = None,
            progress: Optional[Callable[[str, Optional[int], dict],
                                        None]] = None) -> SweepResult:
        """Run every (architecture, consumer-count) point.

        ``session`` carries the execution context (backend/jobs, cache,
        policy); a parallel session's results are identical to serial
        execution for the same seeds, and under a session policy with
        ``on_error="record"`` a failed point lands in
        ``SweepResult.failures`` instead of killing the sweep.

        ``progress`` receives ``(label, consumers, axes)`` per point —
        ``consumers`` is ``None`` for points without that axis, and ``axes``
        is the point's full coordinate dict.
        """
        sweep = SweepResult(workload=self.base_config.workload,
                            pattern=self.base_config.pattern,
                            consumer_counts=self.consumer_counts)
        for label in self.architectures:
            sweep.results.setdefault(label, {})

        point_progress: Optional[Callable[[ScenarioPoint], None]] = None
        if progress is not None:
            def point_progress(point: ScenarioPoint) -> None:
                progress(point.label, point.axes.get("consumers"),
                         dict(point.axes))

        outcomes = run_scenarios(self.scenario_set(), session=session,
                                 progress=point_progress)
        for outcome in outcomes:
            if not outcome.ok:
                sweep.record_failure(outcome)
                continue
            point = outcome.point
            consumers = point.axes.get("consumers")
            if consumers is None:  # foreign point without a consumer axis
                continue
            sweep.results.setdefault(point.label, {})[consumers] = outcome.result
        return sweep


# ---------------------------------------------------------------------------
# Testbed-axis sensitivity sweeps
# ---------------------------------------------------------------------------

@dataclass
class SensitivitySweep:
    """Results of a :meth:`ScenarioSet.product` grid over arbitrary axes.

    ``axes`` maps each axis name (``"architecture"``, ``"consumers"``,
    ``"testbed.link_bandwidth_bps"``, ...) to the swept values, in the
    deterministic execution order.  ``results`` is keyed by coordinate
    tuples — one value per axis, in ``axis_names`` order — so every result
    is addressable by its exact grid position; :meth:`rows` flattens the
    grid into long-format records for tables, CSV export and figures.
    """

    axes: dict[str, tuple]
    #: results[(v1, v2, ...)] -> ExperimentResult, keys in axis_names order.
    results: dict[tuple, ExperimentResult] = field(default_factory=dict)
    #: Points that exhausted their execution policy under on_error="record".
    failures: list[PointFailure] = field(default_factory=list)

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(self.axes)

    def __len__(self) -> int:
        return len(self.results)

    def coordinates(self, point_axes: dict) -> tuple:
        return tuple(point_axes[name] for name in self.axes)

    def record(self, outcome: PointOutcome) -> None:
        if not outcome.ok:
            self.failures.append(PointFailure(
                label=outcome.point.label, axes=dict(outcome.point.axes),
                error=outcome.error or "", attempts=outcome.attempts,
                coordinates=outcome.point.describe()))
            return
        self.results[self.coordinates(outcome.point.axes)] = outcome.result

    def get(self, *coordinate) -> Optional[ExperimentResult]:
        """The result at one grid position (values in axis order)."""
        return self.results.get(tuple(coordinate))

    def rows(self, metric: str = "throughput_msgs_per_s") -> list[dict]:
        """Long-format rows: one dict per point with an axis column each.

        Columns are the axis names (dotted paths kept as-is, so rows from
        different sweeps stay joinable), plus ``architecture``, ``feasible``
        and the requested metric (NaN when infeasible).
        """
        rows = []
        for coordinate, result in self.results.items():
            row = dict(zip(self.axis_names, coordinate))
            row.setdefault("architecture", result.architecture)
            row["feasible"] = result.feasible
            row[metric] = (getattr(result, metric) if result.feasible
                           else float("nan"))
            rows.append(row)
        return rows

    def series(self, axis: str, metric: str = "throughput_msgs_per_s",
               **fixed) -> list[tuple]:
        """(axis value, metric) pairs along one axis, other axes fixed.

        ``fixed`` pins the remaining axes by name (dotted names are passed
        via ``**{"testbed.dsn_count": 3}``); axes left unpinned must not
        vary or the pairing would be ambiguous (ValueError).
        """
        if axis not in self.axes:
            raise ValueError(f"unknown axis {axis!r}; have {self.axis_names}")
        unknown = sorted(name for name in fixed if name not in self.axes)
        if unknown:
            raise ValueError(f"unknown fixed axes {unknown}; "
                             f"have {self.axis_names}")
        free = [name for name in self.axes
                if name != axis and name not in fixed and len(self.axes[name]) > 1]
        if free:
            raise ValueError(f"axes {free} vary; pin them via keyword "
                             f"arguments to get an unambiguous series")
        pairs = []
        for coordinate, result in self.results.items():
            position = dict(zip(self.axis_names, coordinate))
            if any(position[name] != value for name, value in fixed.items()):
                continue
            if not result.feasible:
                continue
            pairs.append((position[axis], getattr(result, metric)))
        return pairs


def scale_link_tiers(config: ExperimentConfig) -> ExperimentConfig:
    """Per-point transform for bandwidth sweeps: rescale the backbone and
    gateway tiers to their default ratios against the point's (possibly
    swept) access-link bandwidth — the §6 ablation shape.  Pass as
    ``transform=`` so a ``testbed.link_bandwidth_bps`` axis moves the whole
    operating point, not just the access links.
    """
    return replace(config, testbed=config.testbed.with_link_bandwidth(
        config.testbed.link_bandwidth_bps))


def sensitivity_sweep(base: ExperimentConfig, axes: dict, *,
                      equal_producers: bool = True,
                      transform: Optional[Callable[[ExperimentConfig],
                                                   ExperimentConfig]] = None,
                      session: Optional[Session] = None,
                      progress: Optional[Callable[[ScenarioPoint],
                                                  None]] = None
                      ) -> SensitivitySweep:
    """Run a product grid over arbitrary axes and collect a sensitivity sweep.

    ``axes`` follows :meth:`ScenarioSet.product` exactly (special
    ``architecture``/``consumers`` coordinates plus dotted config paths);
    execution goes through :func:`run_scenarios` under ``session``, so the
    backend, cache and policy behave identically to every other sweep.
    ``transform`` (applied via :meth:`ScenarioSet.map_configs`) lets the
    sweep derive coupled config changes from each point — e.g. rescaling
    the backbone links along with a swept access-link bandwidth.
    """
    scenarios = ScenarioSet.product(base, axes,
                                    equal_producers=equal_producers)
    if transform is not None:
        scenarios.map_configs(transform)
    ordered_axes = ({} if not scenarios else
                    {name: () for name in scenarios[0].axes})
    for name in ordered_axes:
        seen = dict.fromkeys(point.axes[name] for point in scenarios)
        ordered_axes[name] = tuple(seen)
    sweep = SensitivitySweep(axes=ordered_axes)
    for outcome in run_scenarios(scenarios, session=session,
                                 progress=progress):
        sweep.record(outcome)
    return sweep
