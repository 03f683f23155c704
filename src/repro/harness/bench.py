"""Persistent benchmark subsystem: the repo's recorded perf trajectory.

The figure/table regeneration benches under ``benchmarks/`` need
pytest-benchmark for nice statistics; this module is the dependency-free
core that CI and the CLI use instead.  It runs the kernel / link / broker /
experiment micro-benches plus a small end-to-end sweep with
``time.perf_counter`` directly, and persists each run as a numbered
``BENCH_<n>.json`` snapshot so speedups and regressions stay visible
across PRs:

* ``repro-streamsim bench`` runs the suite and writes the next
  ``BENCH_<n>.json`` (``BENCH_0.json`` on first run);
* ``repro-streamsim bench --compare`` additionally diffs the fresh run
  against the latest committed snapshot and fails (exit code 1) when any
  bench's median regressed beyond ``--threshold``;
* ``repro-streamsim bench --profile`` dumps cProfile output for one full
  experiment point (the standard profiling recipe).

Snapshots are machine-readable: per-bench median/stdev/min/max seconds
plus the repro version and git SHA that produced them (see
:meth:`BenchReport.to_json_dict` for the schema).
"""

from __future__ import annotations

import gc
import json
import platform
import re
import statistics
import subprocess
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional

from .._version import __version__

__all__ = [
    "BenchResult",
    "BenchReport",
    "bench_names",
    "run_benches",
    "list_snapshots",
    "latest_snapshot",
    "next_snapshot_path",
    "compare_reports",
    "measure_calibration",
    "profile_point",
    "BENCH_SCHEMA_VERSION",
]

BENCH_SCHEMA_VERSION = 1

_SNAPSHOT_RE = re.compile(r"^BENCH_(\d+)\.json$")


# ---------------------------------------------------------------------------
# Bench bodies.  Each returns a check value asserted after the timed call so
# a silently-broken bench cannot masquerade as a fast one.
# ---------------------------------------------------------------------------

def _bench_simkit_event_loop() -> float:
    """Throughput of the bare discrete-event loop (heap timeout chains)."""
    from ..simkit import Environment

    env = Environment()

    def ticker(env, n):
        for _ in range(n):
            yield env.timeout(0.001)

    for _ in range(10):
        env.process(ticker(env, 500))
    env.run()
    assert abs(env.now - 0.5) < 1e-9, env.now
    return env.now


def _bench_simkit_zero_delay() -> float:
    """Throughput of the zero-delay FIFO lane (yield None chains)."""
    from ..simkit import Environment

    env = Environment()

    def spinner(env, n):
        for _ in range(n):
            yield env.timeout(0)

    for _ in range(10):
        env.process(spinner(env, 500))
    env.run()
    assert env._eid >= 5000, env._eid  # every zero-timeout got an eid
    return 1.0


def _bench_link_transfer() -> float:
    """Cost of pushing 1000 messages through a contended 1 Gbps link."""
    from ..netsim import MessageFactory, Network, units
    from ..simkit import Environment

    env = Environment()
    net = Network(env)
    net.add_node("a")
    net.add_node("b")
    link, _ = net.connect("a", "b", bandwidth_bps=units.gbps(1))
    factory = MessageFactory("p")

    def sender(env, link):
        for _ in range(100):
            message = factory.create(units.kib(16), now=env.now)
            yield from link.traverse(message)

    for _ in range(10):
        env.process(sender(env, link))
    env.run()
    transferred = link.monitor.counter("messages").value
    assert transferred == 1000, transferred
    return transferred


def _bench_broker_publish_consume() -> float:
    """Broker-cluster publish/dispatch loop without any network stages."""
    from ..amqp import Broker, BrokerCluster
    from ..netsim import MessageFactory, Network, units
    from ..simkit import Environment

    env = Environment()
    net = Network(env)
    net.add_node("dsn1")
    broker = Broker(env, "rmqs1", net.get_node("dsn1"))
    cluster = BrokerCluster(env, "c", [broker], net)
    queue = cluster.declare_queue("work")
    received = []

    def deliver(message):
        yield env.timeout(0)
        received.append(message)

    queue.subscribe("c1", deliver, prefetch=0)
    factory = MessageFactory("p")

    def producer(env):
        for _ in range(500):
            message = factory.create(units.kib(16), now=env.now,
                                     routing_key="work")
            yield from cluster.publish(broker, message, "", "work")

    env.process(producer(env))
    env.run()
    assert len(received) == 500, len(received)
    return float(len(received))


def _experiment_config():
    from ..architectures import TestbedConfig
    from .config import ExperimentConfig

    return ExperimentConfig(
        architecture="DTS", workload="Dstream", pattern="work_sharing",
        num_producers=4, num_consumers=4, messages_per_producer=25,
        testbed=TestbedConfig(producer_nodes=4, consumer_nodes=4))


def _bench_experiment_point() -> float:
    """Wall-clock cost of one full experiment point (DTS, 4x4, Dstream)."""
    from .experiment import Experiment

    result = Experiment(_experiment_config()).run_single(0)
    assert result.completed
    return float(result.consumed)


def _bench_sweep_end_to_end() -> float:
    """End-to-end scenario sweep (4 points, serial backend, no cache)."""
    from ..architectures import TestbedConfig
    from .config import ExperimentConfig
    from .runner import ScenarioSet
    from .session import Session

    base = ExperimentConfig(
        architecture="DTS", workload="Dstream", pattern="work_sharing",
        num_producers=2, num_consumers=2, messages_per_producer=10,
        testbed=TestbedConfig(producer_nodes=4, consumer_nodes=4))
    scenarios = ScenarioSet.grid(base, architectures=["DTS", "MSS"],
                                 consumer_counts=[1, 2])
    with Session(backend="serial") as session:
        outcomes = session.run(scenarios)
    assert all(outcome.result.feasible for outcome in outcomes)
    return float(len(outcomes))


def _bench_discrete_clients_point() -> float:
    """Baseline: one point with 100 *discrete* clients (population=1).

    The foil for ``population_sweep``: the same testbed and per-client
    workload, but every client is its own producer process, so the cost
    is O(clients).
    """
    from dataclasses import replace

    from .experiment import Experiment

    config = replace(_experiment_config(), num_producers=100)
    result = Experiment(config).run_single(0)
    assert result.completed
    return float(result.consumed)


def _bench_population_sweep() -> float:
    """Aggregate-client scaling: 10^4 logical clients via the population axis.

    Sweeps the opt-in ``populations`` scenario coordinate over {1, 2500}
    on the standard 4-producer point — the K=2500 point stands for
    4 x 2500 = 10^4 logical clients yet simulates only 4 aggregate
    producers, so the whole two-point sweep should stay within ~2x of the
    100-discrete-client baseline above.
    """
    from .runner import ScenarioSet
    from .session import Session

    scenarios = ScenarioSet.grid(_experiment_config(),
                                 populations=[1, 2500])
    with Session(backend="serial") as session:
        outcomes = session.run(scenarios)
    assert len(outcomes) == 2, len(outcomes)
    assert all(outcome.result.feasible for outcome in outcomes)
    # 4 producers x 25 messages x (1 + 2500) logical clients.
    consumed = sum(outcome.result.consumed for outcome in outcomes)
    assert consumed == 250_100, consumed
    return float(consumed)


def _bench_chaos_sweep() -> float:
    """Fault-injected sweep: the standard point at broker-kill rates 0/1.

    Times the whole chaos machinery — plan expansion, the injector's
    event-scheduled kills, queue failover, producer backoff through the
    outage — against the fault-free baseline point sharing the sweep.
    Both points must still deliver every message (faults degrade, they
    do not corrupt).
    """
    from dataclasses import replace

    from ..faults import FaultPlan
    from .runner import ScenarioSet
    from .session import Session

    base = replace(_experiment_config(), faults=FaultPlan())
    scenarios = ScenarioSet.product(
        base, {"faults.broker_kill_rate": [0.0, 1.0]})
    with Session(backend="serial") as session:
        outcomes = session.run(scenarios)
    assert len(outcomes) == 2, len(outcomes)
    assert all(outcome.result.feasible for outcome in outcomes)
    # 4 producers x 25 messages, at each of the two kill rates.
    consumed = sum(outcome.result.consumed for outcome in outcomes)
    assert consumed == 200, consumed
    return float(consumed)


#: Registered benches in execution (and report) order.
_BENCHES: dict[str, Callable[[], float]] = {
    "simkit_event_loop": _bench_simkit_event_loop,
    "simkit_zero_delay": _bench_simkit_zero_delay,
    "link_transfer": _bench_link_transfer,
    "broker_publish_consume": _bench_broker_publish_consume,
    "experiment_point": _bench_experiment_point,
    "sweep_end_to_end": _bench_sweep_end_to_end,
    "discrete_clients_point": _bench_discrete_clients_point,
    "population_sweep": _bench_population_sweep,
    "chaos_sweep": _bench_chaos_sweep,
}


def bench_names() -> list[str]:
    """Names of the registered benches, in execution order."""
    return list(_BENCHES)


# ---------------------------------------------------------------------------
# Running and reporting
# ---------------------------------------------------------------------------

@dataclass
class BenchResult:
    """Timing summary of one bench across its rounds."""

    name: str
    rounds: int
    median_s: float
    stdev_s: float
    min_s: float
    max_s: float
    check: float

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "median_s": self.median_s,
            "stdev_s": self.stdev_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "check": self.check,
        }

    def as_row(self) -> dict:
        return {"bench": self.name, "rounds": self.rounds,
                "median_s": self.median_s, "stdev_s": self.stdev_s,
                "min_s": self.min_s}


@dataclass
class BenchReport:
    """One benchmark run: per-bench results plus provenance metadata."""

    results: dict[str, BenchResult]
    rounds: int
    repro_version: str
    git_sha: str
    created_at: str
    calibration_s: float

    def to_json_dict(self) -> dict:
        return {
            "schema": BENCH_SCHEMA_VERSION,
            "kind": "repro-streamsim-bench",
            "created_at": self.created_at,
            "repro_version": self.repro_version,
            "git_sha": self.git_sha,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "rounds": self.rounds,
            "calibration_s": self.calibration_s,
            "benches": {name: result.as_dict()
                        for name, result in self.results.items()},
        }

    def rows(self) -> list[dict]:
        return [result.as_row() for result in self.results.values()]

    def save(self, directory: str | Path) -> Path:
        """Write this report as the next ``BENCH_<n>.json`` snapshot."""
        path = next_snapshot_path(directory)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json_dict(), indent=2,
                                   sort_keys=False) + "\n")
        return path


def measure_calibration(rounds: int = 5) -> float:
    """Best-of-``rounds`` time of a fixed CPU spin loop, in seconds.

    Recorded in every snapshot so comparisons can normalise out
    machine-state drift (background load, frequency scaling, different
    hardware): bench times are gated on the ratio *relative to the spin
    loop*, not on absolute wall time.
    """
    def spin() -> int:
        total = 0
        for value in range(100_000):
            total += value * value
        return total

    spin()  # warmup
    times = []
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        spin()
        times.append(time.perf_counter() - start)
    return min(times)


def _git_sha() -> str:
    repo_root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root, timeout=5.0,
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_benches(names: Optional[Iterable[str]] = None, *,
                rounds: int = 5,
                progress: Optional[Callable[[str], None]] = None) -> BenchReport:
    """Run the selected benches and reduce their timings.

    ``rounds`` timed repetitions per bench (median/stdev over them), after
    one untimed warmup round so import and allocator effects do not
    pollute the samples (essential for single-round smoke comparisons
    against warmed snapshots).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    selected = list(names) if names is not None else bench_names()
    unknown = [name for name in selected if name not in _BENCHES]
    if unknown:
        raise ValueError(
            f"unknown bench(es): {', '.join(unknown)} "
            f"(available: {', '.join(bench_names())})")

    results: dict[str, BenchResult] = {}
    gc_was_enabled = gc.isenabled()
    try:
        for name in selected:
            func = _BENCHES[name]
            if progress is not None:
                progress(name)
            func()  # warmup
            # Collect once, then keep the collector out of the timed rounds
            # so background GC pauses do not pollute the medians.
            gc.collect()
            gc.disable()
            times = []
            check = 0.0
            for _ in range(rounds):
                start = time.perf_counter()
                check = func()
                times.append(time.perf_counter() - start)
            if gc_was_enabled:
                gc.enable()
            results[name] = BenchResult(
                name=name, rounds=rounds,
                median_s=statistics.median(times),
                stdev_s=statistics.stdev(times) if len(times) >= 2 else 0.0,
                min_s=min(times), max_s=max(times), check=check)
    finally:
        if gc_was_enabled:
            gc.enable()

    return BenchReport(
        results=results, rounds=rounds, repro_version=__version__,
        git_sha=_git_sha(),
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        calibration_s=measure_calibration())


# ---------------------------------------------------------------------------
# Snapshot trajectory on disk
# ---------------------------------------------------------------------------

def list_snapshots(directory: str | Path) -> list[tuple[int, Path]]:
    """``(index, path)`` of every ``BENCH_<n>.json`` under ``directory``."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    snapshots = []
    for path in sorted(directory.iterdir()):
        match = _SNAPSHOT_RE.match(path.name)
        if match:
            snapshots.append((int(match.group(1)), path))
    return sorted(snapshots)


def latest_snapshot(directory: str | Path) -> Optional[tuple[int, dict]]:
    """Load the highest-numbered snapshot, or None when there is none."""
    snapshots = list_snapshots(directory)
    if not snapshots:
        return None
    index, path = snapshots[-1]
    try:
        return index, json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable benchmark snapshot {path}: {exc}") from exc


def next_snapshot_path(directory: str | Path) -> Path:
    """Path of the snapshot a fresh ``bench`` run should write."""
    snapshots = list_snapshots(directory)
    index = snapshots[-1][0] + 1 if snapshots else 0
    return Path(directory) / f"BENCH_{index}.json"


# ---------------------------------------------------------------------------
# Comparison (regression gate)
# ---------------------------------------------------------------------------

def _gate_time(bench: Mapping[str, Any], *, side: str) -> float:
    """The statistic the regression gate compares for one side.

    The gate is deliberately asymmetric: the *current* run contributes its
    best round (scheduler/allocator noise only ever makes a round slower,
    so the minimum is the robust cheap estimate of true cost), while the
    recorded snapshot contributes its median (its typical round).  A run
    whose *best* round is still ``threshold`` slower than the recorded
    *typical* round has genuinely regressed; transient machine noise
    rarely survives that test.  Falls back to whichever statistic a
    hand-written snapshot provides.
    """
    first, second = (("min_s", "median_s") if side == "current"
                     else ("median_s", "min_s"))
    value = bench.get(first)
    if value is None:
        value = bench[second]
    return float(value)


def compare_reports(current: Mapping[str, Any], previous: Mapping[str, Any],
                    *, threshold: float = 0.2,
                    current_calibration: Optional[float] = None,
                    previous_calibration: Optional[float] = None,
                    ) -> tuple[list[dict], list[str]]:
    """Diff two snapshot ``benches`` mappings (see :func:`_gate_time`).

    Returns ``(rows, regressions)``: one row per bench present in either
    snapshot and the names that regressed by more than ``threshold`` (a
    fraction: 0.2 means 20 % slower fails).

    Two layers of machine-drift normalisation keep the gate meaningful on
    shared/noisy hardware:

    * when both calibration times are given (:func:`measure_calibration`),
      current times are scaled by ``previous_calibration /
      current_calibration`` (CPU-speed drift);
    * with at least three benches on both sides, each bench additionally
      gets its ratio *relative to the suite's median ratio* (``vs_suite``
      in the rows): allocator/cache pressure slows every bench together
      and cancels out of that comparison, while a regression in one hot
      path stands out against the rest of the suite.

    A bench is flagged only when BOTH views exceed the threshold — slower
    in absolute (calibration-scaled) terms AND slower than the suite
    moved as a whole; either alone is indistinguishable from machine
    state.  With fewer than three common benches the absolute ratio gates
    alone.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    scale = 1.0
    if (current_calibration and previous_calibration
            and current_calibration > 0):
        scale = previous_calibration / current_calibration

    ratios: dict[str, float] = {}
    for name in previous:
        prev = previous.get(name)
        cur = current.get(name)
        if prev is None or cur is None:
            continue
        prev_time = _gate_time(prev, side="previous")
        cur_time = _gate_time(cur, side="current") * scale
        ratios[name] = (cur_time / prev_time if prev_time > 0
                        else float("inf"))
    drift = statistics.median(ratios.values()) if len(ratios) >= 3 else 1.0

    rows: list[dict] = []
    regressions: list[str] = []
    names = list(dict.fromkeys([*previous, *current]))
    for name in names:
        prev = previous.get(name)
        cur = current.get(name)
        if cur is None:
            rows.append({"bench": name,
                         "previous_s": _gate_time(prev, side="previous"),
                         "current_s": None, "ratio": None, "vs_suite": None,
                         "status": "missing"})
            continue
        if prev is None:
            rows.append({"bench": name, "previous_s": None,
                         "current_s": _gate_time(cur, side="current"),
                         "ratio": None, "vs_suite": None, "status": "new"})
            continue
        prev_time = _gate_time(prev, side="previous")
        cur_time = _gate_time(cur, side="current") * scale
        ratio = ratios[name]
        vs_suite = ratio / drift if drift > 0 else float("inf")
        if min(ratio, vs_suite) > 1.0 + threshold:
            status = "REGRESSION"
            regressions.append(name)
        elif max(ratio, vs_suite) < 1.0 - threshold:
            status = "improved"
        else:
            status = "ok"
        rows.append({"bench": name, "previous_s": prev_time,
                     "current_s": cur_time, "ratio": ratio,
                     "vs_suite": vs_suite, "status": status})
    return rows, regressions


# ---------------------------------------------------------------------------
# Profiling recipe
# ---------------------------------------------------------------------------

def profile_point(out_path: Optional[str | Path] = None, *,
                  top: int = 25) -> str:
    """cProfile one full experiment point; return the formatted hot spots.

    With ``out_path`` the raw stats are also dumped for ``snakeviz`` /
    ``pstats`` consumption.  One unprofiled point runs first and the
    point is built before profiling starts, so lazy imports (numpy's
    ``__getattr__``) stay out of the profile.
    """
    import cProfile
    import io
    import pstats

    from .experiment import Experiment

    _bench_experiment_point()
    experiment = Experiment(_experiment_config())
    profiler = cProfile.Profile()
    profiler.enable()
    experiment.run_single(0)
    profiler.disable()
    if out_path is not None:
        profiler.dump_stats(str(out_path))
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()
