"""StreamSim-equivalent experiment harness: configs, coordinator, runner,
sessions, sweeps and result containers.

Everything that "runs many experiment points" — consumer sweeps,
architecture comparisons, figure regeneration, the CLI — goes through the
unified scenario runner in :mod:`repro.harness.runner`.  Execution context
(named backend, result cache, execution policy, progress) travels as one
:class:`~repro.harness.session.Session` object: build it once (directly,
from ``REPRO_*`` environment variables via :meth:`Session.from_env`, or
from CLI args via :meth:`Session.from_args`) and pass ``session=`` to any
entry point.
"""

from .bench import (
    BenchReport,
    BenchResult,
    bench_names,
    compare_reports,
    latest_snapshot,
    list_snapshots,
    next_snapshot_path,
    profile_point,
    run_benches,
)
from .cache import ResultCache, code_fingerprint, shard_lock
from .cache_admin import (
    CacheAdminError,
    CacheStats,
    CompactReport,
    GCReport,
    ProfileInfo,
    RollbackReport,
    collect_stats,
    compact_cache,
    delete_profile,
    gc_cache,
    list_profiles,
    rollback_cache,
    snapshot_cache,
)
from .config import PATTERN_NAMES, ExperimentConfig
from .coordinator import Coordinator
from .experiment import Experiment, run_experiment
from .results import ExperimentResult, PointFailure, RunResult
from .runner import (
    ON_ERROR_MODES,
    BackendFactory,
    ExecutionBackend,
    ExecutionPolicy,
    PointOutcome,
    PointTimeout,
    ProcessPoolBackend,
    ScenarioError,
    ScenarioPoint,
    ScenarioSet,
    SerialBackend,
    ThreadPoolBackend,
    backend_names,
    create_backend,
    register_backend,
    run_scenarios,
    unregister_backend,
)
from .session import ENV_PREFIX, Session
from .sweep import (
    PAPER_CONSUMER_COUNTS,
    ConsumerSweep,
    SensitivitySweep,
    SweepResult,
    scale_link_tiers,
    sensitivity_sweep,
)

__all__ = [
    "ExperimentConfig",
    "PATTERN_NAMES",
    "Coordinator",
    "Experiment",
    "run_experiment",
    "RunResult",
    "ExperimentResult",
    "PointFailure",
    "ConsumerSweep",
    "SweepResult",
    "SensitivitySweep",
    "sensitivity_sweep",
    "scale_link_tiers",
    "PAPER_CONSUMER_COUNTS",
    "ScenarioPoint",
    "ScenarioSet",
    "PointOutcome",
    "ScenarioError",
    "PointTimeout",
    "ExecutionPolicy",
    "ON_ERROR_MODES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ThreadPoolBackend",
    "BackendFactory",
    "register_backend",
    "unregister_backend",
    "backend_names",
    "create_backend",
    "run_scenarios",
    "Session",
    "ENV_PREFIX",
    "ResultCache",
    "code_fingerprint",
    "shard_lock",
    "CacheAdminError",
    "CacheStats",
    "CompactReport",
    "GCReport",
    "ProfileInfo",
    "RollbackReport",
    "collect_stats",
    "gc_cache",
    "compact_cache",
    "snapshot_cache",
    "rollback_cache",
    "list_profiles",
    "delete_profile",
    "BenchReport",
    "BenchResult",
    "bench_names",
    "run_benches",
    "compare_reports",
    "list_snapshots",
    "latest_snapshot",
    "next_snapshot_path",
    "profile_point",
]
