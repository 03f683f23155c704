"""Session API: construction, the named-backend registry, env/args
constructors, and cross-backend byte-identity of session sweeps."""

from __future__ import annotations

import argparse
import json
import pickle
import warnings

import pytest

from repro import core
from repro.architectures import TestbedConfig
from repro.harness import (
    ConsumerSweep,
    ExecutionPolicy,
    ExperimentConfig,
    ProcessPoolBackend,
    ResultCache,
    ScenarioPoint,
    ScenarioSet,
    SerialBackend,
    Session,
    ThreadPoolBackend,
    backend_names,
    create_backend,
    register_backend,
    run_scenarios,
    sensitivity_sweep,
    unregister_backend,
)
from repro.harness import runner as runner_module


def tiny_config(**overrides):
    params = dict(
        architecture="DTS",
        workload="Dstream",
        pattern="work_sharing",
        num_producers=2,
        num_consumers=2,
        messages_per_producer=4,
        max_sim_time_s=120.0,
        testbed=TestbedConfig(producer_nodes=4, consumer_nodes=4),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def one_point():
    return ScenarioSet().add_config(tiny_config())


def sweep_json(sweep) -> str:
    payload = {
        architecture: {str(consumers): result.to_json_dict()
                       for consumers, result in by_consumers.items()}
        for architecture, by_consumers in sweep.results.items()
    }
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# Construction and the named-backend registry
# ---------------------------------------------------------------------------

def test_named_backends_resolve():
    assert isinstance(Session(backend="serial").backend, SerialBackend)
    process = Session(backend="process", jobs=3)
    assert isinstance(process.backend, ProcessPoolBackend)
    assert process.backend.jobs == 3
    thread = Session(backend="thread", jobs=2)
    assert isinstance(thread.backend, ThreadPoolBackend)
    assert thread.backend.jobs == 2
    assert thread.backend_name == "thread"


def test_jobs_alone_picks_process_pool_else_serial():
    assert isinstance(Session(jobs=4).backend, ProcessPoolBackend)
    assert isinstance(Session(jobs=1).backend, SerialBackend)
    assert isinstance(Session().backend, SerialBackend)


def test_explicit_backend_instance_wins():
    backend = ThreadPoolBackend(2)
    session = Session(backend=backend, jobs=7)
    assert session.backend is backend
    assert session.backend_name is None


def test_session_validates_jobs_and_policy():
    with pytest.raises(ValueError, match="jobs"):
        Session(jobs=0)
    with pytest.raises(TypeError, match="ExecutionPolicy"):
        Session(policy={"retries": 2})


def test_serial_backend_with_multiple_jobs_warns():
    with pytest.warns(RuntimeWarning, match="no effect"):
        Session(backend="serial", jobs=8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Session(backend="serial", jobs=1)
        Session(backend="process", jobs=8)
    assert not [entry for entry in caught
                if issubclass(entry.category, RuntimeWarning)]


def test_unknown_backend_name_lists_registry():
    with pytest.raises(ValueError, match="unknown backend 'warp'"):
        Session(backend="warp")


def test_registry_round_trip_and_overwrite_guard():
    assert {"serial", "process", "thread"} <= set(backend_names())
    assert isinstance(Session(backend="thread").backend, ThreadPoolBackend)

    class RecordingBackend(SerialBackend):
        def __init__(self, jobs=None):
            self.jobs = jobs

    try:
        register_backend("recording", lambda jobs=None: RecordingBackend(jobs))
        assert "recording" in backend_names()
        built = create_backend("recording", jobs=5)
        assert isinstance(built, RecordingBackend) and built.jobs == 5
        assert isinstance(Session(backend="recording").backend,
                          RecordingBackend)
        with pytest.raises(ValueError, match="already registered"):
            register_backend("recording", lambda jobs=None: RecordingBackend())
        register_backend("recording", lambda jobs=None: RecordingBackend(9),
                         overwrite=True)
        assert create_backend("recording").jobs == 9
    finally:
        unregister_backend("recording")
    assert "recording" not in backend_names()


def test_factory_must_return_an_execution_backend():
    try:
        register_backend("broken", lambda jobs=None: object())
        with pytest.raises(TypeError, match="ExecutionBackend"):
            create_backend("broken")
    finally:
        unregister_backend("broken")


def test_cache_path_is_opened_with_allow_stale(tmp_path):
    session = Session(cache=tmp_path / "cache", allow_stale=True)
    assert isinstance(session.cache, ResultCache)
    assert session.cache.allow_stale
    existing = ResultCache(str(tmp_path / "other"))
    assert Session(cache=existing).cache is existing
    assert Session().cache is None


def test_session_is_picklable():
    session = Session(backend="thread", jobs=2,
                      policy=ExecutionPolicy(retries=1, on_error="record"))
    clone = pickle.loads(pickle.dumps(session))
    assert isinstance(clone.backend, ThreadPoolBackend)
    assert clone.policy == session.policy
    assert clone.backend_name == "thread"


# ---------------------------------------------------------------------------
# Lifecycle: run, context manager, cache flush
# ---------------------------------------------------------------------------

def test_session_run_matches_run_scenarios():
    scenarios = one_point()
    [via_session] = Session().run(scenarios)
    [via_function] = run_scenarios(scenarios, session=Session())
    assert (json.dumps(via_session.result.to_json_dict(), sort_keys=True)
            == json.dumps(via_function.result.to_json_dict(), sort_keys=True))


def test_context_manager_flushes_cache_and_closes(tmp_path):
    path = tmp_path / "cache"
    with Session(cache=path) as session:
        [outcome] = session.run(one_point())
        assert outcome.ok and not outcome.cached
    assert session.closed
    with pytest.raises(RuntimeError, match="closed"):
        session.run(one_point())
    with pytest.raises(RuntimeError, match="closed"):
        run_scenarios(one_point(), session=session)
    with pytest.raises(RuntimeError, match="closed"):
        ConsumerSweep(tiny_config(), architectures=["DTS"],
                      consumer_counts=[2]).run(session=session)
    with pytest.raises(RuntimeError, match="closed"):
        with session:
            pass  # pragma: no cover - must not be reached

    # A fresh session over the same path serves the point from disk.
    with Session(cache=path) as reader:
        [cached] = reader.run(one_point())
    assert cached.cached


def test_session_progress_is_the_default_callback():
    seen = []
    session = Session(progress=lambda point: seen.append(point.label))
    session.run(one_point())
    assert seen == ["DTS"]
    # An explicit progress= per run overrides the session default.
    explicit = []
    session.run(one_point(), progress=lambda point: explicit.append(1))
    assert seen == ["DTS"] and explicit == [1]


def test_describe_is_flat_and_json_safe(tmp_path):
    session = Session(backend="process", jobs=2, cache=tmp_path / "c",
                      policy=ExecutionPolicy(retries=1))
    info = session.describe()
    assert info["backend"] == "process" and info["jobs"] == 2
    assert info["policy"]["retries"] == 1
    json.dumps(info)  # flat dict, no live objects


# ---------------------------------------------------------------------------
# from_env / from_args
# ---------------------------------------------------------------------------

def test_from_env_reads_every_variable(tmp_path):
    session = Session.from_env({
        "REPRO_JOBS": "2",
        "REPRO_BACKEND": "thread",
        "REPRO_CACHE": str(tmp_path / "cache"),
        "REPRO_ALLOW_STALE": "yes",
        "REPRO_TIMEOUT": "5.5",
        "REPRO_RETRIES": "3",
        "REPRO_BACKOFF": "0.25",
        "REPRO_ON_ERROR": "record",
    })
    assert isinstance(session.backend, ThreadPoolBackend)
    assert session.jobs == 2
    assert session.cache.allow_stale
    assert session.policy == ExecutionPolicy(timeout_s=5.5, retries=3,
                                             backoff_s=0.25,
                                             on_error="record")


def test_from_env_empty_is_default_session():
    session = Session.from_env({})
    assert isinstance(session.backend, SerialBackend)
    assert session.cache is None and session.policy is None


def test_from_env_rejects_bad_values():
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        Session.from_env({"REPRO_JOBS": "many"})
    with pytest.raises(ValueError, match="REPRO_ON_ERROR"):
        Session.from_env({"REPRO_ON_ERROR": "explode"})


def test_from_args_overlays_cli_on_env(tmp_path):
    # None = "not given on the command line" (the parser's sentinels).
    args = argparse.Namespace(jobs=4, backend=None, cache=None,
                              allow_stale=False, timeout=None, retries=None,
                              on_error=None)
    session = Session.from_args(args, environ={
        "REPRO_JOBS": "2",
        "REPRO_CACHE": str(tmp_path / "env-cache"),
        "REPRO_ON_ERROR": "record",
    })
    # CLI --jobs wins; unset CLI options inherit the environment.
    assert session.jobs == 4
    assert session.cache is not None
    assert session.policy.on_error == "record"


def test_from_args_explicit_defaults_still_override_env():
    """`--retries 0 --on-error raise` must beat REPRO_RETRIES/REPRO_ON_ERROR
    even though the values equal the library defaults."""
    args = argparse.Namespace(jobs=None, backend=None, cache=None,
                              allow_stale=False, timeout=None, retries=0,
                              on_error="raise")
    session = Session.from_args(args, environ={"REPRO_RETRIES": "3",
                                               "REPRO_ON_ERROR": "record"})
    assert session.policy is None  # fail-fast, exactly as asked


def test_from_args_without_execution_attrs_is_default():
    session = Session.from_args(argparse.Namespace(), environ={})
    assert isinstance(session.backend, SerialBackend)
    assert session.cache is None and session.policy is None


# ---------------------------------------------------------------------------
# session= is the only execution argument
# ---------------------------------------------------------------------------

#: Every public entry point that executes scenario points, called with its
#: cheapest arguments plus whatever keywords the test passes.
ENTRY_POINTS = {
    "run_scenarios": lambda **kw: run_scenarios(one_point(), **kw),
    "ConsumerSweep.run": lambda **kw: ConsumerSweep(
        tiny_config(), architectures=["DTS"], consumer_counts=[2]).run(**kw),
    "sensitivity_sweep": lambda **kw: sensitivity_sweep(
        tiny_config(), {"consumers": [2]}, **kw),
    **{name: getattr(core, name) for name in (
        "compare_architectures", "deployment_comparison",
        "architecture_comparison_rows", "architecture_comparison_text",
        "figure4", "figure5", "figure6", "figure7", "figure8",
        "figure_bandwidth_scaling", "figure_chaos_degradation",
        "ablation_tunnel_type", "ablation_proxy_connections",
        "ablation_mss_lb_bypass", "ablation_link_speed",
        "ablation_work_queue_count", "ablation_network_layer_forwarding")},
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_entry_points_reject_jobs_keyword(entry_point, monkeypatch):
    """``jobs=`` is a TypeError at every entry point, raised before any
    point is simulated: ``session=`` is the only execution argument."""
    def refuse(point):
        raise AssertionError(f"{entry_point} simulated {point.label}")

    monkeypatch.setattr(runner_module, "execute_point", refuse)
    with pytest.raises(TypeError, match="jobs"):
        ENTRY_POINTS[entry_point](jobs=1)


@pytest.mark.parametrize("backend_name", ["serial", "process", "thread"])
def test_legacy_and_session_sweeps_byte_identical(backend_name):
    """Acceptance: a sweep under ``Session(backend=name, jobs=2)``
    produces SweepResult JSON byte-identical to a plain ``Session()``
    sweep on every named backend."""
    base = tiny_config()
    sweep_kwargs = dict(architectures=["DTS", "MSS"], consumer_counts=[1, 2])
    reference = ConsumerSweep(base, **sweep_kwargs).run(session=Session())
    # jobs=2 on the serial backend only draws the no-effect RuntimeWarning.
    jobs = None if backend_name == "serial" else 2
    with Session(backend=backend_name, jobs=jobs) as session:
        named = ConsumerSweep(base, **sweep_kwargs).run(session=session)
    assert sweep_json(reference) == sweep_json(named)


# ---------------------------------------------------------------------------
# ThreadPoolBackend semantics
# ---------------------------------------------------------------------------

def test_thread_backend_preserves_submission_order():
    scenarios = ScenarioSet.grid(tiny_config(),
                                 architectures=["DTS", "MSS"],
                                 consumer_counts=[1, 2])
    serial = run_scenarios(scenarios, session=Session())
    threaded = run_scenarios(scenarios, session=Session(backend="thread",
                                                        jobs=4))
    assert ([outcome.point.cache_key() for outcome in serial]
            == [outcome.point.cache_key() for outcome in threaded])
    assert ([json.dumps(outcome.result.to_json_dict(), sort_keys=True)
             for outcome in serial]
            == [json.dumps(outcome.result.to_json_dict(), sort_keys=True)
                for outcome in threaded])


def test_thread_backend_records_failures_under_policy(monkeypatch):
    from repro.harness import runner as runner_module
    real = runner_module.execute_point

    def crash_on_marker(point):
        if point.axes.get("crash"):
            raise RuntimeError("injected crash")
        return real(point)

    monkeypatch.setattr(runner_module, "execute_point", crash_on_marker)
    points = [
        ScenarioPoint(config=tiny_config(), axes={"consumers": 2}),
        ScenarioPoint(config=tiny_config(seed=2), axes={"crash": True}),
        ScenarioPoint(config=tiny_config(seed=3), axes={"consumers": 2}),
    ]
    session = Session(backend="thread", jobs=2,
                      policy=ExecutionPolicy(retries=1, on_error="record"))
    outcomes = session.run(points)
    assert [outcome.ok for outcome in outcomes] == [True, False, True]
    assert outcomes[1].attempts == 2
    assert "injected crash" in outcomes[1].error


def test_thread_backend_single_job_falls_back_to_serial():
    backend = ThreadPoolBackend(1)
    results = backend.run(list(one_point()))
    assert len(results) == 1 and results[0][0] is True


def test_thread_backend_incremental_cache_persistence(tmp_path):
    path = tmp_path / "cache"
    scenarios = ScenarioSet.grid(tiny_config(), consumer_counts=[1, 2, 4])
    with Session(backend="thread", jobs=2, cache=path) as session:
        fresh = session.run(scenarios)
    assert all(not outcome.cached for outcome in fresh)
    with Session(cache=path) as session:
        again = session.run(scenarios)
    assert all(outcome.cached for outcome in again)
    assert ([json.dumps(a.result.to_json_dict(), sort_keys=True)
             for a in fresh]
            == [json.dumps(b.result.to_json_dict(), sort_keys=True)
                for b in again])
