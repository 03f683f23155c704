"""Chaos determinism: fault plans, schedules and cross-backend identity.

The fault-injection contract has three legs:

* ``faults=None`` and the inactive all-zero :class:`FaultPlan` are the
  exact pre-fault code path — byte-identical results (the golden-digest
  tests in test_determinism_matrix.py pin the absolute bytes; here we pin
  the None/inactive equivalence).
* An *active* plan is a pure function of ``(seed, plan, topology)``: the
  same chaos sweep is byte-identical across serial, process and thread
  backends, and each fault kind draws from its own derived stream so
  enabling one axis never shifts another's schedule.
* Faults degrade, they do not corrupt: runs complete, and with aggregate
  populations under consumer churn the logical fleet is conserved
  (at-least-once redelivery may duplicate, never lose).
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace

import pytest

from repro.architectures import TestbedConfig
from repro.faults import FAULT_AXES, FaultPlan, FaultSpec
from repro.harness import (
    Experiment,
    ExperimentConfig,
    ProcessPoolBackend,
    ScenarioSet,
    SerialBackend,
    Session,
    ThreadPoolBackend,
    run_scenarios,
)
from repro.simkit import RandomStreams


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


def _payloads(outcomes) -> list[str]:
    return [json.dumps(outcome.result.to_json_dict(), sort_keys=True)
            for outcome in outcomes]


# ---------------------------------------------------------------------------
# FaultPlan / FaultSpec basics
# ---------------------------------------------------------------------------

def test_default_plan_is_inactive():
    plan = FaultPlan()
    assert not plan.active
    assert plan.describe() == {}


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(broker_kill_rate=-1.0)
    with pytest.raises(ValueError):
        FaultPlan(link_degradation=1.0)
    with pytest.raises(ValueError):
        FaultPlan(horizon_s=0.0)
    with pytest.raises(ValueError):
        FaultPlan(weather_window_s=0.5, weather_period_s=0.1)
    with pytest.raises(ValueError):
        FaultSpec("meteor_strike", 0.0)


def test_plan_json_and_pickle_round_trip_on_config():
    config = tiny_config(faults=FaultPlan(broker_kill_rate=1.5,
                                          horizon_s=0.1,
                                          slow_consumer=0.002))
    assert ExperimentConfig.from_json_dict(config.to_json_dict()) == config
    assert pickle.loads(pickle.dumps(config)) == config
    # And a None plan stays None through the round trip.
    bare = tiny_config()
    assert ExperimentConfig.from_json_dict(bare.to_json_dict()).faults is None


def test_describe_carries_fault_coordinates():
    config = tiny_config(faults=FaultPlan(consumer_churn=2.0))
    assert config.describe()["faults.consumer_churn"] == 2.0
    # Fault-free configs keep their historical columns exactly.
    assert not any(key.startswith("faults.")
                   for key in tiny_config().describe())


# ---------------------------------------------------------------------------
# Schedule expansion determinism
# ---------------------------------------------------------------------------

def _expand(plan, seed=7):
    return plan.expand(RandomStreams(seed), brokers=["rmqs1", "rmqs2"],
                       links=["l1", "l2", "l3"], consumers=4)


def test_expand_is_deterministic_and_sorted():
    plan = FaultPlan(broker_kill_rate=2.0, link_flap=1.0,
                     link_degradation=0.5, consumer_churn=1.0,
                     slow_consumer=0.001)
    first, second = _expand(plan), _expand(plan)
    assert first == second
    assert first == sorted(first, key=lambda s: (s.time_s, s.kind, s.target))
    assert _expand(plan, seed=8) != first


def test_expand_axes_are_independent_streams():
    """Enabling one axis must not shift another axis' draws."""
    alone = _expand(FaultPlan(broker_kill_rate=2.0))
    combined = _expand(FaultPlan(broker_kill_rate=2.0, link_flap=3.0,
                                 consumer_churn=1.0))
    assert [s for s in combined if s.kind == "broker_kill"] == alone


def test_expand_integer_rates_are_exact():
    for rate in (1.0, 2.0, 3.0):
        specs = _expand(FaultPlan(broker_kill_rate=rate))
        assert len(specs) == int(rate)
        assert all(0.0 <= s.time_s < FaultPlan().horizon_s for s in specs)


def test_inactive_plan_expands_to_nothing():
    assert _expand(FaultPlan()) == []


# ---------------------------------------------------------------------------
# faults=None <-> inactive plan identity
# ---------------------------------------------------------------------------

def test_inactive_plan_byte_identical_to_none():
    bare = Experiment(tiny_config()).run_single(0)
    inactive = Experiment(tiny_config(faults=FaultPlan())).run_single(0)
    assert (json.dumps(bare.to_json_dict(), sort_keys=True)
            == json.dumps(inactive.to_json_dict(), sort_keys=True))


def test_zero_rate_point_byte_identical_to_none():
    """A chaos sweep's rate-0 baseline is the pre-fault run, exactly."""
    bare = Experiment(tiny_config()).run_single(0)
    zero = Experiment(tiny_config(
        faults=FaultPlan())).run_single(0)
    swept = Experiment(replace(
        tiny_config(faults=FaultPlan()), faults=FaultPlan(
            broker_kill_rate=0.0))).run_single(0)
    payloads = {json.dumps(r.to_json_dict(), sort_keys=True)
                for r in (bare, zero, swept)}
    assert len(payloads) == 1


# ---------------------------------------------------------------------------
# Cross-backend byte identity of a chaos sweep
# ---------------------------------------------------------------------------

def _chaos_scenarios():
    base = tiny_config(faults=FaultPlan(), messages_per_producer=25,
                       num_producers=4, num_consumers=4)
    return ScenarioSet.product(base, {
        "architecture": ["DTS", "MSS"],
        "faults.broker_kill_rate": [0.0, 1.0],
        "faults.consumer_churn": [0.0, 1.0],
    })


@pytest.mark.parametrize("parallel_backend", [
    lambda: ProcessPoolBackend(2),
    lambda: ThreadPoolBackend(2),
], ids=["process", "thread"])
def test_chaos_sweep_byte_identical_across_backends(parallel_backend):
    scenarios = _chaos_scenarios()
    serial = run_scenarios(scenarios, session=Session(backend=SerialBackend()))
    parallel = run_scenarios(scenarios,
                             session=Session(backend=parallel_backend()))
    assert _payloads(serial) == _payloads(parallel)
    assert ([o.point.cache_key() for o in serial]
            == [o.point.cache_key() for o in parallel])


def test_product_accepts_fault_axes_on_faults_none_base():
    """Sweeping faults.* from a fault-free base auto-attaches a plan."""
    scenarios = ScenarioSet.product(
        tiny_config(), {"faults.broker_kill_rate": [0.0, 1.0]})
    outcomes = run_scenarios(scenarios,
                             session=Session(backend=SerialBackend()))
    assert len(outcomes) == 2
    assert [o.point.config.faults.broker_kill_rate for o in outcomes] == \
        [0.0, 1.0]
    assert all(o.result.feasible for o in outcomes)


# ---------------------------------------------------------------------------
# Failure rows carry the full point coordinates
# ---------------------------------------------------------------------------

def test_failure_rows_carry_fault_and_population_coordinates(monkeypatch):
    """A chaos sweep's dead points must be attributable: the failure row
    names the fault coordinates (and population) alongside the swept
    axes."""
    from repro.harness import ExecutionPolicy, sensitivity_sweep
    from repro.harness import runner as runner_module
    from repro.harness.runner import execute_point

    def crash_on_chaos(point):
        if point.config.faults is not None and point.config.faults.active:
            raise RuntimeError("injected chaos crash")
        return execute_point(point)

    monkeypatch.setattr(runner_module, "execute_point", crash_on_chaos)
    base = tiny_config(faults=FaultPlan(), population=3)
    sweep = sensitivity_sweep(
        base, {"faults.broker_kill_rate": [0.0, 1.0]},
        session=Session(policy=ExecutionPolicy(on_error="record")))
    assert len(sweep.failures) == 1
    row = sweep.failures[0].as_row()
    assert row["faults.broker_kill_rate"] == 1.0
    assert row["population"] == 3
    assert "injected chaos crash" in row["error"]


# ---------------------------------------------------------------------------
# Every axis completes; populations conserve the fleet under churn
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("axis", FAULT_AXES)
def test_every_axis_runs_to_completion(axis):
    value = 0.5 if axis == "link_degradation" else 1.0
    config = tiny_config(faults=FaultPlan(**{axis: value}))
    result = Experiment(config).run_single(0)
    assert result.feasible and result.completed
    assert result.consumed >= config.total_messages
    snapshot = result.extra["faults"]
    assert snapshot["plan"] == {axis: value}
    assert snapshot["scheduled"] >= 1


def test_population_fleet_conserved_under_churn():
    """K>1 aggregate populations under consumer churn lose nothing:
    at-least-once redelivery may duplicate a logical message, never drop
    one."""
    config = tiny_config(population=3, num_producers=4, num_consumers=4,
                         messages_per_producer=10,
                         faults=FaultPlan(consumer_churn=2.0))
    result = Experiment(config).run_single(0)
    assert result.feasible and result.completed
    assert config.total_messages == 4 * 10 * 3
    assert result.consumed >= config.total_messages


def test_broker_kill_degrades_but_completes():
    base = tiny_config(num_producers=4, num_consumers=4,
                       messages_per_producer=25)
    calm = Experiment(base).run_single(0)
    chaotic = Experiment(replace(
        base, faults=FaultPlan(broker_kill_rate=1.0))).run_single(0)
    assert chaotic.completed
    assert chaotic.consumed == calm.consumed
    assert chaotic.extra["faults"]["fired"] == {"broker_kill": 1}
    # The outage stalls publishes (producer backoff), so the chaotic run
    # takes strictly longer in simulated time.
    assert chaotic.sim_time_s > calm.sim_time_s
