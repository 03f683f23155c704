"""Aggregate-client populations: scaling semantics and bit-identity.

The population model's contract has two halves:

* K=1 is *bit-identical* to discrete clients — the population wrapper, the
  multiplicity plumbing and the weighted-statistics machinery must not
  perturb a single byte of the historical results (the determinism-matrix
  goldens enforce this against the pre-population recording; here we also
  pin that the opt-in ``populations`` grid axis at K=1 reproduces the
  axis-free results exactly);
* K>1 conserves the *logical* client fleet — consumed counts, replies and
  weighted metric reductions reflect num_producers x K clients while the
  simulation only ever runs O(populations) processes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.architectures import TestbedConfig
from repro.harness import (
    ExperimentConfig,
    ProcessPoolBackend,
    ScenarioSet,
    SerialBackend,
    Session,
    ThreadPoolBackend,
    run_experiment,
    run_scenarios,
)
from repro.harness.results import RunResult
from repro.workloads import (ClientPopulation, PopulationSpec,
                             WorkloadGenerator, get_workload)


def tiny_config(**overrides):
    params = dict(
        architecture="DTS",
        workload="Dstream",
        pattern="work_sharing",
        num_producers=2,
        num_consumers=2,
        messages_per_producer=4,
        max_sim_time_s=300.0,
        testbed=TestbedConfig(producer_nodes=4, consumer_nodes=4),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _payloads(outcomes) -> list[str]:
    return [json.dumps(outcome.result.to_json_dict(), sort_keys=True)
            for outcome in outcomes]


def _digest(outcomes) -> str:
    return hashlib.sha256("\n".join(_payloads(outcomes)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# K=1 bit-identity
# ---------------------------------------------------------------------------

def test_population_axis_at_one_reproduces_axis_free_results():
    """grid(populations=[1]) emits byte-identical result payloads to the
    same grid without the population axis (only cache keys may differ)."""
    base = tiny_config()
    without = run_scenarios(
        ScenarioSet.grid(base, architectures=["DTS", "MSS"], seeds=[1, 2]),
        session=Session(backend=SerialBackend()))
    with_axis = run_scenarios(
        ScenarioSet.grid(base, architectures=["DTS", "MSS"],
                         populations=[1], seeds=[1, 2]),
        session=Session(backend=SerialBackend()))
    assert _payloads(without) == _payloads(with_axis)


def test_population_one_results_stay_unweighted():
    """Size-1 populations must not trip the weighted-statistics path, so
    serialized results keep their historical schema (no weight columns)."""
    result = run_experiment(tiny_config(population=1)).runs[0]
    assert result.completed
    payload = result.to_json_dict()
    assert "rtt_weights" not in payload
    assert "latency_weights" not in payload
    assert result.latency is not None and result.latency.weights is None


# ---------------------------------------------------------------------------
# K>1: logical conservation across every pattern family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pattern,replies_per_message", [
    ("work_sharing", 0),
    ("work_sharing_feedback", 1),
    ("broadcast_gather", 2),  # one reply per consumer
])
def test_population_conserves_logical_fleet(pattern, replies_per_message):
    population = 50
    overrides = {"pattern": pattern, "population": population}
    if pattern.startswith("broadcast"):
        overrides["num_producers"] = 1  # §5.5: broadcast has one producer
    config = tiny_config(**overrides)
    result = run_experiment(config).runs[0]
    assert result.completed
    logical_messages = (config.num_producers * config.messages_per_producer
                        * population)
    if pattern.startswith("broadcast"):
        assert result.consumed == logical_messages * config.num_consumers
    else:
        assert result.consumed == logical_messages
    assert result.replies == logical_messages * replies_per_message
    # The weighted latency reduction spans the whole logical fleet.
    assert result.latency is not None
    assert result.latency.weights is not None
    assert result.latency.weights.sum() == pytest.approx(result.consumed)


def test_population_scales_published_but_not_process_count():
    """K=1000 consumes 1000x the logical messages from the same number of
    aggregate sends (messages_generated counts aggregate sends only)."""
    config = tiny_config(population=1000)
    result = run_experiment(config).runs[0]
    assert result.completed
    assert result.published == 2 * 4 * 1000
    assert result.consumed == 2 * 4 * 1000
    assert config.total_clients == 2 * 1000
    assert config.total_messages == 2 * 4 * 1000


def test_weighted_result_round_trips_through_json():
    result = run_experiment(tiny_config(population=7)).runs[0]
    payload = result.to_json_dict()
    assert "latency_weights" in payload
    restored = RunResult.from_json_dict(payload)
    np.testing.assert_array_equal(restored.latency.weights,
                                  result.latency.weights)
    assert (json.dumps(restored.to_json_dict(), sort_keys=True)
            == json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# The population scenario axis: goldens and parallel byte-identity
# ---------------------------------------------------------------------------

def _population_scenarios() -> ScenarioSet:
    return ScenarioSet.grid(
        tiny_config(), architectures=["DTS", "MSS"],
        populations=[1, 50], seeds=[1, 2])


#: sha256 over the newline-joined serial JSON payloads of the population
#: grid above, recorded when the aggregate-client model landed.  Regenerate
#: only for a deliberate semantic change:
#:
#:     digest = _digest(run_scenarios(_population_scenarios(),
#:                                    backend=SerialBackend()))
POPULATION_GOLDEN = (
    "cbcccd5307bc19e4e401b933bab96f58d4969deaffcd81307572c19e7464143f")


def test_population_grid_matches_golden():
    digest = _digest(run_scenarios(_population_scenarios(),
                                   session=Session(backend=SerialBackend())))
    assert digest == POPULATION_GOLDEN


@pytest.mark.parametrize("parallel_backend", [
    lambda: ProcessPoolBackend(2),
    lambda: ThreadPoolBackend(2),
], ids=["process", "thread"])
def test_population_grid_parallel_byte_identical(parallel_backend):
    scenarios = _population_scenarios()
    serial = run_scenarios(scenarios, session=Session(backend=SerialBackend()))
    parallel = run_scenarios(scenarios,
                             session=Session(backend=parallel_backend()))
    assert _payloads(serial) == _payloads(parallel)


def test_population_axis_labels_points():
    points = list(_population_scenarios())
    assert {point.axes.get("population") for point in points} == {1, 50}
    assert all(point.config.population == point.axes["population"]
               for point in points)


# ---------------------------------------------------------------------------
# ClientPopulation / PopulationSpec units
# ---------------------------------------------------------------------------

def _generator(seed: int = 3) -> WorkloadGenerator:
    return WorkloadGenerator(get_workload("Dstream"),
                             rng=np.random.default_rng(seed),
                             rate_limited=True, num_producers=2)


def test_population_spec_validation():
    with pytest.raises(ValueError, match="population size must be >= 1"):
        PopulationSpec(size=0)
    with pytest.raises(ValueError, match="gap_jitter_fraction"):
        PopulationSpec(gap_jitter_fraction=1.0)
    with pytest.raises(ValueError, match="batch must be >= 1"):
        PopulationSpec(batch=0)


def test_population_wrapper_is_transparent_at_size_one():
    """A size-1 population forwards draws 1:1 with the bare generator."""
    bare, wrapped = _generator(), ClientPopulation(_generator())
    assert wrapped.multiplicity == 1
    for _ in range(10):
        assert wrapped.next_blueprint() == bare.next_blueprint()
        assert wrapped.send_interval() == bare.send_interval()
    assert wrapped.messages_generated == bare.messages_generated == 10
    assert wrapped.reply_payload_bytes() == bare.reply_payload_bytes()


def test_population_jitter_requires_rng_and_stays_in_bounds():
    spec = PopulationSpec(size=10, gap_jitter_fraction=0.25)
    with pytest.raises(ValueError, match="requires a jitter_rng"):
        ClientPopulation(_generator(), spec)
    population = ClientPopulation(_generator(), spec,
                                  jitter_rng=np.random.default_rng(9))
    gap = _generator().send_interval()
    assert gap > 0
    for _ in range(200):
        jittered = population.send_interval()
        assert gap * 0.75 <= jittered <= gap * 1.25
