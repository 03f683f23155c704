"""Cross-backend determinism matrix.

Every scenario set (grid, consumer_sweep, deployments, contended), run under
SerialBackend, ProcessPoolBackend(jobs=2) and ThreadPoolBackend(jobs=2),
must produce byte-identical JSON payloads: each simulation derives all of
its randomness from the point's config, never from process, thread or
scheduling state.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.architectures import TestbedConfig
from repro.harness import (
    ExperimentConfig,
    ProcessPoolBackend,
    ScenarioSet,
    SerialBackend,
    Session,
    ThreadPoolBackend,
    run_scenarios,
)


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


def _contended_set():
    """Queued resource grants, broker replies and broker failover.

    Four producers and four consumers share the broker path, so link,
    node, load-balancer and proxy grants queue; broadcast-gather fans each
    message out to every consumer; the last point kills a broker.  Every
    point stays below the 100-message prefetch window.
    """
    feedback = tiny_config(pattern="work_sharing_feedback", num_producers=4,
                           num_consumers=4, messages_per_producer=8)
    gather = tiny_config(pattern="broadcast_gather", num_producers=1,
                         num_consumers=4, messages_per_producer=8)
    architectures = ["MSS", "PRS(HAProxy)"]
    scenarios = ScenarioSet.product(feedback,
                                    {"architecture": architectures})
    scenarios.extend(ScenarioSet.product(gather,
                                         {"architecture": architectures}))
    return scenarios.extend(ScenarioSet.product(
        feedback, {"architecture": ["MSS"],
                   "faults.broker_kill_rate": [1.0]}))


def _scenario_sets():
    base = tiny_config()
    return {
        "grid": ScenarioSet.grid(
            base, architectures=["DTS", "MSS"],
            workloads=["Dstream", "Lstream"], seeds=[1, 2]),
        "consumer_sweep": ScenarioSet.consumer_sweep(
            base, architectures=["DTS", "PRS(HAProxy)"],
            consumer_counts=[1, 2, 4]),
        "deployments": ScenarioSet.deployments(
            ["DTS", "PRS(HAProxy)", "MSS"], base),
        "contended": _contended_set(),
    }


def _payloads(outcomes) -> list[str]:
    payloads = []
    for outcome in outcomes:
        if outcome.point.kind == "deployment":
            payloads.append(json.dumps(outcome.result.as_row(),
                                       sort_keys=True, default=str))
        else:
            payloads.append(json.dumps(outcome.result.to_json_dict(),
                                       sort_keys=True))
    return payloads


#: sha256 over the newline-joined serial JSON payloads of each scenario
#: set, recorded with the *pre-fast-kernel* engine (PR 4 tree).  The
#: fast-kernel optimizations (single-callback events, zero-delay lanes,
#: timeout freelist, array('d') metrics buffers, batched jitter draws)
#: must reproduce these bytes exactly.  ``contended`` was recorded with
#: the engine that still scheduled an event for every resource grant, so
#: it certifies queued grants and failover under the in-place idle grant.
#: Regenerate only for a deliberate semantic change:
#:
#:     payloads = _payloads(run_scenarios(
#:         scenarios, session=Session(backend=SerialBackend())))
#:     hashlib.sha256("\n".join(payloads).encode()).hexdigest()
GOLDEN_DIGESTS = {
    "grid":
        "78ed798f48f612330d154c5086c3729f2d8c06c90d631ccbabeb1168c55285c6",
    "consumer_sweep":
        "7c229b6c767bf3ecbd1467953e6ceff6bd4af5b8f1cca97b5a14faad4a530c36",
    "deployments":
        "07f6c84df873bad3003304ad726514e1e11a28bb7891212ee5b345b3e606fff2",
    "contended":
        "a4d16d69fb8800dcc423d240de6717a83b8492a2109a9671c928ebe98366130b",
}


@pytest.mark.parametrize("parallel_backend", [
    lambda: ProcessPoolBackend(2),
    lambda: ThreadPoolBackend(2),
], ids=["process", "thread"])
@pytest.mark.parametrize("constructor", ["grid", "consumer_sweep",
                                         "deployments", "contended"])
def test_parallel_payloads_byte_identical_to_serial(constructor,
                                                    parallel_backend):
    scenarios = _scenario_sets()[constructor]
    serial = run_scenarios(scenarios, session=Session(backend=SerialBackend()))
    parallel = run_scenarios(scenarios,
                             session=Session(backend=parallel_backend()))
    assert _payloads(serial) == _payloads(parallel)
    # Ordering survives the pool's out-of-order completion too.
    assert ([o.point.cache_key() for o in serial]
            == [o.point.cache_key() for o in parallel])


@pytest.mark.parametrize("constructor", ["grid", "consumer_sweep",
                                         "deployments", "contended"])
def test_fast_kernel_payloads_match_pre_optimization_golden(constructor):
    """The optimized kernel reproduces the pre-optimization results
    byte-for-byte (see GOLDEN_DIGESTS for the recording recipe)."""
    scenarios = _scenario_sets()[constructor]
    payloads = _payloads(run_scenarios(
        scenarios, session=Session(backend=SerialBackend())))
    digest = hashlib.sha256("\n".join(payloads).encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[constructor]
