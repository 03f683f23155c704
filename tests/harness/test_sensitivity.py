"""Testbed-axis sensitivity grids: ScenarioSet.product, sensitivity_sweep,
the bandwidth figure and the compare_architectures axes passthrough."""

from __future__ import annotations

import math

import pytest

from repro.amqp import AckPolicy
from repro.architectures import TestbedConfig
from repro.core import compare_architectures, figure_bandwidth_scaling
from repro.harness import (
    ExperimentConfig,
    ProcessPoolBackend,
    ScenarioSet,
    SerialBackend,
    Session,
    sensitivity_sweep,
)


def tiny_testbed(**overrides):
    params = dict(producer_nodes=4, consumer_nodes=4)
    params.update(overrides)
    return TestbedConfig(**params)


def tiny_config(**overrides):
    params = dict(
        architecture="DTS",
        workload="Dstream",
        pattern="work_sharing",
        num_producers=2,
        num_consumers=2,
        messages_per_producer=4,
        max_sim_time_s=120.0,
        testbed=tiny_testbed(),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


# ---------------------------------------------------------------------------
# ScenarioSet.product: dotted-path axes
# ---------------------------------------------------------------------------

def test_product_resolves_dotted_testbed_axes():
    scenarios = ScenarioSet.product(tiny_config(), {
        "testbed.link_bandwidth_bps": [1e9, 100e9],
        "testbed.dsn_count": [1, 3],
    })
    assert len(scenarios) == 4
    coords = [(p.config.testbed.link_bandwidth_bps,
               p.config.testbed.dsn_count) for p in scenarios]
    assert coords == [(1e9, 1), (1e9, 3), (100e9, 1), (100e9, 3)]
    # Coordinates are recorded under the axis names, dotted paths included.
    assert scenarios[0].axes == {"testbed.link_bandwidth_bps": 1e9,
                                 "testbed.dsn_count": 1}


def test_product_resolves_doubly_nested_ack_policy_axis():
    scenarios = ScenarioSet.product(tiny_config(), {
        "testbed.ack_policy.mode": ["batch", "per_message"],
    })
    modes = [p.config.testbed.ack_policy.mode for p in scenarios]
    assert modes == ["batch", "per_message"]
    # Other ack policy fields survive the nested replace.
    assert all(p.config.testbed.ack_policy.prefetch_count == 100
               for p in scenarios)


def test_product_orders_architecture_major():
    scenarios = ScenarioSet.product(tiny_config(), {
        "testbed.dsn_count": [1, 3],
        "architecture": ["DTS", "MSS"],  # listed second, still outermost
    })
    coords = [(p.label, p.config.testbed.dsn_count) for p in scenarios]
    assert coords == [("DTS", 1), ("DTS", 3), ("MSS", 1), ("MSS", 3)]


def test_product_consumers_axis_keeps_equal_producers_semantics():
    scenarios = ScenarioSet.product(tiny_config(), {"consumers": [1, 4]})
    assert [(p.config.num_consumers, p.config.num_producers)
            for p in scenarios] == [(1, 1), (4, 4)]
    fixed = ScenarioSet.product(tiny_config(), {"consumers": [1, 4]},
                                equal_producers=False)
    assert [(p.config.num_consumers, p.config.num_producers)
            for p in fixed] == [(1, 2), (4, 2)]


def test_product_consumers_axis_respects_swept_pattern():
    # The pattern axis applies before the consumer axis: broadcast points
    # keep one producer even under equal_producers.
    base = tiny_config(workload="Generic", pattern="broadcast",
                       num_producers=1, num_consumers=1)
    scenarios = ScenarioSet.product(base, {
        "pattern": ["broadcast", "broadcast_gather"],
        "consumers": [2, 4],
    })
    assert all(p.config.num_producers == 1 for p in scenarios)
    assert [p.config.num_consumers for p in scenarios] == [2, 4, 2, 4]


def test_product_architecture_axis_starts_from_clean_options():
    base = tiny_config(architecture="PRS(HAProxy)",
                       architecture_options={"num_connections": 2})
    scenarios = ScenarioSet.product(base, {
        "architecture": ["PRS(HAProxy)", "DTS"]})
    by_label = {p.label: p.config.architecture_options for p in scenarios}
    assert by_label["PRS(HAProxy)"] == {"num_connections": 2}
    assert by_label["DTS"] == {}


def test_product_rejects_unknown_axis_and_names_valid_fields():
    with pytest.raises(ValueError, match="link_bandwidth_bps"):
        ScenarioSet.product(tiny_config(),
                            {"testbed.link_bandwidth": [1e9]})
    with pytest.raises(ValueError, match="no field"):
        ScenarioSet.product(tiny_config(), {"nonsense": [1]})
    # A path descending through a non-dataclass leaf is rejected too.
    with pytest.raises(ValueError, match="plain"):
        ScenarioSet.product(tiny_config(), {"seed.subfield": [1]})


def test_product_rejects_empty_and_none_axes():
    with pytest.raises(ValueError, match="empty"):
        ScenarioSet.product(tiny_config(), {"seed": []})
    with pytest.raises(ValueError, match="None"):
        ScenarioSet.product(tiny_config(), {"seed": None})
    with pytest.raises(ValueError, match="at least one axis"):
        ScenarioSet.product(tiny_config(), {})


def test_product_points_have_distinct_cache_keys():
    scenarios = ScenarioSet.product(tiny_config(), {
        "testbed.link_bandwidth_bps": [1e9, 10e9, 100e9]})
    keys = {p.cache_key() for p in scenarios}
    assert len(keys) == 3


def test_map_configs_rewrites_configs_in_place():
    scenarios = ScenarioSet.product(tiny_config(), {"seed": [1, 2]})
    scenarios.map_configs(lambda config: config.with_consumers(4))
    assert all(p.config.num_consumers == 4 for p in scenarios)
    assert [p.axes["seed"] for p in scenarios] == [1, 2]  # axes untouched


# ---------------------------------------------------------------------------
# sensitivity_sweep
# ---------------------------------------------------------------------------

def test_sensitivity_sweep_long_format_rows():
    sweep = sensitivity_sweep(tiny_config(), {
        "architecture": ["DTS", "MSS"],
        "testbed.dsn_count": [1, 3],
    })
    assert sweep.axis_names == ("architecture", "testbed.dsn_count")
    assert sweep.axes["testbed.dsn_count"] == (1, 3)
    assert len(sweep) == 4
    rows = sweep.rows("throughput_msgs_per_s")
    assert len(rows) == 4
    assert {(row["architecture"], row["testbed.dsn_count"])
            for row in rows} == {("DTS", 1), ("DTS", 3),
                                 ("MSS", 1), ("MSS", 3)}
    assert all(row["throughput_msgs_per_s"] > 0 for row in rows
               if row["feasible"])
    # Grid positions are addressable by coordinate.
    assert sweep.get("DTS", 1) is not None
    assert sweep.get("DTS", 5) is None


def test_sensitivity_sweep_series_requires_pinning_free_axes():
    sweep = sensitivity_sweep(tiny_config(), {
        "architecture": ["DTS", "MSS"],
        "testbed.dsn_count": [1, 3],
    })
    series = sweep.series("testbed.dsn_count", architecture="DTS")
    assert [value for value, _ in series] == [1, 3]
    with pytest.raises(ValueError, match="pin"):
        sweep.series("testbed.dsn_count")
    with pytest.raises(ValueError, match="unknown axis"):
        sweep.series("nope", architecture="DTS")
    with pytest.raises(ValueError, match="unknown fixed"):
        sweep.series("testbed.dsn_count", architecure="DTS")  # typo


def test_sensitivity_sweep_pool_bit_identical_to_serial():
    axes = {"architecture": ["DTS", "MSS"],
            "testbed.link_bandwidth_bps": [1e9, 100e9]}
    serial = sensitivity_sweep(tiny_config(), axes,
                               session=Session(backend=SerialBackend()))
    pooled = sensitivity_sweep(tiny_config(), axes,
                               session=Session(backend=ProcessPoolBackend(2)))
    assert serial.rows() == pooled.rows()


def test_ack_policy_mode_changes_results():
    axes = {"testbed.ack_policy.mode": ["batch", "per_message",
                                        "fire_and_forget"]}
    sweep = sensitivity_sweep(tiny_config(messages_per_producer=8), axes)
    by_mode = {mode: sweep.get(mode).throughput_msgs_per_s
               for mode in axes["testbed.ack_policy.mode"]}
    # Per-message confirms cost a round trip per publish; batch amortizes
    # it; fire-and-forget never waits at all.
    assert by_mode["per_message"] < by_mode["batch"] <= by_mode["fire_and_forget"]


# ---------------------------------------------------------------------------
# The bandwidth-scaling figure (§6)
# ---------------------------------------------------------------------------

def test_figure_bandwidth_scaling_rows_and_speedup():
    data = figure_bandwidth_scaling(
        workload="Lstream", architectures=("DTS", "MSS"), consumers=2,
        speeds_gbps=(1, 100), messages_per_producer=4,
        testbed=tiny_testbed())
    assert data.figure == "bandwidth"
    assert len(data.rows) == 4
    assert {row["link_gbps"] for row in data.rows} == {1.0, 100.0}
    for row in data.rows:
        assert row["workload"] == "Lstream"
        assert row["consumers"] == 2
    # At the paper's operating point the speedup column is exactly 1.
    for row in data.rows:
        if row["link_gbps"] == 1.0 and row["feasible"]:
            assert row["speedup_vs_1gbps"] == pytest.approx(1.0)
    # Faster links never hurt LCLS-style streaming throughput.
    for architecture in ("DTS", "MSS"):
        slow = [r for r in data.rows if r["architecture"] == architecture
                and r["link_gbps"] == 1.0][0]
        fast = [r for r in data.rows if r["architecture"] == architecture
                and r["link_gbps"] == 100.0][0]
        assert fast["throughput_msgs_per_s"] >= slow["throughput_msgs_per_s"]


def test_figure_bandwidth_scaling_scales_backbone_with_access_links():
    data = figure_bandwidth_scaling(
        architectures=("DTS",), consumers=2, speeds_gbps=(10,),
        messages_per_producer=4, testbed=tiny_testbed())
    sweep = data.sweeps["bandwidth"]
    result = sweep.get("DTS", 10e9)
    assert result is not None
    # The sweep rescales all tiers coherently, so the recorded point ran
    # with a 20 Gbps backbone (2x) and 10 Gbps gateways (1x).
    flat = figure_bandwidth_scaling(
        architectures=("DTS",), consumers=2, speeds_gbps=(10,),
        messages_per_producer=4, testbed=tiny_testbed(),
        scale_backbone=False)
    # Without backbone scaling the 2 Gbps backbone caps the run harder.
    assert (flat.rows[0]["throughput_msgs_per_s"]
            <= data.rows[0]["throughput_msgs_per_s"])


def test_with_link_bandwidth_rescales_tiers():
    testbed = TestbedConfig().with_link_bandwidth(100e9)
    assert testbed.link_bandwidth_bps == 100e9
    assert testbed.backbone_bandwidth_bps == 200e9
    assert testbed.gateway_bandwidth_bps == 100e9
    with pytest.raises(ValueError, match="backbone"):
        TestbedConfig(backbone_bandwidth_bps=0)


# ---------------------------------------------------------------------------
# compare_architectures axes passthrough
# ---------------------------------------------------------------------------

def test_compare_architectures_axes_grid_and_rows():
    comparison = compare_architectures(
        workload="Dstream", pattern="work_sharing", consumers=2,
        architectures=["DTS", "MSS"], messages_per_producer=6,
        testbed=tiny_testbed(), axes={"testbed.dsn_count": [1, 3]})
    assert comparison.axes == {"testbed.dsn_count": (1, 3)}
    assert set(comparison.grid) == {(1,), (3,)}
    assert set(comparison.grid[(1,)]) == {"DTS", "MSS"}
    rows = comparison.rows()
    assert len(rows) == 4
    # Overheads are computed against the baseline at the same coordinate.
    for row in rows:
        assert row["testbed.dsn_count"] in (1, 3)
        if row["architecture"] == "DTS":
            assert row["throughput_overhead_vs_dts"] == 1.0
        else:
            assert (row["throughput_overhead_vs_dts"] > 1.0
                    or math.isnan(row["throughput_overhead_vs_dts"]))


def test_compare_architectures_axes_redirects_overhead_accessors():
    comparison = compare_architectures(
        workload="Dstream", pattern="work_sharing", consumers=2,
        architectures=["DTS", "MSS"], messages_per_producer=6,
        testbed=tiny_testbed(), axes={"testbed.dsn_count": [1, 3]})
    with pytest.raises(ValueError, match="per-coordinate"):
        comparison.throughput_overheads()
    with pytest.raises(ValueError, match="per-coordinate"):
        comparison.rtt_overheads()


def test_compare_architectures_axes_rejects_architecture_axis():
    with pytest.raises(ValueError, match="architecture"):
        compare_architectures(architectures=["DTS"],
                              testbed=tiny_testbed(),
                              axes={"architecture": ["MSS"]})


def test_compare_architectures_without_axes_unchanged():
    comparison = compare_architectures(
        workload="Dstream", pattern="work_sharing", consumers=2,
        architectures=["DTS", "MSS"], messages_per_producer=6,
        testbed=tiny_testbed())
    assert comparison.axes == {}
    assert set(comparison.results) == {"DTS", "MSS"}
    assert set(comparison.grid) == {()}
    assert len(comparison.rows()) == 2


# ---------------------------------------------------------------------------
# AckPolicy.mode mechanics
# ---------------------------------------------------------------------------

def test_ack_policy_effective_batches_per_mode():
    policy = AckPolicy(consumer_batch=10, publisher_batch=50)
    assert policy.effective_consumer_batch == 10
    assert policy.effective_publisher_batch == 50
    per_message = AckPolicy(consumer_batch=10, publisher_batch=50,
                            mode="per_message")
    assert per_message.effective_consumer_batch == 1
    assert per_message.effective_publisher_batch == 1
    fire = AckPolicy(publisher_batch=50, mode="fire_and_forget")
    assert fire.effective_publisher_batch == 0
    with pytest.raises(ValueError, match="ack mode"):
        AckPolicy(mode="nonsense")


def test_ack_policy_mode_round_trips_through_config_json():
    config = tiny_config(testbed=tiny_testbed(
        ack_policy=AckPolicy(mode="per_message")))
    clone = ExperimentConfig.from_json_dict(config.to_json_dict())
    assert clone == config
    assert clone.testbed.ack_policy.mode == "per_message"
