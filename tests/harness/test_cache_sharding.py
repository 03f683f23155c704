"""Sharded result-cache layout: shard files, migration, partial flushes."""

from __future__ import annotations

import glob
import json
import os
import shutil

import pytest

from repro.architectures import TestbedConfig
from repro.harness import (
    ExperimentConfig,
    ResultCache,
    ScenarioPoint,
    Session,
    code_fingerprint,
    run_scenarios,
)


def tiny_config(**overrides):
    params = dict(
        architecture="DTS",
        workload="Dstream",
        pattern="work_sharing",
        num_producers=1,
        num_consumers=1,
        messages_per_producer=3,
        max_sim_time_s=120.0,
        testbed=TestbedConfig(producer_nodes=2, consumer_nodes=2),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def distinct_prefix_points(count: int = 2) -> list[ScenarioPoint]:
    """Points whose cache keys land in different shards."""
    points: dict[str, ScenarioPoint] = {}
    seed = 1
    while len(points) < count:
        point = ScenarioPoint(config=tiny_config(seed=seed))
        points.setdefault(point.cache_key()[:2], point)
        seed += 1
    return list(points.values())


def shard_files(path: str) -> list[str]:
    return sorted(glob.glob(os.path.join(path, "??.json")))


def test_cache_writes_one_shard_per_key_prefix(tmp_path):
    path = str(tmp_path / "cache")
    points = distinct_prefix_points(2)
    run_scenarios(points, session=Session(cache=ResultCache(path)))
    assert os.path.isdir(path)
    names = {os.path.basename(f) for f in shard_files(path)}
    assert names == {f"{p.cache_key()[:2]}.json" for p in points}
    for shard in shard_files(path):
        payload = json.load(open(shard))
        assert payload["version"] == 1
        for key in payload["entries"]:
            assert f"{key[:2]}.json" == os.path.basename(shard)


def test_flush_rewrites_only_dirty_shards(tmp_path):
    path = str(tmp_path / "cache")
    first, second = distinct_prefix_points(2)
    cache = ResultCache(path)
    run_scenarios([first], session=Session(cache=cache))
    first_shard = os.path.join(path, f"{first.cache_key()[:2]}.json")
    before = os.stat(first_shard).st_mtime_ns

    run_scenarios([second], session=Session(cache=cache))
    assert os.stat(first_shard).st_mtime_ns == before  # untouched
    assert os.path.exists(os.path.join(path,
                                       f"{second.cache_key()[:2]}.json"))


def test_single_file_cache_auto_migrates(tmp_path):
    # Produce a sharded cache, then flatten it into the legacy layout.
    sharded = str(tmp_path / "sharded")
    points = distinct_prefix_points(2)
    run_scenarios(points, session=Session(cache=ResultCache(sharded)))
    entries: dict = {}
    for shard in shard_files(sharded):
        entries.update(json.load(open(shard))["entries"])

    legacy = str(tmp_path / "cache.json")
    with open(legacy, "w") as handle:
        json.dump({"version": 1, "entries": entries}, handle)

    migrated = ResultCache(legacy)
    assert os.path.isdir(legacy)  # the file became a shard directory
    assert not os.path.exists(f"{legacy}.migrating")
    assert len(migrated) == len(points)
    for point in points:
        assert point in migrated
        assert migrated.load(point) is not None
    # And the migrated cache serves a sweep without recomputation.
    outcomes = run_scenarios(points,
                             session=Session(cache=ResultCache(legacy)))
    assert all(outcome.cached for outcome in outcomes)


def test_interrupted_migration_is_recovered_on_next_open(tmp_path):
    """A crash between renaming the legacy file and writing its shards
    strands everything in <path>.migrating; the next open folds it back."""
    path = str(tmp_path / "cache")
    points = distinct_prefix_points(2)
    run_scenarios(points, session=Session(cache=ResultCache(path)))
    entries: dict = {}
    for shard in shard_files(path):
        entries.update(json.load(open(shard))["entries"])
    shutil.rmtree(path)  # shards plus their persistent .lock files
    # Simulate the crash window: backup written, no shards yet.
    with open(f"{path}.migrating", "w") as handle:
        json.dump({"version": 1, "entries": entries}, handle)

    recovered = ResultCache(path)
    assert len(recovered) == len(points)
    assert all(point in recovered for point in points)
    assert not os.path.exists(f"{path}.migrating")
    assert len(shard_files(path)) == 2  # resharded onto disk


def test_corrupt_shard_is_quarantined_not_fatal(tmp_path):
    path = str(tmp_path / "cache")
    points = distinct_prefix_points(2)
    run_scenarios(points, session=Session(cache=ResultCache(path)))
    victim, survivor = shard_files(path)
    with open(victim, "w") as handle:
        handle.write("{\"version\": 1, \"entries\": {\"trunc")

    with pytest.warns(RuntimeWarning, match="corrupt"):
        cache = ResultCache(path)
    assert len(cache) == 1  # the intact shard still loads
    assert glob.glob(f"{victim}.corrupt*")
    assert os.path.exists(survivor)


def test_unknown_shard_version_still_raises(tmp_path):
    path = str(tmp_path / "cache")
    os.makedirs(path)
    with open(os.path.join(path, "ab.json"), "w") as handle:
        json.dump({"version": 99, "entries": {}}, handle)
    with pytest.raises(ValueError, match="version"):
        ResultCache(path)


def test_stale_eviction_deletes_emptied_shard(tmp_path):
    path = str(tmp_path / "cache")
    [point] = distinct_prefix_points(1)
    run_scenarios([point], session=Session(cache=ResultCache(path)))
    [shard] = shard_files(path)
    payload = json.load(open(shard))
    for entry in payload["entries"].values():
        entry["fingerprint"] = "0" * 16
    json.dump(payload, open(shard, "w"))

    cache = ResultCache(path)
    assert cache.load(point) is None
    assert cache.stale_evicted == 1
    cache.save()
    assert shard_files(path) == []  # emptied shard removed from disk


def test_sharded_cache_resumes_interrupted_sweep(tmp_path):
    """Acceptance: a killed sweep resumes from the sharded cache,
    recomputing only the missing points."""
    path = str(tmp_path / "cache")
    points = [ScenarioPoint(config=tiny_config(seed=seed))
              for seed in (1, 2, 3, 4)]

    completed = {"count": 0}

    def interrupt_after_two(point):
        if completed["count"] >= 2:
            raise KeyboardInterrupt
        completed["count"] += 1

    with pytest.raises(KeyboardInterrupt):
        run_scenarios(points, session=Session(
                          cache=ResultCache(path, autosave_min_s=0.0)),
                      progress=interrupt_after_two)

    on_disk = ResultCache(path)
    cached_before = {p.cache_key() for p in points if p in on_disk}
    assert 0 < len(cached_before) < len(points)

    outcomes = run_scenarios(points, session=Session(cache=ResultCache(path)))
    assert [outcome.cached for outcome in outcomes] == [
        point.cache_key() in cached_before for point in points]
    resumed = ResultCache(path)
    assert all(point in resumed for point in points)
    # Every entry carries the current fingerprint.
    for shard in shard_files(path):
        for entry in json.load(open(shard))["entries"].values():
            assert entry["fingerprint"] == code_fingerprint()
