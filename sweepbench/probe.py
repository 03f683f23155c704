"""Outside-in instrumentation of ``repro``: counters, spans and profiles.

Nothing here edits the program.  Each instrument temporarily replaces a
public entry point (a class or module attribute) with a wrapper and puts
the original back on exit, so untimed counting passes and traced
repetitions run instrumented code while the timed repetitions run the
program exactly as users do.

* :class:`Counters` — exact work counts for one pass: simkit events
  scheduled (``Environment._eid``), link and node traversals, resource
  requests, ``Message.wire_bytes`` evaluations and the AMQP queue
  publishes, inter-broker relays and acks.
* :class:`Spans` — self time per layer boundary.  A span's self time is its
  duration minus the time of the spans nested inside it.
* :func:`profile_layers` — ``cProfile`` calls and self time grouped by
  layer: the ``repro`` packages (``harness`` split by module), plus
  ``builtins``, ``stdlib``, ``numpy`` and ``generated`` (methods that
  ``dataclasses`` compiles at import time).
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import repro
from repro.amqp.cluster import BrokerCluster
from repro.amqp.queue import ClassicQueue
from repro.architectures.testbed import Testbed
from repro.harness import cache as cache_module
from repro.harness import experiment as experiment_module
from repro.harness import results as results_module
from repro.harness.experiment import Experiment
from repro.harness.runner import ScenarioPoint
from repro.harness.session import Session
from repro.netsim.link import Link
from repro.netsim.message import Message
from repro.netsim.node import NetworkNode
from repro.simkit import Environment
from repro.simkit.resources import PriorityResource, Resource

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: Every layer ``profile_layers`` reports, in report order.
LAYERS = (
    "simkit", "netsim", "cluster", "amqp", "scistream", "architectures",
    "workloads", "patterns", "metrics", "faults",
    "harness.runner", "harness.session", "harness.cache",
    "harness.experiment", "harness.coordinator", "harness.results",
    "harness.config", "harness.other", "core",
    "builtins", "stdlib", "numpy", "generated",
)

#: Span names recorded by :class:`Spans`.
SPANS = ("session", "cache_open", "cache_read", "cache_write", "cache_key",
         "experiment", "deploy", "simulate", "reduce")


@contextmanager
def patched(replacements: list[tuple[object, str, object]]) -> Iterator[None]:
    """Set ``owner.name = value`` for each triple; restore on exit."""
    saved = [(owner, name, owner.__dict__[name])
             for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class Counters:
    """Exact work counts of the passes run inside :meth:`installed`."""

    NAMES = ("events", "link_traversals", "node_traversals",
             "resource_requests", "wire_bytes", "queue_publishes",
             "relays", "acks")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.NAMES, 0)

    # The wrappers call nothing but the wrapped function (no builtins), so
    # a profile taken while they are installed counts the program's calls
    # exactly; their own frames are excluded by ``profile_layers``.
    def _counting(self, name: str, function: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Counters"]:
        counts = self.counts
        env_run = Environment.run
        run_single = Experiment.run_single
        relay = BrokerCluster._relay
        wire_bytes = Message.__dict__["wire_bytes"].fget
        # Environment._eid already counted per environment of the current
        # run; events scheduled between two Environment.run calls are
        # picked up by the next one.
        seen = [{}]

        def counted_env_run(env, *args, **kwargs):
            try:
                return env_run(env, *args, **kwargs)
            finally:
                try:
                    before = seen[0][env]
                except KeyError:
                    before = 0
                counts["events"] += env._eid - before
                seen[0][env] = env._eid

        def counted_run_single(experiment, *args, **kwargs):
            try:
                return run_single(experiment, *args, **kwargs)
            finally:
                seen[0] = {}

        def counted_relay(cluster, src, dst, message):
            if src is not dst:
                counts["relays"] += 1
            return relay(cluster, src, dst, message)

        with patched([
                (Environment, "run", counted_env_run),
                (Experiment, "run_single", counted_run_single),
                (Link, "traverse",
                 self._counting("link_traversals", Link.traverse)),
                (NetworkNode, "traverse",
                 self._counting("node_traversals", NetworkNode.traverse)),
                (Resource, "request",
                 self._counting("resource_requests", Resource.request)),
                (PriorityResource, "request",
                 self._counting("resource_requests",
                                PriorityResource.request)),
                (Message, "wire_bytes",
                 property(self._counting("wire_bytes", wire_bytes))),
                (ClassicQueue, "publish",
                 self._counting("queue_publishes", ClassicQueue.publish)),
                (ClassicQueue, "ack",
                 self._counting("acks", ClassicQueue.ack)),
                (BrokerCluster, "_relay", counted_relay)]):
            yield self


class Spans:
    """Self CPU seconds per span of the passes run while installed."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self._stack: list[list] = []
        self._deploy_pending = False

    def reset(self) -> None:
        self.self_s = dict.fromkeys(SPANS, 0.0)

    def _enter(self, name: str) -> list:
        frame = [name, time.process_time(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        name, started, children = frame
        elapsed = time.process_time() - started
        self._stack.pop()
        self.self_s[name] += elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed

    def _span(self, name: str, function: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._exit(frame)
        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Spans"]:
        env_run = Environment.run
        run_single = Experiment.run_single
        cache_class = cache_module.ResultCache

        def traced_run_single(experiment, *args, **kwargs):
            # The first Environment.run of a run deploys the architecture.
            self._deploy_pending = True
            frame = self._enter("experiment")
            try:
                return run_single(experiment, *args, **kwargs)
            finally:
                self._exit(frame)

        def traced_env_run(env, *args, **kwargs):
            name = "deploy" if self._deploy_pending else "simulate"
            self._deploy_pending = False
            frame = self._enter(name)
            try:
                return env_run(env, *args, **kwargs)
            finally:
                self._exit(frame)

        span = self._span
        with patched([
                (Session, "run", span("session", Session.run)),
                (cache_class, "__init__",
                 span("cache_open", cache_class.__init__)),
                (cache_class, "load", span("cache_read", cache_class.load)),
                (cache_class, "store", span("cache_write", cache_class.store)),
                (cache_class, "save", span("cache_write", cache_class.save)),
                (ScenarioPoint, "cache_key",
                 span("cache_key", ScenarioPoint.cache_key)),
                (Experiment, "run_single", traced_run_single),
                (Testbed, "__init__", span("deploy", Testbed.__init__)),
                (Environment, "run", traced_env_run),
                (experiment_module, "compute_throughput",
                 span("reduce", experiment_module.compute_throughput)),
                (experiment_module, "compute_rtt",
                 span("reduce", experiment_module.compute_rtt)),
                (results_module, "compute_rtt",
                 span("reduce", results_module.compute_rtt))]):
            yield self


def _layer_of(filename: str, function: str) -> str | None:
    """The layer a profiled function belongs to (None: the benchmark's own)."""
    if filename == "~":
        return "numpy" if "numpy" in function else "builtins"
    if filename.startswith("<frozen"):
        return "stdlib"
    if filename.startswith("<"):
        return "generated"
    path = os.path.abspath(filename)
    if path.startswith(REPRO_ROOT + os.sep):
        parts = os.path.relpath(path, REPRO_ROOT).split(os.sep)
        if parts[0] == "harness":
            module = f"harness.{os.path.splitext(parts[-1])[0]}"
            return module if module in LAYERS else "harness.other"
        return parts[0] if parts[0] in LAYERS else "core"
    if f"{os.sep}numpy{os.sep}" in path:
        return "numpy"
    if path.startswith(os.path.dirname(os.path.abspath(__file__)) + os.sep):
        return None
    return "stdlib"


def profile_layers(work: Callable[[], object]) -> tuple[dict, dict]:
    """Run ``work`` under cProfile: (calls, self seconds) per layer."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        work()
    finally:
        profiler.disable()
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, function), (_primitive, total, tottime, _cum,
                                      _callers) in (
            pstats.Stats(profiler).stats.items()):
        layer = _layer_of(filename, function)
        if layer is None:
            continue
        calls[layer] += total
        self_s[layer] += tottime
    return calls, self_s
