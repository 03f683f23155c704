#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``repro-streamsim`` sweeps.

Usage (from the repository root)::

    python3 sweepbench/run.py --workload hop_chain --seed 1 --seconds 18

Every workload runs one scenario grid through the public
``Session(backend="serial").run(...)`` path in this process.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics from a separately instrumented run.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a JSON detail record: the rows digest of the
simulated statistics, every raw CPU and reference-kernel timing, and the
reason for every point that did not complete.  ``README.md`` next to this
file defines each metric; ``BENCHMARK.json`` at the root lists them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for result caches; removed when the run ends.
WORK = os.path.join(ROOT, ".sweepbench-work")

#: Fresh-interpreter set-ups measured per run (end-to-end / traced).
SETUP_LAUNCHES = 7
TRACED_SETUP_LAUNCHES = 3
#: Fewest timed passes a run takes, however long they last.
MIN_PASSES = 5
#: Wall seconds between two interleaved reference-kernel calls.
INTERLEAVE_PERIOD_S = 0.05


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


median = statistics.median


class Sweep:
    """One workload's grid, its passes through ``Session.run`` and the
    output checks every pass goes through."""

    def __init__(self, name: str, seed: int) -> None:
        import workloads

        self.name = name
        self.grid = workloads.build(name, seed)
        self.cached = name in workloads.CACHED
        self.passes = 0
        #: Per-point sha256 of the reference pass's rows.
        self.reference: list[str] | None = None
        #: Per-point reason the point did not complete or failed a check.
        self.reasons: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.messages = 0
        #: Bytes of result-cache shards the last filling pass wrote.
        self.cache_bytes = 0
        self.replay_cache = os.path.join(WORK, "replay-cache")

    def run(self, interleaver: "Interleaver | None" = None) -> float:
        """One checked pass; returns its CPU seconds from session open to
        close, less the time of kernel calls ``interleaver`` made inside."""
        from repro.harness import ExecutionPolicy, Session

        if self.name == "cache_replay":
            cache = self.replay_cache
        elif self.cached:
            cache = os.path.join(WORK, f"fill-{self.passes}")
        else:
            cache = None
        self.passes += 1
        gc.collect()
        with (interleaver.active() if interleaver is not None
              else nullcontext()):
            started = time.process_time()
            with Session(backend="serial", cache=cache,
                         policy=ExecutionPolicy(on_error="record")
                         ) as session:
                outcomes = session.run(self.grid)
            elapsed = time.process_time() - started
        if interleaver is not None:
            elapsed -= interleaver.inside
        self.check(outcomes)
        if cache is not None and cache != self.replay_cache:
            self.cache_bytes = _tree_bytes(cache)
            shutil.rmtree(cache)
        return elapsed

    def fill_replay_cache(self) -> None:
        """Set-up of ``cache_replay``: simulate the grid into the cache; its
        rows are the ones every replay must reproduce byte for byte."""
        from repro.harness import ExecutionPolicy, Session

        with Session(backend="serial", cache=self.replay_cache,
                     policy=ExecutionPolicy(on_error="record")) as session:
            self.check(session.run(self.grid))

    # -- output checks -------------------------------------------------------
    def check(self, outcomes) -> None:
        self.attempted += len(self.grid)
        if len(outcomes) != len(self.grid):
            self.failed += len(self.grid)
            self.reasons[-1] = (f"a pass returned {len(outcomes)} of "
                                f"{len(self.grid)} points")
            return
        rows = [_row_digest(outcome) for outcome in outcomes]
        if self.reference is None:
            self.reference = rows
            self.messages = sum(_delivered(outcome) for outcome in outcomes)
        mismatch = ("replay-mismatch: rows differ from the rows the cache "
                    "fill produced" if self.name == "cache_replay" else
                    "nondeterministic: rows differ from the first pass")
        for index, outcome in enumerate(outcomes):
            reason = None
            if not outcome.ok:
                reason = "exception: " + outcome.error.strip().splitlines()[-1]
            elif rows[index] != self.reference[index]:
                reason = mismatch
            if reason is not None:
                self.failed += 1
                self.reasons[index] = reason
            elif index not in self.reasons:
                stall = _stall_reason(outcome)
                if stall is not None:
                    self.reasons[index] = stall

    @property
    def completed_share(self) -> float:
        """Points that met their targets and passed every check."""
        if -1 in self.reasons:
            return 0.0
        return 1 - len(self.reasons) / len(self.grid)

    @property
    def rows_sha256(self) -> str:
        return hashlib.sha256("".join(self.reference or []).encode()
                              ).hexdigest()

    def describe_reasons(self) -> list[dict]:
        described = []
        for index, reason in sorted(self.reasons.items()):
            point = ({} if index < 0 else
                     {key: value for key, value
                      in self.grid[index].describe().items()
                      if key not in ("kind", "label")})
            described.append({"point": point, "reason": reason})
        return described


def _row_digest(outcome) -> str:
    payload = {"point": outcome.point.describe(),
               "result": (outcome.result.to_json_dict() if outcome.ok
                          else None)}
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str)
                          .encode()).hexdigest()


def _delivered(outcome) -> int:
    if not outcome.ok:
        return 0
    return sum(run.consumed for run in outcome.result.runs)


def _stall_reason(outcome) -> str | None:
    """Why a point's simulation missed its coordinator targets, if it did."""
    from repro.patterns import make_pattern

    config = outcome.point.config
    for run in outcome.result.runs:
        if run.completed:
            continue
        fired = (run.extra.get("faults") or {}).get("fired", {})
        if fired.get("broker_kill"):
            return (f"loss: {run.published - run.consumed} of "
                    f"{run.published} published messages never delivered "
                    f"after {fired['broker_kill']} broker kill(s) "
                    f"(failed_publishes={run.failed_publishes}); ran to "
                    f"max_sim_time_s={config.max_sim_time_s}")
        expected = make_pattern(config.pattern).expected_consumed(config)
        return (f"stall: consumed {run.consumed} of {expected} expected "
                f"deliveries (replies {run.replies}) with no fault fired; "
                f"ran to max_sim_time_s={config.max_sim_time_s}")
    return None


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for directory, _, names in os.walk(path)
               for name in names if name.endswith(".json"))


class Interleaver:
    """Reference-kernel calls interleaved with the timed work.

    While active, a wall-clock timer signal runs one kernel call every
    ``INTERLEAVE_PERIOD_S``, wherever the sweep is, so the kernel samples
    the host's speed throughout a pass; :attr:`inside` is the kernel time
    to subtract from the pass.  (A CPU-time timer would do, but arming one
    makes Linux report process CPU time in whole scheduler ticks.)
    """

    def __init__(self) -> None:
        from refkernel import time_reference

        self._time_reference = time_reference
        self.samples: list[float] = []
        self.inside = 0.0
        self._busy = False

    def call(self) -> float:
        elapsed = self._time_reference()
        self.samples.append(elapsed)
        return elapsed

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:  # a late tick must not nest kernel calls
            self._busy = True
            try:
                self.inside += self.call()
            finally:
                self._busy = False

    @contextmanager
    def active(self):
        self.inside = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERLEAVE_PERIOD_S,
                         INTERLEAVE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, launches: int) -> dict:
    """Launch fresh interpreters that import repro and build the grid.

    Set-up times are raw CPU seconds (medians over the launches).  Scaling
    them by the reference kernel was measured to widen their spread, not
    narrow it: a launch's CPU time moves with only ~0.4 of the kernel's
    swings (start-up, compilation, file reads), so the kernel timings after
    each launch are recorded for auditing and not applied.
    """
    from refkernel import time_reference

    command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               workload, str(seed)]
    cpu, references, phases = [], [], []
    for _ in range(launches):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=120, check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu.append((after.ru_utime - before.ru_utime)
                   + (after.ru_stime - before.ru_stime))
        references.append(time_reference())
        phases.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": median(cpu),
        "import_ms": 1e3 * median(p["import_s"] for p in phases),
        "grid_build_ms": 1e3 * median(p["grid_s"] for p in phases),
        "raw": {"cpu_s": cpu, "reference_s": references, "phases": phases},
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def timed_passes(sweep: Sweep, seconds: float, *, spans=None) -> list[dict]:
    """Passes for ``seconds`` of wall time, each normalised by the kernel
    calls made around and (untraced) inside it.  With ``spans`` (a
    probe.Spans) traced and untraced passes alternate and no kernel call
    runs inside a pass, where it would land in a span."""
    interleaver = Interleaver()
    passes = []
    deadline = time.perf_counter() + seconds
    if not sweep.passes:
        sweep.run()  # warm-up inside the window: lazy imports, reference rows
    interleaver.call()
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        first = len(interleaver.samples) - 1
        recorded = None
        if spans is None:
            cpu = sweep.run(interleaver)
        elif len(passes) % 2:
            spans.reset()
            with spans.installed():
                cpu = sweep.run()
            recorded = dict(spans.self_s)
        else:
            cpu = sweep.run()
        interleaver.call()
        samples = interleaver.samples[first:]
        passes.append({"cpu_s": cpu,
                       "reference_s": statistics.mean(samples),
                       "reference_calls": len(samples),
                       "spans": recorded})
    return passes


def end_to_end(sweep: Sweep, args) -> tuple[dict, dict]:
    import probe
    from refkernel import REFERENCE_SECONDS

    counters = probe.Counters()
    if sweep.name == "cache_replay":
        with counters.installed():
            sweep.fill_replay_cache()
    setup = measure_setup(args.workload, args.seed, SETUP_LAUNCHES)
    passes = timed_passes(sweep, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with counters.installed():
        calls, _ = probe.profile_layers(sweep.run)
    normalised = median([p["cpu_s"] / p["reference_s"] for p in passes])
    msgs = sweep.messages
    metrics = {
        "sim_msgs_per_s": (msgs / (normalised * REFERENCE_SECONDS), "msg/s"),
        "setup_s": (setup["setup_s"], "s"),
        "events_per_msg": (counters.counts["events"] / msgs, "events/msg"),
        "calls_per_msg": (sum(calls.values()) / msgs, "calls/msg"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "completed_share": (sweep.completed_share, "share"),
    }
    detail = {"setup": setup["raw"],
              "passes": [{key: p[key] for key in
                          ("cpu_s", "reference_s", "reference_calls")}
                         for p in passes],
              "counters": counters.counts}
    return metrics, detail


def per_layer(sweep: Sweep, args) -> tuple[dict, dict]:
    import probe
    from refkernel import REFERENCE_SECONDS

    if sweep.name == "cache_replay":
        sweep.fill_replay_cache()
    sweep.run()  # warm-up: lazy imports, and the reference rows
    setup = measure_setup(args.workload, args.seed, TRACED_SETUP_LAUNCHES)
    counters = probe.Counters()
    with counters.installed():
        calls, self_s = probe.profile_layers(sweep.run)
    cache_bytes = sweep.cache_bytes if sweep.name == "grid_fill" else 0
    spans = probe.Spans()
    passes = timed_passes(sweep, args.seconds, spans=spans)

    msgs, points = sweep.messages, len(sweep.grid)
    counts = counters.counts
    total_self = sum(self_s.values())
    metrics = {}
    for layer in probe.LAYERS:
        metrics[f"{layer}.calls_per_msg"] = (calls[layer] / msgs, "calls/msg")
        metrics[f"{layer}.self_share"] = (self_s[layer] / total_self, "share")
    for name, counter in (
            ("netsim.link_traversals_per_msg", "link_traversals"),
            ("netsim.node_traversals_per_msg", "node_traversals"),
            ("netsim.wire_bytes_per_msg", "wire_bytes"),
            ("simkit.resource_requests_per_msg", "resource_requests"),
            ("amqp.publishes_per_msg", "queue_publishes"),
            ("amqp.relays_per_msg", "relays"),
            ("amqp.acks_per_msg", "acks")):
        metrics[name] = (counts[counter] / msgs, "count/msg")

    traced = [p for p in passes if p["spans"] is not None]

    def span_s(name: str) -> float:
        """Median normalised self seconds of one span per pass."""
        return median([p["spans"][name] * REFERENCE_SECONDS
                       / p["reference_s"] for p in traced])

    metrics["metrics.reduce_ms_per_point"] = (
        1e3 * span_s("reduce") / points, "ms")
    metrics["architectures.deploy_ms_per_point"] = (
        1e3 * span_s("deploy") / points, "ms")
    metrics["harness.cache_write_ms_per_point"] = (
        1e3 * span_s("cache_write") / points, "ms")
    metrics["harness.cache_bytes_written_per_point"] = (
        cache_bytes / points, "B")
    metrics["harness.cache_open_ms"] = (1e3 * span_s("cache_open"), "ms")
    metrics["harness.cache_read_us_per_point"] = (
        1e6 * span_s("cache_read") / points, "us")
    metrics["harness.key_us_per_point"] = (
        1e6 * span_s("cache_key") / points, "us")
    metrics["setup.import_ms"] = (setup["import_ms"], "ms")
    metrics["setup.grid_build_ms"] = (setup["grid_build_ms"], "ms")
    for name in probe.SPANS:
        metrics[f"span.{name}.self_share"] = (median([
            p["spans"][name] / sum(p["spans"].values()) for p in traced
        ]), "share")
    # Each traced pass against the untraced pass right before it, so host
    # drift largely cancels.
    metrics["trace.overhead"] = (median([
        passes[index]["cpu_s"] / passes[index - 1]["cpu_s"]
        for index in range(1, len(passes))
        if passes[index]["spans"] is not None]), "ratio")
    detail = {"setup": setup["raw"], "counters": counts,
              "layer_calls": calls,
              "passes": [{"cpu_s": p["cpu_s"],
                          "reference_s": p["reference_s"],
                          "traced": p["spans"] is not None}
                         for p in passes]}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"sweepbench: no repro sources under {SRC}; run from the "
              f"root of a repro-streamsim checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("sweepbench: --seconds must be positive and --seed "
              "non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from refkernel import REFERENCE_SECONDS

    if args.workload not in workloads.WORKLOADS:
        print(f"sweepbench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        sweep = Sweep(args.workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(sweep, args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    for entry in sweep.describe_reasons():
        print(f"point {json.dumps(entry['point'], sort_keys=True)}: "
              f"{entry['reason']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "points": len(sweep.grid),
                      "delivered_msgs": sweep.messages,
                      "rows_sha256": sweep.rows_sha256,
                      "reference_seconds": REFERENCE_SECONDS,
                      "incomplete": sweep.describe_reasons(), **detail}))
    print(json.dumps({
        "correct": sweep.failed == 0,
        "attempted": sweep.attempted,
        "failed": sweep.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
