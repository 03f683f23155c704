"""Unit tests for the simkit hot-path machinery.

Covers the invariants the fast-kernel overhaul must preserve:

* the zero-delay FIFO lanes merge with the time heap in exact
  ``(time, priority, eid)`` order (bit-identical to an all-heap schedule),
* processed value-less timeouts are recycled through the freelist, and
  everything that may legitimately re-inspect a timeout (conditions,
  ``run(until=...)``, value-carrying timeouts) is pinned out of it,
* ``Event.trigger`` validates both endpoints of the chain,
* the single-callback slot upgrades to a list transparently,
* a request for an idle resource unit is granted in place (no event id, no
  lane entry), while a request that queues is still granted by a scheduled
  event.
"""

from __future__ import annotations

import pytest

from repro.simkit import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    PriorityResource,
    Resource,
    SchedulingError,
)
from repro.simkit.core import Event, Timeout, _TIMEOUT_FREELIST_MAX


# ---------------------------------------------------------------------------
# Zero-delay lane ordering vs heap ordering
# ---------------------------------------------------------------------------

def test_lane_event_runs_after_older_heap_event_at_same_time():
    """A zero-delay event scheduled *at* t must not overtake a heap entry
    that was scheduled earlier (smaller eid) and lands at the same t."""
    env = Environment()
    order = []

    def first(env):
        yield env.timeout(1.0)  # scheduled first -> smaller eid
        order.append("first")
        # Now at t=1.0: a zero-delay event goes onto the lane with a large
        # eid, while `second`'s resume still sits in the heap with a
        # smaller one.
        done = env.event()
        done.add_callback(lambda event: order.append("lane"))
        done.succeed()

    def second(env):
        yield env.timeout(1.0)  # scheduled second, same trigger time
        order.append("second")

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert order == ["first", "second", "lane"]


def test_urgent_lane_beats_older_normal_lane_entries():
    """Urgent zero-delay events (process starts, interrupts) run before
    normal zero-delay events queued earlier at the same instant."""
    env = Environment()
    order = []

    def starter(env):
        yield env.timeout(1.0)
        # Normal-priority zero-delay event first (smaller eid)...
        normal = env.event()
        normal.add_callback(lambda event: order.append("normal"))
        normal.succeed()
        # ...then a process start, which schedules an *urgent* event.
        env.process(child(env))

    def child(env):
        order.append("urgent-start")
        yield env.timeout(0)

    env.process(starter(env))
    env.run()
    assert order[:2] == ["urgent-start", "normal"]


def test_zero_delay_events_preserve_fifo_order():
    env = Environment()
    order = []

    def make(tag):
        def proc(env):
            yield env.timeout(0)
            order.append(tag)
        return proc

    for tag in range(8):
        env.process(make(tag)(env))
    env.run()
    assert order == list(range(8))


def test_peek_sees_lane_entries_at_current_time():
    env = Environment(initial_time=3.0)
    env.timeout(5.0)
    assert env.peek() == 8.0
    env.event().succeed()  # zero-delay lane entry at t=3.0
    assert env.peek() == 3.0


def test_step_drains_lanes_and_heap_in_key_order():
    env = Environment()
    t = env.timeout(0.5)
    zero = env.timeout(0)
    # Manual stepping: the zero-delay lane entry precedes the heap entry.
    env.step()
    assert zero.processed and not t.processed
    env.step()
    assert t.processed
    with pytest.raises(IndexError):
        env.step()


# ---------------------------------------------------------------------------
# Timeout freelist
# ---------------------------------------------------------------------------

def test_processed_timeout_is_recycled():
    env = Environment()
    t1 = env.timeout(0.5)
    env.run()
    # Reuse-after-processed invariant: the old reference still reads as a
    # processed, successful, value-less timeout while it sits in the pool.
    assert t1.processed and t1.ok and t1.value is None
    t2 = env.timeout(0.25)
    assert t2 is t1
    assert t2.triggered and not t2.processed
    assert t2.delay == 0.25
    env.run()
    assert t2.processed


def test_recycled_timeout_resumes_a_fresh_waiter():
    env = Environment()
    times = []

    def sleeper(env, delay):
        yield env.timeout(delay)
        times.append(env.now)

    env.process(sleeper(env, 1.0))
    env.run()
    env.process(sleeper(env, 2.0))
    env.run()
    assert times == [1.0, 3.0]


def test_condition_watched_timeout_is_pinned():
    env = Environment()
    t1 = env.timeout(1.0)
    AllOf(env, [t1])
    env.run()
    assert env.timeout(1.0) is not t1
    # The condition may read the child's value long after processing.
    assert t1.value is None and t1.ok


def test_anyof_loser_timeout_is_pinned():
    env = Environment()
    winner = env.timeout(1.0)
    loser = env.timeout(5.0)
    AnyOf(env, [winner, loser])
    env.run()
    assert env.timeout(1.0) is not winner
    assert env.timeout(5.0) is not loser


def test_value_carrying_timeout_is_not_recycled():
    env = Environment()
    t1 = env.timeout(1.0, value="payload")
    env.run()
    t2 = env.timeout(1.0)
    assert t2 is not t1
    assert t1.value == "payload"


def test_run_until_timeout_is_pinned():
    env = Environment()
    deadline = env.timeout(1.0)
    env.run(until=deadline)
    assert env.timeout(1.0) is not deadline


def test_freelist_is_bounded():
    env = Environment()
    for _ in range(3 * _TIMEOUT_FREELIST_MAX):
        env.timeout(0.001)
    env.run()
    assert len(env._timeout_free) <= _TIMEOUT_FREELIST_MAX


def test_negative_delay_still_rejected_with_warm_freelist():
    env = Environment()
    env.timeout(0.1)
    env.run()  # freelist now warm
    with pytest.raises(SchedulingError):
        env.timeout(-0.5)


# ---------------------------------------------------------------------------
# Event.trigger validation
# ---------------------------------------------------------------------------

def test_trigger_requires_triggered_source():
    env = Environment()
    source = env.event()
    target = env.event()
    with pytest.raises(SchedulingError, match="not been triggered"):
        target.trigger(source)
    assert not target.triggered


def test_trigger_rejects_already_triggered_target():
    env = Environment()
    source = env.event().succeed("x")
    target = env.event().succeed("y")
    with pytest.raises(SchedulingError, match="already been triggered"):
        target.trigger(source)
    assert target.value == "y"


def test_trigger_chains_success_state():
    env = Environment()
    source = env.event().succeed(41)
    target = env.event()
    target.trigger(source)
    env.run()
    assert target.ok and target.value == 41


def test_trigger_chains_failure_state():
    env = Environment()
    source = env.event()
    source.fail(ValueError("boom"))
    source.defuse()
    target = env.event()
    target.trigger(source)
    target.defuse()
    env.run()
    assert not target.ok and isinstance(target.value, ValueError)


# ---------------------------------------------------------------------------
# Single-callback slot
# ---------------------------------------------------------------------------

def test_callbacks_property_upgrades_scalar_slot():
    env = Environment()
    event = env.event()
    seen = []
    event.add_callback(lambda e: seen.append("a"))
    # Property access materialises the list view; registration order holds.
    event.callbacks.append(lambda e: seen.append("b"))
    event.add_callback(lambda e: seen.append("c"))
    event.succeed()
    env.run()
    assert seen == ["a", "b", "c"]


def test_callbacks_property_is_none_once_processed():
    env = Environment()
    event = env.event().succeed()
    env.run()
    assert event.processed
    assert event.callbacks is None
    with pytest.raises(SchedulingError):
        event.add_callback(lambda e: None)


def test_remove_callback_on_scalar_and_list_slots():
    env = Environment()
    seen = []

    def cb_a(event):
        seen.append("a")

    def cb_b(event):
        seen.append("b")

    scalar = env.event()
    scalar.add_callback(cb_a)
    scalar.remove_callback(cb_a)
    scalar.succeed()

    upgraded = env.event()
    upgraded.add_callback(cb_a)
    upgraded.add_callback(cb_b)
    upgraded.remove_callback(cb_a)
    upgraded.remove_callback(cb_a)  # no-op
    upgraded.succeed()

    env.run()
    assert seen == ["b"]


def test_multiple_waiters_on_one_event_all_resume():
    env = Environment()
    resumed = []

    def waiter(env, tag, gate):
        yield gate
        resumed.append(tag)

    gate = env.event()
    for tag in range(3):
        env.process(waiter(env, tag, gate))

    def opener(env, gate):
        yield env.timeout(1.0)
        gate.succeed()

    env.process(opener(env, gate))
    env.run()
    assert resumed == [0, 1, 2]


# ---------------------------------------------------------------------------
# In-place grants of idle resource units
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("resource_cls", [Resource, PriorityResource])
def test_idle_request_is_processed_without_an_event(resource_cls):
    env = Environment()
    res = resource_cls(env, capacity=2)
    before = env._eid
    first = res.request()
    second = res.request()
    for req in (first, second):
        assert req.processed and req.ok and req.value is None
    assert env._eid == before
    assert not env._lane_normal and not env._lane_urgent and not env._queue
    assert res.users == [first, second]


def test_full_resource_queues_fifo_and_grants_by_a_scheduled_event():
    env = Environment()
    res = Resource(env, capacity=1)
    with res.request() as held:
        assert held.processed
        first = res.request()
        second = res.request()
        assert not first.triggered and not second.triggered
        assert list(res.queue) == [first, second]
        before = env._eid
    # Leaving the block hands the unit to the head of the queue through
    # succeed(): one event id, one lane entry, processed by the kernel.
    assert first.triggered and not first.processed
    assert env._eid == before + 1
    assert list(env._lane_normal) == [(before, first)]
    assert res.users == [first] and list(res.queue) == [second]
    env.run()
    assert first.processed and not second.triggered


def test_leaving_the_block_wakes_the_next_waiter_at_the_same_instant():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = []

    def user(env, tag, arrive, hold):
        yield env.timeout(arrive)
        with res.request() as req:
            if not req.triggered:
                yield req
            granted.append((tag, env.now))
            yield env.timeout(hold)

    def legacy_user(env, tag):
        # Yielding an already-granted request still continues at once.
        with res.request() as req:
            yield req
            granted.append((tag, env.now))

    env.process(user(env, "a", 0.0, 2.0))
    env.process(user(env, "b", 1.0, 1.0))
    env.process(user(env, "c", 1.5, 0.5))
    env.run()
    env.process(legacy_user(env, "d"))
    env.run()
    assert granted == [("a", 0.0), ("b", 2.0), ("c", 3.0), ("d", 3.5)]
    assert res.count == 0 and not res.queue


def test_release_and_cancel_still_work():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    withdrawn = res.request()
    waiting = res.request()
    withdrawn.cancel()
    assert list(res.queue) == [waiting]
    confirmation = res.release(held)
    assert res.users == [waiting] and not res.queue
    assert waiting.triggered
    env.run()
    assert confirmation.processed and waiting.processed
    assert not withdrawn.triggered
    # Releasing a request that is still queued withdraws it.
    queued = res.request()
    res.release(queued)
    assert not res.queue and res.users == [waiting]


def test_anyof_over_an_idle_request_fires_at_the_current_instant():
    env = Environment()
    res = Resource(env, capacity=1)
    fired = []

    def proc(env):
        yield env.timeout(1.0)
        req = res.request()
        result = yield AnyOf(env, [req, env.timeout(5.0)])
        fired.append((env.now, req in result))
        res.release(req)

    env.process(proc(env))
    env.run()
    assert fired == [(1.0, True)]


def test_exception_or_interrupt_inside_the_block_releases_the_unit():
    env = Environment()
    res = Resource(env, capacity=1)
    seen = []

    def crasher(env):
        with res.request() as req:
            if not req.triggered:
                yield req
            yield env.timeout(1.0)
            raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(crasher(env))
        except ValueError:
            seen.append(("crashed", env.now, res.count))

    env.process(parent(env))
    env.run()

    def victim(env):
        held = None
        try:
            with res.request() as held:
                if not held.triggered:
                    yield held
                yield env.timeout(10.0)
        except Interrupt:
            seen.append(("interrupted", env.now, held in res.users))

    def next_user(env):
        yield env.timeout(0.5)
        with res.request() as req:
            assert not req.triggered
            yield req
            seen.append(("granted", env.now, req in res.users))

    def interrupter(env, proc):
        yield env.timeout(1.0)
        proc.interrupt()

    env.process(interrupter(env, env.process(victim(env))))
    env.process(next_user(env))
    env.run()
    assert seen == [("crashed", 1.0, 0), ("interrupted", 2.0, False),
                    ("granted", 2.0, True)]
    assert res.count == 0
