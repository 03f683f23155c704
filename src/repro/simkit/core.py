"""Core of the discrete-event simulation engine.

This module implements a small, dependency-free, generator-based
discrete-event simulation kernel in the style of SimPy.  Simulated
"processes" are Python generator functions that ``yield`` events; the
:class:`Environment` advances simulated time by popping the next scheduled
event from a heap and resuming every process waiting on it.

The engine is the substrate on which the whole reproduction is built: network
links, AMQP brokers, SciStream proxies, load balancers, producers and
consumers are all simkit processes exchanging events.

Design notes
------------
* Time is a ``float`` in simulated seconds.  The engine never interprets the
  unit; higher layers (``repro.netsim.units``) provide conversion helpers.
* Events are triggered at most once.  Triggering schedules all registered
  callbacks at the trigger time.
* A :class:`Process` is itself an event that succeeds with the generator's
  return value (or fails with the exception that escaped it), so processes
  can wait for each other simply by yielding the other process.
* ``AnyOf`` / ``AllOf`` condition events support the common "wait for
  whichever happens first" and "barrier" idioms.

Hot-path layout
---------------
Every simulated message costs tens of kernel events, so the event plumbing
is aggressively specialised:

* **Single-callback slot** — most events ever have exactly one waiter (the
  process that yielded them), so :class:`Event` stores the first callback in
  a scalar ``_callback`` slot and only lazily upgrades to a ``_callbacks``
  list when a second waiter registers.  The legacy ``callbacks`` property
  materialises the list view for cold-path introspection.
* **Zero-delay FIFO lanes** — ``succeed()``/``fail()`` and zero timeouts
  schedule *at the current instant*, so they bypass the time heap entirely
  and go onto plain per-priority deques.  :meth:`Environment.step` merges
  the heap and the lanes by the exact ``(time, priority, eid)`` key, so
  event ordering is bit-identical to an all-heap schedule.
* **Timeout freelist** — processed value-less timeouts are recycled by
  :meth:`Environment.step` and reused by :meth:`Environment.timeout`
  instead of being reallocated.  A yielded timeout must therefore not be
  re-inspected after it has been processed; timeouts watched by a
  :class:`Condition`, carrying a value, or passed to ``run(until=...)`` are
  pinned and never recycled.
* **Plain-int event counter** — the scheduling tiebreaker is a plain
  integer incremented inline rather than ``itertools.count``.
* **In-place idle grants** — a :class:`~repro.simkit.resources.Request`
  for a resource with a free unit is created already processed: it takes
  no eid and no lane entry, and the requesting process skips the yield
  (``if not req.triggered: yield req``), so an uncontended hop costs no
  kernel step and no resume through the ``yield from`` chain.  Only a
  request that has to queue is granted later through ``succeed()``.  The
  requester therefore runs on ahead of same-instant events already in the
  lanes; the golden digests (one set of them contended) pin that this
  moves no simulated statistic.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator, Iterable
from heapq import heappop, heappush
from typing import Any, Optional

from .errors import Interrupt, SchedulingError, SimkitError, StopSimulation

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "PENDING",
]


class _PendingType:
    """Sentinel for an event value that has not been decided yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Sentinel used as the value of untriggered events.
PENDING = _PendingType()


class _ProcessedType:
    """Sentinel stored in ``Event._callback`` once the event has been
    processed (its callbacks have run)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PROCESSED>"


_PROCESSED = _ProcessedType()

#: Priority used for ordering simultaneous events: urgent events (process
#: resumption bookkeeping) run before normal ones.
URGENT = 0
NORMAL = 1

#: Upper bound on recycled Timeout objects kept per environment.
_TIMEOUT_FREELIST_MAX = 128


class Event:
    """An event that may happen at some point in simulated time.

    An event has three states: *pending* (created, not yet triggered),
    *triggered* (scheduled to happen at a given time) and *processed* (its
    callbacks have run).  An event carries a value once triggered: a normal
    value for success, an exception instance for failure.
    """

    __slots__ = ("env", "_callback", "_callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: First registered callback (or ``_PROCESSED`` once processed).
        self._callback: Any = None
        #: Overflow list used once a second callback registers.
        self._callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- callback management ----------------------------------------------
    @property
    def callbacks(self) -> Optional[list[Callable[["Event"], None]]]:
        """Callbacks run when the event is processed; ``None`` once processed.

        Accessing this upgrades the single-callback fast path to a real
        list, so it is for cold-path/introspection use only — hot code goes
        through :meth:`add_callback` / the internal slots.
        """
        cb = self._callback
        if cb is _PROCESSED:
            return None
        if self._callbacks is None:
            self._callbacks = [] if cb is None else [cb]
            self._callback = None
        return self._callbacks

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when this event is processed."""
        cb = self._callback
        if cb is None:
            callbacks = self._callbacks
            if callbacks is None:
                self._callback = callback
            else:
                callbacks.append(callback)
        elif cb is _PROCESSED:
            raise SchedulingError(
                f"cannot add a callback to the processed event {self!r}")
        else:
            self._callbacks = [cb, callback]
            self._callback = None

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Deregister ``callback`` if present (no-op otherwise)."""
        cb = self._callback
        if cb is _PROCESSED:
            return
        if self._callbacks is not None:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass
        elif cb == callback:
            self._callback = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to occur."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self._callback is _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The value of the event (or the exception if it failed)."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    def defused(self) -> bool:
        """Whether a failure of this event has been handled by someone."""
        return self._defused

    def defuse(self) -> None:
        """Mark the failure as handled so the environment does not re-raise."""
        self._defused = True

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SchedulingError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        env._lane_normal.append((eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SchedulingError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        env._lane_normal.append((eid, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if event._value is PENDING:
            raise SchedulingError(
                f"cannot chain from {event!r}: it has not been triggered")
        if self._value is not PENDING:
            raise SchedulingError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        self.env._schedule(self, NORMAL)

    # -- misc -------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {status} at 0x{id(self):x}>"


class Timeout(Event):
    """An event that triggers automatically after a delay."""

    __slots__ = ("delay", "_reusable")

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        # Timeouts are the hottest allocation in the engine (one per yielded
        # delay), so the base initializer is inlined here.
        self.env = env
        self._callback = None
        self._callbacks = None
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        # Only value-less timeouts are eligible for freelist recycling: a
        # reused timeout's value is overwritten, and conditions / run(until=)
        # pin theirs via _pin() below.
        self._reusable = value is None
        eid = env._eid
        env._eid = eid + 1
        if delay:
            heappush(env._queue, (env._now + delay, NORMAL, eid, self))
        else:
            env._lane_normal.append((eid, self))

    def _pin(self) -> None:
        """Exclude this timeout from freelist recycling."""
        self._reusable = False


class Initialize(Event):
    """Internal event that starts a newly created :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self._callback = process._resume_cb
        self._callbacks = None
        self._defused = False
        self._ok = True
        self._value = None
        eid = env._eid
        env._eid = eid + 1
        env._lane_urgent.append((eid, self))


class Process(Event):
    """A simulated process wrapping a generator of events.

    The process itself is an event: it triggers when the generator returns
    (succeeds with the return value) or raises (fails with the exception).
    """

    __slots__ = ("_generator", "_send", "_throw", "_target", "_resume_cb",
                 "name")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str | None = None) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = None
        #: The resume callback bound once, not per suspension.
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for (if any)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        Interrupting a finished process is an error; interrupting a process
        that is about to be resumed is allowed and the interrupt wins.
        """
        if self._value is not PENDING:
            raise SimkitError("cannot interrupt a terminated process")
        if self._target is self:
            raise SimkitError("a process cannot interrupt itself")
        # Deliver as an urgent event so the interrupt arrives before any
        # normal event scheduled at the same time.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event._callback = self._resume_cb
        self.env._schedule(event, URGENT)
        # Detach from the event we were waiting on so its normal completion
        # no longer resumes us.
        target = self._target
        if target is not None and target._callback is not _PROCESSED:
            target.remove_callback(self._resume_cb)
            self._target = None

    # -- engine internals --------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Resume the generator with the value (or exception) of ``event``."""
        env = self.env
        env._active_proc = self
        send = self._send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The exception is being handed to the process, which
                    # counts as handling it.
                    event._defused = True
                    next_event = self._throw(event._value)
            except StopIteration as exc:
                # Process finished successfully.
                self._ok = True
                self._value = exc.value
                env._schedule(self, NORMAL)
                break
            except BaseException as exc:  # noqa: BLE001 - deliberate
                # Process died; propagate through the process event.
                self._ok = False
                self._value = exc
                env._schedule(self, NORMAL)
                break

            if next_event is None:
                # Allow ``yield None`` as "yield control for zero time".
                next_event = env.timeout(0)
            try:
                cb = next_event._callback
            except AttributeError:
                exc = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}")
                event = Event(env)
                event._ok = False
                event._value = exc
                continue
            if cb is not _PROCESSED:
                # Event not yet processed: register and suspend.
                self._target = next_event
                if cb is None and next_event._callbacks is None:
                    next_event._callback = self._resume_cb
                else:
                    next_event.add_callback(self._resume_cb)
                break
            # Event already processed: continue immediately with its value.
            event = next_event

        env._active_proc = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Process {self.name!r} at 0x{id(self):x}>"


class Condition(Event):
    """An event that triggers when a condition over child events holds."""

    __slots__ = ("_events", "_evaluate", "_count", "_threshold")

    def __init__(self, env: "Environment",
                 evaluate: Callable[[list[Event], int], bool],
                 events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        # Fast path for the two canonical conditions: a triggered-count
        # threshold avoids calling out to ``evaluate`` on every child event.
        if evaluate is Condition.all_events:
            self._threshold: Optional[int] = len(self._events)
        elif evaluate is Condition.any_event:
            self._threshold = 1
        else:
            self._threshold = None

        # Validate the whole list before attaching any callback so a
        # mixed-environment error leaves no orphaned registrations behind.
        for event in self._events:
            if event.env is not env:
                raise ValueError("events from different environments")

        if not self._events:
            self.succeed(self._collect_values())
            return

        check = self._check
        for event in self._events:
            # The condition reads child values at trigger time, which may be
            # long after the child was processed — keep watched timeouts out
            # of the recycling freelist.
            if isinstance(event, Timeout):
                event._pin()
            if event._callback is _PROCESSED:
                check(event)
            else:
                event.add_callback(check)

    def _collect_values(self) -> dict[Event, Any]:
        """Values of all triggered (successful) child events, in order."""
        return {e: e._value for e in self._events
                if e._value is not PENDING and e._ok}

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        threshold = self._threshold
        if (self._count >= threshold if threshold is not None
                else self._evaluate(self._events, self._count)):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_event(events: list[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Triggers once *all* of the given events have triggered."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Triggers once *any* of the given events has triggered."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_event, events)


class Environment:
    """Execution environment for a discrete-event simulation.

    The environment owns the event heap, the zero-delay FIFO lanes and the
    simulation clock.  It offers factory helpers (:meth:`event`,
    :meth:`timeout`, :meth:`process`) so user code rarely needs to
    instantiate event classes directly.
    """

    __slots__ = ("_now", "_queue", "_lane_urgent", "_lane_normal", "_eid",
                 "_active_proc", "_timeout_free")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Time heap for events scheduled with a positive delay.
        self._queue: list[tuple[float, int, int, Event]] = []
        #: Zero-delay lanes: events scheduled *at* the current instant, in
        #: eid order, one deque per priority.  Entries are ``(eid, event)``.
        self._lane_urgent: deque[tuple[int, Event]] = deque()
        self._lane_normal: deque[tuple[int, Event]] = deque()
        self._eid = 0
        self._active_proc: Optional[Process] = None
        #: Recycled value-less Timeout objects (see Environment.timeout).
        self._timeout_free: list[Timeout] = []

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` simulated seconds.

        Value-less timeouts are recycled: once processed, the object may be
        reused by a later ``timeout()`` call, so do not hold on to a yielded
        timeout past its processing.
        """
        if value is None and delay >= 0:
            free = self._timeout_free
            if free:
                # Recycled timeouts were value-less and cannot have failed,
                # so _value is still None, _defused still False and
                # _callbacks still None; only the processed marker and the
                # delay need refreshing.
                timeout = free.pop()
                timeout._callback = None
                timeout.delay = delay
                eid = self._eid
                self._eid = eid + 1
                if delay:
                    heappush(self._queue,
                             (self._now + delay, NORMAL, eid, timeout))
                else:
                    self._lane_normal.append((eid, timeout))
                return timeout
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any],
                name: str | None = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        eid = self._eid
        self._eid = eid + 1
        if delay:
            heappush(self._queue, (self._now + delay, priority, eid, event))
        elif priority:
            self._lane_normal.append((eid, event))
        else:
            self._lane_urgent.append((eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._lane_urgent or self._lane_normal:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`IndexError` if the queue is empty, and re-raises the
        exception of any failed event that nobody defused (i.e. a crashed
        process that no other process was waiting on).

        The next event is the smallest ``(time, priority, eid)`` key across
        the time heap and the two zero-delay lanes; lane entries always
        carry the current time, so this is a three-way ordered merge.
        """
        event = None
        lane = self._lane_urgent
        if lane:
            queue = self._queue
            if queue:
                head = queue[0]
                # The heap wins only with an urgent entry at the current
                # instant that was scheduled before the lane's head.
                if (head[1] == URGENT and head[0] == self._now
                        and head[2] < lane[0][0]):
                    self._now, _prio, _eid, event = heappop(queue)
            if event is None:
                event = lane.popleft()[1]
        else:
            lane = self._lane_normal
            if lane:
                queue = self._queue
                if queue:
                    head = queue[0]
                    if head[0] == self._now and (head[1] == URGENT
                                                 or head[2] < lane[0][0]):
                        self._now, _prio, _eid, event = heappop(queue)
                if event is None:
                    event = lane.popleft()[1]
            else:
                self._now, _prio, _eid, event = heappop(self._queue)

        callback = event._callback
        event._callback = _PROCESSED
        if callback is not None:
            callback(event)
        else:
            callbacks = event._callbacks
            if callbacks is not None:
                event._callbacks = None
                for callback in callbacks:
                    callback(event)

        if event._ok is False and not event._defused:
            # An unhandled failure: surface it to the caller of run()/step().
            exc = event._value
            raise exc

        if type(event) is Timeout and event._reusable:
            free = self._timeout_free
            if len(free) < _TIMEOUT_FREELIST_MAX:
                free.append(event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the event queue drains), a number
        (run until that simulated time) or an :class:`Event` (run until it
        triggers, returning its value).
        """
        until_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                until_event = until
                if until_event._callback is _PROCESSED:
                    return until_event._value
                if isinstance(until_event, Timeout):
                    until_event._pin()
                until_event.add_callback(_stop_simulation)
            else:
                at = float(until)
                if at < self._now:
                    raise SchedulingError(
                        f"until={at} lies before the current time {self._now}")
                stop = Event(self)
                stop._ok = True
                stop._value = None
                stop._callback = _stop_simulation
                self._schedule(stop, URGENT, at - self._now)

        # The drain loop is step() inlined: one Python call per event is the
        # single biggest fixed cost of the engine, so the three-way
        # heap/lane merge and the callback dispatch are repeated here with
        # the queue structures held in locals.  Keep both copies in sync.
        queue = self._queue
        lane_urgent = self._lane_urgent
        lane_normal = self._lane_normal
        free = self._timeout_free
        pop = heappop
        processed = _PROCESSED
        timeout_cls = Timeout
        free_max = _TIMEOUT_FREELIST_MAX
        try:
            while True:
                event = None
                if lane_urgent:
                    if queue:
                        head = queue[0]
                        if (head[1] == URGENT and head[0] == self._now
                                and head[2] < lane_urgent[0][0]):
                            self._now, _prio, _eid, event = pop(queue)
                    if event is None:
                        event = lane_urgent.popleft()[1]
                elif lane_normal:
                    if queue:
                        head = queue[0]
                        if head[0] == self._now and (head[1] == URGENT
                                                     or head[2] < lane_normal[0][0]):
                            self._now, _prio, _eid, event = pop(queue)
                    if event is None:
                        event = lane_normal.popleft()[1]
                elif queue:
                    self._now, _prio, _eid, event = pop(queue)
                else:
                    break

                callback = event._callback
                event._callback = processed
                if callback is not None:
                    callback(event)
                else:
                    callbacks = event._callbacks
                    if callbacks is not None:
                        event._callbacks = None
                        for callback in callbacks:
                            callback(event)

                if type(event) is timeout_cls:
                    # Timeouts always succeed, so the unhandled-failure
                    # check is skipped and eligible ones are recycled.
                    if event._reusable and len(free) < free_max:
                        free.append(event)
                elif event._ok is False and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.value
        if until_event is not None and not until_event.triggered:
            raise RuntimeError(
                "run(until=event) finished but the event never triggered")
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        queued = (len(self._queue) + len(self._lane_urgent)
                  + len(self._lane_normal))
        return f"<Environment t={self._now:.6f} queued={queued}>"


def _stop_simulation(event: Event) -> None:
    """Callback that aborts :meth:`Environment.run` with the event's value."""
    if event._ok is False:
        event._defused = True
        raise event._value
    raise StopSimulation(event._value)
