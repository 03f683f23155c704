"""Shared-resource primitives for the discrete-event engine.

These model the contention points in the streaming system:

* :class:`Resource` — a counted resource with FIFO queuing.  Used for
  connection slots on proxies, broker channel concurrency, CPU slots on
  load balancers / ingress controllers.
* :class:`PriorityResource` — same, but requests carry a priority (control
  traffic can pre-empt queue position over bulk data).
* :class:`Container` — a continuous quantity (bytes of queue memory).
* :class:`Store` / :class:`FilterStore` — object stores used for message
  queues and mailbox-style communication between simulated processes.

``request`` grants an idle unit in place: the returned :class:`Request` is
already processed (no kernel event, no suspension), so a process yields it
only while it is pending (``if not req.triggered: yield req``).  A request
that has to queue is granted later by a scheduled event.  ``get``/``put``
return events that a process must ``yield``; releasing is immediate.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from .core import _PROCESSED, PENDING, Environment, Event
from .errors import ResourceError

__all__ = [
    "Request",
    "Release",
    "Resource",
    "PriorityResource",
    "Container",
    "Store",
    "FilterStore",
    "StorePut",
    "StoreGet",
]


class Request(Event):
    """A request for one unit of a :class:`Resource`.

    A free unit is granted in place: the request is created already
    processed, takes no event id and never enters the kernel's lanes.
    Otherwise it queues and a later release grants it through
    :meth:`succeed`.  Usable as a context manager inside a process::

        with resource.request() as req:
            if not req.triggered:
                yield req
            ... hold the resource ...
        # released automatically
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # One request per simulated hop, so the base initializer is inlined
        # here as in Timeout.
        env = resource.env
        self.env = env
        self._callbacks = None
        self._defused = False
        self.resource = resource
        users = resource.users
        if len(users) < resource._capacity:
            users.append(self)
            self._ok = True
            self._value = None
            self._callback = _PROCESSED
        else:
            self._ok = None
            self._value = PENDING
            self._callback = None
            resource._enqueue(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # The context-manager exit is the hot release path: skip the
        # confirmation Release event (nobody can observe it here).
        resource = self.resource
        try:
            resource.users.remove(self)
        except ValueError:
            # Never granted (interrupted while queued) or already released.
            resource._cancel(self)
        if resource._waiters:
            resource._trigger_waiters()

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        self.resource._cancel(self)


class PriorityRequest(Request):
    """A :class:`Request` with an explicit priority (lower = sooner)."""

    __slots__ = ("priority", "time", "key")

    def __init__(self, resource: "PriorityResource", priority: int = 0) -> None:
        self.priority = priority
        self.time = resource.env.now
        self.key = (priority, self.time)
        super().__init__(resource)


class Release(Event):
    """Immediate event confirming a resource release (for symmetry)."""

    __slots__ = ("resource", "request")

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        self.succeed()


class Resource:
    """A counted, FIFO-queued resource with fixed capacity."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = int(capacity)
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()
        #: The waiting line a release must serve (``queue`` here).
        self._waiters: Any = self.queue

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of units currently in use."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> Release:
        request.__exit__(None, None, None)
        return Release(self, request)

    # -- internals ----------------------------------------------------------
    def _enqueue(self, request: Request) -> None:
        self.queue.append(request)

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _trigger_waiters(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            if nxt.triggered:
                continue
            self.users.append(nxt)
            nxt.succeed()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{type(self).__name__} used={self.count}/{self._capacity} "
                f"queued={len(self.queue)}>")


class PriorityResource(Resource):
    """A resource whose waiting queue is ordered by request priority."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        super().__init__(env, capacity)
        #: Waiting heap of ``(key, arrival order, request)``.
        self._waiters: list[tuple[tuple, int, PriorityRequest]] = []
        self._order = 0

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _enqueue(self, request: Request) -> None:
        assert isinstance(request, PriorityRequest)
        order = self._order
        self._order = order + 1
        heapq.heappush(self._waiters, (request.key, order, request))

    def _cancel(self, request: Request) -> None:
        self._waiters = [entry for entry in self._waiters
                         if entry[2] is not request]
        heapq.heapify(self._waiters)

    def _trigger_waiters(self) -> None:
        while self._waiters and len(self.users) < self._capacity:
            _key, _n, nxt = heapq.heappop(self._waiters)
            if nxt.triggered:
                continue
            self.users.append(nxt)
            nxt.succeed()


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount


class Container:
    """A continuous-quantity resource (e.g. bytes of broker queue memory)."""

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 init: float = 0.0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must lie within [0, capacity]")
        self.env = env
        self._capacity = capacity
        self._level = init
        self._put_waiters: deque[ContainerPut] = deque()
        self._get_waiters: deque[ContainerGet] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        event = ContainerPut(self, amount)
        self._put_waiters.append(event)
        self._dispatch()
        return event

    def get(self, amount: float) -> ContainerGet:
        event = ContainerGet(self, amount)
        self._get_waiters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._put_waiters:
                put = self._put_waiters[0]
                if self._level + put.amount <= self._capacity:
                    self._put_waiters.popleft()
                    self._level += put.amount
                    put.succeed()
                    progress = True
            if self._get_waiters:
                get = self._get_waiters[0]
                if get.amount <= self._level:
                    self._get_waiters.popleft()
                    self._level -= get.amount
                    get.succeed()
                    progress = True


class StorePut(Event):
    """Pending put of an item into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._dispatch()


class StoreGet(Event):
    """Pending get of an item from a :class:`Store`."""

    __slots__ = ("filter",)

    def __init__(self, store: "Store",
                 filter: Optional[Callable[[Any], bool]] = None) -> None:
        super().__init__(store.env)
        self.filter = filter
        store._get_waiters.append(self)
        store._dispatch()


class Store:
    """A FIFO store of Python objects with optional bounded capacity.

    This is the building block for simulated message queues and mailboxes.
    ``put`` blocks (i.e. the returned event stays pending) while the store is
    full; ``get`` blocks while it is empty.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.items: deque[Any] = deque()
        self._put_waiters: deque[StorePut] = deque()
        self._get_waiters: deque[StoreGet] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if len(self.items) >= self._capacity:
            return False
        self.items.append(item)
        self._dispatch()
        return True

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(False, None)`` if empty."""
        if not self.items:
            return False, None
        item = self.items.popleft()
        self._dispatch()
        return True, item

    # -- internals ----------------------------------------------------------
    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self._capacity:
            self.items.append(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.popleft())
            return True
        return False

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._put_waiters and self._put_waiters[0].triggered:
                self._put_waiters.popleft()
            while self._get_waiters and self._get_waiters[0].triggered:
                self._get_waiters.popleft()
            if self._put_waiters and self._do_put(self._put_waiters[0]):
                self._put_waiters.popleft()
                progress = True
            if self._get_waiters and self._do_get(self._get_waiters[0]):
                self._get_waiters.popleft()
                progress = True


class FilterStore(Store):
    """A store whose ``get`` can select items matching a predicate."""

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:  # type: ignore[override]
        return StoreGet(self, filter)

    def _do_get(self, event: StoreGet) -> bool:
        if event.filter is None:
            return super()._do_get(event)
        for idx, item in enumerate(self.items):
            if event.filter(item):
                del self.items[idx]
                event.succeed(item)
                return True
        return False

    def _dispatch(self) -> None:
        # Unlike the FIFO store, a blocked get at the head must not block
        # gets behind it that could match other items.
        progress = True
        while progress:
            progress = False
            while self._put_waiters and self._put_waiters[0].triggered:
                self._put_waiters.popleft()
            self._get_waiters = deque(
                g for g in self._get_waiters if not g.triggered)
            if self._put_waiters and self._do_put(self._put_waiters[0]):
                self._put_waiters.popleft()
                progress = True
            for getter in list(self._get_waiters):
                if self._do_get(getter):
                    self._get_waiters.remove(getter)
                    progress = True
