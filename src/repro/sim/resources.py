"""Shared resources for simulation processes.

Two primitives cover everything the engines need:

* :class:`Resource` — a counted resource (e.g. the vCPUs of a cluster
  node).  Processes ``yield resource.request(n)`` to acquire ``n`` units
  and call :meth:`Resource.release` when done.  Waiters are served FIFO,
  which keeps simulations deterministic.
* :class:`Store` — a (optionally bounded) FIFO queue of items, used as
  the data channel between pipelined workflow operators.  Bounded stores
  give the workflow engine natural *back-pressure*: a fast upstream
  operator blocks when the channel fills, exactly like a real pipelined
  dataflow engine.

Waiter events (:class:`ResourceRequest`, :class:`StorePut`,
:class:`StoreGet`) support :meth:`~ResourceRequest.cancel`: abort paths
(fault kills, engine restarts) call it so a dead process's pending
request neither blocks the FIFO head nor — once granted — leaks
capacity into nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from repro.sim.core import PENDING, PROCESSED, TRIGGERED, Environment, Event

__all__ = ["Resource", "Store", "ResourceRequest", "StorePut", "StoreGet"]


class ResourceRequest(Event):
    """Pending acquisition of ``amount`` units of a :class:`Resource`."""

    __slots__ = ("resource", "amount")

    def __init__(self, resource: "Resource", amount: int) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.amount = amount

    def cancel(self) -> None:
        """Withdraw this request on behalf of a dead waiter.

        * Still queued: leave the FIFO so it cannot block requests
          behind it.
        * Already granted (triggered or processed): return the units —
          nobody will ever release them otherwise.

        Idempotent; safe to call from ``except``/``finally`` blocks of
        aborted processes.
        """
        resource = self.resource
        if resource is None:
            return
        self.resource = None
        state = self.state
        if state is PENDING:
            try:
                resource._waiters.remove(self)
            except ValueError:
                pass
            self._callbacks = None
            return
        # Granted: the dead process can never release; do it here.
        self._callbacks = None
        resource.in_use -= self.amount
        resource._serve()


class Resource:
    """A counted, FIFO-fair resource such as a pool of CPU cores."""

    __slots__ = ("env", "capacity", "in_use", "_waiters")

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[ResourceRequest] = deque()

    @property
    def available(self) -> int:
        """Units currently free."""
        return self.capacity - self.in_use

    def request(self, amount: int = 1) -> ResourceRequest:
        """Return an event that triggers once ``amount`` units are held.

        Requests larger than the total capacity can never be satisfied
        and raise ``ValueError`` immediately rather than deadlocking.
        """
        if amount < 1:
            raise ValueError(f"amount must be >= 1, got {amount}")
        if amount > self.capacity:
            raise ValueError(
                f"requested {amount} units but capacity is {self.capacity}"
            )
        req = ResourceRequest(self, amount)
        self._waiters.append(req)
        self._serve()
        return req

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` units to the pool and wake waiters."""
        if amount < 1:
            raise ValueError(f"amount must be >= 1, got {amount}")
        if amount > self.in_use:
            raise ValueError(
                f"releasing {amount} units but only {self.in_use} are in use"
            )
        self.in_use -= amount
        self._serve()

    def _serve(self) -> None:
        # Strict FIFO: a large request at the head blocks smaller ones
        # behind it. This avoids starvation and keeps runs deterministic.
        waiters = self._waiters
        while waiters and waiters[0].amount <= self.capacity - self.in_use:
            req = waiters.popleft()
            self.in_use += req.amount
            # Inline req.succeed(req) — requests in the FIFO are always
            # still pending (cancel removes them eagerly).
            req.value = req
            req.state = TRIGGERED
            env = req.env
            seq = env._sequence = env._sequence + 1
            env._immediate.append((env._now, seq, req))


class StorePut(Event):
    """Pending insertion of ``item`` into a bounded :class:`Store`."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.store = store
        self.item = item

    def cancel(self) -> None:
        """Withdraw a pending put on behalf of a dead producer.

        Only queued puts are withdrawn; once the item entered the store
        the put has completed and cancelling is a no-op (the data is
        already visible to consumers).  Idempotent.
        """
        store = self.store
        if store is None:
            return
        self.store = None
        if self.state is PENDING:
            try:
                store._putters.remove(self)
            except ValueError:
                pass
            self._callbacks = None


class StoreGet(Event):
    """Pending removal of the next item from a :class:`Store`."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store

    def cancel(self) -> None:
        """Withdraw this get on behalf of a dead consumer.

        * Still queued: leave the getter FIFO (no head-of-line block).
        * Already granted but not yet consumed: put the item back at the
          *front* of the buffer — it was the oldest item, so restoring
          it at the head preserves FIFO order for live consumers.

        Idempotent; safe to call from abort paths.
        """
        store = self.store
        if store is None:
            return
        self.store = None
        state = self.state
        if state is PENDING:
            try:
                store._getters.remove(self)
            except ValueError:
                pass
            self._callbacks = None
            return
        if state is PROCESSED and self._callbacks is None:
            # Already delivered to a (then-live) consumer; nothing to
            # restore.
            return
        self._callbacks = None
        store.items.appendleft(self.value)
        self.value = None
        store._serve()


class Store:
    """A FIFO item queue with optional capacity (back-pressure)."""

    __slots__ = ("env", "capacity", "items", "_putters", "_getters")

    def __init__(self, env: Environment, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        """True when a bounded store has reached capacity."""
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> StorePut:
        """Event that triggers once ``item`` has entered the store."""
        event = StorePut(self, item)
        self._putters.append(event)
        self._serve()
        return event

    def get(self) -> StoreGet:
        """Event that triggers with the next item once one is present."""
        event = StoreGet(self)
        self._getters.append(event)
        self._serve()
        return event

    def _serve(self) -> None:
        env = self.env
        immediate = env._immediate
        items = self.items
        putters = self._putters
        getters = self._getters
        capacity = self.capacity
        while True:
            progressed = False
            # Move queued puts into the buffer while space remains.
            while putters and (capacity is None or len(items) < capacity):
                put = putters.popleft()
                items.append(put.item)
                # Inline put.succeed() — queued puts are always pending.
                put.state = TRIGGERED
                seq = env._sequence = env._sequence + 1
                immediate.append((env._now, seq, put))
                progressed = True
            # Hand buffered items to waiting getters.
            while getters and items:
                get = getters.popleft()
                # Inline get.succeed(items.popleft()).
                get.value = items.popleft()
                get.state = TRIGGERED
                seq = env._sequence = env._sequence + 1
                immediate.append((env._now, seq, get))
                progressed = True
            if not progressed:
                return


def drain(store: Store) -> List[Any]:
    """Immediately empty a store's buffered items (no simulation time)."""
    items = list(store.items)
    store.items.clear()
    store._serve()
    return items
