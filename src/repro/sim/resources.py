"""Shared-resource primitives built on Signals.

* :class:`Resource`  -- counted resource with FIFO queuing (mutex, slots).
* :class:`Store`     -- FIFO queue of items; the mailbox used by sockets,
  REST servers and daemons throughout the management plane.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.process import Signal


class Resource:
    """A counted resource with FIFO waiters.

    ``yield resource.acquire()`` inside a process blocks until a slot is
    free; every successful acquire must be paired with a ``release()``.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Signal] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self) -> Signal:
        """Return a Signal that succeeds when a slot is granted."""
        grant = Signal(self.sim, name=f"acquire({self.name})")
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed(self)
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Release one slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            grant = self._waiters.popleft()
            grant.succeed(self)  # slot transfers directly; _in_use unchanged
        else:
            self._in_use -= 1


class Store:
    """An unbounded-or-bounded FIFO queue of items.

    ``put`` succeeds immediately while below capacity, otherwise queues.
    ``get`` succeeds immediately when items are available, otherwise
    queues.  Both return Signals, so processes simply ``yield store.get()``.
    """

    def __init__(
        self, sim: Simulator, capacity: Optional[int] = None, name: str = ""
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError("Store capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()
        self._putters: Deque[tuple[Signal, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Signal:
        """Offer ``item``; the Signal succeeds once the item is accepted."""
        done = Signal(self.sim, name=f"put({self.name})")
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            done.succeed(None)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            done.succeed(None)
        else:
            self._putters.append((done, item))
        return done

    def get(self) -> Signal:
        """Take the oldest item; the Signal succeeds with the item."""
        got = Signal(self.sim, name=f"get({self.name})")
        if self._items:
            got.succeed(self._items.popleft())
            self._drain_putters()
        else:
            self._getters.append(got)
        return got

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(False, None)`` when empty."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self._drain_putters()
        return True, item

    def _drain_putters(self) -> None:
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            done, item = self._putters.popleft()
            self._items.append(item)
            done.succeed(None)

