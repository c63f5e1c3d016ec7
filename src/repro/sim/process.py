"""Generator-based cooperative processes.

A *process* is a plain Python generator driven by the simulator.  Each
``yield`` hands the kernel a *waitable* describing what the process is
waiting for; the kernel resumes the generator (via ``send`` or ``throw``)
when that waitable completes::

    def client(sim, server):
        yield Timeout(sim, 1.0)                 # sleep 1 simulated second
        reply = yield server.request("GET /")    # wait on a Signal
        done = yield AllOf(sim, [sig_a, sig_b])  # wait for both

Accepted yield values:

* :class:`Signal` -- a one-shot event; resumes with the signal's value, or
  re-raises the signal's exception inside the generator.
* :class:`Timeout` -- resumes after a fixed delay.
* :class:`Process` -- resumes when the other process finishes, with its
  return value (``return x`` inside the generator).
* :class:`AllOf` / :class:`AnyOf` -- combinators over the above.
* a plain ``int``/``float`` -- shorthand for ``Timeout(sim, value)``.

Processes may be interrupted: :meth:`Process.interrupt` raises
:class:`Interrupt` at the current yield point.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    ``cause`` carries whatever object the interrupter supplied.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Signal:
    """A one-shot, many-waiter event carrying a value or an exception.

    A Signal starts *pending*; exactly one of :meth:`succeed` or
    :meth:`fail` moves it to *triggered* and wakes every registered
    callback.  Callbacks added after triggering fire immediately (on the
    event queue, preserving deterministic ordering).
    """

    __slots__ = ("sim", "name", "_value", "_exc", "_triggered", "_callbacks")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._callbacks: list[Callable[["Signal"], None]] = []

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True once the signal succeeded (False while pending or failed)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"signal {self.name!r} not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc if self._triggered else None

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Signal":
        """Trigger successfully with ``value``; wakes all waiters."""
        self._trigger(value, None)
        return self

    def fail(self, exc: BaseException) -> "Signal":
        """Trigger with an exception; waiters re-raise it."""
        if not isinstance(exc, BaseException):
            raise SimulationError("Signal.fail() requires an exception instance")
        self._trigger(None, exc)
        return self

    def _trigger(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._triggered:
            raise SimulationError(f"signal {self.name!r} already triggered")
        self._triggered = True
        self._value = value
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    # -- waiting ----------------------------------------------------------

    def add_done_callback(self, callback: Callable[["Signal"], None]) -> None:
        """Invoke ``callback(self)`` on trigger (immediately if already done)."""
        if self._triggered:
            # Defer to the event queue so ordering stays deterministic and
            # callers never re-enter during registration.
            self.sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    def discard_callback(self, callback: Callable[["Signal"], None]) -> None:
        """Remove a pending callback if present (used by AnyOf / interrupts)."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<Signal {self.name!r} {state}>"


class Timeout(Signal):
    """A Signal that succeeds automatically after ``delay`` seconds.

    ``cancel()`` removes the pending event (useful when a Timeout raced
    against another signal in ``AnyOf`` and lost -- cancelling keeps the
    event queue clean so simulations terminate as soon as real work does).
    """

    def __init__(self, sim: Simulator, delay: float, value: Any = None) -> None:
        super().__init__(sim, name=f"timeout({delay})")
        self.delay = delay
        self._event = sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        # Drop the event first: it holds this bound method, so keeping it
        # would leave an Event<->Timeout cycle for the collector.
        self._event = None
        if not self._triggered:
            self.succeed(value)

    def cancel(self) -> None:
        """Cancel the pending timeout; no-op once triggered or cancelled."""
        if self._event is not None and not self._triggered:
            self._event.cancel()
            self._event = None


class AllOf(Signal):
    """Succeeds when every child signal has triggered.

    Resumes with a list of child values in the order given.  Fails fast
    with the first child exception.
    """

    def __init__(self, sim: Simulator, signals: Iterable[Signal]) -> None:
        super().__init__(sim, name="all_of")
        self._children = list(signals)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_done_callback(self._on_child)

    def _on_child(self, child: Signal) -> None:
        if self._triggered:
            return
        # Once triggered, drop the children: a child still pending holds
        # this combinator in its callbacks, which would close a cycle.
        if child.exception is not None:
            self._children = ()
            self.fail(child.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            children, self._children = self._children, ()
            self.succeed([c.value for c in children])


class AnyOf(Signal):
    """Succeeds when the first child signal triggers.

    Resumes with ``(index, value)`` of the winning child; fails if the
    first child to trigger failed.
    """

    def __init__(self, sim: Simulator, signals: Iterable[Signal]) -> None:
        super().__init__(sim, name="any_of")
        self._children = list(signals)
        if not self._children:
            raise SimulationError("AnyOf requires at least one signal")
        for index, child in enumerate(self._children):
            child.add_done_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Signal], None]:
        def on_child(child: Signal) -> None:
            if self._triggered:
                return
            # The losing children keep this callback; drop the references
            # back to them so nothing cyclic outlives the race.
            self._children = ()
            if child.exception is not None:
                self.fail(child.exception)
            else:
                self.succeed((index, child.value))

        return on_child


ProcessGenerator = Generator[Any, Any, Any]


class Process(Signal):
    """A running generator, driven by the kernel.

    A Process is itself a Signal that triggers when the generator returns
    (with the generator's return value) or raises (with the exception), so
    processes can wait on each other by yielding the Process object.
    """

    def __init__(self, sim: Simulator, generator: ProcessGenerator, name: str = "") -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Signal] = None
        self._started = False
        # Registered for budget snapshots: the kernel reports live
        # processes when a run budget trips.
        sim._live_processes.add(self)
        # Start on the event queue (not synchronously) so a process never
        # runs before its creator finishes the current statement.
        sim.schedule(0.0, self._start)

    def _trigger(self, value: Any, exc: Optional[BaseException]) -> None:
        self.sim._live_processes.discard(self)
        super()._trigger(value, exc)

    # -- lifecycle ----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def _start(self) -> None:
        if not self._started:
            self._started = True
            self._advance(None, None)

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the generator at its yield point.

        No-op if the process already finished.  Interrupting a process that
        has been created but not yet started cancels it before first run.
        """
        if self.triggered:
            return
        self._detach_wait()
        self._started = True
        self.sim.schedule(0.0, self._advance, None, Interrupt(cause))

    # -- engine -------------------------------------------------------------

    def _detach_wait(self) -> None:
        signal = self._waiting_on
        if signal is not None:
            self._waiting_on = None
            # A triggered signal's wakeup is already queued; _resume
            # ignores it because the signal is no longer _waiting_on.
            if not signal._triggered:
                signal.discard_callback(self._resume)

    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        """Resume the generator with ``value``, or throw ``exc`` into it."""
        if self._triggered:
            return
        try:
            if exc is None:
                yielded = self._generator.send(value)
            else:
                yielded = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # The generator let the interrupt escape: treat as termination.
            self.succeed(None)
            return
        except BaseException as error:  # noqa: BLE001 - process body failed
            self.fail(error)
            return
        if isinstance(yielded, Signal):
            signal = yielded
        else:
            try:
                if not isinstance(yielded, (int, float)):
                    raise SimulationError(
                        f"process {self.name!r} yielded unsupported value {yielded!r}"
                    )
                signal = Timeout(self.sim, float(yielded))
            except SimulationError as error:
                self._generator.close()
                self.fail(error)
                return
        # A bound method, so a wait allocates no function or cell.
        self._waiting_on = signal
        signal.add_done_callback(self._resume)

    def _resume(self, signal: Signal) -> None:
        # A wakeup from a signal we stopped waiting on (an interrupt
        # detached us before its queued wakeup ran) is stale: ignore it.
        if signal is not self._waiting_on:
            return
        self._waiting_on = None
        self._advance(signal._value, signal._exc)


def _spawn(self: Simulator, generator: ProcessGenerator, name: str = "") -> Process:
    """Spawn a process on this simulator (bound as ``Simulator.process``)."""
    return Process(self, generator, name=name)


# Attach the process constructor to Simulator so user code can write
# ``sim.process(my_gen())`` without importing Process everywhere.
Simulator.process = _spawn  # type: ignore[attr-defined]
