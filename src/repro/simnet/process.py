"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
:class:`~repro.simnet.events.Event` objects (timeouts, signals, other
processes, ...) and is resumed with the event's value when it fires; if the
event failed, the exception is thrown into the generator.  When the
generator returns, the process — which is itself an event — succeeds with
the generator's return value, so processes can wait on each other.

This is the cooperative-multitasking layer every actor in the simulated
system (HCA engines, EXS progress threads, application code) is built on.

A process *is its own resume callback*: waiting registers the process
object itself (``__call__`` drives the generator), and ``send``/``throw``
are the generator's bound methods cached as instance attributes, so a
resume costs no closure or bound-method allocation.
"""

from __future__ import annotations

from typing import Any, Iterator

from .events import Event, _PENDING
from .kernel import SimulationError, Simulator

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


def _finish_process(proc: "Process", exc: BaseException) -> None:
    """Terminate *proc* according to how its generator ended (cold path).

    ``StopIteration`` is a normal return, an escaped :class:`Interrupt` is
    treated as normal termination with no value (the idiomatic way to stop
    a server loop), anything else fails the process event.  A process that
    already terminated (e.g. resumed once more by a stale timeout after an
    interrupt) absorbs the outcome silently.
    """
    if proc._value is not _PENDING:
        return
    if isinstance(exc, StopIteration):
        proc.succeed(exc.value)
    elif isinstance(exc, Interrupt):
        proc.succeed(None)
    else:
        proc.fail(exc)


class Process(Event):
    """A running simulation process (also an event: its own completion)."""

    __slots__ = ("generator", "name", "send", "throw")

    def __init__(self, sim: Simulator, generator: Iterator[Any], name: str = "") -> None:
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        self.generator = generator
        self.send = generator.send
        self.throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: start the generator at the current instant via the calendar
        # so that process start order is deterministic.
        start = Event(sim)
        start.add_callback(self)
        start.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The process stops waiting on its current target (the target event is
        left intact and may still fire later for other waiters).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt terminated process {self.name!r}")
        wake = Event(self.sim)
        wake.add_callback(lambda _e: self._throw(Interrupt(cause)))
        wake.succeed()

    # ------------------------------------------------------------------
    def __call__(self, event: Event) -> None:
        """Drive the generator one step with *event*'s outcome."""
        try:
            if event._ok:
                nxt = self.send(event._value)
            else:
                nxt = self.throw(event._value)
        except BaseException as exc:
            _finish_process(self, exc)
            return
        self._wait_on(nxt)

    def _throw(self, exc: BaseException) -> None:
        if self._value is not _PENDING:
            return  # terminated in the meantime; interrupt is moot
        try:
            nxt = self.throw(exc)
        except BaseException as err:
            _finish_process(self, err)
            return
        self._wait_on(nxt)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._throw(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield Events"
                )
            )
            return
        if target.sim is not self.sim:
            self._throw(SimulationError("yielded event belongs to a different simulator"))
            return
        target.add_callback(self)
