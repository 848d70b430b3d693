"""Discrete-event simulation kernel.

The kernel keeps simulated time as an **integer number of nanoseconds** so
that event ordering is exact and runs are bit-for-bit reproducible.

* :class:`Simulator` owns the event calendar and the clock.
* :class:`~repro.simnet.events.Event` objects are placed on the calendar and
  invoke their callbacks when they fire.
* :class:`~repro.simnet.process.Process` wraps a Python generator; the
  generator ``yield``\\ s events and is resumed when they trigger, which gives
  cooperative "threads" inside the simulation.

The calendar is one flat binary heap of ``(time, seq, entry)`` tuples.
Ties are broken by a monotonically increasing sequence number, so two
events scheduled for the same instant fire in the order they were
scheduled.  This determinism is essential: the protocol under study is
sensitive to message/completion races and we want those races to be
*simulated*, not to depend on Python hash ordering.  A
:class:`~repro.simnet.schedule.SchedulePolicy` re-keys those same-instant
ties as ``(time, tiebreak, seq, entry)`` (seeded-random interleavings for
the conformance fuzzer); events at different timestamps are never
reordered.

Performance notes (this kernel is the host-side bottleneck of every
experiment):

* ``run()`` drains the heap in one loop that pops, dispatches and
  recycles inline — no per-event method call.
* :meth:`Simulator.call_in` places a slotted :class:`CallbackEntry` that
  invokes ``fn(arg)`` directly, bypassing the full Event protocol — used
  by the hot delivery paths (link arrivals, transport ACKs) which never
  have external waiters.
* :meth:`Simulator.timeout` recycles
  :class:`~repro.simnet.events.Timeout` objects through a bounded
  freelist.  A timeout is returned to the pool only when the kernel can
  prove (via the CPython reference count) that nothing else holds it, so
  the reuse is invisible to user code that keeps a reference.
* The :attr:`Simulator.tracing` flag lets hot call sites skip building
  trace strings entirely when no trace hook is installed.

Causal capture (:mod:`repro.simnet.causality`) swaps in a recording
subclass for the placement methods and enters dispatch through one hook,
:meth:`~repro.simnet.causality.CausalRecorder.fire`, chosen once per
``run()``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from sys import getrefcount
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import Event
    from .process import Process

__all__ = ["Simulator", "SimulationError", "StopSimulation", "CallbackEntry"]

INF = float("inf")

#: maximum number of recycled Timeout objects kept per simulator
TIMEOUT_POOL_MAX = 512


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class StopSimulation(Exception):
    """Internal signal used by :meth:`Simulator.run` to stop at a target event."""


def _processed_marker(_event):
    """Sentinel stored in ``Event._cb1`` once callbacks ran.

    It is a no-op *callable* so that the pathological double-schedule of
    one event dispatches as a silent no-op.
    """
    return None


_PROCESSED = _processed_marker


class CallbackEntry:
    """A minimal calendar entry: runs ``fn(arg)`` when its time comes.

    Unlike an :class:`~repro.simnet.events.Event` it has no value, no
    callbacks and cannot be waited on — it exists so that one-shot
    deliveries (a message arriving at a link handler, an ACK reaching
    its device) cost one small allocation instead of an Event, a
    bound-method list and a closure.
    """

    # _cid is written only under causality capture (see simnet.causality)
    __slots__ = ("fn", "arg", "_cid")

    def __init__(self, fn: Callable[[Any], None], arg: Any) -> None:
        self.fn = fn
        self.arg = arg

    def _run(self) -> None:
        self.fn(self.arg)


def _checked_delay(delay: Any) -> int:
    """Validate a delay that failed the ``type(delay) is int and delay >= 0``
    fast check: accept int subclasses other than ``bool``, reject the rest.

    Type errors are reported before range errors, so a float delay gets
    the "must be an int" message, not the negative one.
    """
    if isinstance(delay, bool) or not isinstance(delay, int):
        raise SimulationError(f"delay must be an int number of ns, got {type(delay).__name__}")
    if delay < 0:
        raise SimulationError(f"cannot schedule in the past (delay={delay})")
    return int(delay)


class Simulator:
    """Event calendar plus the simulated clock.

    Parameters
    ----------
    trace:
        Optional callable ``trace(time_ns, category, message)`` invoked for
        every traced kernel action.  ``None`` disables tracing (the default;
        tracing is for debugging, not for measurement).  Call sites on hot
        paths should consult :attr:`tracing` before formatting messages.
    schedule_policy:
        Optional :class:`~repro.simnet.schedule.SchedulePolicy` re-keying
        same-timestamp ties.  ``None`` (the default) keeps the plain FIFO
        order; a policy orders each instant's entries by
        ``(tiebreak, seq)``.  ``FifoPolicy`` reproduces the default order
        bit for bit.
    """

    # Slotted: the drain loop and the placement methods touch several
    # simulator attributes per event, and slot access is cheaper than dict
    # access.  (Also catches typo'd attribute writes.)
    __slots__ = (
        "_now",
        "_seq",
        "_queue",
        "_tiebreak",
        "_trace",
        "tracing",
        "events_executed",
        "_event_cls",
        "_timeout_cls",
        "_process_cls",
        "_timeout_pool",
        "_timeout_allocs",
        "_timeout_reuses",
        # causality recorder (see causality.py); None when capture is off
        "_recorder",
    )

    def __init__(
        self,
        trace: Optional[Callable[[int, str, str], None]] = None,
        *,
        schedule_policy=None,
    ) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._queue: list = []
        self._tiebreak = schedule_policy.tiebreak if schedule_policy is not None else None
        self._trace = trace
        #: True when a trace hook is installed; guards f-string construction
        #: at call sites (the guarded-trace discipline).
        self.tracing: bool = trace is not None
        #: number of events executed so far (useful for runaway detection)
        self.events_executed: int = 0
        # Classes resolved here, at construction time, to avoid a circular
        # import at module load (events.py imports this module).
        from .events import Event, Timeout
        from .process import Process

        self._event_cls = Event
        self._timeout_cls = Timeout
        self._process_cls = Process
        self._timeout_pool: list = []
        self._timeout_allocs = 0
        self._timeout_reuses = 0
        self._recorder = None

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: "Event", delay: int = 0) -> None:
        """Place *event* on the calendar ``delay`` nanoseconds from now.

        ``delay`` must be a non-negative integer (``bool`` is rejected —
        ``schedule(ev, True)`` is always a bug, not a 1 ns delay).  The
        event fires after all events already scheduled for the same instant.
        """
        if type(delay) is not int or delay < 0:
            delay = _checked_delay(delay)
        self._seq = seq = self._seq + 1
        when = self._now + delay
        tiebreak = self._tiebreak
        if tiebreak is None:
            heappush(self._queue, (when, seq, event))
        else:
            heappush(self._queue, (when, tiebreak(when, seq), seq, event))

    def call_in(self, delay: int, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` to run ``delay`` ns from now.

        The fast path for fire-and-forget deliveries: no Event object is
        created and the callable runs straight off the calendar.  Ordering
        relative to events scheduled for the same instant follows the usual
        sequence-number tie-break; ``delay`` is validated as in
        :meth:`schedule`.
        """
        if type(delay) is not int or delay < 0:
            delay = _checked_delay(delay)
        self._seq = seq = self._seq + 1
        when = self._now + delay
        tiebreak = self._tiebreak
        if tiebreak is None:
            heappush(self._queue, (when, seq, CallbackEntry(fn, arg)))
        else:
            heappush(self._queue, (when, tiebreak(when, seq), seq, CallbackEntry(fn, arg)))

    def timeout(self, delay: int, value: Any = None) -> "Event":
        """Return an event that fires ``delay`` ns from now with ``value``.

        Timeouts are the dominant allocation of process-driven loops, so
        this goes through the freelist when possible.  Recycled timeouts
        arrive with ``_ok`` True and ``_cbs`` None by construction (only
        dispatched timeouts are pooled), so only ``delay``, ``_value`` and
        ``_cb1`` need resetting.
        """
        pool = self._timeout_pool
        if not pool:
            self._timeout_allocs += 1
            return self._timeout_cls(self, delay, value)
        t = pool[-1]
        self.schedule(t, delay)  # validates before the pooled object is taken
        pool.pop()
        self._timeout_reuses += 1
        t.delay = delay
        t._value = value
        t._cb1 = None
        return t

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute the next calendar entry, advancing the clock.

        Raises :class:`IndexError` on an empty calendar.
        """
        if not self._queue:
            raise IndexError("step on an empty calendar")
        rec = self._recorder
        self._drain(INF, 1, None if rec is None else rec.fire)

    def peek(self) -> Optional[int]:
        """Return the firing time of the next event, or ``None`` if idle."""
        return self._queue[0][0] if self._queue else None

    def run(
        self,
        until: "Event | int | None" = None,
        *,
        max_events: Optional[int] = None,
    ) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the calendar is empty.
            an :class:`~repro.simnet.events.Event` (including a process)
                run until that event has triggered and return its value
                (raising if it failed).
            an ``int``
                run until simulated time reaches that many nanoseconds.
        max_events:
            Optional hard cap on the number of events this call executes,
            as a guard against accidental infinite simulations.  The
            :class:`SimulationError` is raised when an event beyond the
            cap is due; the undispatched entries stay on the calendar.
        """
        stop_time: Optional[int] = None
        target: Optional["Event"] = None
        if isinstance(until, self._event_cls):
            target = until
            if target.triggered:
                return target.result()
            target.add_callback(self._stop_on_target)
        elif isinstance(until, int):
            stop_time = until
        elif until is not None:
            raise SimulationError(f"invalid 'until' argument: {until!r}")

        rec = self._recorder
        try:
            if self._drain(
                INF if stop_time is None else stop_time,
                INF if max_events is None else max_events,
                None if rec is None else rec.fire,
            ):
                raise SimulationError(f"exceeded max_events={max_events}")
        except StopSimulation:
            pass

        if target is not None:
            if not target.triggered:
                raise SimulationError("simulation ended before 'until' event triggered (deadlock?)")
            return target.result()
        return None

    def _drain(self, stop, budget, fire) -> bool:
        """Pop, dispatch and recycle entries until the calendar is empty or
        the next entry lies beyond *stop* (returns False), or until
        *budget* events have run and another one is due (returns True).

        *fire* is the capture hook (``fire(entry, when)``) or ``None``.
        Events are counted when they leave the calendar, before their
        callbacks run, so an exception escaping a callback leaves the
        interrupted event counted.
        """
        queue = self._queue
        pool = self._timeout_pool
        TO = self._timeout_cls
        grc = getrefcount
        limit = self.events_executed + budget
        while queue:
            when = queue[0][0]
            if when > stop:
                self._now = stop
                return False
            executed = self.events_executed
            if executed >= limit:
                return True
            e = heappop(queue)[-1]
            self._now = when
            self.events_executed = executed + 1
            if fire is None:
                e._run()
            else:
                fire(e, when)
            # Recycle plain Timeouts nothing else references: refcount 2
            # means only the local variable and getrefcount's argument hold
            # it, so reuse can never be observed by user code.
            # (CPython-specific; elsewhere the count is conservative and
            # pooling just idles.)
            if e.__class__ is TO and grc(e) == 2 and len(pool) < TIMEOUT_POOL_MAX:
                pool.append(e)
        return False

    def _stop_on_target(self, _event: "Event") -> None:
        raise StopSimulation()

    # ------------------------------------------------------------------
    # calendar introspection
    # ------------------------------------------------------------------
    def peek_next_time(self) -> Optional[int]:
        """Firing time of the next calendar entry, or ``None`` if idle.

        Alias of :meth:`peek` — the public way for tests/telemetry to ask
        "is anything pending, and when?".
        """
        return self.peek()

    def calendar_stats(self) -> dict:
        """Snapshot of calendar counters (cheap; safe to call mid-run).

        ``now``, ``events_executed``, ``pending``, ``next_time``,
        ``timeout_allocs``, ``timeout_reuses``, ``timeout_pool``.  The
        timeout freelist hit rate is ``timeout_reuses / (timeout_reuses +
        timeout_allocs)``.
        """
        return {
            "now": self._now,
            "events_executed": self.events_executed,
            "pending": len(self._queue),
            "next_time": self.peek(),
            "timeout_allocs": self._timeout_allocs,
            "timeout_reuses": self._timeout_reuses,
            "timeout_pool": len(self._timeout_pool),
        }

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def event(self) -> "Event":
        """Return a fresh untriggered event."""
        return self._event_cls(self)

    def process(self, generator: Iterator[Any], name: str = "") -> "Process":
        """Spawn *generator* as a simulation process starting now."""
        return self._process_cls(self, generator, name=name)

    def trace(self, category: str, message: str) -> None:
        """Emit a trace record if tracing is enabled."""
        if self._trace is not None:
            self._trace(self._now, category, message)
