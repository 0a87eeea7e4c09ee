"""Deterministic discrete-event simulation kernel.

The simulator drives everything in this repository: links, protocol stacks,
endpoints, controllers, and rendezvous servers are all simulated processes
exchanging events in virtual time.

Design:

- Virtual time is a ``float`` number of seconds. Events scheduled for the
  same instant run in scheduling order (a monotonically increasing sequence
  number breaks ties), which makes every run bit-for-bit reproducible.
- The pending-event set lives in a pluggable :class:`EventScheduler`. Two
  implementations ship: the classic binary heap (:class:`HeapScheduler`,
  the default) and a calendar queue (:class:`CalendarScheduler`) whose
  push/pop cost stays flat as the pending set grows to fleet scale. Both
  drain events in exactly the same ``(time, seq)`` total order, so a
  same-seed run is byte-identical regardless of the scheduler — the
  differential determinism suite asserts this.
- Cancelled timers are purged lazily: each scheduler counts cancellations
  and compacts its storage once more than half of the stored entries are
  dead, so tight create/cancel loops (RPC timeouts, retry backoff,
  the timeouts behind ``any_of`` calls) cannot bloat the pending set.
- :func:`any_of` spawns no processes: a slotted waiter object sits on
  each event and is resumed one tick after the fire, just as a waiting
  process would be; the first to resume fires the combined event and
  detaches the rest from their events.
- Concurrency uses plain Python generators (SimPy style). A process is a
  generator that ``yield``s what it wants to wait for:

  * a number — sleep that many seconds of virtual time,
  * an :class:`Event` — resume when the event fires (receiving its value),
  * a :class:`Process` — resume when that process finishes (receiving its
    return value, or re-raising its exception),
  * ``None`` — yield the scheduler for one tick (resume at the same time).

- A process finishes by returning; its return value becomes the result seen
  by joiners. An uncaught exception inside a process is delivered to its
  joiners, or — if nothing ever joins it — re-raised out of
  :meth:`Simulator.run` so that failures never pass silently.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional, Union

from repro.obs import Observability

ProcessGen = Generator[Any, Any, Any]

# Compact when more than half the stored entries are cancelled, but never
# bother below this floor (tiny pending sets are cheap to carry).
_PURGE_MIN = 64


class SimError(Exception):
    """Raised for misuse of the simulation kernel."""


class Timer:
    """Handle for a scheduled callback; may be cancelled before it fires."""

    __slots__ = ("time", "_callback", "_args", "cancelled", "_sched")

    def __init__(self, time: float, callback: Callable[..., None], args: tuple):
        self.time = time
        self._callback = callback
        self._args = args
        self.cancelled = False
        # The scheduler currently storing this timer; used for lazy-purge
        # accounting and cleared when the timer is popped or dropped.
        self._sched: Optional["EventScheduler"] = None

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            sched = self._sched
            if sched is not None:
                sched._note_cancel()

    def _fire(self) -> None:
        if not self.cancelled:
            self._callback(*self._args)


# A scheduler entry. The tuple shape keeps comparisons in C: ``seq`` is
# unique, so ordering never reaches the (incomparable) Timer.
Entry = "tuple[float, int, Timer]"


class EventScheduler:
    """Ordered storage for pending timers: the kernel's hot data structure.

    The contract every implementation must honor:

    - :meth:`push` stores an entry; :meth:`pop` returns the live entry with
      the smallest ``(time, seq)`` (skipping and discarding cancelled
      timers), or ``None`` when drained.
    - ``len(sched)`` is the number of *live* (non-cancelled) entries.
    - ``(time, seq)`` pop order is a strict total order identical across
      implementations — this is what keeps same-seed runs byte-identical
      under any scheduler.
    - ``_note_cancel`` is called by :meth:`Timer.cancel` while the timer is
      stored; implementations use it to trigger lazy compaction.
    """

    name = "abstract"

    def push(self, time: float, seq: int, timer: Timer) -> None:
        raise NotImplementedError

    def pop(self) -> Optional[tuple]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def _note_cancel(self) -> None:
        raise NotImplementedError


class HeapScheduler(EventScheduler):
    """The classic binary-heap scheduler (seed behavior) with lazy purge."""

    name = "heap"

    __slots__ = ("_heap", "_cancelled")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Timer]] = []
        self._cancelled = 0

    def push(self, time: float, seq: int, timer: Timer) -> None:
        timer._sched = self
        heapq.heappush(self._heap, (time, seq, timer))

    def pop(self) -> Optional[tuple]:
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            timer = entry[2]
            timer._sched = None
            if timer.cancelled:
                self._cancelled -= 1
                continue
            return entry
        return None

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def _note_cancel(self) -> None:
        self._cancelled += 1
        if self._cancelled > _PURGE_MIN and self._cancelled * 2 > len(self._heap):
            self._purge()

    def _purge(self) -> None:
        live = []
        for entry in self._heap:
            if entry[2].cancelled:
                entry[2]._sched = None
            else:
                live.append(entry)
        heapq.heapify(live)
        self._heap = live
        self._cancelled = 0


class CalendarScheduler(EventScheduler):
    """A calendar-queue (bucketed) scheduler with O(1) amortized push/pop.

    Entries hash into ``nbuckets`` circular buckets by epoch number
    ``int(time * 1/width)``; the queue maintains a sorted *ready* run for
    the current epoch and advances epoch by epoch, sorting one bucket's
    due entries at a time. An empty full cycle jumps straight to the
    earliest epoch, so sparse regions cost one scan instead of a spin.

    The bucket width auto-tunes from an EWMA of observed inter-event gaps
    at each growth rebuild; pass ``bucket_width`` to pin it. Pop order is
    strictly ``(time, seq)`` — identical to :class:`HeapScheduler`.
    """

    name = "calendar"

    MIN_BUCKETS = 256

    __slots__ = (
        "_buckets", "_nbuck", "_width", "_inv_width", "_fixed_width",
        "_epoch", "_ready", "_ri", "_count", "_cancelled",
        "_last_pop_time", "_gap_ewma",
    )

    def __init__(self, bucket_width: Optional[float] = None,
                 bucket_count: int = MIN_BUCKETS) -> None:
        if bucket_width is not None and bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        self._fixed_width = bucket_width is not None
        self._width = float(bucket_width) if bucket_width else 1e-3
        self._inv_width = 1.0 / self._width
        self._nbuck = max(4, bucket_count)
        self._buckets: list[list] = [[] for _ in range(self._nbuck)]
        self._epoch = 0  # entries with epoch key <= _epoch live in _ready
        self._ready: list = []  # ascending (time, seq, timer)
        self._ri = 0  # consumed prefix of _ready
        self._count = 0  # stored entries, live + cancelled
        self._cancelled = 0
        self._last_pop_time = 0.0
        self._gap_ewma = self._width

    def push(self, time: float, seq: int, timer: Timer) -> None:
        timer._sched = self
        entry = (time, seq, timer)
        # The epoch key must be computed with the exact same float
        # expression everywhere, or boundary rounding could misfile an
        # entry and break the (time, seq) total order.
        if int(time * self._inv_width) <= self._epoch:
            # Belongs to the already-open window: merge into the ready run.
            # Insert at or after the consumed prefix, never before it —
            # anything behind `_ri` is invisible to the drain cursor.
            insort(self._ready, entry, lo=self._ri)
        else:
            self._buckets[int(time * self._inv_width) % self._nbuck].append(entry)
        self._count += 1
        if self._count > 8 * self._nbuck:
            self._rebuild(self._nbuck * 2)

    def pop(self) -> Optional[tuple]:
        while self._count:
            ready = self._ready
            ri = self._ri
            if ri < len(ready):
                entry = ready[ri]
                self._ri = ri + 1
                self._count -= 1
                timer = entry[2]
                timer._sched = None
                if timer.cancelled:
                    self._cancelled -= 1
                    continue
                time = entry[0]
                gap = time - self._last_pop_time
                if gap > 0.0:
                    self._gap_ewma += 0.05 * (gap - self._gap_ewma)
                    self._last_pop_time = time
                return entry
            self._advance()
        return None

    def __len__(self) -> int:
        return self._count - self._cancelled

    def _note_cancel(self) -> None:
        self._cancelled += 1
        if self._cancelled > _PURGE_MIN and self._cancelled * 2 > self._count:
            self._rebuild(self._nbuck)

    # -- internals --------------------------------------------------------

    def _advance(self) -> None:
        """Open the next non-empty epoch window into the ready run."""
        if self._ri:
            del self._ready[: self._ri]
            self._ri = 0
        nbuck = self._nbuck
        buckets = self._buckets
        inv = self._inv_width
        epoch = self._epoch
        for _ in range(nbuck):
            epoch += 1
            bucket = buckets[epoch % nbuck]
            if bucket:
                take = [e for e in bucket if int(e[0] * inv) <= epoch]
                if take:
                    if len(take) == len(bucket):
                        bucket.clear()
                    else:
                        buckets[epoch % nbuck] = [
                            e for e in bucket if int(e[0] * inv) > epoch
                        ]
                    take.sort()
                    self._ready = take
                    self._ri = 0
                    self._epoch = epoch
                    return
        # A full cycle found nothing due: jump straight to the earliest
        # epoch present (sparse region / long idle gap).
        best = None
        for bucket in buckets:
            for e in bucket:
                key = int(e[0] * inv)
                if best is None or key < best:
                    best = key
        assert best is not None  # _count > 0 guarantees entries exist
        bucket = buckets[best % nbuck]
        take = [e for e in bucket if int(e[0] * inv) <= best]
        keep = [e for e in bucket if int(e[0] * inv) > best]
        buckets[best % nbuck] = keep
        take.sort()
        self._ready = take
        self._ri = 0
        self._epoch = best

    def _rebuild(self, nbuck: int) -> None:
        """Re-bucket everything: grow, retune width, and drop cancelled."""
        live = []
        for e in self._ready[self._ri:]:
            if e[2].cancelled:
                e[2]._sched = None
            else:
                live.append(e)
        for bucket in self._buckets:
            for e in bucket:
                if e[2].cancelled:
                    e[2]._sched = None
                else:
                    live.append(e)
        if not self._fixed_width:
            # Aim for a handful of events per bucket-window at the
            # observed drain rate; clamp against degenerate gaps.
            width = min(max(4.0 * self._gap_ewma, 1e-9), 3600.0)
            self._width = width
            self._inv_width = 1.0 / width
        self._nbuck = max(4, nbuck)
        self._buckets = [[] for _ in range(self._nbuck)]
        self._count = len(live)
        self._cancelled = 0
        inv = self._inv_width
        # Re-anchor the epoch at the drain point: everything still stored
        # is at or after the last popped time.
        self._epoch = epoch = int(self._last_pop_time * inv)
        ready = []
        for entry in live:
            if int(entry[0] * inv) <= epoch:
                ready.append(entry)
            else:
                self._buckets[int(entry[0] * inv) % self._nbuck].append(entry)
        ready.sort()
        self._ready = ready
        self._ri = 0


_SCHEDULERS = {
    "heap": HeapScheduler,
    "calendar": CalendarScheduler,
}


def make_scheduler(
    scheduler: Union[None, str, EventScheduler] = None,
) -> EventScheduler:
    """Resolve the ``Simulator(scheduler=...)`` argument."""
    if scheduler is None:
        return HeapScheduler()
    if isinstance(scheduler, str):
        try:
            return _SCHEDULERS[scheduler]()
        except KeyError:
            raise SimError(
                f"unknown scheduler {scheduler!r} "
                f"(available: {sorted(_SCHEDULERS)})"
            ) from None
    if isinstance(scheduler, EventScheduler):
        return scheduler
    raise SimError(f"scheduler must be a name or EventScheduler, got {scheduler!r}")


class Event:
    """One-shot broadcast event carrying an optional value.

    Processes wait on an event by yielding it. Firing resumes every waiter
    (at the current virtual time) with the fired value; waiters arriving
    after the fire resume immediately.
    """

    __slots__ = ("_sim", "_fired", "_value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._fired = False
        self._value: Any = None
        self._waiters: list[Process] = []
        self.name = name

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        return self._value

    def fire(self, value: Any = None) -> None:
        if self._fired:
            raise SimError(f"event {self.name or id(self)} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        if waiters:
            sim = self._sim
            if len(waiters) == 1:
                sim._resume_soon(waiters[0], value)
            else:
                # One timer resumes the whole cohort in waiter order —
                # same relative order as per-waiter timers (they would
                # have held consecutive sequence numbers), minus the
                # per-waiter Timer and scheduler traffic.
                sim._resume_batch(waiters, value)

    def _add_waiter(self, proc: "Process") -> None:
        if self._fired:
            self._sim._resume_soon(proc, self._value)
        else:
            self._waiters.append(proc)

    def _remove_waiter(self, proc: "Process") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass


class Queue:
    """Unbounded FIFO queue with blocking ``get`` for simulated processes.

    ``put`` never blocks. ``get`` returns an :class:`Event` to yield on; if
    an item is already available the event is pre-fired, so ``item = yield
    queue.get()`` works uniformly.
    """

    __slots__ = ("_sim", "_items", "_getters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.name = name

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().fire(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self._sim, name=f"queue-get:{self.name}")
        if self._items:
            event.fire(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def peek_all(self) -> list[Any]:
        return list(self._items)


class Process:
    """A running simulated process wrapping a generator."""

    __slots__ = (
        "_sim",
        "_gen",
        "name",
        "alive",
        "result",
        "error",
        "_completion",
        "_waiting_on",
        "_joined",
    )

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        self._sim = sim
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._completion = Event(sim, name=f"completion:{self.name}")
        self._waiting_on: Any = None
        self._joined = False

    @property
    def completion(self) -> Event:
        """Event fired (with the result) when the process finishes."""
        return self._completion

    def kill(self) -> None:
        """Terminate the process without running it further."""
        if not self.alive:
            return
        self.alive = False
        if isinstance(self._waiting_on, Event):
            self._waiting_on._remove_waiter(self)
        elif isinstance(self._waiting_on, Timer):
            self._waiting_on.cancel()
        self._waiting_on = None
        self._gen.close()
        if not self._completion.fired:
            self._joined = True  # killed on purpose; never re-raise at run()
            self._completion.fire(None)

    def _add_waiter(self, proc: "Process") -> None:
        """Support ``yield process`` (join)."""
        self._joined = True
        self._completion._add_waiter(proc)

    def _step(self, send_value: Any = None, throw: Optional[BaseException] = None) -> None:
        if not self.alive:
            return
        self._waiting_on = None
        try:
            if throw is not None:
                target = self._gen.throw(throw)
            else:
                target = self._gen.send(send_value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            self._completion.fire(_Result(stop.value, None))
            return
        except BaseException as exc:  # noqa: BLE001 - delivered to joiners
            self.alive = False
            self.error = exc
            sim = self._sim
            if sim.obs.enabled:
                sim.obs.counter("kernel.process_failures").inc()
            if not self._joined:
                sim._record_orphan_error(self, exc)
            self._completion.fire(_Result(None, exc))
            return
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        sim = self._sim
        if target is None:
            sim._resume_soon(self, None)
        elif isinstance(target, (int, float)):
            if target < 0:
                raise SimError(f"process {self.name} yielded negative delay {target}")
            self._waiting_on = sim.schedule(target, self._step, None)
        elif isinstance(target, Event):
            self._waiting_on = target
            target._add_waiter(self)
        elif isinstance(target, Process):
            self._waiting_on = target._completion
            target._add_waiter(self)
        else:
            raise SimError(
                f"process {self.name} yielded unsupported object {target!r}"
            )


class _Result:
    """Internal wrapper distinguishing results from exceptions at resume."""

    __slots__ = ("value", "error")

    def __init__(self, value: Any, error: Optional[BaseException]):
        self.value = value
        self.error = error


class Simulator:
    """The discrete-event scheduler."""

    def __init__(
        self,
        obs: Optional[Observability] = None,
        scheduler: Union[None, str, EventScheduler] = None,
    ) -> None:
        self._now = 0.0
        self._sched = make_scheduler(scheduler)
        self._seq = 0
        self._orphan_errors: list[tuple[Process, BaseException]] = []
        self._running = False
        self._halt = False
        # Per-simulator observability hub; disabled unless a caller opts in.
        self.obs = obs if obs is not None else Observability()
        self.obs.bind_clock(lambda: self._now)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def scheduler(self) -> EventScheduler:
        return self._sched

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimError(f"cannot schedule at {time} < now {self._now}")
        timer = Timer(time, callback, args)
        self._seq += 1
        self._sched.push(time, self._seq, timer)
        return timer

    def _resume_soon(self, proc: Process, value: Any) -> None:
        if isinstance(value, _Result):
            if value.error is not None:
                self.schedule(0.0, proc._step, None, value.error)
            else:
                self.schedule(0.0, proc._step, value.value)
        else:
            self.schedule(0.0, proc._step, value)

    def _resume_batch(self, procs: list[Process], value: Any) -> None:
        """Resume a cohort of waiters with one scheduler entry."""
        self.schedule(0.0, self._step_batch, procs, value)

    def _step_batch(self, procs: list[Process], value: Any) -> None:
        if isinstance(value, _Result):
            if value.error is not None:
                error = value.error
                for proc in procs:
                    proc._step(None, error)
                return
            value = value.value
        for proc in procs:
            proc._step(value)

    # -- processes --------------------------------------------------------

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a new process from a generator; it runs from the next tick."""
        proc = Process(self, gen, name=name)
        self.schedule(0.0, proc._step, None)
        if self.obs.enabled:
            self.obs.counter("kernel.processes_spawned").inc()
        return proc

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def queue(self, name: str = "") -> Queue:
        return Queue(self, name=name)

    def _record_orphan_error(self, proc: Process, exc: BaseException) -> None:
        self._orphan_errors.append((proc, exc))
        if self.obs.enabled:
            self.obs.emit(
                "kernel", "process-failed", process=proc.name,
                error=type(exc).__name__,
            )

    # -- execution --------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run queued events until the scheduler drains or ``until`` is
        reached.

        Raises the first exception that escaped a process nobody joined.
        """
        if self._running:
            raise SimError("re-entrant Simulator.run")
        self._running = True
        # Hot loop: the scheduler's pop already filters cancelled timers,
        # the callback is invoked without the _fire indirection, and the
        # orphan check only runs when an error is actually pending.
        # Telemetry accumulates in locals and is flushed once per run()
        # call, so a disabled run pays nothing beyond the `enabled` read.
        sched = self._sched
        pop = sched.pop
        orphans = self._orphan_errors
        enabled = self.obs.enabled
        events = 0
        max_depth = 0
        try:
            while True:
                entry = pop()
                if entry is None:
                    break
                time = entry[0]
                if until is not None and time > until:
                    sched.push(time, entry[1], entry[2])
                    break
                self._now = time
                timer = entry[2]
                timer._callback(*timer._args)
                if orphans:
                    self._check_orphans()
                events += 1
                if enabled:
                    depth = len(sched)
                    if depth > max_depth:
                        max_depth = depth
                if self._halt:
                    # halt() leaves queued events in place (the clock is
                    # NOT advanced to `until`); a later run() resumes.
                    break
                if events >= max_events:
                    raise SimError(f"event budget exhausted ({max_events} events)")
            if until is not None and self._now < until and not self._halt:
                self._now = until
        finally:
            self._running = False
            self._halt = False
            if enabled:
                obs = self.obs
                obs.counter("kernel.run_calls").inc()
                if events:
                    obs.counter("kernel.events").inc(events)
                obs.gauge("kernel.heap_depth_max").set_max(max_depth)

    def halt(self) -> None:
        """Make the in-flight :meth:`run` return after the current event.

        Unlike reaching ``until``, a halt neither drains nor fast-forwards:
        pending events stay queued at their times and ``now`` stays put,
        so a later ``run()`` continues seamlessly.
        """
        self._halt = True

    def _halt_when_fired(self, completion: Event) -> ProcessGen:
        try:
            yield completion
        except GeneratorExit:
            raise
        except BaseException:  # noqa: BLE001 - the orphan path reports it
            pass
        self.halt()

    def run_process(self, gen: ProcessGen, name: str = "",
                    timeout: Optional[float] = None,
                    halt_on_completion: bool = False) -> Any:
        """Spawn ``gen``, run until it completes, and return its result.

        Convenience used heavily by tests and examples. By default the
        run keeps draining events after the process finishes (work the
        process pre-scheduled — future ``nsend`` deliveries, in-flight
        packets — still lands). With ``halt_on_completion`` the run
        stops at the process's last event instead, so perpetual
        background processes (heartbeat publishers, reconnect
        supervisors) do not force the simulation to grind on to
        ``timeout`` after the work is done.
        """
        proc = self.spawn(gen, name=name)
        deadline = None if timeout is None else self._now + timeout
        if halt_on_completion:
            self.spawn(self._halt_when_fired(proc.completion),
                       name=f"halt-on:{proc.name}")
        self.run(until=deadline)
        if proc.error is not None:
            raise proc.error
        if proc.alive:
            raise SimError(f"process {proc.name} did not finish (timeout={timeout})")
        return proc.result

    def _check_orphans(self) -> None:
        if self._orphan_errors:
            proc, exc = self._orphan_errors[0]
            self._orphan_errors.clear()
            raise SimError(f"process {proc.name!r} failed: {exc!r}") from exc


def all_of(sim: Simulator, events: Iterable[Event]) -> Event:
    """An event that fires (with a list of values) when all ``events`` have."""
    events = list(events)
    combined = sim.event(name="all_of")
    pending = len(events)
    values: list[Any] = [None] * len(events)
    if pending == 0:
        combined.fire([])
        return combined

    def waiter(index: int, event: Event) -> ProcessGen:
        value = yield event
        nonlocal pending
        values[index] = value
        pending -= 1
        if pending == 0:
            combined.fire(values)

    for index, event in enumerate(events):
        sim.spawn(waiter(index, event), name=f"all_of[{index}]")
    return combined


class _AnyOfWaiter:
    """Stands in for a waiting process on one of :func:`any_of`'s events:
    the event resumes it one tick after the fire, in waiter order."""

    __slots__ = ("combined", "index", "siblings")

    def __init__(self, combined: Event, index: int,
                 siblings: list[tuple[Event, "_AnyOfWaiter"]]) -> None:
        self.combined = combined
        self.index = index
        self.siblings = siblings

    def _step(self, value: Any = None, throw: Optional[BaseException] = None) -> None:
        combined = self.combined
        if combined._fired:
            return
        if throw is not None:
            combined.fire(_Result(None, throw))
        else:
            combined.fire((self.index, value))
        for event, waiter in self.siblings:
            if waiter is not self:
                event._remove_waiter(waiter)


def any_of(sim: Simulator, events: Iterable[Event]) -> Event:
    """An event that fires with ``(index, value)`` of the first to fire.

    No process is spawned: a slotted waiter object sits on each event.
    When the first one fires, its waiter fires the combined event and
    detaches the others from their events, so long-lived events (timeouts
    that never trip, queues that never drain) do not accumulate dead
    waiters. If the first event is a failed process's completion, the
    failure is raised in whoever waits on the combined event.
    """
    combined = sim.event(name="any_of")
    siblings: list[tuple[Event, _AnyOfWaiter]] = []
    for index, event in enumerate(events):
        waiter = _AnyOfWaiter(combined, index, siblings)
        siblings.append((event, waiter))
        event._add_waiter(waiter)  # type: ignore[arg-type]
    return combined
