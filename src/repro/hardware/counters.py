"""Hardware performance counter bank.

OProfile programs each counter with a *reset value* equal to the sampling
period: the counter counts up (we model it as counting *down* from the reset
value, which is arithmetically identical) and raises an NMI when it reaches
zero, after which the kernel module reloads the reset value.

The subtle piece the CPU relies on is :meth:`HardwareCounter.events_to_overflow`:
given the event delta of an execution quantum, it reports how many events into
that quantum the *first* overflow lands, so the CPU can split the quantum and
compute a precise program-counter value for the interrupt — exactly the PC the
real NMI handler would read from the exception frame.  The CPU runs that test
and :meth:`HardwareCounter.consume` inline on integers, over the bank's
per-mode :attr:`CounterBank.live` lists.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import ConfigError, CounterError
from repro.hardware.events import FIELD_INDEX, EventCounts, HardwareEvent

__all__ = ["CounterConfig", "HardwareCounter", "CounterBank"]

#: Number of general counters we expose.  The Pentium 4 has 18; OProfile on
#: that hardware typically programs a handful.  Eight is plenty for every
#: configuration in the paper while still letting tests exercise "bank full".
NUM_COUNTERS = 8


@dataclass(frozen=True, slots=True)
class CounterConfig:
    """User-visible programming of one counter.

    Attributes:
        event: the hardware event to count.
        period: reset value — an NMI fires every ``period`` events.
        count_user: count events while the CPU is in user mode.
        count_kernel: count events while the CPU is in kernel mode.
    """

    event: HardwareEvent
    period: int
    count_user: bool = True
    count_kernel: bool = True

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigError(f"sampling period must be positive, got {self.period}")
        self.event.validate_period(self.period)
        if not (self.count_user or self.count_kernel):
            raise ConfigError("counter must count at least one of user/kernel mode")


@dataclass(slots=True)
class HardwareCounter:
    """One armed counter: configuration plus the live countdown state."""

    config: CounterConfig
    remaining: int = field(default=0)
    overflows: int = field(default=0)

    def __post_init__(self) -> None:
        if self.remaining == 0:
            self.remaining = self.config.period

    @property
    def event(self) -> HardwareEvent:
        return self.config.event

    def counts_in_mode(self, kernel_mode: bool) -> bool:
        """True if this counter is live in the given CPU mode."""
        return self.config.count_kernel if kernel_mode else self.config.count_user

    def events_to_overflow(self, delta: int) -> int | None:
        """Given ``delta`` upcoming events, return how many events in the
        first overflow occurs, or ``None`` if the counter survives the whole
        delta.  Does not mutate state."""
        if delta < 0:
            raise CounterError(f"negative event delta {delta}")
        if delta >= self.remaining:
            return self.remaining
        return None

    def consume(self, delta: int) -> int:
        """Consume ``delta`` events, reloading on each overflow.

        Returns the number of overflows that occurred within the delta.
        Callers that need per-overflow PCs should instead split work with
        :meth:`events_to_overflow`; this bulk form is used for counters other
        than the one that fired, and in tests.
        """
        if delta < 0:
            raise CounterError(f"negative event delta {delta}")
        fired = 0
        period = self.config.period
        if delta >= self.remaining:
            delta -= self.remaining
            fired += 1
            fired += delta // period
            self.remaining = period - (delta % period)
        else:
            self.remaining -= delta
        self.overflows += fired
        return fired

    def reload(self) -> None:
        """Explicitly reload the reset value (kernel does this in the NMI
        handler on real hardware)."""
        self.remaining = self.config.period


class CounterBank:
    """The set of armed counters on one (simulated) CPU.

    The bank enforces the physical constraints the real driver enforces:
    a bounded number of counters and one counter per event (the P4 ESCR
    allocation constraint, simplified).

    ``live[kernel_mode]`` is the list of ``(counter, field_index)`` pairs
    that count in that mode, in programming order, where ``field_index``
    is the counter's position in :meth:`EventCounts.as_tuple`.  Both lists
    are rebuilt by :meth:`program` and :meth:`clear`, so a reader that
    fetches them afresh (the CPU does, on every split) sees reprogramming
    done by an NMI handler.
    """

    def __init__(self, num_counters: int = NUM_COUNTERS) -> None:
        if num_counters <= 0:
            raise ConfigError("counter bank needs at least one counter slot")
        self._slots = num_counters
        self._counters: list[HardwareCounter] = []
        self.live: tuple[
            list[tuple[HardwareCounter, int]], list[tuple[HardwareCounter, int]]
        ] = ([], [])

    def program(self, config: CounterConfig) -> HardwareCounter:
        """Arm a counter.  Raises :class:`CounterError` when the bank is full
        or the event is already being counted."""
        if len(self._counters) >= self._slots:
            raise CounterError(f"all {self._slots} counters in use")
        if any(c.event.name == config.event.name for c in self._counters):
            raise CounterError(f"event {config.event.name} already has a counter")
        ctr = HardwareCounter(config=config)
        self._counters.append(ctr)
        self._rebuild_live()
        return ctr

    def clear(self) -> None:
        """Disarm every counter (``opcontrol --deinit``)."""
        self._counters.clear()
        self._rebuild_live()

    def _rebuild_live(self) -> None:
        # Fresh lists rather than in-place edits: a loop already iterating
        # the old list finishes on the programming it started with.
        self.live = tuple(
            [
                (c, FIELD_INDEX[c.event.counts_field])
                for c in self._counters
                if c.counts_in_mode(kernel_mode)
            ]
            for kernel_mode in (False, True)
        )

    @property
    def counters(self) -> tuple[HardwareCounter, ...]:
        return tuple(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def advance(self, values: Sequence[int], kernel_mode: bool) -> int:
        """Advance every counter live in the mode by its delta in ``values``
        (an :meth:`EventCounts.as_tuple`-ordered sequence) without raising
        interrupts; returns the number of overflows that passed silently."""
        fired = 0
        for ctr, fi in self.live[kernel_mode]:
            delta = values[fi]
            if delta:
                fired += ctr.consume(delta)
        return fired

    def first_overflow(
        self, counts: EventCounts, kernel_mode: bool
    ) -> tuple[HardwareCounter, int, int] | None:
        """Find the counter whose overflow lands earliest within ``counts``.

        Earliness is measured as a fraction of the quantum's cycles, assuming
        every event accrues uniformly across the quantum; ties go to the
        counter programmed first.  Returns ``(counter, events_into_quantum,
        cycles_into_quantum)`` for the earliest overflow, or ``None`` if no
        armed counter overflows.  (The CPU runs the same selection inline on
        plain integers.)
        """
        best: tuple[HardwareCounter, int, int] | None = None
        values = counts.as_tuple()
        cycles = values[0]
        for ctr, fi in self.live[kernel_mode]:
            delta = values[fi]
            at = ctr.events_to_overflow(delta)
            if at is None or delta == 0:
                continue
            # Cycle position of the overflow under uniform accrual.
            cyc_at = (at * cycles) // delta if cycles else 0
            if best is None or cyc_at < best[2]:
                best = (ctr, at, cyc_at)
        return best

    def consume_all(self, counts: EventCounts, kernel_mode: bool) -> None:
        """Advance every armed counter by its event delta without raising
        interrupts (see :meth:`advance`)."""
        self.advance(counts.as_tuple(), kernel_mode)
