"""The simulated CPU.

The execution engine reduces all activity (JIT code, JVM internals, kernel
work, daemon work) to :class:`Quantum` records: "the program counter swept
``code_len`` bytes starting at ``pc_start`` while these event deltas
accrued".  The CPU's job is the part a real profiler gets from hardware for
free: as each quantum is consumed, every armed performance counter counts
down, and the quantum is *split at the exact cycle of the earliest counter
overflow* so the NMI handler observes a precise program-counter value.
Events are assumed to accrue uniformly across a quantum — quanta are small
(a few hundred to a few thousand cycles), so this matches the interpolation
error of real skid-prone P4 sampling rather well.

NMI-handler execution itself consumes cycles.  Those cycles are charged to
the CPU clock (they are the dominant component of profiling overhead) and
are run through the counters with interrupts masked, so counter state stays
consistent but no nested samples are taken — overflows occurring inside the
handler are recorded as ``masked_overflows``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CounterError, HardwareError
from repro.hardware.counters import CounterBank
from repro.hardware.events import EventCounts
from repro.hardware.interrupts import CpuMode, InterruptFrame, NMILine

__all__ = ["Quantum", "CPU", "CpuMode"]

#: Instruction alignment used when interpolating an overflow PC.
_PC_ALIGN = 4

#: Safety valve: a single quantum may not be split more often than this.
#: (With the paper's minimum period of 45 000 cycles and quanta of ~2 000
#: cycles a quantum is split at most once or twice.)
_MAX_SPLITS = 100_000


@dataclass(frozen=True, slots=True)
class Quantum:
    """A slice of execution.

    Attributes:
        pc_start: first program-counter value covered.
        code_len: byte span swept by the PC during the quantum; the overflow
            PC is interpolated inside ``[pc_start, pc_start + code_len)``.
        counts: hardware-event deltas accrued across the quantum.
        mode: privilege mode the quantum runs in.
    """

    pc_start: int
    code_len: int
    counts: EventCounts
    mode: CpuMode = CpuMode.USER

    def __post_init__(self) -> None:
        if self.pc_start < 0:
            raise HardwareError(f"negative pc_start {self.pc_start:#x}")
        if self.code_len < 0:
            raise HardwareError(f"negative code_len {self.code_len}")


@dataclass(slots=True)
class CpuStats:
    """Counters the engine reads back after a run."""

    user_cycles: int = 0
    kernel_cycles: int = 0
    nmi_handler_cycles: int = 0
    nmi_count: int = 0
    masked_overflows: int = 0
    quanta: int = 0
    splits: int = 0

    @property
    def total_cycles(self) -> int:
        return self.user_cycles + self.kernel_cycles


class CPU:
    """Single simulated core: clock, counter bank, NMI line, current task."""

    def __init__(self, counters: CounterBank | None = None) -> None:
        self.counters = counters if counters is not None else CounterBank()
        self.nmi = NMILine()
        self.cycle = 0
        self.current_task_id = 0
        self.stats = CpuStats()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, quantum: Quantum) -> None:
        """Consume one quantum, raising NMIs at each counter overflow."""
        self.execute_raw(
            quantum.pc_start, quantum.code_len, quantum.counts.as_tuple(),
            quantum.mode,
        )

    def execute_raw(
        self,
        pc_start: int,
        code_len: int,
        counts: tuple[int, ...],
        mode: CpuMode = CpuMode.USER,
    ) -> None:
        """:meth:`execute` on plain integers: ``counts`` holds the seven
        event deltas in :meth:`EventCounts.as_tuple` order.

        The quantum is split at each counter overflow.  For the counter
        whose overflow lands earliest in cycle space (ties: first
        programmed), the part before the overflow takes ``v * cyc_at //
        cycles`` of every remaining delta ``v`` with the firing counter's
        own field forced to its overflow distance (so rounding cannot
        strand the overflow); the remainder is the difference clamped at
        zero.  Every live counter consumes the part before — non-firing
        ones may overflow silently there — the clock advances, and the NMI
        is raised at the PC interpolated at that cycle.  The bank's live
        list is fetched afresh on every pass, so an NMI handler that
        reprograms the counters takes effect for the rest of the quantum.
        """
        if pc_start < 0:
            raise HardwareError(f"negative pc_start {pc_start:#x}")
        if code_len < 0:
            raise HardwareError(f"negative code_len {code_len}")
        c0, c1, c2, c3, c4, c5, c6 = counts
        if (c0 | c1 | c2 | c3 | c4 | c5 | c6) < 0:
            EventCounts(*counts)  # raises ConfigError naming the field
        stats = self.stats
        stats.quanta += 1
        kernel_mode = mode is CpuMode.KERNEL
        total = c0
        rem = counts
        done = 0
        splits = 0

        while True:
            live = self.counters.live[kernel_mode]
            rc = rem[0]
            fire = None
            for ctr, fi in live:
                delta = rem[fi]
                r = ctr.remaining
                if delta >= r and delta:
                    cyc = (r * rc) // delta if rc else 0
                    if fire is None or cyc < cyc_at:
                        fire, fire_fi, at, cyc_at = ctr, fi, r, cyc
            if fire is None:
                part = rem
            else:
                splits += 1
                stats.splits += 1
                if splits > _MAX_SPLITS:
                    raise HardwareError(
                        f"quantum at pc={pc_start:#x} split more than "
                        f"{_MAX_SPLITS} times; sampling period too small "
                        f"for quantum size"
                    )
                if rc:
                    part = [(v * cyc_at) // rc for v in rem]
                else:
                    part = [0] * len(rem)
                part[fire_fi] = at
                rem = [v - p if v > p else 0 for v, p in zip(rem, part)]

            # Every live counter consumes the part; the firing counter
            # reloads, any other overflow in it passes without an NMI.
            for ctr, fi in live:
                d = part[fi]
                if d > 0:
                    r = ctr.remaining
                    if d < r:
                        ctr.remaining = r - d
                    else:
                        period = ctr.config.period
                        d -= r
                        ctr.remaining = period - d % period
                        ctr.overflows += 1 + d // period
                elif d:
                    raise CounterError(f"negative event delta {d}")
            cyc = part[0]
            self.cycle += cyc
            if kernel_mode:
                stats.kernel_cycles += cyc
            else:
                stats.user_cycles += cyc
            if fire is None:
                return

            done += cyc
            if total <= 0 or code_len == 0:
                pc = pc_start
            else:
                off = (code_len * (done if done < total else total)) // total
                off -= off % _PC_ALIGN
                if off >= code_len:
                    off = max(0, code_len - (code_len % _PC_ALIGN or _PC_ALIGN))
                pc = pc_start + off
            handler_cycles = self.nmi.raise_nmi(
                InterruptFrame(
                    pc=pc,
                    mode=mode,
                    event_name=fire.event.name,
                    task_id=self.current_task_id,
                    cycle=self.cycle,
                )
            )
            if handler_cycles:
                stats.nmi_count += 1
                self._run_masked(handler_cycles)

    def idle(self, cycles: int) -> None:
        """Halt for ``cycles``: the clock advances but no events accrue
        (GLOBAL_POWER_EVENTS counts only un-halted time, so an idle CPU
        takes no samples — real OProfile behaves the same way)."""
        if cycles < 0:
            raise HardwareError(f"negative idle time {cycles}")
        self.cycle += cycles

    def _run_masked(self, handler_cycles: int) -> None:
        """Charge NMI-handler cycles with further NMIs masked.

        The handler runs in kernel mode; its cycles still tick the cycle
        counter (real profilers *do* sample their own handler occasionally;
        we model the P4 behaviour of the overflow being latched-and-lost),
        so overflows inside the handler reload silently.
        """
        self.stats.masked_overflows += self.counters.advance(
            (handler_cycles, handler_cycles // 2, 0, 0, 0, 0, 0), True
        )
        self.cycle += handler_cycles
        self.stats.kernel_cycles += handler_cycles
        self.stats.nmi_handler_cycles += handler_cycles
