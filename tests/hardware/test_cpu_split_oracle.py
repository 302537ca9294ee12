"""Differential test of the CPU's integer split loop against a reference.

``ReferenceCPU`` below is the quantum executor as it was written on
:class:`EventCounts` objects: ``scaled``/``minus`` arithmetic, a
``first_overflow`` scan and a ``consume_all`` pass over the whole bank
filtered by mode on every call.  :meth:`CPU.execute_raw` does the same
work on plain integers over the bank's per-mode live lists.  For random
counter programmings, quantum streams and NMI-handler behaviour (costs
that mask overflows, reprogramming the bank, re-entering the CPU) both
must produce the same frames, counter states, CPU statistics and NMI
line counts.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.hardware.counters import CounterConfig, HardwareCounter
import repro.hardware.cpu as cpu_module
from repro.hardware.cpu import _PC_ALIGN, CPU, Quantum
from repro.hardware.events import (
    BRANCH_RETIRED,
    BSQ_CACHE_REFERENCE,
    GLOBAL_POWER_EVENTS,
    INSTR_RETIRED,
    ITLB_REFERENCE,
    MISPRED_BRANCH_RETIRED,
    EventCounts,
)
from repro.hardware.interrupts import CpuMode, InterruptFrame
from repro.errors import ConfigError, HardwareError

# ----------------------------------------------------------------------
# reference implementation (EventCounts arithmetic, whole-bank scans)
# ----------------------------------------------------------------------


def ref_scaled(c: EventCounts, numer: int, denom: int) -> EventCounts:
    if denom <= 0:
        raise ConfigError("scale denominator must be positive")
    return EventCounts(*((v * numer) // denom for v in c.as_tuple()))


def ref_minus(a: EventCounts, b: EventCounts) -> EventCounts:
    return EventCounts(
        *(max(0, x - y) for x, y in zip(a.as_tuple(), b.as_tuple()))
    )


def ref_first_overflow(
    counters: tuple[HardwareCounter, ...], counts: EventCounts, kernel_mode: bool
) -> tuple[HardwareCounter, int, int] | None:
    best = None
    cycles = counts.cycles
    for ctr in counters:
        if not ctr.counts_in_mode(kernel_mode):
            continue
        delta = counts.get(ctr.event.counts_field)
        at = ctr.events_to_overflow(delta)
        if at is None:
            continue
        if delta == 0:
            continue
        cyc_at = (at * cycles) // delta if cycles else 0
        if best is None or cyc_at < best[2]:
            best = (ctr, at, cyc_at)
    return best


def ref_consume_all(
    counters: tuple[HardwareCounter, ...], counts: EventCounts, kernel_mode: bool
) -> int:
    fired = 0
    for ctr in counters:
        if not ctr.counts_in_mode(kernel_mode):
            continue
        delta = counts.get(ctr.event.counts_field)
        if delta:
            fired += ctr.consume(delta)
    return fired


class ReferenceCPU(CPU):
    """The split loop on EventCounts, kept as the oracle."""

    def execute(self, quantum: Quantum) -> None:
        self.stats.quanta += 1
        kernel_mode = quantum.mode is CpuMode.KERNEL
        total_cycles = quantum.counts.cycles
        remaining = quantum.counts
        done_cycles = 0
        splits = 0
        while True:
            hit = ref_first_overflow(self.counters.counters, remaining, kernel_mode)
            if hit is None:
                ref_consume_all(self.counters.counters, remaining, kernel_mode)
                self._advance(remaining.cycles, kernel_mode)
                return
            splits += 1
            self.stats.splits += 1
            if splits > cpu_module._MAX_SPLITS:
                raise HardwareError(
                    f"quantum at pc={quantum.pc_start:#x} split more than "
                    f"{cpu_module._MAX_SPLITS} times; sampling period too small for "
                    f"quantum size"
                )
            counter, at_events, cyc_at = hit
            if total_cycles > 0:
                pre = ref_scaled(remaining, cyc_at, remaining.cycles or 1)
            else:
                pre = EventCounts()
            setattr(pre, counter.event.counts_field, at_events)
            post = ref_minus(remaining, pre)
            ref_consume_all(self.counters.counters, pre, kernel_mode)
            self._advance(pre.cycles, kernel_mode)
            done_cycles += pre.cycles
            pc = self._interpolate(quantum, done_cycles, total_cycles)
            frame = InterruptFrame(
                pc=pc,
                mode=quantum.mode,
                event_name=counter.event.name,
                task_id=self.current_task_id,
                cycle=self.cycle,
            )
            handler_cycles = self.nmi.raise_nmi(frame)
            if handler_cycles:
                self.stats.nmi_count += 1
                self._run_masked(handler_cycles)
            remaining = post

    def execute_raw(self, pc_start, code_len, counts, mode=CpuMode.USER):
        self.execute(Quantum(pc_start, code_len, EventCounts(*counts), mode))

    @staticmethod
    def _interpolate(quantum: Quantum, done: int, total: int) -> int:
        if total <= 0 or quantum.code_len == 0:
            return quantum.pc_start
        off = (quantum.code_len * min(done, total)) // total
        off -= off % _PC_ALIGN
        if off >= quantum.code_len:
            off = quantum.code_len - (quantum.code_len % _PC_ALIGN or _PC_ALIGN)
            off = max(0, off)
        return quantum.pc_start + off

    def _advance(self, cycles: int, kernel_mode: bool) -> None:
        self.cycle += cycles
        if kernel_mode:
            self.stats.kernel_cycles += cycles
        else:
            self.stats.user_cycles += cycles

    def _run_masked(self, handler_cycles: int) -> None:
        counts = EventCounts(cycles=handler_cycles, instructions=handler_cycles // 2)
        self.stats.masked_overflows += ref_consume_all(
            self.counters.counters, counts, True
        )
        self.cycle += handler_cycles
        self.stats.kernel_cycles += handler_cycles
        self.stats.nmi_handler_cycles += handler_cycles


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

#: Events over the four fields the oracle exercises.
SPLIT_EVENTS = (GLOBAL_POWER_EVENTS, INSTR_RETIRED, BSQ_CACHE_REFERENCE, ITLB_REFERENCE)
#: (count_user, count_kernel): user only, kernel only, both.
MODE_FLAGS = ((True, False), (False, True), (True, True))

counter_specs = st.lists(
    st.tuples(
        st.integers(0, len(SPLIT_EVENTS) - 1),
        st.sampled_from(MODE_FLAGS),
        st.sampled_from((0, 0, 0, 1, 7)),  # added to min_period
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda spec: spec[0],
)

quanta_st = st.lists(
    st.tuples(
        st.integers(0, 1 << 24),  # pc_start
        st.one_of(st.just(0), st.integers(1, 3), st.integers(4, 0x2000)),
        st.one_of(st.just(0), st.integers(1, 3), st.integers(4, 20_000)),
        st.integers(0, 20_000),  # instructions
        st.integers(0, 3_000),  # l2_references
        st.one_of(st.just(0), st.integers(0, 3_000)),  # l2_misses
        st.integers(0, 3_000),  # branches
        st.integers(0, 100),  # branch_mispredicts
        st.one_of(st.just(0), st.integers(0, 1_500)),  # itlb_misses
        st.sampled_from((CpuMode.USER, CpuMode.KERNEL)),
        st.integers(0, 5),  # task id
    ),
    min_size=1,
    max_size=12,
)

handler_costs = st.lists(
    st.sampled_from((0, 0, 37, 400, 10_000)), min_size=1, max_size=4
)


def program(cpu: CPU, specs) -> None:
    cpu.counters.clear()
    for idx, (user, kernel), extra in specs:
        event = SPLIT_EVENTS[idx]
        cpu.counters.program(
            CounterConfig(
                event=event,
                period=event.min_period + extra,
                count_user=user,
                count_kernel=kernel,
            )
        )


def run(cpu: CPU, specs, quanta, costs, reprogram, nested, raw):
    """Drive ``cpu`` through one scenario; return everything observable."""
    program(cpu, specs)
    frames = []
    reprogram_at, reprogram_specs = reprogram

    def handler(frame: InterruptFrame) -> int:
        frames.append(
            (frame.pc, frame.mode, frame.event_name, frame.task_id, frame.cycle)
        )
        n = len(frames)
        if n == reprogram_at:
            program(cpu, reprogram_specs)
        if nested and n % 3 == 0:
            # Re-enter the CPU from the handler: overflows in here find
            # the NMI line busy and are dropped.
            cpu.execute(
                Quantum(0x9000, 0x40, EventCounts(cycles=3_500, instructions=3_500),
                        CpuMode.KERNEL)
            )
        return costs[n % len(costs)]

    cpu.nmi.register(handler)
    outcome = None
    try:
        for pc, code_len, *values, mode, task in quanta:
            cpu.current_task_id = task
            if raw:
                cpu.execute_raw(pc, code_len, tuple(values), mode)
            else:
                cpu.execute(Quantum(pc, code_len, EventCounts(*values), mode))
    except Exception as exc:  # compared, not swallowed
        outcome = (type(exc), str(exc))
    return {
        "outcome": outcome,
        "frames": frames,
        "counters": [
            (c.event.name, c.remaining, c.overflows) for c in cpu.counters.counters
        ],
        "stats": dataclasses.astuple(cpu.stats),
        "cycle": cpu.cycle,
        "nmi": (cpu.nmi.delivered, cpu.nmi.dropped),
    }


class TestSplitOracle:
    @given(
        specs=counter_specs,
        quanta=quanta_st,
        costs=handler_costs,
        reprogram=st.tuples(st.one_of(st.none(), st.integers(1, 6)), counter_specs),
        nested=st.booleans(),
        raw=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_integer_split_matches_reference(
        self, specs, quanta, costs, reprogram, nested, raw
    ):
        # No scenario here needs more than a few dozen splits per quantum;
        # a low limit makes a runaway split loop fail fast, on both sides.
        with mock.patch.object(cpu_module, "_MAX_SPLITS", 200):
            ref = run(ReferenceCPU(), specs, quanta, costs, reprogram, nested, raw)
            new = run(CPU(), specs, quanta, costs, reprogram, nested, raw)
        assert new == ref

    def test_tie_goes_to_first_programmed_counter(self):
        """Two counters overflowing at the same cycle: the one programmed
        first fires, the other overflows silently inside the same part."""
        specs = [(0, (True, True), 0), (1, (True, True), 0)]  # cycles, instrs
        quanta = [(0x1000, 0x400, 3_000, 3_000, 0, 0, 0, 0, 0, CpuMode.USER, 1)]
        for cpu in (ReferenceCPU(), CPU()):
            obs = run(cpu, specs, quanta, [0], (None, []), False, True)
            assert [f[2] for f in obs["frames"]] == ["GLOBAL_POWER_EVENTS"]
            assert [c[2] for c in obs["counters"]] == [1, 1]


#: Every event the bank can count, one per EventCounts field except
#: ``l2_references`` (no event counts it, so no counter can observe it).
ALL_EVENTS = (
    GLOBAL_POWER_EVENTS,
    INSTR_RETIRED,
    BSQ_CACHE_REFERENCE,
    BRANCH_RETIRED,
    MISPRED_BRANCH_RETIRED,
    ITLB_REFERENCE,
)


class TestSplitConservation:
    @given(quanta=quanta_st, flags=st.lists(st.sampled_from(MODE_FLAGS),
                                            min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_split_conserves_every_field(self, quanta, flags):
        """The parts a quantum is split into add up to the quantum, field
        by field: every counter consumes exactly the sum of its field over
        the quanta of the modes it counts, and the clock advances by the
        sum of their cycles (free handler, so nothing else accrues)."""
        cpu = CPU()
        for event, (user, kernel) in zip(ALL_EVENTS, flags):
            cpu.counters.program(
                CounterConfig(event, event.min_period, user, kernel)
            )
        cpu.nmi.register(lambda frame: 0)
        for pc, code_len, *values, mode, _task in quanta:
            cpu.execute_raw(pc, code_len, tuple(values), mode)

        for ctr in cpu.counters.counters:
            period = ctr.config.period
            consumed = ctr.overflows * period + (period - ctr.remaining)
            expected = sum(
                EventCounts(*values).get(ctr.event.counts_field)
                for _pc, _len, *values, mode, _task in quanta
                if ctr.counts_in_mode(mode is CpuMode.KERNEL)
            )
            assert consumed == expected, ctr.event.name
        assert cpu.stats.total_cycles == sum(q[2] for q in quanta)
        assert cpu.cycle == cpu.stats.total_cycles
        # One NMI per split; other counters' overflows inside a part are
        # silent, so overflows can only exceed splits.
        assert cpu.stats.splits == cpu.nmi.delivered
        assert cpu.stats.splits <= sum(c.overflows for c in cpu.counters.counters)
