"""Resolver stages — the single "PC → symbol" vocabulary of the tree.

Each stage answers one question about a sample and either *claims* it
(returns a :class:`~repro.profiling.model.ResolvedSample`) or passes it
down the chain (returns None).  Stock ``opreport``, VIProf, and the
multi-domain XenoProf report are nothing but different orderings of these
stages (see :mod:`repro.pipeline` for the canonical compositions):

* :class:`KernelSymbolStage` — kernel-mode PCs against the ``vmlinux``
  symbol table;
* :class:`JitEpochStage` — PCs inside a registered VM heap through the
  epoch code maps, walking strictly backwards from the sample's epoch
  (paper §3.2); terminal for heap samples (a miss is ``(unresolved jit)``,
  never a fall-through);
* :class:`BootImageStage` — PCs in the stripped boot-image mapping through
  the Jikes RVM internal map (``RVM.map``);
* :class:`TaskVmaStage` — the owning task's VMA set: file-backed mappings
  through ELF symbols, anonymous mappings to an ``anon (range:...)``
  label;
* :class:`HypervisorStage` — Xen-layer PCs against the hypervisor symbol
  table;
* :class:`DomainDispatchStage` — routes each sample to its domain's own
  sub-chain (XenoProf multi-stack resolution);
* :class:`FallbackStage` — the terminal ``(unknown)`` attribution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.jvm.bootimage import BOOT_IMAGE_NAME, RVM_MAP_IMAGE_LABEL
from repro.jvm.machine import JIT_APP_IMAGE_LABEL
from repro.os.address_space import VmaKind
from repro.os.binary import NO_SYMBOLS
from repro.os.kernel import Kernel
from repro.profiling.model import ResolvedSample

if TYPE_CHECKING:  # pragma: no cover
    from repro.jvm.bootimage import RvmMap
    from repro.pipeline.resolver import ResolverChain
    from repro.pipeline.source import PipelineSample
    from repro.viprof.codemap import CodeMapIndex
    from repro.viprof.runtime_profiler import VmRegistration
    from repro.xen.hypervisor import Hypervisor

__all__ = [
    "UNKNOWN_IMAGE",
    "UNRESOLVED_JIT",
    "ResolverStage",
    "KernelSymbolStage",
    "JitEpochStage",
    "JitStageStats",
    "BootImageStage",
    "TaskVmaStage",
    "HypervisorStage",
    "DomainDispatchStage",
    "FallbackStage",
]

#: Label for samples whose PC matches no mapping at all.
UNKNOWN_IMAGE = "(unknown)"

#: Symbol label for VM-heap samples no epoch map ever held.
UNRESOLVED_JIT = "(unresolved jit)"


class ResolverStage:
    """One step of a resolver chain.

    ``resolve`` returns a resolved sample to claim the sample, or None to
    pass it to the next stage.  ``name`` keys the chain's per-stage
    hit/miss counters.

    Stages with per-resolution detail counters (beyond the chain's
    hit/miss) implement the *claim token* hooks so the chain's resolution
    cache can replay them exactly: after a claim, :meth:`claim_token`
    describes what the stage just counted, and :meth:`replay_token`
    re-applies that counting on a later cache hit.  The *state* hooks
    (:meth:`export_state` / :meth:`merge_state` / :meth:`reset_state`)
    carry the same detail counters across shard-worker process boundaries
    (:mod:`repro.pipeline.parallel`).
    """

    name: str = "stage"

    #: True for stages that dispatch to inner chains with their own
    #: counters; a chain containing one never caches above it.
    owns_inner_chains: bool = False

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        raise NotImplementedError

    def claim_token(self) -> object | None:
        """Opaque description of the detail counters the stage updated for
        the claim it just made; None when the stage keeps no detail."""
        return None

    def replay_token(self, token: object) -> None:
        """Re-apply the detail counting described by a claim token."""

    def replay_token_bulk(self, token: object, n: int) -> None:
        """Re-apply a claim token's detail counting ``n`` times — the
        columnar path's duplicate replay.  The default repeats the scalar
        replay (exact for any stage); stages with pure-sum detail counters
        override with O(1) bulk bumps."""
        for _ in range(n):
            self.replay_token(token)

    def resolve_group(
        self, samples: "list[PipelineSample]"
    ) -> list[tuple[ResolvedSample, object | None] | None] | None:
        """Batched resolve for a columnar bucket: samples share
        ``(epoch, kernel_mode, task_id, domain_id)`` and arrive with PCs
        ascending.  Returns a positionally-aligned list — ``(resolved,
        claim token)`` for claims, None for pass-downs — or None when the
        stage has no batched path (the chain then offers samples one by
        one).  Implementations must update the same detail counters one
        scalar resolve per claimed sample would have."""
        return None

    def export_state(self) -> object | None:
        """Picklable snapshot of the stage's detail counters (None when
        the stage keeps none)."""
        return None

    def merge_state(self, state: object) -> None:
        """Fold a worker stage's exported detail counters into this one."""

    def reset_state(self) -> None:
        """Zero the stage's detail counters."""


class KernelSymbolStage(ResolverStage):
    """Kernel-mode samples (or kernel-range PCs) against ``vmlinux``."""

    name = "kernel"

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        raw = sample.raw
        if not raw.kernel_mode and not self.kernel.is_kernel_address(raw.pc):
            return None
        image, symbol = self.kernel.resolve_kernel(raw.pc)
        koff = raw.pc - self.kernel.layout.kernel_base
        sym = self.kernel.image.symbol_at(koff)
        return ResolvedSample(
            raw=raw, image=image, symbol=symbol,
            offset=(koff - sym.offset) if sym is not None else -1,
        )


class JitStageStats:
    """Per-stage resolution detail for JIT samples (accuracy reporting).

    Replaces the old ad-hoc ``JitResolutionStats``: the counters now live
    on the stage that produces them and are exposed uniformly through the
    chain's stats (:meth:`~repro.pipeline.resolver.ResolverChain.stats_dict`).
    """

    def __init__(self) -> None:
        self.jit_samples = 0
        self.resolved_in_own_epoch = 0
        self.resolved_in_earlier_epoch = 0
        self.unresolved = 0
        #: degraded mode only: samples whose backward walk hit a
        #: quarantined epoch and were remapped to ``(unresolved jit)``
        self.blocked_at_quarantine = 0

    @property
    def resolved(self) -> int:
        return self.resolved_in_own_epoch + self.resolved_in_earlier_epoch

    @property
    def resolution_rate(self) -> float:
        return self.resolved / self.jit_samples if self.jit_samples else 1.0

    def as_dict(self) -> dict[str, int | float]:
        return {
            "jit_samples": self.jit_samples,
            "resolved_in_own_epoch": self.resolved_in_own_epoch,
            "resolved_in_earlier_epoch": self.resolved_in_earlier_epoch,
            "unresolved": self.unresolved,
            "blocked_at_quarantine": self.blocked_at_quarantine,
            "resolution_rate": self.resolution_rate,
        }

    def merge(self, other: "JitStageStats") -> "JitStageStats":
        """Fold another shard's JIT counters into this one, in place.
        Counters are pure sums, so merging shard results equals counting
        the concatenated stream (property-tested)."""
        self.jit_samples += other.jit_samples
        self.resolved_in_own_epoch += other.resolved_in_own_epoch
        self.resolved_in_earlier_epoch += other.resolved_in_earlier_epoch
        self.unresolved += other.unresolved
        self.blocked_at_quarantine += other.blocked_at_quarantine
        return self

    def __add__(self, other: "JitStageStats") -> "JitStageStats":
        out = JitStageStats()
        return out.merge(self).merge(other)

    def reset(self) -> None:
        self.jit_samples = 0
        self.resolved_in_own_epoch = 0
        self.resolved_in_earlier_epoch = 0
        self.unresolved = 0
        self.blocked_at_quarantine = 0


class JitEpochStage(ResolverStage):
    """VM-heap samples through the epoch code maps (backward walk).

    Terminal for samples inside a registered heap: resolution failures are
    attributed to ``JIT.App (unresolved jit)`` rather than passed on,
    because no later stage can know more about anonymous heap memory.

    ``backward=False`` is the paper's ablation: only the sample's own
    epoch map is consulted.

    ``strict=False`` is degraded (post-salvage) mode: a walk blocked by a
    quarantined epoch (:data:`~repro.viprof.codemap.RESOLVE_BLOCKED`) is
    remapped to ``(unresolved jit)`` and counted in
    ``stats.blocked_at_quarantine`` — never attributed to a possibly-stale
    record.  In strict mode (the default) a blocked walk is an error: a
    strict pipeline must not silently consume a salvaged session.
    """

    name = "jit-epoch"

    def __init__(
        self,
        codemaps: "CodeMapIndex",
        registrations: Iterable["VmRegistration"],
        backward: bool = True,
        strict: bool = True,
    ) -> None:
        self.codemaps = codemaps
        self.backward = backward
        self.strict = strict
        self._registrations = {r.task_id: r for r in registrations}
        self.stats = JitStageStats()
        self._last_outcome: str | None = None

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        from repro.viprof.codemap import RESOLVE_BLOCKED

        raw = sample.raw
        reg = self._registrations.get(raw.task_id)
        if reg is None or not reg.covers(raw.pc):
            return None
        self.stats.jit_samples += 1
        hit = self.codemaps.resolve(raw.epoch, raw.pc, backward=self.backward)
        if hit is RESOLVE_BLOCKED:
            if self.strict:
                from repro.errors import ProfilerError

                raise ProfilerError(
                    f"epoch walk for pc {raw.pc:#x} (epoch {raw.epoch}) "
                    "blocked by a quarantined code map; rerun the pipeline "
                    "in degraded mode (strict=False) to account for "
                    "salvaged sessions"
                )
            self.stats.blocked_at_quarantine += 1
            self._last_outcome = "blocked"
            return ResolvedSample(
                raw=raw, image=JIT_APP_IMAGE_LABEL, symbol=UNRESOLVED_JIT
            )
        if hit is None:
            self.stats.unresolved += 1
            self._last_outcome = "unresolved"
            return ResolvedSample(
                raw=raw, image=JIT_APP_IMAGE_LABEL, symbol=UNRESOLVED_JIT
            )
        record, found_epoch = hit
        if found_epoch == raw.epoch:
            self.stats.resolved_in_own_epoch += 1
            self._last_outcome = "own"
        else:
            self.stats.resolved_in_earlier_epoch += 1
            self._last_outcome = "earlier"
        return ResolvedSample(
            raw=raw, image=JIT_APP_IMAGE_LABEL, symbol=record.name,
            offset=raw.pc - record.address,
        )

    def resolve_group(
        self, samples: "list[PipelineSample]"
    ) -> list[tuple[ResolvedSample, object | None] | None] | None:
        """Batched bucket resolve: one
        :meth:`~repro.viprof.codemap.CodeMapIndex.resolve_run` for the
        whole ascending PC run, so registration and the epoch window are
        worked out once per run.  Counter deltas — stage detail and the
        codemap index's own — match per-sample resolution exactly."""
        from repro.viprof.codemap import RESOLVE_BLOCKED

        if not samples:
            return []
        # The columnar bucket shares task_id (it is part of the bucket
        # key), so registration and heap bounds are checked once per run.
        reg = self._registrations.get(samples[0].raw.task_id)
        out: list[tuple[ResolvedSample, object | None] | None] = (
            [None] * len(samples)
        )
        if reg is None:
            return out
        covered = [
            i for i, s in enumerate(samples) if reg.covers(s.raw.pc)
        ]
        if not covered:
            return out
        hits = self.codemaps.resolve_run(
            samples[covered[0]].raw.epoch,
            [samples[i].raw.pc for i in covered],
            backward=self.backward,
        )
        own = earlier = unresolved = blocked = 0
        for i, hit in zip(covered, hits):
            raw = samples[i].raw
            if hit is RESOLVE_BLOCKED:
                if self.strict:
                    from repro.errors import ProfilerError

                    raise ProfilerError(
                        f"epoch walk for pc {raw.pc:#x} (epoch {raw.epoch}) "
                        "blocked by a quarantined code map; rerun the "
                        "pipeline in degraded mode (strict=False) to "
                        "account for salvaged sessions"
                    )
                blocked += 1
                out[i] = (
                    ResolvedSample(
                        raw=raw,
                        image=JIT_APP_IMAGE_LABEL,
                        symbol=UNRESOLVED_JIT,
                    ),
                    "blocked",
                )
            elif hit is None:
                unresolved += 1
                out[i] = (
                    ResolvedSample(
                        raw=raw,
                        image=JIT_APP_IMAGE_LABEL,
                        symbol=UNRESOLVED_JIT,
                    ),
                    "unresolved",
                )
            else:
                record, found_epoch = hit
                if found_epoch == raw.epoch:
                    own += 1
                    token = "own"
                else:
                    earlier += 1
                    token = "earlier"
                out[i] = (
                    ResolvedSample(
                        raw=raw,
                        image=JIT_APP_IMAGE_LABEL,
                        symbol=record.name,
                        offset=raw.pc - record.address,
                    ),
                    token,
                )
        st = self.stats
        st.jit_samples += own + earlier + unresolved + blocked
        st.resolved_in_own_epoch += own
        st.resolved_in_earlier_epoch += earlier
        st.unresolved += unresolved
        st.blocked_at_quarantine += blocked
        return out

    def detail_dict(self) -> dict[str, int | float]:
        return self.stats.as_dict()

    def degraded_dict(self) -> dict[str, int] | None:
        """Degradation counters for the chain's ``degraded`` stats entry
        (None in strict mode — a strict stage cannot degrade)."""
        if self.strict:
            return None
        return {
            "blocked_at_quarantine": self.stats.blocked_at_quarantine,
        }

    # -- cache replay / shard merging ----------------------------------

    def claim_token(self) -> object | None:
        return self._last_outcome

    def replay_token(self, token: object) -> None:
        self.stats.jit_samples += 1
        if token == "own":
            self.stats.resolved_in_own_epoch += 1
        elif token == "earlier":
            self.stats.resolved_in_earlier_epoch += 1
        elif token == "blocked":
            self.stats.blocked_at_quarantine += 1
        else:
            self.stats.unresolved += 1

    def replay_token_bulk(self, token: object, n: int) -> None:
        st = self.stats
        st.jit_samples += n
        if token == "own":
            st.resolved_in_own_epoch += n
        elif token == "earlier":
            st.resolved_in_earlier_epoch += n
        elif token == "blocked":
            st.blocked_at_quarantine += n
        else:
            st.unresolved += n

    def export_state(self) -> object | None:
        d = self.stats.as_dict()
        d.pop("resolution_rate", None)
        return d

    def merge_state(self, state: object) -> None:
        other = JitStageStats()
        other.jit_samples = state["jit_samples"]
        other.resolved_in_own_epoch = state["resolved_in_own_epoch"]
        other.resolved_in_earlier_epoch = state["resolved_in_earlier_epoch"]
        other.unresolved = state["unresolved"]
        other.blocked_at_quarantine = state.get("blocked_at_quarantine", 0)
        self.stats.merge(other)

    def reset_state(self) -> None:
        self.stats.reset()


class BootImageStage(ResolverStage):
    """Samples in the stripped boot-image mapping through ``RVM.map``."""

    name = "boot-image"

    def __init__(self, kernel: Kernel, rvm_map: "RvmMap") -> None:
        self.kernel = kernel
        self.rvm_map = rvm_map

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        raw = sample.raw
        proc = self.kernel.process(raw.task_id)
        if proc is None:
            return None
        vma = proc.address_space.resolve(raw.pc)
        if vma is None or vma.kind is not VmaKind.FILE:
            return None
        assert vma.image is not None
        if vma.image.name != BOOT_IMAGE_NAME:
            return None
        off = vma.to_image_offset(raw.pc)
        entry = self.rvm_map.resolve(off)
        if entry is None:
            return ResolvedSample(
                raw=raw, image=RVM_MAP_IMAGE_LABEL, symbol=NO_SYMBOLS
            )
        return ResolvedSample(
            raw=raw, image=RVM_MAP_IMAGE_LABEL, symbol=entry.name,
            offset=off - entry.offset,
        )


class TaskVmaStage(ResolverStage):
    """User PCs through the owning task's VMA set (stock opreport)."""

    name = "task-vma"

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        raw = sample.raw
        proc = self.kernel.process(raw.task_id)
        if proc is None:
            return None
        vma = proc.address_space.resolve(raw.pc)
        if vma is None:
            return None
        if vma.kind is VmaKind.FILE:
            assert vma.image is not None
            off = vma.to_image_offset(raw.pc)
            sym = vma.image.symbol_at(off)
            return ResolvedSample(
                raw=raw,
                image=vma.image.name,
                symbol=sym.name if sym is not None else NO_SYMBOLS,
                offset=(off - sym.offset) if sym is not None else -1,
            )
        return ResolvedSample(raw=raw, image=vma.label(), symbol=NO_SYMBOLS)


class HypervisorStage(ResolverStage):
    """Xen-layer PCs against the hypervisor's own symbol table."""

    name = "hypervisor"

    def __init__(self, hypervisor: "Hypervisor") -> None:
        self.hypervisor = hypervisor

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        raw = sample.raw
        if not self.hypervisor.is_xen_address(raw.pc):
            return None
        image, symbol = self.hypervisor.resolve(raw.pc)
        return ResolvedSample(raw=raw, image=image, symbol=symbol)


class DomainDispatchStage(ResolverStage):
    """Routes each sample to its domain's own resolver chain.

    Terminal: a sample tagged with an unknown domain is a corrupt stream,
    reported as a :class:`~repro.errors.ProfilerError` rather than
    silently falling through to ``(unknown)``.

    ``owns_inner_chains`` is True: the per-domain chains keep their own
    stage counters (and their own resolution caches), so the *outer* chain
    never caches above this stage — an outer cache hit could not replay
    the inner chains' counters.  The domain chains still memoize their own
    stage walks, so multi-stack resolution keeps the cache win.
    """

    name = "domain-dispatch"
    owns_inner_chains = True

    def __init__(self, chains: Mapping[int, "ResolverChain"]) -> None:
        self.chains = dict(chains)

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        from repro.errors import ProfilerError

        chain = self.chains.get(sample.domain_id)  # type: ignore[arg-type]
        if chain is None:
            raise ProfilerError(f"no resolver for domain {sample.domain_id}")
        return chain.resolve(sample)

    def detail_dict(self) -> dict[str, object]:
        """The inner chains' full counters, keyed ``dom{id}``.

        Without this hook the per-domain cache/stage statistics are
        invisible at the outer-chain level: ``stats_dict()`` on the
        multi-stack chain showed one opaque ``domain-dispatch`` hit
        count while every JIT-epoch split, cache hit-rate and degraded
        counter lived only on the inner chains nobody serialized.
        """
        return {
            f"dom{dom}": chain.stats_dict()
            for dom, chain in sorted(self.chains.items())
        }

    def degraded_dict(self) -> dict[str, int] | None:
        """Summed degradation counters across the inner chains, so a
        multi-stack chain's top-level ``degraded`` flag reflects any
        domain resolving in degraded (post-salvage) mode.  None when
        every inner chain is strict."""
        totals: dict[str, int] = {}
        any_degraded = False
        for chain in self.chains.values():
            for stage in chain.stages:
                hook = getattr(stage, "degraded_dict", None)
                if not callable(hook):
                    continue
                counters = hook()
                if counters is None:
                    continue
                any_degraded = True
                for k, v in counters.items():
                    totals[k] = totals.get(k, 0) + v
        return totals if any_degraded else None

    # -- shard merging: recurse into the per-domain chains -------------

    def export_state(self) -> object | None:
        return {
            dom: chain.export_stats() for dom, chain in self.chains.items()
        }

    def merge_state(self, state: object) -> None:
        for dom, snapshot in state.items():
            chain = self.chains.get(dom)
            if chain is None:
                from repro.errors import ProfilerError

                raise ProfilerError(
                    f"cannot absorb stats for unknown domain {dom}"
                )
            chain.absorb_stats(snapshot)

    def reset_state(self) -> None:
        for chain in self.chains.values():
            chain.reset_stats()


class FallbackStage(ResolverStage):
    """The terminal attribution for samples no stage could place."""

    name = "unresolved"

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        return ResolvedSample(
            raw=sample.raw, image=UNKNOWN_IMAGE, symbol=NO_SYMBOLS
        )
