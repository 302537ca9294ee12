"""Epoch-stamped JIT code maps.

The VM agent writes one map file per GC epoch, *just before* the collection
that closes the epoch.  Each map is **partial**: it contains only methods
compiled (or recompiled) during that epoch plus methods moved by the
previous collection — the paper's key amortization trick.

Resolution (paper §3.2): a sample stamped with epoch *e* is looked up in
map *e*; on a miss the tools search map *e-1*, *e-2*, ... until the first
map containing the address.  That guarantees attribution to the most
recently compiled-or-moved method that occupied the address at the sample's
time, even though addresses are recycled across epochs by the copying
collector.  :class:`CodeMapIndex` answers that walk without walking: it
compiles all maps into a version-segment index (elementary address
segments, each with the ascending epochs whose map covers it), so a lookup
is two bisects however far back the covering map lies.

Map files are plain text (one record per line: start, size, tier, name),
matching the flavour of Jikes RVM's own map artifacts::

    # viprof code map epoch 7
    0x60812340 0x00000420 O1 org.example.app.Scanner.parseLine

Records written for a body *flagged as moved* by the previous collection
carry a ``/M`` marker on the tier field (``O1/M``); the marker lets the
static artifact analyzer (:mod:`repro.statcheck`) verify move provenance
without replaying the run.  Readers without the marker see a plain tier.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import CodeMapError
from repro.faults import injector as faults
from repro.os.intervals import Interval, IntervalIndex

__all__ = [
    "CodeMapRecord",
    "CodeMapWriter",
    "CodeMap",
    "CodeMapIndex",
    "RESOLVE_BLOCKED",
]

#: Tier-field suffix marking a record logged because the previous GC moved it.
MOVED_MARKER = "/M"

_FILE_RE = re.compile(r"^jit-map\.(\d{5})$")
_HEADER_RE = re.compile(r"^# viprof code map epoch (\d+)$")
_LINE_RE = re.compile(
    r"^(0x[0-9a-fA-F]+) (0x[0-9a-fA-F]+) (\S+) (.+)$"
)


@dataclass(frozen=True, slots=True, order=True)
class CodeMapRecord:
    """One mapped method body: image-absolute address range plus identity.

    ``moved`` is True for records written because the previous collection
    relocated the body (the agent's flag-and-defer path), False for records
    written because the body was compiled during the epoch.
    """

    address: int
    size: int
    tier: str
    name: str
    moved: bool = False

    def __post_init__(self) -> None:
        if self.address <= 0:
            raise CodeMapError(f"bad address {self.address:#x} for {self.name!r}")
        if self.size <= 0:
            raise CodeMapError(f"bad size {self.size} for {self.name!r}")

    @property
    def end(self) -> int:
        return self.address + self.size

    def contains(self, addr: int) -> bool:
        return self.address <= addr < self.end

    def to_line(self) -> str:
        tier = self.tier + MOVED_MARKER if self.moved else self.tier
        return f"{self.address:#010x} {self.size:#010x} {tier} {self.name}"

    @classmethod
    def from_line(cls, line: str) -> "CodeMapRecord":
        m = _LINE_RE.match(line)
        if m is None:
            raise CodeMapError(f"malformed code-map line: {line!r}")
        tier = m.group(3)
        moved = tier.endswith(MOVED_MARKER)
        if moved:
            tier = tier[: -len(MOVED_MARKER)]
        return cls(
            address=int(m.group(1), 16),
            size=int(m.group(2), 16),
            tier=tier,
            name=m.group(4),
            moved=moved,
        )


class CodeMapWriter:
    """Writes per-epoch map files into a session directory."""

    def __init__(self, map_dir: Path | str) -> None:
        self.map_dir = Path(map_dir)
        self.map_dir.mkdir(parents=True, exist_ok=True)
        self.maps_written = 0
        self.records_written = 0
        self._epochs_seen: set[int] = set()

    def path_for(self, epoch: int) -> Path:
        return self.map_dir / f"jit-map.{epoch:05d}"

    def write(self, epoch: int, records: Iterable[CodeMapRecord]) -> Path:
        """Write the (partial) map for ``epoch``.

        Raises:
            CodeMapError: if a map for this epoch was already written
                (epochs close exactly once).
        """
        if epoch < 0:
            raise CodeMapError(f"{self.map_dir}: negative epoch {epoch}")
        if epoch in self._epochs_seen:
            raise CodeMapError(
                f"{self.path_for(epoch)}: map for epoch {epoch} "
                "already written"
            )
        self._epochs_seen.add(epoch)
        path = self.path_for(epoch)
        recs = sorted(records)
        lines = [f"# viprof code map epoch {epoch}"]
        lines.extend(r.to_line() for r in recs)
        content = "\n".join(lines) + "\n"
        if faults.armed():
            faults.fire(
                faults.CODEMAP_WRITE,
                effect=lambda rng: self._torn_write(path, content, rng),
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        self.maps_written += 1
        self.records_written += len(recs)
        return path

    @staticmethod
    def _torn_write(path: Path, content: str, rng) -> None:
        """Fault effect (``codemap.write``): the crash lands mid-write, so
        a prefix of the map text reaches the file.

        The cut is constrained to land inside the *address field* of a
        record line (or inside the header when the map has no records), so
        the damage is always detectable as a malformed file.  A cut at a
        line boundary would leave a well-formed shorter map — a loss the
        text format fundamentally cannot detect (no record count, no
        checksum; ``docs/robustness.md`` documents the limitation) — so
        the harness does not pretend to test it.
        """
        lines = content.splitlines(keepends=True)
        if len(lines) == 1:
            # Header-only map: tear inside the header line.
            cut = rng.randrange(1, max(2, len(lines[0]) - 1))
        else:
            victim = rng.randrange(1, len(lines))
            prefix = sum(len(ln) for ln in lines[:victim])
            # Cut inside the first hex field ("0x......"), which cannot
            # parse as a full record line.
            cut = prefix + rng.randrange(1, 9)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content[:cut])


class CodeMap:
    """One epoch's records, indexed for address lookup.

    Records within a single epoch must be non-overlapping: the bump
    allocator never reuses space between collections (property-tested in
    ``tests/viprof/test_codemap_properties.py``).
    """

    def __init__(
        self,
        epoch: int,
        records: list[CodeMapRecord],
        source: Path | None = None,
    ):
        self.epoch = epoch
        self.source = source
        self._records = sorted(records)
        self._index: IntervalIndex[CodeMapRecord] = IntervalIndex(
            Interval(r.address, r.end, r) for r in self._records
        )
        bad = self._index.overlapping_pairs()
        if bad:
            a, b = bad[0]
            raise CodeMapError(
                f"{self._where()}records {a.payload.name!r} and "
                f"{b.payload.name!r} overlap"
            )

    def _where(self) -> str:
        prefix = f"{self.source}: " if self.source is not None else ""
        return f"{prefix}epoch {self.epoch}: "

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[CodeMapRecord, ...]:
        return tuple(self._records)

    def spans(self) -> Iterator[tuple[int, int]]:
        """``(start, end)`` of every record, in row (address) order."""
        return ((r.address, r.end) for r in self._records)

    def record_at(self, row: int) -> CodeMapRecord:
        """The record in row ``row`` of :meth:`spans`."""
        return self._records[row]

    def lookup(self, addr: int) -> CodeMapRecord | None:
        iv = self._index.first_covering(addr)
        return iv.payload if iv is not None else None

    def lookup_run(
        self, addrs: Iterable[int]
    ) -> list[CodeMapRecord | None]:
        """:meth:`lookup` over an ascending run of addresses, one interval
        probe per *distinct covering record* instead of one bisect per
        address."""
        return [
            iv.payload if iv is not None else None
            for iv in self._index.first_covering_many(addrs)
        ]

    @classmethod
    def load(cls, path: Path) -> "CodeMap":
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines:
            raise CodeMapError(f"{path}: empty map file")
        m = _HEADER_RE.match(lines[0])
        if m is None:
            raise CodeMapError(f"{path}: bad header {lines[0]!r}")
        epoch = int(m.group(1))
        records = []
        for lineno, ln in enumerate(lines[1:], start=2):
            if not ln.strip():
                continue
            try:
                records.append(CodeMapRecord.from_line(ln))
            except CodeMapError as e:
                raise CodeMapError(
                    f"{path}: epoch {epoch}: line {lineno}: {e}"
                ) from None
        return cls(epoch, records, source=path)


class _Blocked:
    """Singleton sentinel: a quarantined epoch lies between the sample's
    epoch and any map containing the address (see
    :meth:`CodeMapIndex.resolve`)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RESOLVE_BLOCKED"


#: Returned by :meth:`CodeMapIndex.resolve` when a quarantined epoch
#: blocks the walk.  Distinct from None (no map ever held the address).
RESOLVE_BLOCKED = _Blocked()


class CodeMapIndex:
    """All of a session's maps plus the §3.2 resolution rule, compiled
    into a **version-segment index**.

    **The rule.**  A sample stamped with epoch *e* belongs to the record
    of the greatest map epoch ``<= e`` whose map covers its PC — the
    backward walk ``e, e-1, ...`` of the paper.  The walk's upper end,
    ``top``, is *e* clamped to the newest known epoch (a negative *e*
    means "newest").

    **The index.**  Every record boundary of every epoch, sorted and
    deduplicated, cuts the address space into S elementary segments.  No
    record starts or ends inside a segment, so each map covers a segment
    entirely or not at all.  Per segment the index keeps the ascending
    epochs whose map covers it (as ranks into the sorted epoch list) and
    the covering row, in three flat CSR ``array`` columns: segment
    offsets, epoch ranks, rows.  Resolving ``(pc, e)`` is one bisect for
    the segment and one bisect over that segment's V versions for the
    greatest epoch ``<= top``: O(log S + log V), however many maps the
    walk would have visited.  The index is compiled lazily on the first
    resolve, in two passes over the maps' :meth:`CodeMap.spans` (count
    per segment, then fill), and never changes: loaded maps are
    immutable.

    ``quarantined`` marks epochs whose maps existed but were damaged and
    set aside by salvage (``viprof recover``).  A quarantined epoch is a
    **barrier**: the walk cannot see what the lost map recorded, and the
    copying collector recycles addresses across epochs, so continuing
    past it could silently attribute a PC to an *older* occupant of the
    address.  On the index the barrier is the greatest quarantined epoch
    q in the walk window: a version older than q is out of reach, and a
    lookup that finds no newer version returns :data:`RESOLVE_BLOCKED`
    — the degraded pipeline counts those samples as unresolved, keeping
    every resolution it *does* make a subset of the undamaged run's
    (property-tested in ``tests/viprof/test_epoch_walk_properties.py``).
    Quarantined epochs also count when clamping ``top`` and bounding the
    window, so a lost newest map cannot make later samples silently
    consult older maps.  An epoch absent from both ``maps`` and
    ``quarantined`` is simply skipped.

    Walk counters, equal to what a map-by-map backward walk would count:
    ``lookups`` is one per resolved address; ``fallback_steps`` is the
    number of maps the walk would have probed without a hit — the maps
    above the stop epoch (the hit or the barrier) up to ``top``, or
    every map in the window on a miss.
    """

    #: Always 0: the index answers every lookup directly, so no walk is
    #: ever short-circuited.  Kept for readers of the walk counters, who
    #: count the walks that ran as ``lookups - memo_hits``.
    memo_hits = 0

    def __init__(
        self,
        maps: dict[int, CodeMap],
        quarantined: Iterable[int] = (),
    ):
        self._maps = maps
        self.quarantined = frozenset(quarantined)
        overlap = self.quarantined & set(maps)
        if overlap:
            raise CodeMapError(
                f"epochs {sorted(overlap)} both loaded and quarantined"
            )
        self.lookups = 0
        self.fallback_steps = 0  # map probes the walk would have missed
        self._epochs = sorted(maps)
        self._barriers = sorted(self.quarantined)
        known = self._epochs + self._barriers
        self._known_top = max(known, default=0)
        self._known_bottom = min(known, default=0)
        # The version-segment index (see _compile), built on first use.
        self._bounds: array | None = None
        self._seg_off = array("q")
        self._ranks = array("i")
        self._rows = array("i")
        self._by_rank: list[CodeMap] = []

    @classmethod
    def load_dir(
        cls,
        map_dir: Path | str,
        quarantined: Iterable[int] = (),
        arena: bool | str = "auto",
    ) -> "CodeMapIndex":
        """Load a session's maps, preferring the compiled arena.

        ``arena`` controls the compiled-artifact path
        (:mod:`repro.viprof.arena`):

        * ``"auto"`` (default) — if a valid arena file exists **and** its
          recorded source digests still match the map files, back the
          index with zero-copy mmap tables; otherwise parse the text
          maps exactly as before.  Never writes anything.
        * ``False`` — text maps only (the parity baseline).
        * ``"require"`` — raise :class:`~repro.viprof.arena.ArenaError`
          unless a fresh arena is usable (tests and ``viprof index
          --check`` use this to prove the fast path was actually taken).

        Quarantined sessions always use the text path: salvage deletes
        the arena, and the text maps are the well-tested authority on
        damaged sessions.
        """
        map_dir = Path(map_dir)
        quarantined = tuple(quarantined)
        if arena is not False and not quarantined:
            from repro.viprof import arena as arena_mod

            try:
                opened = arena_mod.CodeMapArena.open_fresh(map_dir)
            except arena_mod.ArenaError:
                if arena == "require":
                    raise
            else:
                return cls(opened.maps(), quarantined=quarantined)
        elif arena == "require":
            raise CodeMapError(
                f"{map_dir}: arena required but session is quarantined"
            )
        maps: dict[int, CodeMap] = {}
        for path in sorted(map_dir.iterdir()):
            if not path.is_file():
                continue
            m = _FILE_RE.match(path.name)
            if m is None:
                continue
            cm = CodeMap.load(path)
            if int(m.group(1)) != cm.epoch:
                raise CodeMapError(
                    f"{path}: filename epoch {m.group(1)} != header epoch {cm.epoch}"
                )
            maps[cm.epoch] = cm
        return cls(maps, quarantined=quarantined)

    @property
    def epochs(self) -> tuple[int, ...]:
        return tuple(self._epochs)

    def map_for(self, epoch: int) -> CodeMap | None:
        return self._maps.get(epoch)

    def resolve(
        self, epoch: int, addr: int, backward: bool = True
    ) -> tuple[CodeMapRecord, int] | _Blocked | None:
        """Resolve ``addr`` for a sample taken during ``epoch``.

        Returns ``(record, epoch_found)`` for the greatest epoch ``<=
        top`` whose map covers the address, or None when no map ever held
        it (e.g. the method was compiled after the last map write and the
        final flush is missing).

        With a non-empty ``quarantined`` set, a quarantined epoch newer
        than any covering map in the window returns
        :data:`RESOLVE_BLOCKED`: the damaged map could have held the
        address, so any older hit might be a stale occupant.

        ``backward=False`` is the ablation: accept only the sample's own
        epoch map (``epoch_found == top``), which loses every sample whose
        method was compiled or moved in an earlier epoch.
        """
        if not self._maps and not self.quarantined:
            return None
        self.lookups += 1
        rank_top, floor, miss, miss_steps = self._window(epoch, backward)
        return self._lookup(addr, rank_top, floor, miss, miss_steps)

    def resolve_run(
        self, epoch: int, addrs: Iterable[int], backward: bool = True
    ) -> list[tuple[CodeMapRecord, int] | _Blocked | None]:
        """:meth:`resolve` for a run of addresses sharing one sample epoch
        (the columnar resolver's bucket shape): the walk window is worked
        out once, then each address is one index lookup.  Results and
        counters equal one :meth:`resolve` per address."""
        if not self._maps and not self.quarantined:
            return [None for _ in addrs]
        rank_top, floor, miss, miss_steps = self._window(epoch, backward)
        lookup = self._lookup
        out = [lookup(a, rank_top, floor, miss, miss_steps) for a in addrs]
        self.lookups += len(out)
        return out

    def _window(
        self, epoch: int, backward: bool
    ) -> tuple[int, int, _Blocked | None, int]:
        """The walk window of a sample epoch, in epoch ranks:
        ``(rank_top, floor, miss, miss_steps)``.

        ``rank_top`` is the rank of the greatest map epoch ``<= top`` (-1
        if none).  A version at rank ``r <= rank_top`` is reachable iff
        ``r >= floor``; the floor is the window's bottom (the oldest
        known epoch, or ``top`` itself without ``backward``) raised above
        the greatest quarantined epoch in the window, if any.  A lookup
        with no reachable version returns ``miss`` — RESOLVE_BLOCKED when
        a barrier raised the floor, else None — after ``miss_steps`` map
        probes.
        """
        if self._bounds is None:
            self._compile()
        epochs = self._epochs
        top = min(epoch, self._known_top) if epoch >= 0 else self._known_top
        bottom = self._known_bottom if backward else top
        rank_top = bisect_right(epochs, top) - 1
        floor = bisect_left(epochs, bottom)
        miss = None
        barriers = self._barriers
        i = bisect_right(barriers, top) - 1
        if i >= 0 and barriers[i] >= bottom:
            floor = bisect_right(epochs, barriers[i])
            miss = RESOLVE_BLOCKED
        return rank_top, floor, miss, rank_top + 1 - floor

    def _lookup(
        self,
        addr: int,
        rank_top: int,
        floor: int,
        miss: _Blocked | None,
        miss_steps: int,
    ) -> tuple[CodeMapRecord, int] | _Blocked | None:
        """One index lookup inside a :meth:`_window`: bisect the segment,
        then its versions for the greatest rank ``<= rank_top``."""
        bounds = self._bounds
        k = bisect_right(bounds, addr)  # segment k-1 starts at or before addr
        if 0 < k < len(bounds):
            ranks = self._ranks
            lo = self._seg_off[k - 1]
            j = bisect_right(ranks, rank_top, lo, self._seg_off[k]) - 1
            if j >= lo and ranks[j] >= floor:
                r = ranks[j]
                self.fallback_steps += rank_top - r
                return self._by_rank[r].record_at(self._rows[j]), self._epochs[r]
        self.fallback_steps += miss_steps
        return miss

    def _compile(self) -> None:
        """Build the version-segment index from every map's spans.

        Two passes over the records, no per-segment lists: the first
        counts the versions of each segment into the CSR offsets, the
        second fills the rank and row columns.  Maps are visited in epoch
        order, so each segment's ranks come out ascending.
        """
        by_rank = [self._maps[e] for e in self._epochs]
        cuts = set()
        for cm in by_rank:
            for start, end in cm.spans():
                cuts.add(start)
                cuts.add(end)
        bounds = array("q", sorted(cuts))
        del cuts
        off = array("q", bytes(8 * max(len(bounds), 1)))
        for cm in by_rank:
            for start, end in cm.spans():
                for k in range(
                    bisect_left(bounds, start), bisect_left(bounds, end)
                ):
                    off[k + 1] += 1
        for k in range(1, len(off)):
            off[k] += off[k - 1]
        ranks = array("i", bytes(4 * off[-1]))
        rows = array("i", bytes(4 * off[-1]))
        cursor = array("q", off)
        for r, cm in enumerate(by_rank):
            for row, (start, end) in enumerate(cm.spans()):
                for k in range(
                    bisect_left(bounds, start), bisect_left(bounds, end)
                ):
                    p = cursor[k]
                    ranks[p] = r
                    rows[p] = row
                    cursor[k] = p + 1
        self._seg_off = off
        self._ranks = ranks
        self._rows = rows
        self._by_rank = by_rank
        self._bounds = bounds
