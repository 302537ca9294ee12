"""The version-segment index against a reference backward walk.

``CodeMapIndex`` answers paper §3.2's rule — a sample stamped with epoch
*e* resolves in the greatest map epoch ``<= e`` that covers its PC —
with two bisects over a compiled index instead of walking the maps.
:func:`walk` below is that walk, map by map, kept here as the oracle:
every answer (record and epoch, None, or RESOLVE_BLOCKED) and every walk
counter (``lookups``, ``fallback_steps``) the index produces must be the
walk's, on random epoch histories with recycled addresses, epoch gaps,
quarantined epochs, out-of-range sample epochs, both walk directions and
both map backings (text maps and the mmap arena).

The last test runs a whole native session through the report pipeline
with the chain's resolution cache shrunk below its distinct-key count:
text-backed index, arena-backed index and the oracle must produce the
same report document and the same chain statistics, cache block included.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.build import report_json_doc
from repro.viprof.arena import CodeMapArena, build_arena
from repro.viprof.codemap import (
    RESOLVE_BLOCKED,
    CodeMapIndex,
    CodeMapRecord,
    CodeMapWriter,
)


def walk(index, epoch, addr, backward=True):
    """Reference §3.2 walk: probe map ``top``, ``top-1``, ... down to the
    oldest known epoch, stopping at the first covering map or the first
    quarantined epoch.  Bumps ``index``'s walk counters as it goes."""
    known = set(index.epochs) | index.quarantined
    if not known:
        return None
    index.lookups += 1
    top = min(epoch, max(known)) if epoch >= 0 else max(known)
    bottom = min(known) if backward else top
    for e in range(top, bottom - 1, -1):
        if e in index.quarantined:
            return RESOLVE_BLOCKED
        cm = index.map_for(e)
        if cm is None:
            continue
        rec = cm.lookup(addr)
        if rec is not None:
            return rec, e
        index.fallback_steps += 1
    return None


def walk_run(index, epoch, addrs, backward=True):
    return [walk(index, epoch, a, backward) for a in addrs]


# ----------------------------------------------------------------------
# Random epoch histories
# ----------------------------------------------------------------------

BASE = 0x6000_0000
UNIT = 0x10
MAX_EPOCH = 12

#: One epoch's map: records laid out left to right, each ``(gap, size,
#: tag)`` in UNITs.  Every epoch starts at BASE, so address ranges are
#: recycled across epochs with shifting boundaries; tags repeat names.
EPOCH_MAP = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=6,
)
HISTORIES = st.dictionaries(
    st.integers(min_value=0, max_value=MAX_EPOCH), EPOCH_MAP, max_size=7
)
QUERIES = st.lists(
    st.tuples(
        st.integers(min_value=-2, max_value=MAX_EPOCH + 3),  # sample epoch
        st.integers(min_value=-2, max_value=60),  # addr, in half UNITs
        st.booleans(),  # backward
    ),
    min_size=1,
    max_size=40,
)


def write_history(map_dir: Path, history: dict) -> None:
    writer = CodeMapWriter(map_dir)
    for epoch, layout in history.items():
        records, at = [], BASE
        for gap, size, tag in layout:
            at += gap * UNIT
            records.append(
                CodeMapRecord(
                    address=at, size=size * UNIT, tier="O1",
                    name=f"m{tag}", moved=tag % 2 == 1,
                )
            )
            at += size * UNIT
        writer.write(epoch, records)


def assert_index_matches_walk(maps, quarantined, queries):
    index = CodeMapIndex(maps, quarantined=quarantined)
    oracle = CodeMapIndex(maps, quarantined=quarantined)
    for epoch, half_units, backward in queries:
        addr = BASE + half_units * UNIT // 2
        assert index.resolve(epoch, addr, backward) == walk(
            oracle, epoch, addr, backward
        ), (epoch, hex(addr), backward)
        assert index.lookups == oracle.lookups
        assert index.fallback_steps == oracle.fallback_steps
    # The batched form, one run per (epoch, direction), ascending PCs as
    # the columnar resolver passes them.
    runs: dict[tuple[int, bool], set[int]] = {}
    for epoch, half_units, backward in queries:
        runs.setdefault((epoch, backward), set()).add(
            BASE + half_units * UNIT // 2
        )
    for (epoch, backward), addrs in sorted(runs.items()):
        addrs = sorted(addrs)
        assert index.resolve_run(epoch, addrs, backward) == walk_run(
            oracle, epoch, addrs, backward
        )
        assert index.lookups == oracle.lookups
        assert index.fallback_steps == oracle.fallback_steps
    assert index.memo_hits == 0


@settings(max_examples=150, deadline=None)
@given(
    history=HISTORIES,
    quarantine=st.sets(
        st.integers(min_value=0, max_value=MAX_EPOCH), max_size=4
    ),
    queries=QUERIES,
)
# Edge cases pinned explicitly: no map at all (nothing resolves, nothing
# counts) and only quarantined epochs left (everything in window blocks).
@example(history={}, quarantine=set(), queries=[(3, 0, True)])
@example(
    history={},
    quarantine={2, 5},
    queries=[(e, 4, b) for e in range(-1, 8) for b in (True, False)],
)
def test_text_index_matches_reference_walk(history, quarantine, queries):
    with tempfile.TemporaryDirectory() as tmp:
        map_dir = Path(tmp) / "jit-maps"
        write_history(map_dir, history)
        loaded = CodeMapIndex.load_dir(map_dir, arena=False)
        maps = {e: loaded.map_for(e) for e in loaded.epochs}
        assert_index_matches_walk(maps, quarantine - set(maps), queries)


@settings(max_examples=60, deadline=None)
@given(
    history=HISTORIES.filter(bool),
    quarantine=st.sets(
        st.integers(min_value=0, max_value=MAX_EPOCH), max_size=4
    ),
    queries=QUERIES,
)
def test_arena_index_matches_reference_walk(history, quarantine, queries):
    with tempfile.TemporaryDirectory() as tmp:
        map_dir = Path(tmp) / "jit-maps"
        write_history(map_dir, history)
        with CodeMapArena.open(build_arena(map_dir)) as arena:
            maps = arena.maps()
            assert_index_matches_walk(
                maps, quarantine - set(maps), queries
            )


# ----------------------------------------------------------------------
# Whole-pipeline statistics parity under resolution-cache eviction
# ----------------------------------------------------------------------

SMALL_CACHE = 512


@pytest.fixture(scope="module")
def native_run():
    from repro.system.api import viprof_profile
    from repro.workloads import by_name

    return viprof_profile(
        by_name("jython"), period=10_000, time_scale=0.5, seed=7
    )


def small_cache_report(run, codemaps):
    from repro.viprof.postprocess import ViprofReport

    class SmallCacheReport(ViprofReport):
        @property
        def _cache_size(self) -> int:
            return SMALL_CACHE

    post = SmallCacheReport(
        kernel=run.kernel,
        sample_dir=run.sample_dir,
        codemaps=codemaps,
        rvm_map=run.boot.rvm_map,
        registrations=run.viprof_session.daemon.registrations,
    )
    rep = post.generate(workers=1)
    stats = post.chain.stats_dict()
    walk_counts = (codemaps.lookups, codemaps.fallback_steps)
    return report_json_doc(rep, stats), stats, walk_counts


def test_stats_identical_under_cache_eviction(native_run, monkeypatch):
    map_dir = native_run.viprof_session.map_dir
    text = small_cache_report(
        native_run, CodeMapIndex.load_dir(map_dir, arena=False)
    )
    arena = small_cache_report(
        native_run, CodeMapIndex.load_dir(map_dir, arena="require")
    )
    monkeypatch.setattr(CodeMapIndex, "resolve", walk)
    monkeypatch.setattr(CodeMapIndex, "resolve_run", walk_run)
    oracle = small_cache_report(
        native_run, CodeMapIndex.load_dir(map_dir, arena=False)
    )

    cache = text[1]["cache"]
    # The cache really evicted: it is full and missed more keys than fit.
    assert cache["size"] == SMALL_CACHE < cache["misses"]
    jit = next(s for s in text[1]["stages"] if s["stage"] == "jit-epoch")
    assert jit["detail"]["resolved_in_earlier_epoch"] > 0
    assert text[0] == arena[0] == oracle[0]
    assert text[2] == arena[2] == oracle[2]
