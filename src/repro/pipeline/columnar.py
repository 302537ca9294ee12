"""Columnar (batch) sample resolution — the deduplicated hot loop.

The scalar loop (:func:`repro.pipeline.parallel.consume_chunks`) pays the
full per-sample cost even when a decode chunk is thousands of repeats of a
few dozen PCs — which is what profiles look like.  The columnar path works
per **decode chunk** instead of per sample:

1. **Group.**  The chunk's field tuples are folded into a first-seen-order
   ``{cache key: count}`` dict — one dict op per sample, nothing else on
   the per-sample path.  The key is the resolution-cache key,
   ``(pc, epoch, kernel_mode, task_id, domain_id)``.
2. **Probe once per distinct key.**  With the cache enabled, each distinct
   key costs one LRU probe (counted as exactly one hit or miss, like the
   scalar loop's first encounter of the key in this chunk).
3. **Bucket + batch-walk the misses.**  Missing keys are sorted and
   bucketed by ``(epoch, kernel_mode, task_id, domain_id)``; each bucket
   is one ascending PC run, resolved by one chain walk
   (:meth:`~repro.pipeline.resolver.ResolverChain.resolve_key_run`) in
   which the JIT stage answers the whole run with one
   :meth:`~repro.viprof.codemap.CodeMapIndex.resolve_run`: the epoch
   window is worked out once per run, then each PC is one
   O(log S + log V) lookup in the version-segment index (S address
   segments, V epoch versions of the PC's segment) instead of a
   backward walk over the maps.
4. **Bulk replay + aggregate.**  Duplicates are accounted with
   :meth:`~repro.pipeline.resolver.ResolverChain.replay_bulk` and folded
   into the aggregate with one ``add_counts(..., n)`` per group, iterating
   groups in first-seen order so row/event insertion order — the report's
   sort tie-break — matches the scalar pass exactly.

**Why this is byte- and stats-identical to the scalar loop.**  Resolution
is a pure function of the cache key (the cache-soundness argument in
:mod:`repro.pipeline.cache`), so resolving one representative per key and
replaying the duplicates produces the same rows and the same counters:
replay re-applies precisely the per-stage and detail deltas the repeated
walks would have made, and group-order aggregation preserves first-seen
row order.  Parity is pinned by the golden fixtures
(``tests/pipeline/test_columnar.py``).

One observable difference is allowed and documented: LRU *recency*.  The
columnar path touches each distinct key once per chunk, so under eviction
pressure the cache may retain a different entry set than the scalar loop
would (hit/miss totals still agree while the distinct-key working set
fits the cache, the sized-for case).  Chains with a stage that owns inner
chains (the Xen domain dispatcher) cannot replay inner counters, so they
fall back to the scalar loop — the same rule that disables their outer
cache (``ResolverChain.supports_columnar``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.cache import CachedResolution
    from repro.pipeline.resolver import ResolverChain
    from repro.profiling.report import StreamingAggregator

__all__ = ["resolve_column_chunk", "resolve_key_runs"]


def _bucket_sort_key(key: tuple) -> tuple:
    # Bucket id first (epoch, kernel_mode, task, domain), ascending pc
    # within the bucket.  domain_id is None for single-stack codecs; map
    # it below any real domain so the sort never compares None with int.
    pc, epoch, kmode, task, domain = key
    return (epoch, kmode, task, -1 if domain is None else domain, pc)


def resolve_key_runs(
    chain: "ResolverChain",
    miss_keys: list[tuple],
    event_name: str,
) -> dict[tuple, "CachedResolution"]:
    """Resolve distinct cache keys by bucketed ascending-PC runs.

    Sorts the keys once, slices them into per-bucket runs (shared
    ``(epoch, kernel_mode, task_id, domain_id)``), and walks the chain
    once per run.  Returns entries keyed by input key; counter deltas
    equal one scalar walk per key.
    """
    miss_keys.sort(key=_bucket_sort_key)
    entries: dict[tuple, CachedResolution] = {}
    n = len(miss_keys)
    start = 0
    while start < n:
        bucket_id = miss_keys[start][1:]
        end = start + 1
        while end < n and miss_keys[end][1:] == bucket_id:
            end += 1
        entries.update(
            chain.resolve_key_run(miss_keys[start:end], event_name)
        )
        start = end
    return entries


def resolve_column_chunk(
    fields_chunk: Sequence[tuple],
    has_domain: bool,
    event_name: str,
    chain: "ResolverChain",
    agg: "StreamingAggregator",
) -> None:
    """Resolve one decoded field chunk into ``agg`` the columnar way.

    ``fields_chunk`` is a batch of raw struct-field tuples
    ``(pc, task_id, kernel_mode, cycle, epoch[, domain_id])`` as yielded
    by :meth:`~repro.profiling.record_codec.RecordFileReader.iter_field_chunks`.
    """
    groups: dict[tuple, int] = {}
    get = groups.get
    if has_domain:
        for f in fields_chunk:
            key = (f[0], f[4], f[2], f[1], f[5])
            groups[key] = get(key, 0) + 1
    else:
        for f in fields_chunk:
            key = (f[0], f[4], f[2], f[1], None)
            groups[key] = get(key, 0) + 1

    cache = chain.cache
    entries: dict[tuple, CachedResolution] = {}
    if cache is not None:
        miss_keys: list[tuple] = []
        probe = cache.get
        for key in groups:
            entry = probe(key)  # counts exactly one hit or miss per key
            if entry is None:
                miss_keys.append(key)
            else:
                entries[key] = entry
    else:
        miss_keys = list(groups)
    if miss_keys:
        was_missed = set(miss_keys)
        entries.update(resolve_key_runs(chain, miss_keys, event_name))
    else:
        was_missed = ()

    add_counts = agg.add_counts
    replay_bulk = chain.replay_bulk
    if cache is not None:
        count_bulk_hits = cache.count_bulk_hits
        for key, count in groups.items():
            entry = entries[key]
            # Scalar accounting for a group of `count` samples: the first
            # encounter was already counted by the probe (a hit replaying
            # nothing extra here, or a miss whose full walk just counted
            # itself once); every duplicate is a cache hit plus a replay.
            if count > 1:
                count_bulk_hits(count - 1)
            replay_bulk(entry, count if key not in was_missed else count - 1)
            add_counts(event_name, entry.image, entry.symbol, count)
    else:
        for key, count in groups.items():
            entry = entries[key]
            replay_bulk(entry, count - 1)
            add_counts(event_name, entry.image, entry.symbol, count)
