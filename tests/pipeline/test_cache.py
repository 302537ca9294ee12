"""The epoch-aware resolution cache and the codemap walk memo.

Caching is transparency-tested: a cached run must match an uncached run
byte for byte — report *and* per-stage statistics — because cache hits
replay the claiming stage's counter updates exactly.
"""

import pytest

from repro.errors import ProfilerError, SampleFormatError
from repro.pipeline.cache import CachedResolution, ResolutionCache
from repro.pipeline.resolver import StageStats
from repro.system.api import viprof_profile
from repro.viprof.codemap import CodeMap, CodeMapIndex, CodeMapRecord
from repro.workloads import by_name


def entry(i: int) -> CachedResolution:
    return CachedResolution(
        image="img", symbol=f"sym{i}", offset=i, claim_index=0
    )


class TestResolutionCache:
    def test_counts_hits_and_misses(self):
        c = ResolutionCache(capacity=4)
        assert c.get(("k",)) is None
        c.put(("k",), entry(1))
        assert c.get(("k",)).symbol == "sym1"
        assert (c.hits, c.misses) == (1, 1)
        assert c.hit_rate == 0.5

    def test_lru_eviction_order(self):
        c = ResolutionCache(capacity=2)
        c.put(("a",), entry(1))
        c.put(("b",), entry(2))
        assert c.get(("a",)) is not None  # refresh a; b is now LRU
        c.put(("c",), entry(3))
        assert len(c) == 2
        assert c.get(("b",)) is None
        assert c.get(("a",)) is not None
        assert c.get(("c",)) is not None

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ProfilerError):
            ResolutionCache(capacity=0)

    def test_clear_and_reset_counters(self):
        c = ResolutionCache(capacity=2)
        c.put(("a",), entry(1))
        c.get(("a",))
        c.reset_counters()
        assert (c.hits, c.misses) == (0, 0)
        assert len(c) == 1  # entries stay warm
        c.clear()
        assert len(c) == 0

    def test_stats_dict_shape(self):
        c = ResolutionCache(capacity=8)
        c.put(("a",), entry(1))
        c.get(("a",))
        d = c.stats_dict()
        assert d == {
            "capacity": 8, "size": 1, "hits": 1, "misses": 0,
            "hit_rate": 1.0,
        }

    def test_empty_cache_is_still_reported(self):
        # ResolutionCache defines __len__, so an *empty* cache is falsy;
        # stats_dict() must test `is not None`, not truthiness.
        from repro.pipeline import ResolverChain

        chain = ResolverChain([])
        assert len(chain.cache) == 0
        assert chain.stats_dict()["cache"] is not None


class TestStageStatsInvariants:
    def test_terminal_stage_with_misses_fails_check(self):
        st = StageStats("unresolved", hits=3, misses=1, terminal=True)
        with pytest.raises(ProfilerError, match="terminal"):
            st.check()

    def test_terminal_stage_offered_equals_hits(self):
        st = StageStats("unresolved", hits=3, terminal=True)
        assert st.check().offered == st.hits

    def test_merge_rejects_mismatched_stages(self):
        with pytest.raises(ProfilerError):
            StageStats("a").merge(StageStats("b"))
        with pytest.raises(ProfilerError):
            StageStats("a", terminal=True).merge(StageStats("a"))


class TestChainCacheTransparency:
    @pytest.fixture(scope="class")
    def run(self):
        return viprof_profile(
            by_name("fop"), period=90_000, time_scale=0.12, seed=11
        )

    def test_cached_equals_uncached_bytes_and_stats(self, run):
        hot = run.viprof_report(resolve_cache=True)
        cold = run.viprof_report(resolve_cache=False)
        assert hot.report.format_table() == cold.report.format_table()
        hs, cs = hot.stage_stats, cold.stage_stats
        assert hs["stages"] == cs["stages"]
        assert hs["total_samples"] == cs["total_samples"]
        assert cs["cache"] is None
        assert hs["cache"]["hits"] + hs["cache"]["misses"] == (
            hs["total_samples"]
        )

    def test_warm_chain_replays_counters_exactly(self, run):
        vr = run.viprof_report()
        post = vr.post
        first = [
            (st.name, st.hits, st.misses) for st in post.chain.stats()
        ]
        jit_first = dict(post.chain.stage("jit-epoch").detail_dict())
        # Second pass over the same stream: every sample is a cache hit,
        # and replay must double every counter — detail included.
        for resolved in post.resolved_samples():
            pass
        assert post.chain.cache.hits > 0
        for (name, h, m), st in zip(first, post.chain.stats()):
            assert (st.name, st.hits, st.misses) == (name, 2 * h, 2 * m)
        jit_second = post.chain.stage("jit-epoch").detail_dict()
        for key in (
            "jit_samples", "resolved_in_own_epoch",
            "resolved_in_earlier_epoch", "unresolved",
        ):
            assert jit_second[key] == 2 * jit_first[key]

    def test_total_samples_is_stream_length(self, run):
        vr = run.viprof_report()
        assert vr.post.chain.total_samples == len(vr.post.read_samples())

    def test_xen_outer_chain_never_caches(self):
        from repro.os.kernel import Kernel
        from repro.pipeline import (
            DomainDispatchStage,
            ResolverChain,
            opreport_chain,
        )

        inner = opreport_chain(Kernel())
        outer = ResolverChain([DomainDispatchStage({0: inner})])
        assert outer.cache is None  # hits could not replay inner counters
        assert inner.cache is not None


class TestCodeMapMemo:
    """Repeat lookups on the code-map index that replaced the walk memo:
    every call answers from the index afresh, so repeats cost — and
    count — exactly what the first lookup did."""

    def index(self) -> CodeMapIndex:
        rec = lambda a, name: CodeMapRecord(  # noqa: E731
            address=a, size=0x10, tier="O1", name=name
        )
        return CodeMapIndex({
            0: CodeMap(0, [rec(0x1000, "m.zero")]),
            1: CodeMap(1, [rec(0x2000, "m.one")]),
            3: CodeMap(3, [rec(0x3000, "m.three")]),
        })

    def test_memo_results_match_fresh_index(self):
        warm = self.index()
        rounds = []
        for _ in range(2):  # the second round repeats every lookup
            steps = warm.fallback_steps
            for epoch in (0, 1, 2, 3, 9):
                for addr in (0x1008, 0x2008, 0x3008, 0x9999):
                    fresh = self.index().resolve(epoch, addr)
                    assert warm.resolve(epoch, addr) == fresh
            rounds.append(warm.fallback_steps - steps)
        assert rounds[0] == rounds[1] > 0  # repeats walk as far again
        assert warm.lookups == 2 * 5 * 4
        assert warm.memo_hits == 0

    def test_ablation_keys_separately(self):
        idx = self.index()
        assert idx.resolve(3, 0x1008, backward=True)[1] == 0
        # Without the backward walk only the sample's own map counts.
        assert idx.resolve(3, 0x1008, backward=False) is None
        assert idx.resolve(1, 0x2008, backward=False)[1] == 1
        assert idx.resolve(2, 0x2008, backward=False) is None  # no map 2
        # Backward result is unaffected by the ablation lookups before it.
        assert idx.resolve(3, 0x1008, backward=True)[1] == 0


class TestReaderHandleHygiene:
    def make(self, tmp_path, n=10):
        from tests.pipeline.test_parallel import write_sample_file

        return write_sample_file(tmp_path / "h.samples", n)

    def test_context_manager_releases_handle(self, tmp_path):
        from repro.profiling.record_codec import RecordFileReader

        with RecordFileReader(self.make(tmp_path)) as reader:
            assert reader._fh is not None
            n = sum(1 for _ in reader)
        assert n == 10
        assert reader._fh is None

    def test_closed_reader_can_still_iterate(self, tmp_path):
        from repro.profiling.record_codec import RecordFileReader

        reader = RecordFileReader(self.make(tmp_path))
        reader.close()
        assert sum(1 for _ in reader) == 10  # opens a private handle

    def test_concurrent_iterations_do_not_collide(self, tmp_path):
        from repro.profiling.record_codec import RecordFileReader

        with RecordFileReader(self.make(tmp_path)) as reader:
            outer = reader.iter_records()
            first = next(outer)
            inner = list(reader.iter_records())  # private handle
            rest = list(outer)
        assert len(inner) == 10
        assert [first, *rest] == inner

    def test_range_validation(self, tmp_path):
        from repro.profiling.record_codec import RecordFileReader

        with RecordFileReader(self.make(tmp_path)) as reader:
            with pytest.raises(SampleFormatError):
                list(reader.iter_field_chunks(start_record=11))
            with pytest.raises(SampleFormatError):
                list(reader.iter_field_chunks(0, 11))
            assert sum(len(c) for c in reader.iter_field_chunks(4, 6)) == 6
