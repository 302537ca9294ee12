"""Unit tests for hardware event definitions and EventCounts arithmetic."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.hardware.events import (
    EVENTS,
    FIELD_INDEX,
    BSQ_CACHE_REFERENCE,
    GLOBAL_POWER_EVENTS,
    EventCounts,
    event_by_name,
)


class TestEventRegistry:
    def test_registry_contains_paper_events(self):
        assert "GLOBAL_POWER_EVENTS" in EVENTS
        assert "BSQ_CACHE_REFERENCE" in EVENTS

    def test_event_by_name_roundtrip(self):
        for name, event in EVENTS.items():
            assert event_by_name(name) is event

    def test_event_by_name_unknown_raises(self):
        with pytest.raises(ConfigError, match="unknown hardware event"):
            event_by_name("NOT_AN_EVENT")

    def test_event_codes_are_unique(self):
        codes = [e.code for e in EVENTS.values()]
        assert len(codes) == len(set(codes))

    def test_counts_fields_exist_on_eventcounts(self):
        counts = EventCounts()
        for e in EVENTS.values():
            assert hasattr(counts, e.counts_field)

    def test_validate_period_rejects_below_minimum(self):
        with pytest.raises(ConfigError, match="below minimum"):
            GLOBAL_POWER_EVENTS.validate_period(10)

    def test_validate_period_accepts_minimum(self):
        GLOBAL_POWER_EVENTS.validate_period(GLOBAL_POWER_EVENTS.min_period)

    def test_cache_event_counts_misses(self):
        assert BSQ_CACHE_REFERENCE.counts_field == "l2_misses"


class TestEventCounts:
    def test_defaults_are_zero(self):
        c = EventCounts()
        assert c.cycles == 0 and c.l2_misses == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError, match="negative"):
            EventCounts(cycles=-1)

    def test_addition(self):
        a = EventCounts(cycles=10, instructions=5, l2_misses=2)
        b = EventCounts(cycles=3, branches=7)
        c = a + b
        assert c.cycles == 13 and c.instructions == 5
        assert c.l2_misses == 2 and c.branches == 7

    def test_inplace_addition(self):
        a = EventCounts(cycles=10)
        a += EventCounts(cycles=5, itlb_misses=1)
        assert a.cycles == 15 and a.itlb_misses == 1

    def test_get_by_field_name(self):
        c = EventCounts(l2_references=42)
        assert c.get("l2_references") == 42

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(EventCounts)]
    )
    def test_negative_field_rejected_by_name(self, name):
        """The OR fast path in ``__post_init__`` must still catch a
        negative value in every field and name that field."""
        with pytest.raises(ConfigError, match=rf"negative event count {name}=-3"):
            EventCounts(**{name: -3})

    def test_as_tuple_follows_field_order(self):
        c = EventCounts(*range(1, 8))
        assert c.as_tuple() == tuple(range(1, 8))
        names = [f.name for f in dataclasses.fields(EventCounts)]
        assert list(FIELD_INDEX) == names
        assert all(c.as_tuple()[FIELD_INDEX[n]] == c.get(n) for n in names)
