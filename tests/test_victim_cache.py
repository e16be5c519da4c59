"""Unit tests for the victim cache and its cache integration."""

import pytest

from repro.cache.coherent import CoherentCache
from repro.cache.victim import VictimCache
from repro.coherence.protocol import BusOp, IllinoisProtocol, LineState
from repro.common.config import CacheConfig

S = 32 * 1024  # one cache size (same-set stride)


@pytest.fixture
def protocol():
    return IllinoisProtocol()


class TestVictimCacheUnit:
    def test_disabled_capacity_inserts_nothing(self, protocol):
        vc = VictimCache(0, protocol)
        assert vc.insert(0x1000, LineState.SHARED, 0b1, 0) is None
        assert len(vc) == 0

    def test_insert_and_extract(self, protocol):
        vc = VictimCache(4, protocol)
        vc.insert(0x1000, LineState.MODIFIED, 0b11, 0)
        state, words, remote = vc.extract(0x1000)
        assert state is LineState.MODIFIED
        assert words == 0b11
        assert len(vc) == 0

    def test_lru_displacement_of_dirty_entry(self, protocol):
        vc = VictimCache(2, protocol)
        vc.insert(0x1000, LineState.MODIFIED, 0, 0)
        vc.insert(0x2000, LineState.SHARED, 0, 0)
        displaced = vc.insert(0x3000, LineState.SHARED, 0, 0)
        assert displaced == (0x1000, LineState.MODIFIED)

    def test_clean_displacement_needs_no_writeback(self, protocol):
        vc = VictimCache(1, protocol)
        vc.insert(0x1000, LineState.SHARED, 0, 0)
        assert vc.insert(0x2000, LineState.SHARED, 0, 0) is None

    def test_invalid_entries_not_parked(self, protocol):
        vc = VictimCache(4, protocol)
        assert vc.insert(0x1000, LineState.INVALID, 0, 0) is None
        assert len(vc) == 0

    def test_snoop_invalidates_entry(self, protocol):
        vc = VictimCache(4, protocol)
        vc.insert(0x1000, LineState.SHARED, 0b1, 0)
        assert vc.snoop(0x1000, BusOp.UPGRADE, 0b10)
        assert not vc.has_valid_copy(0x1000)
        assert vc.extract(0x1000) is None
        # The invalidation metadata survives for miss classification.
        words, remote = vc.take_invalidated(0x1000)
        assert words == 0b1 and remote == 0b10

    def test_note_remote_write_accumulates(self, protocol):
        vc = VictimCache(4, protocol)
        vc.insert(0x1000, LineState.SHARED, 0b1, 0)
        vc.snoop(0x1000, BusOp.UPGRADE, 0b10)
        vc.note_remote_write(0x1000, 0b100)
        _, remote = vc.take_invalidated(0x1000)
        assert remote == 0b110


class TestVictimCacheIntegration:
    def make_cache(self, protocol, lines=4):
        return CoherentCache(CacheConfig(victim_cache_lines=lines), protocol, cpu=0)

    def test_conflict_victim_recovered_without_bus(self, protocol):
        cache = self.make_cache(protocol)
        cache.fill(0, LineState.SHARED, by_prefetch=False, now=0)
        cache.fill(S, LineState.SHARED, by_prefetch=False, now=1)  # evicts 0 into VC
        result = cache.lookup_demand(0, 0b1, now=2)
        assert result.hit
        assert result.victim_hit

    def test_swap_preserves_both_lines(self, protocol):
        cache = self.make_cache(protocol)
        cache.fill(0, LineState.SHARED, by_prefetch=False, now=0)
        cache.fill(S, LineState.SHARED, by_prefetch=False, now=1)
        cache.lookup_demand(0, 0b1, now=2)  # swap 0 back in, S to VC
        assert cache.lookup_demand(S, 0b1, now=3).victim_hit

    def test_dirty_eviction_parks_instead_of_writeback(self, protocol):
        cache = self.make_cache(protocol)
        cache.fill(0, LineState.MODIFIED, by_prefetch=False, now=0)
        # With a victim cache, the dirty line parks on-chip: no writeback.
        assert cache.fill(S, LineState.SHARED, by_prefetch=False, now=1) is None
        assert cache.lookup_demand(0, 0b1, now=2).victim_hit

    def test_victim_overflow_writes_back_dirty(self, protocol):
        cache = self.make_cache(protocol, lines=1)
        cache.fill(0, LineState.MODIFIED, by_prefetch=False, now=0)
        cache.fill(S, LineState.MODIFIED, by_prefetch=False, now=1)  # 0 -> VC
        # Evicting S pushes it into the single-entry VC, displacing 0.
        evicted = cache.fill(2 * S, LineState.SHARED, by_prefetch=False, now=2)
        assert evicted is not None and evicted.block == 0

    def test_invalidated_victim_classifies_invalidation_miss(self, protocol):
        cache = self.make_cache(protocol)
        cache.fill(0, LineState.SHARED, by_prefetch=False, now=0)
        cache.record_access(0, 0b1, now=0)
        cache.fill(S, LineState.SHARED, by_prefetch=False, now=1)  # 0 parked
        cache.snoop(0, BusOp.UPGRADE, 0b1)  # invalidate parked copy
        result = cache.lookup_demand(0, 0b1, now=2)
        assert not result.hit
        assert result.invalidation_miss
        assert not result.false_sharing  # they wrote the word we use

    def test_prefetch_lookup_sees_victim(self, protocol):
        cache = self.make_cache(protocol)
        cache.fill(0, LineState.SHARED, by_prefetch=False, now=0)
        cache.fill(S, LineState.SHARED, by_prefetch=False, now=1)
        assert cache.lookup_prefetch(0)


class TestSharerMap:
    """The shared ``block -> cpu bitmask`` map follows tags and parked lines."""

    BIT = 1 << 2  # the cache below belongs to CPU 2

    def make_cache(self, protocol, sharers, lines=2):
        return CoherentCache(CacheConfig(victim_cache_lines=lines), protocol, 2, sharers)

    def test_bit_follows_a_line_through_main_array_and_victim_buffer(self, protocol):
        sharers = {0: 0b1}  # CPU 0 also holds block 0
        cache = self.make_cache(protocol, sharers)
        cache.fill(0, LineState.SHARED, by_prefetch=False, now=0)
        assert sharers == {0: 0b1 | self.BIT}
        cache.fill(S, LineState.SHARED, by_prefetch=False, now=1)  # 0 -> victim
        assert sharers == {0: 0b1 | self.BIT, S: self.BIT}
        cache.snoop(0, BusOp.READ_EX, 0b1)  # parked copy invalidated, kept
        assert sharers[0] == 0b1 | self.BIT
        assert cache.lookup_demand(0, 0b1, now=2).invalidation_miss
        # take_invalidated consumed the entry: only CPU 0 is left.
        assert sharers == {0: 0b1, S: self.BIT}

    def test_victim_eviction_keeps_bit_while_main_array_tags_block(self, protocol):
        sharers: dict[int, int] = {}
        cache = self.make_cache(protocol, sharers)
        half = S // 2  # a second set
        cache.fill(0, LineState.SHARED, by_prefetch=False, now=0)
        cache.fill(S, LineState.SHARED, by_prefetch=False, now=1)  # 0 -> victim
        cache.snoop(0, BusOp.READ_EX, 0b1)  # victim copy of 0 now invalid
        # A prefetch-style fill brings 0 back while its invalid entry stays
        # parked: S moves to the victim buffer (now [0 invalid, S]).
        cache.fill(0, LineState.SHARED, by_prefetch=True, now=2)
        assert 0 in cache.victim and cache.state_of(0) is LineState.SHARED
        cache.fill(half, LineState.SHARED, by_prefetch=False, now=3)
        cache.fill(half + S, LineState.SHARED, by_prefetch=False, now=4)
        # Parking ``half`` evicted the invalid entry for 0 from the victim
        # buffer, but the main array still tags 0.
        assert 0 not in cache.victim
        assert sharers[0] == self.BIT
        assert sharers == {b: self.BIT for b in cache.tracked_blocks()}

    def test_disabled_victim_buffer_clears_evicted_tags(self, protocol):
        sharers: dict[int, int] = {}
        cache = self.make_cache(protocol, sharers, lines=0)
        cache.fill(0, LineState.MODIFIED, by_prefetch=False, now=0)
        cache.fill(S, LineState.SHARED, by_prefetch=False, now=1)
        assert sharers == {S: self.BIT}


@pytest.mark.xfail(
    strict=True,
    reason="known defect: a 2-way _install can pick an invalid frame other than "
    "the one already tagged with the block, orphaning a valid copy that a later "
    "eviction parks next to the live one; fixing it changes the 2-way ablation "
    "results, so it waits for an ENGINE_VERSION bump",
)
def test_two_way_refill_never_leaves_a_block_in_main_and_victim(protocol):
    cache = CoherentCache(
        CacheConfig(size_bytes=2 * 32 * 2, associativity=2, victim_cache_lines=1), protocol
    )
    a, x, b = 0, 64, 128  # all in set 0
    cache.fill(a, LineState.SHARED, by_prefetch=False, now=0)
    cache.fill(x, LineState.SHARED, by_prefetch=False, now=1)
    cache.snoop(a, BusOp.READ_EX, 0b1)
    cache.snoop(x, BusOp.READ_EX, 0b1)
    cache.fill(x, LineState.SHARED, by_prefetch=False, now=2)  # lands in a's frame
    cache.fill(b, LineState.SHARED, by_prefetch=False, now=3)  # reuses x's stale frame
    assert not cache.lookup_demand(x, 0b1, now=4).hit
    cache.fill(x, LineState.SHARED, by_prefetch=False, now=5)
    assert not (cache.state_of(x).is_valid and cache.victim.state_of(x).is_valid)
