"""Unit tests for the lockup-free miss machinery (MSHRs)."""

import pytest

from repro.cache.mshr import MissStatusRegisters
from repro.common.errors import SimulationError


class TestOutstandingFills:
    def test_start_and_lookup(self):
        mshr = MissStatusRegisters(16)
        fill = mshr.start(0x1000, is_prefetch=False, exclusive=False)
        assert mshr.lookup(0x1000) is fill
        assert mshr.lookup(0x2000) is None

    def test_duplicate_start_rejected(self):
        mshr = MissStatusRegisters(16)
        mshr.start(0x1000, False, False)
        with pytest.raises(SimulationError):
            mshr.start(0x1000, True, False)

    def test_finish_removes(self):
        mshr = MissStatusRegisters(16)
        mshr.start(0x1000, False, False)
        mshr.finish(0x1000)
        assert mshr.lookup(0x1000) is None

    def test_finish_unknown_rejected(self):
        mshr = MissStatusRegisters(16)
        with pytest.raises(SimulationError):
            mshr.finish(0x1000)


class TestPrefetchBuffer:
    def test_occupancy_tracking(self):
        mshr = MissStatusRegisters(2)
        mshr.start(0x1000, is_prefetch=True, exclusive=False)
        assert mshr.prefetches_in_flight == 1
        assert not mshr.prefetch_buffer_full
        mshr.start(0x2000, is_prefetch=True, exclusive=False)
        assert mshr.prefetch_buffer_full
        mshr.finish(0x1000)
        assert not mshr.prefetch_buffer_full

    def test_demand_fills_do_not_occupy_buffer(self):
        mshr = MissStatusRegisters(1)
        mshr.start(0x1000, is_prefetch=False, exclusive=True)
        assert mshr.prefetches_in_flight == 0
        assert not mshr.prefetch_buffer_full

    def test_high_water_mark(self):
        mshr = MissStatusRegisters(16)
        for i in range(5):
            mshr.start(0x1000 * (i + 1), is_prefetch=True, exclusive=False)
        for i in range(5):
            mshr.finish(0x1000 * (i + 1))
        assert mshr.max_prefetches_in_flight == 5
        assert mshr.prefetches_in_flight == 0


class TestPoisoning:
    def test_granted_fill_poisoned(self):
        mshr = MissStatusRegisters(16)
        fill = mshr.start(0x1000, True, False)
        fill.granted = True
        assert mshr.snoop_invalidate(0x1000, 0b10)
        assert fill.poisoned
        assert fill.poisoned_word_mask == 0b10

    def test_ungranted_fill_not_poisoned(self):
        # A fill not yet on the bus is serialized after the remote op,
        # so its data will be fetched fresh.
        mshr = MissStatusRegisters(16)
        fill = mshr.start(0x1000, True, False)
        assert not mshr.snoop_invalidate(0x1000, 0b10)
        assert not fill.poisoned

    def test_poison_masks_accumulate(self):
        mshr = MissStatusRegisters(16)
        fill = mshr.start(0x1000, True, False)
        fill.granted = True
        mshr.snoop_invalidate(0x1000, 0b01)
        mshr.snoop_invalidate(0x1000, 0b10)
        assert fill.poisoned_word_mask == 0b11

    def test_snoop_absent_block(self):
        mshr = MissStatusRegisters(16)
        assert not mshr.snoop_invalidate(0x9999, 0b1)


class TestInFlightMap:
    def test_bit_set_from_start_to_finish(self):
        inflight = {0x1000: 0b1}  # CPU 0 is fetching the block too
        mshr = MissStatusRegisters(4, inflight, cpu=3)
        mshr.start(0x1000, is_prefetch=True, exclusive=False)
        mshr.start(0x2000, is_prefetch=False, exclusive=True)
        assert inflight == {0x1000: 0b1001, 0x2000: 0b1000}
        mshr.finish(0x1000)
        mshr.finish(0x2000)
        assert inflight == {0x1000: 0b1}
