"""Unit tests for the split-transaction bus and its arbitration."""

import pytest

from repro.bus.bus import Bus
from repro.bus.transaction import BusTransaction, TransactionKind
from repro.common.config import BusConfig


def make_bus(**kwargs) -> Bus:
    return Bus(BusConfig(**kwargs), num_cpus=4)


class TestTiming:
    def test_fill_eligibility_is_uncontended_portion(self):
        bus = make_bus(transfer_cycles=8)
        txn = bus.make_fill(0, 0x1000, exclusive=False, is_demand=True, now=10)
        assert txn.eligible_time == 10 + 92
        assert txn.occupancy == 8

    def test_unloaded_fill_latency_is_memory_latency(self):
        bus = make_bus(transfer_cycles=8)
        txn = bus.make_fill(0, 0x1000, exclusive=False, is_demand=True, now=0)
        bus.request(txn)
        granted = bus.arbitrate(txn.eligible_time)
        assert granted is txn
        assert txn.completion_time == 100  # the paper's 100-cycle latency

    def test_upgrade_latency(self):
        bus = make_bus(upgrade_latency=12, upgrade_occupancy=1)
        txn = bus.make_upgrade(0, 0x1000, now=0, word_mask=1)
        bus.request(txn)
        granted = bus.arbitrate(txn.eligible_time)
        assert granted is txn
        assert txn.completion_time == 12

    def test_writeback_is_eligible_quickly(self):
        bus = make_bus()
        txn = bus.make_writeback(0, 0x1000, now=5)
        assert txn.eligible_time == 6
        assert txn.occupancy == bus.config.transfer_cycles


class TestArbitration:
    def test_busy_bus_grants_nothing(self):
        bus = make_bus(transfer_cycles=8)
        t1 = bus.make_fill(0, 0x1000, False, True, now=0)
        t2 = bus.make_fill(1, 0x2000, False, True, now=0)
        bus.request(t1)
        bus.request(t2)
        assert bus.arbitrate(t1.eligible_time) is t1
        assert bus.arbitrate(t1.eligible_time + 1) is None  # bus busy
        assert bus.arbitrate(bus.free_at) is t2

    def test_demand_priority_over_prefetch(self):
        bus = make_bus()
        pf = bus.make_fill(0, 0x1000, False, is_demand=False, now=0)
        demand = bus.make_fill(1, 0x2000, False, is_demand=True, now=0)
        bus.request(pf)
        bus.request(demand)
        assert bus.arbitrate(pf.eligible_time) is demand

    def test_writeback_beats_prefetch_loses_to_demand(self):
        bus = make_bus()
        pf = bus.make_fill(0, 0x1000, False, is_demand=False, now=0)
        wb = bus.make_writeback(1, 0x2000, now=0)
        demand = bus.make_fill(2, 0x3000, False, is_demand=True, now=0)
        for t in (pf, wb, demand):
            bus.request(t)
        now = max(t.eligible_time for t in (pf, wb, demand))
        assert bus.arbitrate(now) is demand
        assert bus.arbitrate(bus.free_at) is wb
        assert bus.arbitrate(bus.free_at) is pf

    def test_round_robin_within_class(self):
        bus = make_bus()
        txns = [bus.make_fill(cpu, 0x1000 * cpu + 0x1000, False, True, now=0) for cpu in range(4)]
        for t in txns:
            bus.request(t)
        now = txns[0].eligible_time
        order = []
        while bus.has_pending:
            granted = bus.arbitrate(max(now, bus.free_at))
            order.append(granted.cpu)
        # Starting position after initial last_granted = num_cpus-1 is CPU 0.
        assert order == [0, 1, 2, 3]

    def test_round_robin_resumes_after_last_grant(self):
        bus = make_bus()
        t2 = bus.make_fill(2, 0x2000, False, True, now=0)
        bus.request(t2)
        assert bus.arbitrate(t2.eligible_time) is t2
        txns = [bus.make_fill(cpu, 0x1000 * (cpu + 4), False, True, now=0) for cpu in range(4)]
        for t in txns:
            bus.request(t)
        order = []
        while bus.has_pending:
            granted = bus.arbitrate(max(txns[0].eligible_time, bus.free_at))
            order.append(granted.cpu)
        assert order == [3, 0, 1, 2]  # wraps starting after CPU 2

    def test_no_priority_when_disabled(self):
        bus = Bus(BusConfig(demand_priority=False), num_cpus=4)
        pf = bus.make_fill(0, 0x1000, False, is_demand=False, now=0)
        demand = bus.make_fill(1, 0x2000, False, is_demand=True, now=0)
        bus.request(pf)
        bus.request(demand)
        # Pure round-robin: CPU 0 (the prefetch) goes first.
        assert bus.arbitrate(pf.eligible_time) is pf

    def test_fifo_within_cpu(self):
        bus = make_bus()
        first = bus.make_fill(0, 0x1000, False, True, now=0)
        second = bus.make_fill(0, 0x2000, False, True, now=0)
        bus.request(first)
        bus.request(second)
        assert bus.arbitrate(first.eligible_time) is first


class TestAccounting:
    def test_busy_cycles_accumulate(self):
        bus = make_bus(transfer_cycles=8)
        for i in range(3):
            t = bus.make_fill(i, 0x1000 * (i + 1), False, True, now=0)
            bus.request(t)
        while bus.has_pending:
            bus.arbitrate(max(100, bus.free_at))
        assert bus.stats.busy_cycles == 24
        assert bus.stats.ops_by_kind[TransactionKind.FILL] == 3
        assert bus.stats.total_ops == 3

    def test_utilization(self):
        bus = make_bus()
        t = bus.make_fill(0, 0x1000, False, True, now=0)
        bus.request(t)
        bus.arbitrate(t.eligible_time)
        assert bus.stats.utilization(100) == pytest.approx(0.08)

    def test_wait_cycles_recorded(self):
        bus = make_bus(transfer_cycles=8)
        t1 = bus.make_fill(0, 0x1000, False, True, now=0)
        t2 = bus.make_fill(1, 0x2000, False, True, now=0)
        bus.request(t1)
        bus.request(t2)
        bus.arbitrate(t1.eligible_time)
        bus.arbitrate(bus.free_at)
        assert bus.stats.total_wait_cycles == 8  # t2 waited one occupancy

    def test_next_arbitration_time(self):
        bus = make_bus()
        assert bus.next_arbitration_time(0) is None
        t = bus.make_fill(0, 0x1000, False, True, now=0)
        bus.request(t)
        assert bus.next_arbitration_time(0) == t.eligible_time
        assert bus.next_arbitration_time(t.eligible_time + 5) == t.eligible_time + 5


class TestIndexedQueues:
    def test_pending_snapshot_is_issue_order_across_tiers_and_cpus(self):
        bus = make_bus()
        issued = [
            bus.make_fill(2, 0x1000, False, is_demand=False, now=0),
            bus.make_writeback(0, 0x2000, now=0),
            bus.make_fill(1, 0x3000, False, is_demand=True, now=1),
            bus.make_fill(2, 0x4000, False, is_demand=False, now=2),
            bus.make_upgrade(3, 0x5000, now=3, word_mask=1),
            bus.make_writeback(2, 0x6000, now=4),
        ]
        for txn in issued:
            bus.request(txn)
        assert bus.pending_snapshot() == tuple(issued)
        granted = bus.arbitrate(max(t.eligible_time for t in issued))
        assert bus.pending_snapshot() == tuple(t for t in issued if t is not granted)

    def test_next_arbitration_time_skips_granted_heap_entries(self):
        bus = make_bus(transfer_cycles=8)
        early = bus.make_fill(0, 0x1000, False, True, now=0)
        late = bus.make_fill(1, 0x2000, False, True, now=50)
        bus.request(early)
        bus.request(late)
        assert bus.arbitrate(early.eligible_time) is early
        # ``early`` is granted but still the heap's minimum entry.
        assert bus.next_arbitration_time(0) == late.eligible_time
        assert bus.arbitrate(late.eligible_time) is late
        assert bus.next_arbitration_time(late.eligible_time) is None
        again = bus.make_fill(2, 0x3000, False, True, now=200)
        bus.request(again)
        assert bus.next_arbitration_time(0) == again.eligible_time

    def test_earlier_eligible_writeback_passes_fill_without_priority(self):
        bus = Bus(BusConfig(demand_priority=False), num_cpus=4)
        fill = bus.make_fill(0, 0x1000, False, is_demand=True, now=0)
        wb = bus.make_writeback(0, 0x2000, now=1)
        bus.request(fill)
        bus.request(wb)
        assert wb.eligible_time < fill.eligible_time
        assert bus.next_arbitration_time(0) == wb.eligible_time
        assert bus.arbitrate(wb.eligible_time) is wb
        assert bus.arbitrate(fill.eligible_time) is fill

    def test_tier_is_fixed_at_construction(self):
        bus = make_bus()
        assert bus.make_fill(0, 0x1000, False, is_demand=True, now=0).tier == 0
        assert bus.make_upgrade(0, 0x1000, now=0, word_mask=1).tier == 0
        assert bus.make_writeback(0, 0x1000, now=0).tier == 1
        assert bus.make_fill(0, 0x1000, True, is_demand=False, now=0).tier == 2
