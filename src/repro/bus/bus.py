"""Bus scheduling: queuing, arbitration, occupancy accounting.

The bus serves one transaction at a time.  A transaction issued at time
``t`` becomes *eligible* at ``t + uncontended_latency`` (the address/
memory-lookup phase runs off the contended resource); from then on it
competes in arbitration.  When the bus is free at time ``g`` it grants,
among transactions with ``eligible_time <= g``:

1. the lowest priority tier (demand > writeback > prefetch, when
   ``demand_priority`` is set -- the paper's round-robin scheme "favors
   blocking loads over prefetches");
2. within a tier, round-robin over CPUs starting after the last granted
   CPU;
3. per CPU, the earliest-issued *eligible* transaction.

The queues are indexed by that order: one FIFO per (tier, CPU), so a
grant visits at most ``tiers x CPUs`` queue heads instead of ranking
every pending transaction.  Rule 3 reads "eligible", not "head": with
``demand_priority`` off, one tier mixes fills (eligible 92 cycles after
issue by default) and writebacks (eligible after 1), so a writeback
issued behind a fill can be eligible first.  The earliest eligible time comes from a
lazily pruned heap, not a rescan of the queues.

Grant decisions are made by the *engine* popping arbitration events in
global time order, which guarantees every request issued before ``g`` is
already queued -- see :mod:`repro.sim.engine`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.bus.transaction import NUM_TIERS, BusTransaction, TransactionKind
from repro.common.config import BusConfig
from repro.common.errors import SimulationError

__all__ = ["Bus", "BusStats"]


@dataclass
class BusStats:
    """Occupancy and operation counts for one simulation run.

    Attributes:
        busy_cycles: cycles the contended resource was occupied.
        ops_by_kind: transaction counts per :class:`TransactionKind`.
        demand_ops / prefetch_ops: counts by arbitration class.
        total_wait_cycles: summed (grant - eligible) over transactions,
            i.e. pure queuing delay caused by contention.
    """

    busy_cycles: int = 0
    ops_by_kind: dict[TransactionKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in TransactionKind}
    )
    demand_ops: int = 0
    prefetch_ops: int = 0
    total_wait_cycles: int = 0

    @property
    def total_ops(self) -> int:
        """All granted bus operations."""
        return sum(self.ops_by_kind.values())

    def utilization(self, total_cycles: int) -> float:
        """Fraction of ``total_cycles`` the bus was busy."""
        return self.busy_cycles / total_cycles if total_cycles else 0.0

    def to_dict(self) -> dict:
        """JSON-safe dict; ``ops_by_kind`` keyed by kind *name*."""
        return {
            "busy_cycles": self.busy_cycles,
            "ops_by_kind": {kind.name: n for kind, n in self.ops_by_kind.items()},
            "demand_ops": self.demand_ops,
            "prefetch_ops": self.prefetch_ops,
            "total_wait_cycles": self.total_wait_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BusStats":
        """Exact inverse of :meth:`to_dict`."""
        return cls(
            busy_cycles=data["busy_cycles"],
            ops_by_kind={
                TransactionKind[name]: n for name, n in data["ops_by_kind"].items()
            },
            demand_ops=data["demand_ops"],
            prefetch_ops=data["prefetch_ops"],
            total_wait_cycles=data["total_wait_cycles"],
        )


class Bus:
    """The contended memory resource shared by all CPUs.

    Args:
        config: timing parameters.
        num_cpus: processor count (round-robin modulus).
    """

    def __init__(self, config: BusConfig, num_cpus: int) -> None:
        self.config = config
        self.num_cpus = num_cpus
        self.free_at = 0
        self.stats = BusStats()
        self._prioritized = config.demand_priority
        #: _queues[tier][cpu]: that CPU's queued transactions of that
        #: tier, in issue order (one tier when demand priority is off).
        self._queues: list[list[deque[BusTransaction]]] = [
            [deque() for _ in range(num_cpus)]
            for _ in range(NUM_TIERS if config.demand_priority else 1)
        ]
        #: (eligible_time, seq, txn) of every queued transaction, plus
        #: granted ones not yet pruned (``grant_time >= 0``).
        self._eligible_heap: list[tuple[int, int, BusTransaction]] = []
        self._num_pending = 0
        #: _rr_order[c]: CPUs in round-robin order after c was granted.
        self._rr_order = [
            tuple((c + 1 + i) % num_cpus for i in range(num_cpus)) for c in range(num_cpus)
        ]
        self._last_granted_cpu = num_cpus - 1
        self._seq = 0
        #: Optional observability tap (:class:`repro.obs.taps.EngineObserver`);
        #: set by the engine when ``SimulationConfig.observe`` is on.
        #: Read-only with respect to bus state.
        self.observer = None

    # -------------------------------------------------------------- requests

    def request(self, txn: BusTransaction) -> None:
        """Queue a transaction (eligible_time must already be set)."""
        txn.seq = seq = self._seq
        self._seq = seq + 1
        self._queues[txn.tier if self._prioritized else 0][txn.cpu].append(txn)
        heappush(self._eligible_heap, (txn.eligible_time, seq, txn))
        self._num_pending += 1
        if self.observer is not None:
            self.observer.on_bus_request(txn, self._num_pending)

    def make_fill(
        self, cpu: int, block: int, exclusive: bool, is_demand: bool, now: int, word_mask: int = 0
    ) -> BusTransaction:
        """Build (not queue) a fill transaction issued at ``now``."""
        kind = TransactionKind.FILL_EX if exclusive else TransactionKind.FILL
        return BusTransaction(
            cpu=cpu,
            block=block,
            kind=kind,
            is_demand=is_demand,
            issue_time=now,
            eligible_time=now + self.config.uncontended_cycles,
            occupancy=self.config.transfer_cycles,
            word_mask=word_mask,
        )

    def make_upgrade(self, cpu: int, block: int, now: int, word_mask: int) -> BusTransaction:
        """Build an upgrade (invalidate-others) transaction."""
        uncontended = max(0, self.config.upgrade_latency - self.config.upgrade_occupancy)
        return BusTransaction(
            cpu=cpu,
            block=block,
            kind=TransactionKind.UPGRADE,
            is_demand=True,
            issue_time=now,
            eligible_time=now + uncontended,
            occupancy=self.config.upgrade_occupancy,
            word_mask=word_mask,
        )

    def make_writeback(self, cpu: int, block: int, now: int) -> BusTransaction:
        """Build a copy-back transaction for a dirty victim."""
        return BusTransaction(
            cpu=cpu,
            block=block,
            kind=TransactionKind.WRITEBACK,
            is_demand=False,
            issue_time=now,
            eligible_time=now + 1,
            occupancy=self.config.effective_writeback_occupancy,
        )

    # ----------------------------------------------------------- arbitration

    @property
    def has_pending(self) -> bool:
        """True when transactions are queued."""
        return self._num_pending > 0

    def pending_snapshot(self) -> tuple[BusTransaction, ...]:
        """The queued (not yet granted) transactions, in issue order.

        Read-only view for diagnostics and the audit layer; mutating the
        returned transactions is not supported.
        """
        pending = [txn for tier in self._queues for queue in tier for txn in queue]
        pending.sort(key=lambda txn: txn.seq)
        return tuple(pending)

    def next_arbitration_time(self, now: int) -> int | None:
        """Earliest time a grant decision could be made, or None if idle."""
        if not self._num_pending:
            return None
        heap = self._eligible_heap
        while heap[0][2].grant_time >= 0:
            heappop(heap)  # granted since it was pushed
        earliest_eligible = heap[0][0]
        if self.config.contention_free:
            return max(now, earliest_eligible)
        return max(now, self.free_at, earliest_eligible)

    def arbitrate(self, now: int) -> BusTransaction | None:
        """Grant one transaction at time ``now`` if possible.

        Returns the granted transaction with ``grant_time`` and
        ``completion_time`` filled in, or ``None`` when the bus is busy
        or nothing is eligible yet.
        """
        if not self._num_pending:
            return None
        if not self.config.contention_free and now < self.free_at:
            return None
        chosen = self._choose(now)
        if chosen is None:
            return None
        queue = self._queues[chosen.tier if self._prioritized else 0][chosen.cpu]
        if queue[0] is chosen:
            queue.popleft()
        else:
            queue.remove(chosen)
        self._num_pending -= 1
        chosen.grant_time = now
        chosen.completion_time = now + chosen.occupancy
        if self.config.contention_free:
            # Unlimited bandwidth: transactions overlap freely; free_at
            # only tracks the last completion for end-of-run accounting.
            self.free_at = max(self.free_at, chosen.completion_time)
        else:
            self.free_at = chosen.completion_time
        self._last_granted_cpu = chosen.cpu
        self._account(chosen)
        if self.observer is not None:
            self.observer.on_bus_grant(chosen, self._num_pending)
        return chosen

    def _choose(self, now: int) -> BusTransaction | None:
        """The transaction arbitration grants at ``now`` (None if none is
        eligible): first tier, then round-robin CPU, then issue order."""
        order = self._rr_order[self._last_granted_cpu]
        for tier in self._queues:
            for cpu in order:
                for txn in tier[cpu]:
                    if txn.eligible_time <= now:
                        return txn
        return None

    def _account(self, txn: BusTransaction) -> None:
        self.stats.busy_cycles += txn.occupancy
        self.stats.ops_by_kind[txn.kind] += 1
        if txn.is_demand:
            self.stats.demand_ops += 1
        else:
            self.stats.prefetch_ops += 1
        wait = txn.grant_time - txn.eligible_time
        if wait < 0:
            raise SimulationError("transaction granted before it was eligible")
        self.stats.total_wait_cycles += wait
