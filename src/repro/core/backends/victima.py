"""Victima-style cache-resident TLB entry pool (arXiv:2310.04158).

Victima repurposes a slice of the L2 data cache as a massive victim
TLB: entries evicted from (or freshly filled past) the small CPU TLB
are stashed into ordinary cache lines, so TLB reach scales with cache
capacity instead of dedicated TLB SRAM.  The model here is a dedicated
:class:`~repro.mem.cache.SetAssociativeCache` standing in for the L2
slice — it reproduces the *set-pressure* behaviour (entries from hot
page-number neighbourhoods fight over the same ways and evict each
other) without perturbing the data cache's own hit rate, which keeps
the backend orthogonal to the cache model the workloads already run
against.

Miss path: every CPU TLB miss first probes the pool (``probe_cycles``);
a pool hit installs the stashed entry after ``hit_cycles`` — the
latency of an L2 access — instead of the full software walk.  A pool
miss runs the ordinary software refill and stashes the new entry; the
entry the CPU TLB evicts to make room is stashed too (that is the
"victim" in Victima).  Only base-page entries are pooled: superpage
mappings already have reach and would alias many page numbers onto one
line.

Entries are process-tagged (the multiprogramming scheduler flushes the
CPU TLB on every context switch, so the pool is exactly what survives
a switch): a pool line whose owner is not the current process is a
miss.  Remap shootdowns drop overlapping pool entries so the pool can
never serve a translation the OS has withdrawn — an invariant the
sanitizer re-checks against the live page tables.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Tuple

from .base import TranslationBackend, require_conventional
from ..addrspace import (
    BASE_PAGE_SIZE,
    CACHE_LINE_SHIFT,
    CACHE_LINE_SIZE,
    is_power_of_two,
)
from ...cpu.miss_handler import PageFault
from ...cpu.tlb import TlbEntry
from ...errors import InvariantViolation, SimulationError
from ...mem.cache import SetAssociativeCache
from ...obs.tracer import TLB_MISS

if TYPE_CHECKING:
    from ...sim.system import System


@dataclass(frozen=True)
class VictimaConfig:
    """Knobs of the cache-resident entry pool.

    ``size_bytes``/``associativity`` shape the L2 slice holding TLB
    entries (one entry per cache line); ``probe_cycles`` is charged for
    the pool lookup on every CPU TLB miss and ``hit_cycles`` for
    reading an entry out of the cache on a pool hit.
    """

    size_bytes: int = 32 << 10
    associativity: int = 8
    hit_cycles: int = 12
    probe_cycles: int = 2


class VictimaBackend(TranslationBackend):
    """Stash victim TLB entries in a cache-set-pressured pool."""

    name = "victima"

    def __init__(self, config) -> None:
        super().__init__(config)
        self.knobs: VictimaConfig = config.victima
        #: The L2 slice: one line per pooled entry, indexed by the
        #: entry's virtual page number so neighbouring pages contend
        #: for the same set exactly as Victima's PTE lines do.
        self.pool = SetAssociativeCache(
            size_bytes=self.knobs.size_bytes,
            associativity=self.knobs.associativity,
            physically_indexed=False,
        )
        #: Directory shadowing the pool's tags: vpn -> (pid, entry).
        #: Kept in lockstep with the cache via ``peek_lru`` so the
        #: sanitizer can equate occupancies.
        self._directory: Dict[int, Tuple[int, TlbEntry]] = {}
        self._counters = {
            "pool_hits": 0,
            "pool_misses": 0,
            "stashes": 0,
            "evictions": 0,
            "shootdown_drops": 0,
            "wrong_process": 0,
        }

    @classmethod
    def validate(cls, config) -> None:
        require_conventional(config, "victima")
        knobs = config.victima
        if knobs.associativity < 1:
            raise ValueError("victima.associativity must be >= 1")
        if knobs.size_bytes % (CACHE_LINE_SIZE * knobs.associativity):
            raise ValueError(
                "victima.size_bytes must divide into "
                f"{CACHE_LINE_SIZE}-byte lines across "
                f"{knobs.associativity} ways"
            )
        num_sets = knobs.size_bytes // (
            CACHE_LINE_SIZE * knobs.associativity
        )
        if not is_power_of_two(num_sets):
            raise ValueError(
                "victima pool must have a power-of-two set count, got "
                f"{num_sets}"
            )
        if knobs.hit_cycles < 0 or knobs.probe_cycles < 0:
            raise ValueError(
                "victima.hit_cycles and victima.probe_cycles must be >= 0"
            )

    @classmethod
    def vector_config_supported(cls, config) -> Tuple[bool, str]:
        del config
        return False, (
            "backend 'victima' has no vector coverage mirror yet "
            "(v1 runs the scalar engine)"
        )

    # -- miss path ------------------------------------------------------ #

    @staticmethod
    def _line(vpn: int) -> int:
        """Pool line address for a virtual page number (vaddr == paddr:
        the pool is a model structure, not part of the memory map)."""
        return vpn << CACHE_LINE_SHIFT

    def refill_tlb(
        self,
        system: "System",
        vaddr: int,
        kernel_access: Callable[[int, bool], int],
    ):
        counters = self._counters
        process = system.kernel.current
        pid = process.pid if process is not None else -1
        vpn = vaddr // BASE_PAGE_SIZE
        line = self._line(vpn)
        cycles = self.knobs.probe_cycles
        pooled = self._directory.get(vpn)
        if (
            pooled is not None
            and pooled[0] == pid
            and self.pool.probe(line, line)
        ):
            counters["pool_hits"] += 1
            cycles += self.knobs.hit_cycles
            self.pool.access(line, line, is_write=False)  # LRU touch
            # A fresh object, exactly as a software refill would build:
            # TlbEntry is mutable (the TLB flips NRU bits in place), so
            # installing the pooled object would alias pool and TLB
            # state and perturb replacement.  With the copy, the CPU
            # TLB's state evolution — and therefore the miss count —
            # is bit-identical to the conventional baseline; only the
            # refill cycle cost changes.
            entry = dataclasses.replace(pooled[1], nru_referenced=True)
            self._insert(system, pid, entry)
            if system._tracer is not None:
                system._tracer.emit(TLB_MISS, vaddr, cycles)
            return entry, cycles
        if pooled is not None and pooled[0] != pid:
            counters["wrong_process"] += 1
        counters["pool_misses"] += 1
        try:
            result = system.miss_handler.handle(
                vaddr, kernel_access
            )
        except PageFault as exc:
            raise SimulationError(
                f"unexpected page fault at {exc.vaddr:#010x}: workload "
                "traces must map every region they touch"
            ) from exc
        cycles += result.cycles
        entry = result.entry
        if entry.size == BASE_PAGE_SIZE:
            self._stash(pid, entry)
        self._insert(system, pid, entry)
        if system._tracer is not None:
            system._tracer.emit(TLB_MISS, vaddr, cycles)
        return entry, cycles

    def _insert(self, system: "System", pid: int, entry: TlbEntry) -> None:
        """Install into the CPU TLB, stashing the evicted victim."""
        victim = system.tlb.insert(entry)
        if victim is not None and victim.size == BASE_PAGE_SIZE:
            self._stash(pid, victim)

    def _stash(self, pid: int, entry: TlbEntry) -> None:
        """Write *entry* into the pool, retiring whatever its set
        evicts."""
        vpn = entry.vbase // BASE_PAGE_SIZE
        line = self._line(vpn)
        if not self.pool.probe(line, line):
            evicted = self.pool.peek_lru(line, line)
            if evicted is not None:
                self._directory.pop(evicted, None)
                self._counters["evictions"] += 1
        self.pool.access(line, line, is_write=False)
        # Store a private copy: the TLB-resident object keeps mutating
        # (NRU bits) after the stash.
        self._directory[vpn] = (pid, dataclasses.replace(entry))
        self._counters["stashes"] += 1

    def on_shootdown(
        self, system: "System", vstart: int, length: int
    ) -> None:
        del system
        end = vstart + length
        doomed = [
            vpn
            for vpn, (_pid, entry) in self._directory.items()
            if entry.vbase < end and entry.vbase + entry.size > vstart
        ]
        for vpn in doomed:
            del self._directory[vpn]
            line = self._line(vpn)
            self.pool.flush_line(line, line)
            self._counters["shootdown_drops"] += 1

    # -- metrics / checking --------------------------------------------- #

    def register_metrics(self, system: "System") -> None:
        def snapshot() -> Dict[str, int]:
            snap = dict(self._counters)
            snap["pool_occupancy"] = self.pool.occupancy
            return snap

        system.metrics.add_source("victima", snapshot)
        system.metrics.add_source(
            "backend", lambda: {"reach_bytes": self.reach_bytes(system)}
        )

    def reach_bytes(self, system: "System") -> int:
        """CPU TLB reach plus every live pooled entry (each covers one
        base page; double-counting TLB-resident pages is negligible and
        mirrors how Victima reports combined reach)."""
        return system.tlb.reach + len(self._directory) * BASE_PAGE_SIZE

    def sanitize(self, system: "System", where: str) -> None:
        """Pool/directory lockstep and translation freshness: every
        directory entry must be cache-resident (and vice versa, by
        occupancy), cover exactly one base page, and still agree with
        its owning process's page table (else a shootdown was missed)."""
        if self.pool.occupancy != len(self._directory):
            raise InvariantViolation(
                "backend.victima",
                f"pool occupancy {self.pool.occupancy} != directory "
                f"size {len(self._directory)}",
                where,
            )
        processes = {p.pid: p for p in system.kernel._processes.values()}
        for vpn, (pid, entry) in self._directory.items():
            line = self._line(vpn)
            if not self.pool.probe(line, line):
                raise InvariantViolation(
                    "backend.victima",
                    f"directory entry for vpn {vpn:#x} has no pool line",
                    where,
                )
            if entry.size != BASE_PAGE_SIZE:
                raise InvariantViolation(
                    "backend.victima",
                    f"pooled entry {entry.vbase:#010x} has size "
                    f"{entry.size:#x}; only base pages may be pooled",
                    where,
                )
            process = processes.get(pid)
            if process is None:
                continue
            mapping = process.page_table.lookup(entry.vbase)
            if mapping is None or mapping.translate(entry.vbase) != entry.pbase:
                raise InvariantViolation(
                    "backend.victima",
                    f"pooled entry {entry.vbase:#010x} -> "
                    f"{entry.pbase:#010x} no longer matches process "
                    f"{pid}'s page table (missed shootdown)",
                    where,
                )
