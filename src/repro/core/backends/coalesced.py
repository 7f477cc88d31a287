"""Range-coalesced TLB backend (arXiv:1908.08774).

Real operating systems produce long runs of virtually *and* physically
contiguous base pages; a coalesced TLB detects that contiguity when the
miss handler already has the neighbouring PTEs in hand and installs one
TLB entry covering the whole aligned run.  The CPU TLB needs no change
— the simulator's TLB already supports variable page sizes — so this
backend is pure miss-path policy: after the ordinary software refill
produces a base-page entry, it probes the neighbouring mappings for a
uniform virtual→physical delta and grows the entry through the legal
mapping sizes (16 KB, 64 KB, ... up to ``max_span_bytes``).

Model notes:

* Contiguity is *detected*, never created: the backend installs a
  larger entry only when every base page of the aligned block already
  maps with the same delta and writability.  Translations are therefore
  identical to the per-page path; only reach and miss rate change.
* Each neighbour PTE checked charges ``probe_cycles`` on the miss path
  (the paper's detection happens at page-table fill for near-zero cost;
  the charge models the handler's extra compare-and-mask work).
* Blocks are probed smallest-size-first and probing stops at the first
  failure — a larger aligned block containing the faulting address is a
  superset of the smaller one, so the early exit is exact.

No shadow structures exist under this backend (``mtlb.enabled``,
promotion, all-shadow, and stream buffers are rejected at config time),
so the MMC decodes no shadow window and the kernel runs the
conventional path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Tuple

from .base import TranslationBackend, require_conventional
from ..addrspace import BASE_PAGE_SIZE, PAGE_SIZES
from ...cpu.miss_handler import PageFault
from ...cpu.tlb import TlbEntry
from ...errors import InvariantViolation, SimulationError
from ...obs.tracer import TLB_MISS

if TYPE_CHECKING:
    from ...sim.system import System


@dataclass(frozen=True)
class CoalescedConfig:
    """Knobs of the range-coalescing miss path.

    ``max_span_bytes`` caps the coalesced entry size and must be a legal
    mapping size (a power-of-four multiple of the 4 KB base page);
    ``probe_cycles`` is charged per neighbour PTE examined.
    """

    max_span_bytes: int = 64 << 10
    probe_cycles: int = 4


class CoalescedBackend(TranslationBackend):
    """Coalesce contiguous base-page runs into one TLB entry."""

    name = "coalesced"

    def __init__(self, config) -> None:
        super().__init__(config)
        self.knobs: CoalescedConfig = config.coalesced
        #: Ascending legal sizes above the base page, capped by the
        #: configured span.
        self._span_sizes = tuple(
            size
            for size in PAGE_SIZES
            if BASE_PAGE_SIZE < size <= self.knobs.max_span_bytes
        )
        #: Installed coalesced blocks, for the sanitizer and metrics:
        #: (pid, vbase, size) -> delta.  Pruned lazily (eviction) and on
        #: shootdown.
        self._installed: Dict[Tuple[int, int, int], int] = {}
        self._counters = {
            "fills": 0,
            "pages": 0,
            "probes": 0,
            "rejected": 0,
        }

    @classmethod
    def validate(cls, config) -> None:
        require_conventional(config, "coalesced")
        span = config.coalesced.max_span_bytes
        if span < BASE_PAGE_SIZE or span not in PAGE_SIZES:
            raise ValueError(
                f"coalesced.max_span_bytes must be a legal mapping size "
                f"(one of {', '.join(hex(s) for s in PAGE_SIZES)}), "
                f"got {span:#x}"
            )
        if config.coalesced.probe_cycles < 0:
            raise ValueError("coalesced.probe_cycles must be >= 0")

    @classmethod
    def vector_config_supported(cls, config) -> Tuple[bool, str]:
        del config
        return False, (
            "backend 'coalesced' has no vector coverage mirror yet "
            "(v1 runs the scalar engine)"
        )

    # -- miss path ------------------------------------------------------ #

    def refill_tlb(
        self,
        system: "System",
        vaddr: int,
        kernel_access: Callable[[int, bool], int],
    ):
        try:
            result = system.miss_handler.handle(
                vaddr, kernel_access
            )
        except PageFault as exc:
            raise SimulationError(
                f"unexpected page fault at {exc.vaddr:#010x}: workload "
                "traces must map every region they touch"
            ) from exc
        entry = result.entry
        cycles = result.cycles
        if entry.size == BASE_PAGE_SIZE and self._span_sizes:
            entry, cycles = self._coalesce(system, vaddr, entry, cycles)
        system.tlb.insert(entry)
        if system._tracer is not None:
            system._tracer.emit(TLB_MISS, vaddr, cycles)
        return entry, cycles

    def _coalesce(self, system: "System", vaddr: int, entry, cycles):
        """Grow *entry* through the legal sizes while contiguity holds."""
        process = system.kernel.current
        if process is None:
            return entry, cycles
        table = process.page_table
        counters = self._counters
        probe_cycles = self.knobs.probe_cycles
        delta = entry.pbase - entry.vbase
        best_size = entry.size
        lo = entry.vbase
        hi = entry.vbase + entry.size
        for size in self._span_sizes:
            vblock = vaddr & ~(size - 1)
            ok = True
            for page in range(vblock, vblock + size, BASE_PAGE_SIZE):
                if lo <= page < hi:
                    continue  # verified while probing a smaller block
                counters["probes"] += 1
                cycles += probe_cycles
                mapping = table.lookup(page)
                if (
                    mapping is None
                    or mapping.pbase - mapping.vbase != delta
                    or mapping.writable != entry.writable
                ):
                    ok = False
                    break
            if not ok:
                break
            best_size = size
            lo, hi = vblock, vblock + size
        if best_size == entry.size:
            counters["rejected"] += 1
            return entry, cycles
        counters["fills"] += 1
        counters["pages"] += best_size // BASE_PAGE_SIZE
        coalesced = TlbEntry(
            vbase=lo,
            pbase=lo + delta,
            size=best_size,
            writable=entry.writable,
        )
        self._installed[(process.pid, lo, best_size)] = delta
        return coalesced, cycles

    def on_shootdown(
        self, system: "System", vstart: int, length: int
    ) -> None:
        del system
        end = vstart + length
        doomed = [
            key
            for key in self._installed
            if key[1] < end and key[1] + key[2] > vstart
        ]
        for key in doomed:
            del self._installed[key]

    # -- metrics / checking --------------------------------------------- #

    def register_metrics(self, system: "System") -> None:
        system.metrics.add_source("coalesced", lambda: dict(self._counters))
        system.metrics.add_source(
            "backend", lambda: {"reach_bytes": self.reach_bytes(system)}
        )

    def sanitize(self, system: "System", where: str) -> None:
        """Every tracked coalesced entry still resident in the TLB must
        agree with the owning process's page table: same delta and
        writability on every base page it spans (a violation means the
        backend is serving translations the OS never installed)."""
        tlb = system.tlb
        processes = {
            p.pid: p for p in system.kernel._processes.values()
        }
        stale = []
        for (pid, vbase, size), delta in self._installed.items():
            resident = tlb._by_size.get(size, {}).get(vbase)
            process = processes.get(pid)
            if resident is None or process is None:
                stale.append((pid, vbase, size))
                continue
            if resident.pbase - resident.vbase != delta:
                raise InvariantViolation(
                    "backend.coalesced",
                    f"entry {vbase:#010x}/{size:#x} delta "
                    f"{resident.pbase - resident.vbase:#x} does not "
                    f"match the installed delta {delta:#x}",
                    where,
                )
            for page in range(vbase, vbase + size, BASE_PAGE_SIZE):
                mapping = process.page_table.lookup(page)
                if mapping is None or mapping.pbase - mapping.vbase != delta:
                    raise InvariantViolation(
                        "backend.coalesced",
                        f"page {page:#010x} of coalesced entry "
                        f"{vbase:#010x}/{size:#x} no longer maps with "
                        f"delta {delta:#x} in process {pid} (missed "
                        "shootdown)",
                        where,
                    )
        for key in stale:
            del self._installed[key]
