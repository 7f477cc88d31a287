"""The VM subsystem: mapping, and remapping regions onto shadow superpages.

This is the OS half of the paper's mechanism (Sections 2.3-2.4).  The
hardware half (MTLB + shadow table) lives in :mod:`repro.core`; this module
performs the choreography a remap requires, charging simulated cycles for
every step:

1. plan maximal superpages over the virtual region;
2. allocate shadow regions from the bucket allocator;
3. **flush the region from the cache** (through the real cache model, so
   the ~1400 cycles/4 KB page cost of Section 3.3 is measured, not
   assumed) and shoot down stale CPU TLB and HPT entries;
4. program the MMC's shadow-to-physical mappings for every base page via
   uncached control-register writes;
5. replace the base-page PTEs with one superpage PTE per planned region.

The reverse path (``remap_back``) and a conventional contiguous-superpage
path (for ablation A1) are also provided.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.addrspace import (
    BASE_PAGE_SHIFT,
    BASE_PAGE_SIZE,
    SUPERPAGE_SIZES,
    PhysicalMemoryMap,
    align_up,
)
from ..core.remap import SuperpagePlan, plan_superpages
from ..core.shadow_space import ShadowRegion, ShadowSpaceExhausted
from .frames import FrameAllocator, frames_for_bytes
from .hpt import HashedPageTable
from .page_table import MappingError
from .process import Process


@dataclass(frozen=True)
class VmCosts:
    """Fixed instruction costs of VM operations, in CPU cycles.

    Calibrated so the measured remap cost matches the paper's Section 3.3
    breakdown (~1400 cycles/page of flushing; ~145 cycles/page of other
    overhead for em3d's 1120-page remap).
    """

    #: Syscall entry/exit and argument validation.
    syscall_overhead: int = 300
    #: Zero-fill + bookkeeping per base page on first mapping.
    map_page: int = 400
    #: Per-superpage planning/allocation overhead during remap.
    remap_superpage: int = 700
    #: Per-base-page bookkeeping during remap (PTE rewrite, shootdown,
    #: HPT purge), excluding the uncached MMC mapping write.
    remap_page: int = 120
    #: Per-base-page bookkeeping when tearing a superpage down.
    unmap_page: int = 120


@dataclass
class ShadowSuperpage:
    """Bookkeeping record for one live shadow-backed superpage."""

    process: Process
    vbase: int
    region: ShadowRegion
    #: Real frame numbers backing each base page, in virtual order; an
    #: entry is None while that base page is swapped out.
    pfns: List[Optional[int]] = field(default_factory=list)

    @property
    def base_pages(self) -> int:
        """Number of base pages in the superpage."""
        return self.region.size >> BASE_PAGE_SHIFT

    @property
    def first_shadow_index(self) -> int:
        """Shadow page index of the superpage's first base page."""
        return self._first_index

    def set_first_index(self, index: int) -> None:
        """Record the shadow page index of the region's first page."""
        self._first_index = index


@dataclass
class RemapReport:
    """Cost and effect breakdown of one remap operation."""

    pages_remapped: int = 0
    superpages_created: int = 0
    flush_cycles: int = 0
    other_cycles: int = 0
    dirty_lines_written: int = 0
    #: Planned superpages that could not get shadow space and were
    #: demoted to smaller shadow superpages or left on base pages.
    degraded_superpages: int = 0
    #: Base pages left on conventional mappings because even the
    #: smallest shadow superpage could not be allocated.
    fallback_pages: int = 0

    @property
    def total_cycles(self) -> int:
        """Total simulated cost of the remap."""
        return self.flush_cycles + self.other_cycles


class VmSubsystem:
    """Mapping and shadow-superpage management for all processes.

    *machine* is the simulated machine port (in practice
    :class:`repro.sim.system.System`), providing the costed primitives:
    ``flush_virtual_range(process, vstart, length) -> (cycles, dirty)``,
    ``shootdown_range(vstart, length)``, ``uncached_mmc_write() -> cycles``
    and the ``mmc`` attribute.  It is attached after construction to break
    the build-order cycle.
    """

    def __init__(
        self,
        memory_map: PhysicalMemoryMap,
        frames: FrameAllocator,
        shadow_allocator,
        hpt: HashedPageTable,
        costs: VmCosts = VmCosts(),
        degradation: str = "demote",
    ) -> None:
        if degradation not in ("demote", "abort"):
            raise ValueError(
                f"degradation must be 'demote' or 'abort', got {degradation!r}"
            )
        self.memory_map = memory_map
        self.frames = frames
        self.shadow_allocator = shadow_allocator
        self.hpt = hpt
        self.costs = costs
        #: Shadow-space exhaustion policy: "demote" retries each failed
        #: superpage as four quarter-size shadow superpages (falling back
        #: to the existing base-page mapping below 16 KB); "abort"
        #: propagates :class:`~repro.core.shadow_space.ShadowSpaceExhausted`.
        self.degradation = degradation
        self._machine: Optional[Callable[[], object]] = None
        #: shadow region base -> live superpage record.
        self.shadow_superpages: Dict[int, ShadowSuperpage] = {}
        #: regions consumed by all-shadow base-page mappings (Section 4).
        self._all_shadow_regions: List[ShadowRegion] = []
        #: Cumulative count of degraded (demoted or base-fallback)
        #: superpage plans across all remaps; harvested into RunStats.
        self.degraded_remap_events = 0

    def attach_machine(self, machine) -> None:
        """Install the machine port (called by the System at build time).

        Held weakly: the machine owns this subsystem through its kernel,
        so a strong reference would leave every finished machine as
        cyclic garbage for the collector.
        """
        self._machine = weakref.ref(machine)

    @property
    def machine(self):
        """The attached machine, or None (never attached, or gone)."""
        return None if self._machine is None else self._machine()

    # ------------------------------------------------------------------ #
    # Plain mapping
    # ------------------------------------------------------------------ #

    def map_region(
        self,
        process: Process,
        vstart: int,
        length: int,
        writable: bool = True,
    ) -> int:
        """Map ``[vstart, vstart+length)`` with discontiguous base pages.

        Returns the simulated cycle cost (zero-fill and bookkeeping).
        """
        length = align_up(length, BASE_PAGE_SIZE)
        pages = frames_for_bytes(length)
        cycles = self.costs.syscall_overhead
        for i in range(pages):
            vaddr = vstart + (i << BASE_PAGE_SHIFT)
            pfn = self.frames.allocate()
            mapping = process.page_table.map_base_page(vaddr, pfn, writable)
            self.hpt.preload(
                vaddr >> BASE_PAGE_SHIFT, mapping, space=process.pid
            )
            cycles += self.costs.map_page
        return cycles

    def unmap_region(self, process: Process, vstart: int, length: int) -> int:
        """Unmap a base-page region, freeing its frames."""
        length = align_up(length, BASE_PAGE_SIZE)
        removed = process.page_table.unmap_range(vstart, length)
        cycles = self.costs.syscall_overhead
        for mapping in removed:
            if mapping.is_superpage:
                raise MappingError(
                    "unmap_region cannot tear down superpages; "
                    "use remap_back first"
                )
            self.frames.free(mapping.pbase >> BASE_PAGE_SHIFT)
            self.hpt.purge_vpn(
                mapping.vbase >> BASE_PAGE_SHIFT, space=process.pid
            )
            cycles += self.costs.unmap_page
        if self.machine is not None:
            self.machine.shootdown_range(vstart, length)
        return cycles

    # ------------------------------------------------------------------ #
    # All-shadow mode (paper Section 4)
    # ------------------------------------------------------------------ #

    def map_region_all_shadow(
        self, process: Process, vstart: int, length: int
    ) -> int:
        """Map a region with base pages named by *shadow* addresses.

        Section 4's answer for machines whose entire physical address
        space is populated: route every virtual access through shadow
        memory, so the MTLB translates all traffic (and may need to grow
        — ablation A6 quantifies that).  Each base page gets a real
        frame plus a shadow page; the PTE points at the shadow page.

        Returns the simulated cycle cost.
        """
        machine = self._require_machine()
        length = align_up(length, BASE_PAGE_SIZE)
        pages = frames_for_bytes(length)
        cycles = self.costs.syscall_overhead
        page_cursor = 0
        while page_cursor < pages:
            # Shadow space is plentiful; carve 16 KB regions (the
            # smallest legal unit) and use them page by page.
            region = self.shadow_allocator.allocate(
                self.shadow_allocator.partition[0][0]
                if hasattr(self.shadow_allocator, "partition")
                else 16 << 10
            )
            self._all_shadow_regions.append(region)
            first_index = self.memory_map.shadow_page_index(region.base)
            region_pages = region.size >> BASE_PAGE_SHIFT
            for k in range(region_pages):
                if page_cursor >= pages:
                    break
                vaddr = vstart + (page_cursor << BASE_PAGE_SHIFT)
                pfn = self.frames.allocate()
                machine.mmc.write_mapping(first_index + k, pfn, valid=True)
                cycles += machine.uncached_mmc_write()
                shadow_pfn = (region.base >> BASE_PAGE_SHIFT) + k
                mapping = process.page_table.map_base_page(
                    vaddr, shadow_pfn
                )
                self.hpt.preload(
                    vaddr >> BASE_PAGE_SHIFT, mapping, space=process.pid
                )
                cycles += self.costs.map_page
                page_cursor += 1
        return cycles

    # ------------------------------------------------------------------ #
    # The paper's remap: base pages -> shadow-backed superpages
    # ------------------------------------------------------------------ #

    def remap_to_shadow(
        self, process: Process, vstart: int, length: int
    ) -> RemapReport:
        """Remap a region onto shadow-backed superpages (Section 2.4).

        The region must already be mapped with base pages.  Sub-16 KB head
        and tail fragments stay on base pages.  Every cost — cache flush,
        TLB/HPT shootdown, uncached MMC writes, PTE rewrites — is charged
        through the machine port and totalled in the returned report.
        """
        machine = self._require_machine()
        report = RemapReport()
        report.other_cycles += self.costs.syscall_overhead
        plans = plan_superpages(vstart, length)
        for plan in plans:
            self._remap_one(process, plan, report, machine)
        self.degraded_remap_events += report.degraded_superpages
        return report

    def _remap_one(
        self,
        process: Process,
        plan: SuperpagePlan,
        report: RemapReport,
        machine,
    ) -> None:
        table = process.page_table
        pages = plan.size >> BASE_PAGE_SHIFT

        # Gather the backing frames; the whole plan must be base-mapped
        # with *real* frames (an all-shadow base page would need its
        # shadow pages rearranged first, which this OS does not do).
        pfns: List[int] = []
        for i in range(pages):
            vaddr = plan.vaddr + (i << BASE_PAGE_SHIFT)
            mapping = table.lookup(vaddr)
            if mapping is None or mapping.is_superpage:
                raise MappingError(
                    f"{vaddr:#010x} is not mapped with a base page"
                )
            if self.memory_map.is_shadow(mapping.pbase):
                raise MappingError(
                    f"{vaddr:#010x} is already shadow-backed "
                    "(all-shadow mode); cannot promote in place"
                )
            pfns.append(mapping.pbase >> BASE_PAGE_SHIFT)

        try:
            region = self.shadow_allocator.allocate(plan.size)
        except ShadowSpaceExhausted:
            if self.degradation != "demote":
                raise
            # Graceful degradation: no shadow space at this size.  Demote
            # to four quarter-size shadow superpages (which the buddy or
            # bucket allocator may still satisfy); below the minimum
            # superpage size, leave the region on its existing base-page
            # mappings.  Nothing has been mutated yet, so backing out is
            # free.
            report.degraded_superpages += 1
            if plan.size > SUPERPAGE_SIZES[0]:
                quarter = plan.size // 4
                for k in range(4):
                    sub = SuperpagePlan(
                        vaddr=plan.vaddr + k * quarter, size=quarter
                    )
                    self._remap_one(process, sub, report, machine)
            else:
                report.fallback_pages += pages
            return
        report.other_cycles += self.costs.remap_superpage

        # Flush the region from the cache *before* the mapping changes,
        # translating with the still-current base-page mappings.
        flush_cycles, dirty_lines = machine.flush_virtual_range(
            process, plan.vaddr, plan.size
        )
        report.flush_cycles += flush_cycles
        report.dirty_lines_written += dirty_lines

        # Shoot down stale CPU TLB entries and HPT entries.
        machine.shootdown_range(plan.vaddr, plan.size)
        self.hpt.purge_range(plan.vaddr, plan.size, space=process.pid)

        # Program the MMC's shadow-to-physical mappings (uncached writes).
        first_index = self.memory_map.shadow_page_index(region.base)
        for i, pfn in enumerate(pfns):
            machine.mmc.write_mapping(first_index + i, pfn, valid=True)
            report.other_cycles += machine.uncached_mmc_write()
            report.other_cycles += self.costs.remap_page

        # Swap the PTEs: many base mappings -> one superpage mapping.
        table.unmap_range(plan.vaddr, plan.size)
        table.map_superpage(plan.vaddr, region.base, plan.size)

        record = ShadowSuperpage(
            process=process, vbase=plan.vaddr, region=region, pfns=list(pfns)
        )
        record.set_first_index(first_index)
        self.shadow_superpages[region.base] = record
        report.pages_remapped += pages
        report.superpages_created += 1

    def remap_back(
        self, process: Process, vbase: int
    ) -> RemapReport:
        """Tear one shadow superpage down to base pages again.

        Every base page must be resident (page swapped-out pages back in
        first).  Dirty data is flushed before the shadow mappings are
        cleared, so writebacks can never fault (Section 4).
        """
        machine = self._require_machine()
        table = process.page_table
        mapping = table.lookup(vbase)
        if mapping is None or not mapping.is_superpage:
            raise MappingError(f"{vbase:#010x} is not a superpage")
        record = self.shadow_superpages.get(mapping.pbase)
        if record is None:
            raise MappingError(
                f"superpage at {vbase:#010x} is not shadow-backed"
            )
        if any(pfn is None for pfn in record.pfns):
            raise MappingError(
                "cannot remap back while base pages are swapped out"
            )
        report = RemapReport()
        report.other_cycles += self.costs.syscall_overhead

        flush_cycles, dirty_lines = machine.flush_virtual_range(
            process, mapping.vbase, mapping.size
        )
        report.flush_cycles += flush_cycles
        report.dirty_lines_written += dirty_lines
        machine.shootdown_range(mapping.vbase, mapping.size)
        self.hpt.purge_range(
            mapping.vbase, mapping.size, space=process.pid
        )

        table.unmap_range(mapping.vbase, mapping.size)
        first_index = record.first_shadow_index
        for i, pfn in enumerate(record.pfns):
            machine.mmc.clear_mapping(first_index + i)
            report.other_cycles += machine.uncached_mmc_write()
            vaddr = mapping.vbase + (i << BASE_PAGE_SHIFT)
            base_mapping = table.map_base_page(vaddr, pfn)
            self.hpt.preload(
                vaddr >> BASE_PAGE_SHIFT, base_mapping, space=process.pid
            )
            report.other_cycles += self.costs.unmap_page

        self.shadow_allocator.free(record.region)
        del self.shadow_superpages[mapping.pbase]
        report.pages_remapped += record.base_pages
        report.superpages_created -= 1
        return report

    # ------------------------------------------------------------------ #
    # Conventional superpages (ablation A1 baseline)
    # ------------------------------------------------------------------ #

    def map_region_conventional_superpages(
        self, process: Process, vstart: int, length: int
    ) -> int:
        """Map a region with *conventional* superpages.

        Each planned superpage needs physically contiguous frames aligned
        to the superpage size — the requirement shadow memory removes.
        Raises :class:`repro.os_model.frames.OutOfMemory` when
        fragmentation defeats the allocation.  Fragments are base-mapped.
        Returns the cycle cost.
        """
        length = align_up(length, BASE_PAGE_SIZE)
        cycles = self.costs.syscall_overhead
        plans = plan_superpages(vstart, length)
        covered = set()
        for plan in plans:
            pages = plan.size >> BASE_PAGE_SHIFT
            first_pfn = self.frames.allocate_contiguous(
                pages, align_frames=pages
            )
            process.page_table.map_superpage(
                plan.vaddr, first_pfn << BASE_PAGE_SHIFT, plan.size
            )
            cycles += self.costs.remap_superpage
            cycles += pages * self.costs.map_page
            covered.update(range(plan.vaddr, plan.end, BASE_PAGE_SIZE))
        for vaddr in range(vstart, vstart + length, BASE_PAGE_SIZE):
            if vaddr in covered:
                continue
            pfn = self.frames.allocate()
            mapping = process.page_table.map_base_page(vaddr, pfn)
            self.hpt.preload(
                vaddr >> BASE_PAGE_SHIFT, mapping, space=process.pid
            )
            cycles += self.costs.map_page
        return cycles

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def superpage_record(self, shadow_base: int) -> ShadowSuperpage:
        """Return the record for the superpage at *shadow_base*."""
        return self.shadow_superpages[shadow_base]

    def record_for_shadow_index(
        self, shadow_index: int
    ) -> Optional[ShadowSuperpage]:
        """Find the live superpage containing a shadow base page."""
        for record in self.shadow_superpages.values():
            first = record.first_shadow_index
            if first <= shadow_index < first + record.base_pages:
                return record
        return None

    def _require_machine(self):
        machine = self.machine
        if machine is None:
            raise RuntimeError("VM subsystem has no machine attached")
        return machine
