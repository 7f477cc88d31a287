"""The simulated machine: wiring, the trace-execution hot loop, timing.

One :class:`System` is one machine for one run: CPU TLB + micro-ITLB +
block TLB, data cache, bus, MMC (with optional MTLB), DRAM, and the
MiniKernel.  ``run(trace)`` executes a workload trace from simulated boot
through process exit and returns a :class:`~repro.sim.results.RunResult`.

Performance note: trace execution is delegated to one of the two
engines in :mod:`repro.sim.engine` (DESIGN.md §10).  The scalar engine
is the per-reference loop, inlining the TLB and direct-mapped cache
*hit* paths against component internals; the vector engine additionally
fast-forwards over whole hit runs with numpy and is selected by default
(``SystemConfig.engine = "auto"``) whenever the configuration is
batchable.  Both are bit-identical in every statistic; misses and every
kernel operation go through the ordinary component APIs either way.
"""

from __future__ import annotations

import warnings
import weakref
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.addrspace import BASE_PAGE_SHIFT, BASE_PAGE_SIZE, CACHE_LINE_SIZE
from ..core.mtlb import Mtlb, MtlbFault
from ..core.shadow_space import BucketShadowAllocator
from ..core.shadow_table import ShadowPageTable
from ..cpu.block_tlb import BlockTlb
from ..cpu.micro_itlb import MicroItlb
from ..cpu.miss_handler import SoftwareMissHandler
from ..cpu.tlb import Tlb
from ..errors import (
    MtlbParityFault,
    SilentCorruption,
    SimulationError,
    StaleSystemError,
)
from ..faults import MTLB_PARITY, SHADOW_BITFLIP, FAULT_SITES, FaultPlan
from ..mem.bus import Bus
from ..mem.cache import build_cache
from ..mem.dram import Dram
from ..mem.mmc import MemoryController
from ..mem.stream_buffers import StreamBufferUnit
from ..obs import MetricsRegistry, ObsCollector
from ..os_model.kernel import MiniKernel
from ..os_model.process import Process
from ..trace.events import (
    HeapGrow,
    MapConventional,
    MapRegion,
    Phase,
    Remap,
)
from ..trace.trace import Segment, Trace
from ..core.backends import get_backend
from .config import SystemConfig
from .engine import (
    EngineState,
    _fused_paths,
    resolve_engine_decision,
    run_segment_scalar,
    run_segment_vector,
)
from .results import RunResult
from .stats import RunStats


__all__ = ["SimulationError", "System", "simulate"]

#: Byte offsets of the cache lines within one base page.
_PAGE_LINE_OFFSETS = np.arange(0, BASE_PAGE_SIZE, CACHE_LINE_SIZE,
                               dtype=np.int64)


class System:
    """One simulated machine.  Build a fresh instance per run."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        mm = config.memory_map
        self.dram = Dram(config.dram)
        self.bus = Bus(config.bus)

        #: Built only when fault injection is configured: the disabled
        #: path must be a strict no-op (no plan object, no PRNG draws,
        #: bit-identical results).
        self.fault_plan: Optional[FaultPlan] = (
            FaultPlan(config.faults) if config.faults.enabled else None
        )

        #: The translation backend (DESIGN.md §16): owns the structures
        #: between a CPU TLB miss and the installed entry, the refill
        #: path, and its own metrics/sanitizer hooks.  System speaks
        #: only the protocol from here on.
        self.backend = get_backend(config.backend)(config)
        parts = self.backend.build_parts(self)
        self.shadow_table: Optional[ShadowPageTable] = parts.shadow_table
        self.mtlb: Optional[Mtlb] = parts.mtlb
        shadow_allocator: Optional[BucketShadowAllocator] = (
            parts.shadow_allocator
        )

        stream_unit = None
        if config.stream_buffers.enabled:
            stream_unit = StreamBufferUnit(config.stream_buffers, self.dram)
        self.stream_buffers = stream_unit
        self.mmc = MemoryController(
            memory_map=mm,
            dram=self.dram,
            timing=config.mmc,
            shadow_table=self.shadow_table,
            mtlb=self.mtlb,
            stream_buffers=stream_unit,
            fault_plan=self.fault_plan,
        )
        self.cache = build_cache(
            config.cache.size_bytes,
            config.cache.associativity,
            config.cache.physically_indexed,
        )
        self.tlb = Tlb(config.tlb.entries)
        self.micro_itlb = MicroItlb()

        self.kernel = MiniKernel(
            memory_map=mm,
            shadow_allocator=shadow_allocator,
            vm_costs=config.vm_costs,
            paging_costs=config.paging_costs,
            costs=config.kernel_costs,
            fragmentation=config.fragmentation,
            seed=config.seed,
            promotion_config=config.promotion,
            all_shadow=config.all_shadow,
            degradation_policy=config.degradation_policy,
        )
        self.kernel.vm.attach_machine(self)
        self.block_tlb = BlockTlb(
            vbase=0, pbase=0, size=self.kernel.layout.reserved_bytes
        )
        self.miss_handler = SoftwareMissHandler(
            self.kernel.hpt, config.handler
        )
        self.backend.attach(self)

        self.stats = RunStats()

        #: The machine's metric surface (DESIGN.md §9).  Components
        #: register snapshot sources here; at harvest the registry is
        #: collected and RunStats is rebuilt as a view over it.
        self.metrics = MetricsRegistry()
        self._register_metric_sources()

        #: Observability bundle (event tracer + phase attribution);
        #: None unless ``config.obs.enabled``.  The disabled path keeps
        #: every component tracer at None — the null-sink fast path.
        self.obs: Optional[ObsCollector] = None
        self._tracer = None
        if config.obs.enabled:
            self.obs = ObsCollector(config.obs)
            tracer = self.obs.tracer
            self._tracer = tracer
            self.tlb.tracer = tracer
            self.mmc.tracer = tracer
            self.kernel.tracer = tracer
            if self.mtlb is not None:
                self.mtlb.tracer = tracer

        #: Correctness tooling (repro.check, DESIGN.md §11).  Both hooks
        #: fire at every boundary — after each trace segment and each
        #: kernel event — and both default to None, so the disabled path
        #: costs exactly one attribute test per boundary.
        #: ``check_hook(system, item)`` is the tool hook the lockstep
        #: differential harness uses to digest machine state;
        #: ``sanitizers`` is the opt-in invariant sanitizer suite
        #: (``config.sanitize``), which raises
        #: :class:`~repro.errors.InvariantViolation` on the first broken
        #: architectural invariant.
        self.check_hook = None
        self.sanitizers = None
        if config.sanitize:
            from ..check.sanitizers import SanitizerSuite

            self.sanitizers = SanitizerSuite(self)

        #: (segment label, cycles attributed to it) in execution order;
        #: used by the init-cost and phase-analysis benches.
        self.segment_cycles: List[Tuple[str, int]] = []
        self._ran = False
        #: Optional hard cap on references simulated (set by the bench
        #: runner); exceeding it raises ReferenceBudgetExceeded.  Kept
        #: off the config so budgeted and unbudgeted runs stay
        #: config-identical.
        self.reference_budget: Optional[int] = None
        #: Oracle translation checker (config.check_translations = N):
        #: every Nth shadow fill is cross-validated.
        self._oracle_every = config.check_translations
        self._oracle_count = 0
        self._ifetch_counter = 0
        self._ifetch_instr_accum = 0
        # Functional data store, sharded per physical frame so a page-out
        # moves a whole frame's words in O(words actually written): real
        # pfn -> {byte offset -> value}, plus swapped-out page contents
        # keyed by shadow page index.
        self._word_store: Dict[int, Dict[int, int]] = {}
        self._swap_data: Dict[int, Dict[int, int]] = {}

        #: Trace-execution engine for this run ("scalar" or "vector"),
        #: resolved from ``config.engine`` against what this machine can
        #: batch (DESIGN.md §10), and the human-readable reason for the
        #: decision (surfaced via the ``sim.engine_resolved`` metric,
        #: the run banner, and ``RunReport.engine``).
        self.engine, self.engine_reason = resolve_engine_decision(self)
        #: The vector engine's adaptive-predictor state (window
        #: geometry; pure perf, never results).  ``MultiProgram`` swaps
        #: a per-process instance in at context switches.
        self.engine_state = EngineState()

    # ================================================================== #
    # Machine port used by the OS (costed primitives)
    # ================================================================== #

    def flush_virtual_range(
        self, process: Process, vstart: int, length: int
    ) -> Tuple[int, int]:
        """Flush a virtual range from the cache, writing dirty lines back.

        Translation uses the process's *current* page tables (callers flush
        before changing mappings).  Returns ``(cycles, dirty_lines)``.

        Each base page is translated on its own, then the cache flushes
        the whole range's lines in one batch and the dirty lines are
        written back in range order.  Nothing the flush does reads the
        cache back, so this equals flushing and writing back line by
        line (DESIGN.md §3.3).  An unmapped page raises
        :class:`SimulationError` after the pages before it are flushed.
        """
        table = process.page_table
        pages: List[int] = []
        deltas: List[int] = []
        unmapped = None
        for page_vaddr in range(vstart, vstart + length, BASE_PAGE_SIZE):
            mapping = table.lookup(page_vaddr)
            if mapping is None:
                unmapped = page_vaddr
                break
            pages.append(page_vaddr)
            deltas.append(mapping.pbase - mapping.vbase)
        vaddrs = (
            np.array(pages, dtype=np.int64)[:, None] + _PAGE_LINE_OFFSETS
        ).ravel()
        paddrs = vaddrs + np.repeat(
            np.array(deltas, dtype=np.int64), len(_PAGE_LINE_OFFSETS)
        )
        _present, dirty = self.cache.flush_lines(vaddrs, paddrs)
        dirty_paddrs = paddrs[dirty].tolist()
        cfg = self.config.cache
        cycles = (
            len(vaddrs) * cfg.flush_line_cycles
            + len(dirty_paddrs) * cfg.flush_dirty_cycles
        )
        if dirty_paddrs:
            self._write_back_lines(dirty_paddrs)
        if unmapped is not None:
            raise SimulationError(f"flush of unmapped page {unmapped:#010x}")
        return cycles, len(dirty_paddrs)

    def _write_back_lines(self, paddrs: List[int]) -> None:
        """Write dirty lines back in order: through the fused writeback
        when this machine qualifies for it, else bus then MMC."""
        fused = _fused_paths(self)
        if fused is None:
            bus = self.bus
            mmc = self.mmc
            for paddr in paddrs:
                bus.writeback_cycles()
                mmc.writeback(paddr)
            return
        _fill, writeback, drain = fused
        try:
            for paddr in paddrs:
                writeback(paddr)
        finally:
            drain()

    def shootdown_range(self, vstart: int, length: int) -> int:
        """Purge CPU TLB entries for a virtual range (and the micro-ITLB)."""
        removed = self.tlb.shootdown_range(vstart, length)
        self.micro_itlb.invalidate()
        self.backend.on_shootdown(self, vstart, length)
        return removed

    def uncached_mmc_write(self) -> int:
        """Cycle cost of one uncached control-register write to the MMC."""
        return (
            self.bus.uncached_write_cycles()
            + self.config.mmc.base_occupancy
            * self.config.mmc.cpu_cycles_per_mmc_cycle
        )

    # -- functional data movement used by the pager ---------------------- #

    def page_data_out(self, pfn: int, shadow_index: int) -> None:
        """Move a frame's functional data to the swap slot (page-out).

        The word store is sharded per frame, so this is one dict move
        touching only the offsets that were ever written — not a sweep
        of all 512 word slots of the page.  DRAM cycle accounting is
        unaffected: the pager charges disk/DRAM time itself and this
        path has always been purely functional.
        """
        self._swap_data[shadow_index] = self._word_store.pop(pfn, {})

    def page_data_in(self, pfn: int, shadow_index: int) -> None:
        """Move swapped functional data into a (possibly new) frame."""
        slot = self._swap_data.pop(shadow_index, {})
        if not slot:
            return
        existing = self._word_store.get(pfn)
        if existing is None:
            self._word_store[pfn] = slot
        else:
            existing.update(slot)

    # ================================================================== #
    # Kernel memory accesses (block-TLB mapped, through the data cache)
    # ================================================================== #

    def _kernel_access(self, paddr: int, is_write: bool) -> int:
        """One timed kernel access (e.g. an HPT probe).  Returns cycles."""
        result = self.cache.access(paddr, paddr, is_write)
        if result.hit:
            return 1
        cycles = 1
        if result.writeback_paddr is not None:
            self.bus.writeback_cycles()
            self.mmc.writeback(result.writeback_paddr)
        fill = self.mmc.cache_fill(paddr, is_write)
        stall = (
            self.bus.fill_request_cycles()
            + fill.cpu_cycles
            + self.bus.fill_return_cycles()
        )
        self.stats.fills += 1
        self.stats.fill_stall_cycles += stall
        return cycles + stall

    # ================================================================== #
    # Run orchestration
    # ================================================================== #

    def begin_run(self) -> None:
        """Claim this machine for one run and re-resolve the engine.

        Every run driver (:meth:`run`, ``MultiProgram.run``) must enter
        through here rather than poking ``_ran`` directly: the engine
        re-resolution is what protects the vector engine from fault
        plans and swapped-in cache models ("auto" must follow the
        machine actually being run, and "vector" must refuse one it
        cannot batch), and it has to fire for *every* entry point.
        """
        if self._ran:
            raise StaleSystemError(
                "a System instance simulates exactly one run"
            )
        self._ran = True
        self.engine, self.engine_reason = resolve_engine_decision(self)

    def run(self, trace: Trace) -> RunResult:
        """Simulate *trace* from boot through exit; returns the result."""
        self.begin_run()
        stats = self.stats
        kernel = self.kernel

        if self.obs is not None:
            self._obs_sample()
        stats.kernel_cycles += kernel.costs.boot + kernel.costs.fork_exec
        process = kernel.create_process(trace.name)
        if self.obs is not None:
            self._tracer.clock = stats.kernel_cycles
        stats.kernel_cycles += kernel.sys_map(
            process, trace.text_base, trace.text_size
        )
        if self.obs is not None:
            self._obs_sample()
        self._text_page_count = max(1, trace.text_size >> BASE_PAGE_SHIFT)
        self._text_base = trace.text_base

        for item in trace.items:
            if isinstance(item, Segment):
                self._run_segment(item, process)
            else:
                self._exec_event(item, process)

        stats.kernel_cycles += kernel.costs.exit
        subtotal = (
            stats.instruction_cycles
            + stats.memory_stall_cycles
            + stats.tlb_miss_cycles
            + stats.kernel_cycles
        )
        stats.kernel_cycles += kernel.timer_cycles(subtotal)
        stats.total_cycles = (
            stats.instruction_cycles
            + stats.memory_stall_cycles
            + stats.tlb_miss_cycles
            + stats.kernel_cycles
        )

        if self.obs is not None:
            self._tracer.clock = stats.total_cycles
            self._obs_sample()

        self._harvest_component_stats()
        stats.check_consistency()
        return RunResult(
            workload=trace.name,
            config_label=self.config.label,
            stats=stats,
            metrics=self.metrics.collect(),
            obs=self.obs,
            engine=self.engine,
        )

    def _register_metric_sources(self) -> None:
        """Register every component's counter snapshot with the metrics
        registry (DESIGN.md §9).  Sources are pulled only at collect
        time, so registration costs the hot loop nothing."""
        # Late-bound through the machine so a component swapped in after
        # construction (tests do this to the cache) is still the one
        # snapshotted at collect time.  The sources hold it by weak
        # proxy: the registry belongs to the machine, and a strong
        # reference would make every finished machine cyclic garbage.
        me = weakref.proxy(self)
        reg = self.metrics
        # Engine-resolution surfacing (registry-only, deliberately NOT
        # a RunStats/extra field: stats must stay bit-identical across
        # engines, while registry metrics ride RunResult.metrics and
        # store records for RunReport/daemon tenants to read).
        reg.add_source(
            "sim",
            lambda: {
                "engine_resolved": 1.0 if me.engine == "vector" else 0.0
            },
        )
        reg.add_source("tlb", lambda: me.tlb.metrics_snapshot())
        reg.add_source("cache", lambda: me.cache.metrics_snapshot())
        reg.add_source("mmc", lambda: me.mmc.metrics_snapshot())
        reg.add_source(
            "kernel", lambda: me.kernel.stats.metrics_snapshot()
        )
        reg.add_source(
            "promotion",
            lambda: me.kernel.promotion.stats.metrics_snapshot(),
        )
        # Backend-owned sources: the mtlb backend registers the "mtlb"
        # source (when an MTLB exists) exactly as the inline code used
        # to; other backends bring their own counters.
        self.backend.register_metrics(me)
        reg.add_source(
            "vm",
            lambda: {"degraded_remaps": me.kernel.vm.degraded_remap_events},
        )
        plan = self.fault_plan
        if plan is not None:
            reg.add_source(
                "faults",
                lambda: {
                    "injected": plan.stats.total_injected,
                    "recovered": plan.stats.total_recovered,
                },
            )

    def _obs_sample(self) -> None:
        """Record one phase-attribution sample at the current cycle."""
        stats = self.stats
        self.obs.attributor.sample(
            stats.instruction_cycles,
            stats.memory_stall_cycles,
            stats.tlb_miss_cycles,
            stats.kernel_cycles,
        )

    def _harvest_component_stats(self) -> None:
        """Fold component counters into the registry and rebuild RunStats
        as a view over it: the run-loop accumulators are published first,
        then ``collect()`` overlays the authoritative component sources,
        then the dataclass fields are re-read from the registry."""
        stats = self.stats
        reg = self.metrics
        plan = self.fault_plan
        if plan is not None:
            for site in FAULT_SITES:
                if plan.stats.injected[site] or plan.stats.recovered[site]:
                    stats.extra[f"faults_injected_{site}"] = (
                        plan.stats.injected[site]
                    )
                    stats.extra[f"faults_recovered_{site}"] = (
                        plan.stats.recovered[site]
                    )
        stats.publish_to(reg)
        if self.obs is not None:
            self.obs.observe_superpage_sizes(
                reg,
                (
                    record.region.size
                    for record in self.kernel.vm.shadow_superpages.values()
                ),
            )
            self.obs.finalize(reg)
        stats.apply_registry(reg)

    # ================================================================== #
    # Kernel events
    # ================================================================== #

    def _exec_event(self, event, process: Process) -> None:
        stats = self.stats
        kernel = self.kernel
        if self._tracer is not None:
            self._tracer.clock = (
                stats.instruction_cycles
                + stats.memory_stall_cycles
                + stats.tlb_miss_cycles
                + stats.kernel_cycles
            )
        if isinstance(event, MapRegion):
            stats.kernel_cycles += kernel.sys_map(
                process, event.vaddr, event.length
            )
        elif isinstance(event, MapConventional):
            stats.kernel_cycles += (
                kernel.vm.map_region_conventional_superpages(
                    process, event.vaddr, event.length
                )
            )
        elif isinstance(event, Remap):
            if self.config.use_superpages:
                report = kernel.sys_remap(process, event.vaddr, event.length)
                stats.kernel_cycles += report.total_cycles
                stats.remap_pages += report.pages_remapped
                stats.remap_cycles += report.total_cycles
                stats.remap_flush_cycles += report.flush_cycles
        elif isinstance(event, HeapGrow):
            stats.kernel_cycles += kernel.sys_map(
                process, event.vaddr, event.length
            )
            if event.remap and self.config.use_superpages:
                report = kernel.sys_remap(process, event.vaddr, event.length)
                stats.kernel_cycles += report.total_cycles
                stats.remap_pages += report.pages_remapped
                stats.remap_cycles += report.total_cycles
                stats.remap_flush_cycles += report.flush_cycles
        elif isinstance(event, Phase):
            pass
        else:
            raise SimulationError(f"unknown trace event {event!r}")
        if self.obs is not None:
            self._obs_sample()
        if self.check_hook is not None:
            self.check_hook(self, event)
        if self.sanitizers is not None:
            self.sanitizers.run(f"event {type(event).__name__}")

    # ================================================================== #
    # The hot loop
    # ================================================================== #

    def _run_segment(self, seg: Segment, process: Process) -> None:
        """Execute one reference segment with the resolved engine."""
        if self.engine == "vector":
            run_segment_vector(self, seg, process)
        else:
            run_segment_scalar(self, seg, process)
        if self.check_hook is not None:
            self.check_hook(self, seg)
        if self.sanitizers is not None:
            self.sanitizers.run(f"segment {seg.label!r}")

    def _refill_tlb(
        self,
        vaddr: int,
        kernel_access: Optional[Callable[[int, bool], int]] = None,
    ):
        """Software TLB refill; returns (entry, handler cycles).

        Delegates to the translation backend's miss path (DESIGN.md
        §16); both engines call this for every CPU TLB miss.  The
        handler's kernel accesses go through :meth:`_kernel_access`
        unless *kernel_access* replaces it (the vector engine's
        deferred span records them for one batched replay).
        """
        return self.backend.refill_tlb(
            self, vaddr, kernel_access or self._kernel_access
        )

    #: Bound on consecutive parity-fault recoveries for one fill; a
    #: correctly scrubbing kernel converges in one pass, so hitting the
    #: bound means recovery itself is broken (or injection rates are so
    #: high every retry re-faults) and the fault should propagate.
    _MAX_PARITY_RECOVERIES = 8

    def _fill_stall(self, paddr: int, op: int) -> int:
        """Cache-fill stall for one miss; services MTLB/parity faults
        inline (page-in for precise MTLB faults, flush-and-refill plus a
        shadow-table scrub for parity faults)."""
        paged_in = False
        parity_recoveries = 0
        while True:
            try:
                fill = self.mmc.cache_fill(paddr, op == 1)
                break
            except MtlbParityFault as fault:
                parity_recoveries += 1
                if parity_recoveries > self._MAX_PARITY_RECOVERIES:
                    raise
                service = self.kernel.handle_parity_fault(fault.shadow_index)
                self.stats.kernel_cycles += service
                if self.fault_plan is not None:
                    site = (
                        MTLB_PARITY
                        if fault.origin == "mtlb"
                        else SHADOW_BITFLIP
                    )
                    self.fault_plan.record_recovery(site)
            except MtlbFault as fault:
                if paged_in:
                    raise
                paged_in = True
                service = self.kernel.handle_mtlb_fault(fault.shadow_index)
                self.stats.kernel_cycles += service
        stall = (
            self.bus.fill_request_cycles()
            + fill.cpu_cycles
            + self.bus.fill_return_cycles()
        )
        self.stats.fills += 1
        self.stats.fill_stall_cycles += stall
        if self._oracle_every and self.mmc.memory_map.is_shadow(paddr):
            self._oracle_count += 1
            if self._oracle_count % self._oracle_every == 0:
                self._oracle_check(paddr, fill.real_paddr)
        return stall

    def _oracle_check(self, paddr: int, real_paddr: int) -> None:
        """Cross-validate one shadow translation against the shadow page
        table and the kernel's superpage records (opt-in differential
        checker; any mismatch is a translation the hardware produced
        that nothing authoritative agrees with)."""
        self.stats.oracle_checks += 1
        mm = self.mmc.memory_map
        shadow_index = (paddr - mm.shadow_base) >> BASE_PAGE_SHIFT
        hw_pfn = real_paddr >> BASE_PAGE_SHIFT
        entry = self.shadow_table.entry(shadow_index)
        if not entry.valid or entry.pfn != hw_pfn:
            raise SilentCorruption(shadow_index, hw_pfn, entry.pfn)
        record = self.kernel.vm.record_for_shadow_index(shadow_index)
        if record is not None:
            expected = record.pfns[shadow_index - record.first_shadow_index]
            if expected is not None and expected != hw_pfn:
                raise SilentCorruption(shadow_index, hw_pfn, expected)

    # ================================================================== #
    # Instruction-side translation model
    # ================================================================== #

    def _model_ifetch(self, seg: Segment) -> None:
        """Charge instruction-page transitions through the TLB hierarchy.

        The instruction cache is perfect (paper Section 3.2) and a
        one-entry micro-ITLB front-ends the main TLB, so only transitions
        between instruction pages cost anything: each does a main-TLB
        lookup, occasionally a software refill.  Transitions rotate over
        the pages of the segment's code footprint.
        """
        interval = self.config.ifetch_page_instructions
        self._ifetch_instr_accum += seg.instructions
        transitions = self._ifetch_instr_accum // interval
        self._ifetch_instr_accum %= interval
        if transitions <= 0:
            return
        pages = min(seg.text_pages, self._text_page_count)
        stats = self.stats
        stats.itlb_transitions += transitions
        tlb = self.tlb
        extra_inst = 0
        miss_cycles = 0
        for _ in range(transitions):
            vaddr = (
                self._text_base
                + (self._ifetch_counter % pages) * BASE_PAGE_SIZE
            )
            self._ifetch_counter += 1
            self.micro_itlb.stats.lookups += 1
            self.micro_itlb.stats.misses += 1
            extra_inst += 1
            entry = tlb.lookup(vaddr)
            if entry is None:
                stats.itlb_main_misses += 1
                entry, cost = self._refill_tlb(vaddr)
                miss_cycles += cost
            self.micro_itlb.refill(entry)
        stats.instruction_cycles += extra_inst
        stats.tlb_miss_cycles += miss_cycles

    def touch(self, process: Process, vaddr: int, is_write: bool = False) -> int:
        """Run one memory reference through the full timed path.

        Exactly what one trace reference does — CPU TLB (with software
        refill on a miss), cache, and on a cache miss the bus + MMC (+
        MTLB) — outside of a trace run.  Returns the cycle cost.  Used
        by examples, microbenchmarks and directed tests.
        """
        cycles = 1
        entry = self.tlb.lookup(vaddr)
        if entry is None:
            entry, cost = self._refill_tlb(vaddr)
            cycles += cost
        paddr = entry.translate(vaddr)
        result = self.cache.access(vaddr, paddr, is_write)
        if not result.hit:
            if result.writeback_paddr is not None:
                self.bus.writeback_cycles()
                self.mmc.writeback(result.writeback_paddr)
            cycles += self._fill_stall(paddr, 1 if is_write else 0)
        return cycles

    # ================================================================== #
    # Functional word access (integration-test surface)
    # ================================================================== #

    def store_word(self, process: Process, vaddr: int, value: int) -> None:
        """Functionally store a value through the full translation path."""
        real = self._functional_translate(process, vaddr, is_write=True)
        frame = self._word_store.setdefault(real >> BASE_PAGE_SHIFT, {})
        frame[real & (BASE_PAGE_SIZE - 1)] = value

    def load_word(self, process: Process, vaddr: int) -> Optional[int]:
        """Functionally load a value through the full translation path."""
        real = self._functional_translate(process, vaddr, is_write=False)
        frame = self._word_store.get(real >> BASE_PAGE_SHIFT)
        if frame is None:
            return None
        return frame.get(real & (BASE_PAGE_SIZE - 1))

    def _functional_translate(
        self, process: Process, vaddr: int, is_write: bool
    ) -> int:
        if vaddr % 8:
            raise ValueError("functional accesses must be 8-byte aligned")
        entry = self.tlb.lookup(vaddr)
        if entry is None:
            entry, _cost = self._refill_tlb(vaddr)
        paddr = entry.translate(vaddr)
        try:
            return self.mmc.resolve(paddr)
        except MtlbFault as fault:
            self.kernel.handle_mtlb_fault(fault.shadow_index)
            return self.mmc.resolve(paddr)


def simulate(trace: Trace, config: SystemConfig) -> RunResult:
    """Build a fresh machine for *config* and run *trace* on it.

    .. deprecated:: 1.1
        ``simulate`` predates the typed facade; new code should use
        :func:`repro.api.run` with a :class:`repro.api.ScenarioSpec`
        (same machine, same trace path, bit-identical results, plus
        store-backed caching).  This shim stays for existing callers.
    """
    warnings.warn(
        "repro.sim.system.simulate() is deprecated; use "
        "repro.api.run(ScenarioSpec(...)) — results are bit-identical "
        "and sweeps gain content-addressed caching",
        DeprecationWarning,
        stacklevel=2,
    )
    return System(config).run(trace)
