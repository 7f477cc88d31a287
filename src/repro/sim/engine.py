"""Trace-execution engines: the scalar loop and the vectorized
fast-forward engine (DESIGN.md §10).

Both engines execute one :class:`~repro.trace.trace.Segment` against a
:class:`~repro.sim.system.System` and must be **bit-identical** in every
RunStats and metrics value — the equivalence suite
(``tests/integration/test_engine_equivalence.py``) and the CI
``repro metrics diff --require-identical`` gate enforce it.

* :func:`run_segment_scalar` is the per-reference Python loop (the only
  engine until this module landed).  It inlines the TLB and
  direct-mapped-cache hit paths against component internals, probing the
  MRU page size first and resolving overlapping mappings to the most
  specific entry, exactly like :meth:`repro.cpu.tlb.Tlb.lookup`.

* :func:`run_segment_vector` exploits the paper's own observation that
  the common case — a TLB hit plus a cache hit — has a statically known
  cost (one instruction cycle) and no side effects beyond NRU/dirty
  bits.  It slices the segment into prediction windows and resolves each
  window in three numpy passes:

  1. **TLB coverage** against a mirror of the resident entries
     (:meth:`~repro.cpu.tlb.Tlb.coverage_arrays`).  The window's usable
     *prefix* ends at the first uncovered reference: the software refill
     probes the hashed page table through the data cache and may
     promote, so nothing behind a TLB miss is trusted.
  2. A **self-consistent cache schedule** for the whole prefix
     (:func:`_self_consistent_hits`): in a direct-mapped cache the line
     a reference observes is simply the tag of the previous same-set
     reference in the window (hit or miss), or the frozen tag array
     entry.  Ordinary cache misses therefore do *not* end the prefix —
     their fills are part of the schedule.
  3. **Bulk retirement**: cycle sums via the segment's gap cumsum,
     store dirty bits via precomputed store-position boundaries, NRU
     referenced bits via per-entry touch masks
     (:meth:`~repro.cpu.tlb.Tlb.touch_pages`), applied before the next
     refill can read them.

  With the fused miss path, a prefix whose fills and victim
  writebacks all land in DRAM or behind valid shadow mappings cannot
  fault, so its misses retire in the same batch
  (:func:`_vector_miss_retire`): numpy for the DRAM row chain, stalls,
  counters and final cache state, one Python pass for the MTLB's NRU
  state.  Otherwise the misses walk the real machine one at a time:
  each one runs the *same* scalar miss path (writeback, fill stall,
  fault service, tracer clock stamping).  If fault service reaches the
  kernel and the kernel touches the cache — observable as a moved
  :attr:`~repro.mem.cache.DirectMappedCache.mutation_stamp` — the rest
  of the schedule is stale and prediction restarts after that miss.

  Phases so TLB-miss-dense that windows degenerate (EM3D's random
  pointer chase against a 64-entry TLB misses every ~25 references) are
  detected and handed to a dense-phase span, so the vector engine is
  never meaningfully slower than scalar.  On a machine that decodes no
  shadow window the span is :func:`_deferred_span`: it steps only the
  TLB per reference, recording the refills' page-table accesses, then
  retires the span's references and those accesses, merged in program
  order, through the same numpy cache schedule and miss retirement.
  Everywhere else (MTLB machines, set-associative caches, runs without
  the fused miss path) it is the scalar loop (:func:`_scalar_span`).

Within a prefix the predictions are exact, not heuristic: hits never
change TLB content or cache tags (only NRU/dirty bits, which do not
feed the hit predicate), and miss fills change tags exactly as the
schedule says.  Hit runs never stamp ``tracer.clock`` in either engine,
which is what keeps observability event timestamps identical.

Every configuration the simulator can express today batches (the PR-8
lift; DESIGN.md §10 "lifted restrictions"):

* **Set-associative caches** ride a residency-mirror variant of the
  same window pipeline (:func:`_run_segment_vector_setassoc`): a pure
  LRU *hit* never changes which lines are resident, so a lazily built
  ``(sets, ways)`` tag plane (:meth:`SetAssociativeCache.ensure_mirror`)
  makes "whole run hits" one vectorized membership test, and the hit
  run's LRU reordering + dirty accumulation replays into the real set
  dicts per *unique line* instead of per reference.
* **Active fault plans** no longer refuse: every ``FaultPlan.fires``
  consultation lives on a miss path, and the engines execute every miss
  through the real machine in program order, so the consultation
  sequence — and therefore the injection schedule — is identical by
  construction.  The window predictor additionally clamps each window
  to the distance of the next *scheduled* trigger
  (:meth:`~repro.faults.plan.FaultPlan.next_trigger_distance`), so a
  directed fault lands in a small window and its kernel-entry pollution
  restart stays cheap.
* **Multiprogramming** keeps one :class:`EngineState` (adaptive window
  + dense counter) per process, swapped at context switches, so each
  scheduler quantum resumes the fast-forward geometry it learned.

The only remaining refusal is a cache model the engine has no residency
mirror for; ``engine="auto"`` then falls back to scalar and
``engine="vector"`` raises.  Sanitizer hooks (``System.check_hook``)
run at segment/event boundaries in both engines, and every segment
boundary is a window-retirement point, so sanitized runs batch too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from ..core.addrspace import (
    BASE_PAGE_MASK,
    BASE_PAGE_SHIFT,
    CACHE_LINE_SHIFT,
)
from ..core.mtlb import Mtlb, MtlbFault, _Way
from ..core.shadow_table import (
    DIRTY_BIT,
    FAULT_BIT,
    PFN_MASK,
    REF_BIT,
    VALID_BIT,
)
from ..errors import ReferenceBudgetExceeded, SimulationError
from ..mem.cache import DirectMappedCache, SetAssociativeCache
from ..mem.mmc import BadPhysicalAddress

if TYPE_CHECKING:
    from ..mem.dram import Dram
    from ..os_model.process import Process
    from ..trace.trace import Segment
    from .system import System

__all__ = [
    "EngineState",
    "resolve_engine",
    "resolve_engine_decision",
    "run_segment_scalar",
    "run_segment_vector",
    "vector_config_supported",
    "vector_supported",
]

#: Adaptive prediction-window bounds: the window doubles after a fully
#: consumed window and shrinks toward the observed TLB-hit run length,
#: so refill-dense phases waste little prediction and hit-dense phases
#: amortise the numpy fixed costs over tens of thousands of references.
INITIAL_WINDOW = 1 << 10
MIN_WINDOW = 1 << 6
MAX_WINDOW = 1 << 16

#: Dense-phase escape hatch: when two consecutive prefixes end in fewer
#: than DENSE_RUN references, the next SCALAR_SPAN references are
#: stepped with the scalar loop before vector prediction is retried.
DENSE_RUN = 1 << 6
SCALAR_SPAN = 1 << 12


def vector_supported(system: "System") -> Tuple[bool, str]:
    """Can the vector engine batch this machine?  ``(ok, reason)``.

    Since the PR-8 lift this accepts set-associative caches and active
    fault plans (see the module docstring for why both are exact); the
    only refusal left is a cache model the engine has no residency
    mirror for.
    """
    if not isinstance(
        system.cache, (DirectMappedCache, SetAssociativeCache)
    ):
        return False, (
            f"cache model {type(system.cache).__name__} has no "
            "residency mirror"
        )
    ok, why = system.backend.vector_config_supported(system.config)
    if not ok:
        return False, why
    return True, ""


def vector_config_supported(config) -> Tuple[bool, str]:
    """Config-level mirror of :func:`vector_supported`.

    Lets the scenario scheduler (``repro.serve``) reject an
    ``engine='vector'`` spec *before* any shard worker is spawned.
    Every *cache* a :class:`~repro.sim.config.SystemConfig` can express
    batches (``build_cache`` only ever returns the two mirrored
    models); what can refuse is the translation backend — the vector
    engine's coverage mirror only models the mtlb family's miss path,
    so backends without one (coalesced, victima) force the scalar
    engine in v1 and an explicit ``engine='vector'`` request is
    rejected here with the backend's reason.
    """
    from ..core.backends import get_backend

    return get_backend(config.backend).vector_config_supported(config)


def resolve_engine_decision(system: "System") -> Tuple[str, str]:
    """Pick the engine for *system* and say why: ``(engine, reason)``.

    The reason string is what the run banner and
    ``RunReport``/``sim.engine_resolved`` surfacing show, so an
    ``auto`` fallback is never silent.
    """
    requested = system.config.engine
    if requested == "scalar":
        return "scalar", "requested by config"
    ok, why = vector_supported(system)
    if requested == "vector":
        if not ok:
            raise SimulationError(
                f"engine='vector' cannot batch this configuration: {why}"
            )
        return "vector", "requested by config"
    if ok:
        return "vector", "auto: configuration batches"
    return "scalar", f"auto fallback: {why}"


def resolve_engine(system: "System") -> str:
    """Pick the engine for *system* per its ``config.engine`` policy."""
    return resolve_engine_decision(system)[0]


@dataclass
class EngineState:
    """Adaptive-predictor state the vector engine carries across
    segments.

    Window geometry never changes results (pinned by the hypothesis
    geometry tests), only how much prediction is wasted — so this is
    pure perf state.  :class:`~repro.sim.system.System` owns one;
    :class:`~repro.sim.multiprog.MultiProgram` keeps one *per process*
    and swaps it in at context switches, so each scheduler quantum
    resumes the fast-forward geometry its own access pattern taught the
    predictor instead of inheriting another process's.
    """

    window: int = INITIAL_WINDOW
    dense: int = 0


def _check_budget(system: "System", n: int) -> None:
    if system.reference_budget is not None:
        if system.stats.references + n > system.reference_budget:
            raise ReferenceBudgetExceeded(
                system.stats.references + n, system.reference_budget
            )


# ====================================================================== #
# Fused miss path
# ====================================================================== #

#: numpy scalars for the shadow-table accounting-bit updates, matching
#: ShadowPageTable.set_referenced / set_dirty / set_fault exactly.
_REF_NP = np.uint32(REF_BIT)
_DIRTY_REF_NP = np.uint32(DIRTY_BIT | REF_BIT)
_FAULT_NP = np.uint32(FAULT_BIT)


def _fused_paths(
    system: "System",
) -> Optional[Tuple[Callable, Callable, Callable]]:
    """Build the fused cache-miss path for *system*, if it qualifies.

    Returns ``(fill, writeback, drain)`` closures or None.  The fused
    path collapses ``System._fill_stall`` → ``MemoryController`` →
    ``Mtlb``/``Dram``/``Bus`` — about eight Python calls and a dozen
    attribute-counter bumps per cache miss — into one closure that does
    the same arithmetic on cached locals.  All event counters accumulate
    in closure locals and ``drain()`` folds them into the real stats
    objects; that is observationally identical because counters are pure
    sums nothing reads mid-segment (callers drain before the segment
    epilogue samples metrics).  Machine *state*, by contrast, is mutated
    live and in order — DRAM open rows, MTLB way dicts, shadow-table
    entry bits — so kernel code running between fused calls (TLB refills,
    fault service) interleaves exactly as with the unfused components.

    Qualification mirrors what the unfused path could observe: no event
    tracer (events carry clock stamps the fused path does not compute),
    no fault plan (injection sites live in the components), no stream
    buffers, no ablation-A9 bit-writeback charging, no oracle checker,
    and a clean shadow-table parity set.
    """
    mmc = system.mmc
    mtlb = mmc.mtlb
    if (
        system._tracer is not None
        or mmc.tracer is not None
        or system._oracle_every
        or system.fault_plan is not None
        or mmc.fault_plan is not None
        or mmc.stream_buffers is not None
        or mmc.timing.bit_writeback
    ):
        return None
    if mtlb is not None and (
        mtlb.tracer is not None
        or mtlb.fault_plan is not None
        or mmc.shadow_table._bad_parity
    ):
        return None

    bus = system.bus
    bt = bus.timing
    bus_ratio = bt.cpu_cycles_per_bus_cycle
    req_cpu = bt.request_cycles * bus_ratio
    ret_cpu = bt.line_beats * bt.beat_cycles * bus_ratio
    reqret_cpu = req_cpu + ret_cpu
    wb_cpu = (bt.request_cycles + bt.line_beats * bt.beat_cycles) * bus_ratio

    timing = mmc.timing
    base_mmc = timing.base_occupancy + (
        timing.shadow_check if mtlb is not None else 0
    )
    mmc_ratio = timing.cpu_cycles_per_mmc_cycle

    dram = mmc.dram
    dt = dram.timing
    row_shift = dt.row_shift
    banks = dt.banks
    row_hit_c = dt.row_hit_cycles
    row_miss_c = dt.row_miss_cycles
    open_rows = dram._open_rows  # live list, shared with unfused accesses

    mm = mmc.memory_map
    shadow_base = mm.shadow_base
    shadow_end = mm.shadow_end
    dram_size = mm.dram_size

    stats = system.stats
    kernel = system.kernel

    if mtlb is not None:
        table = mmc.shadow_table
        entries_arr = table._entries
        table_base = table.table_base
        sets = mtlb._sets
        set_mask = mtlb._set_mask
        assoc = mtlb.associativity
        evict = mtlb._evict  # counts its own evictions, live

    # Deferred event counters, folded into the stats objects by drain().
    # The set is deliberately minimal — everything derivable is derived
    # at drain time, because each closure-cell read-modify-write on the
    # per-miss path costs real time at half a million calls per run:
    # every successful fused fill is exactly one bus fill transaction
    # and one RunStats fill, every fused writeback one bus writeback
    # transaction; bus occupancy is a fixed cost per transaction kind;
    # the fill stall sum is d_fills * (request + return) + d_fill_cpu;
    # DRAM row hits are accesses minus row misses; MTLB hits are lookups
    # minus misses, and every MTLB miss is exactly one hardware fill.
    d_dram_acc = d_dram_miss = 0
    d_fills = d_shadow_fills = d_wbs = d_shadow_wbs = d_fill_cpu = 0
    d_m_look = d_m_miss = d_m_fault = d_m_bits = 0

    def drain() -> None:
        nonlocal d_dram_acc, d_dram_miss
        nonlocal d_fills, d_shadow_fills, d_wbs, d_shadow_wbs, d_fill_cpu
        nonlocal d_m_look, d_m_miss, d_m_fault, d_m_bits
        ds = dram.stats
        ds.accesses += d_dram_acc
        ds.row_hits += d_dram_acc - d_dram_miss
        ds.row_misses += d_dram_miss
        d_dram_acc = d_dram_miss = 0
        bs = bus.stats
        bs.transactions += d_fills + d_wbs
        bs.fill_transactions += d_fills
        bs.writeback_transactions += d_wbs
        bs.busy_cpu_cycles += d_fills * reqret_cpu + d_wbs * wb_cpu
        ms = mmc.stats
        ms.fills += d_fills
        ms.shadow_fills += d_shadow_fills
        ms.writebacks += d_wbs
        ms.shadow_writebacks += d_shadow_wbs
        ms.fill_cpu_cycles += d_fill_cpu
        stats.fills += d_fills
        stats.fill_stall_cycles += d_fills * reqret_cpu + d_fill_cpu
        d_fills = d_shadow_fills = d_wbs = d_shadow_wbs = d_fill_cpu = 0
        if mtlb is not None:
            ts = mtlb.stats
            ts.lookups += d_m_look
            ts.hits += d_m_look - d_m_miss
            ts.misses += d_m_miss
            ts.fills += d_m_miss
            ts.faults += d_m_fault
            ts.bit_writebacks += d_m_bits
            d_m_look = d_m_miss = d_m_fault = d_m_bits = 0

    def fill(paddr: int, op: int) -> int:
        """``System._fill_stall`` with the whole machine inlined.

        ``Mtlb.pending_bit_write`` is not maintained: its only consumer
        is the ``bit_writeback`` charging branch, which this path's
        qualification gates off.
        """
        nonlocal d_dram_acc, d_dram_miss
        nonlocal d_fills, d_shadow_fills, d_fill_cpu
        nonlocal d_m_look, d_m_miss, d_m_fault, d_m_bits
        paged_in = False
        while True:
            mmc_c = base_mmc
            if shadow_base <= paddr < shadow_end:
                si = (paddr - shadow_base) >> BASE_PAGE_SHIFT
                # Mtlb.access(si, op == 1), no injection sites.
                d_m_look += 1
                ws = sets[si & set_mask]
                way = ws.get(si)
                filled = False
                if way is not None:
                    way.nru_referenced = True
                else:
                    d_m_miss += 1
                    raw = int(entries_arr[si])
                    way = _Way(si, raw & PFN_MASK, bool(raw & VALID_BIT))
                    if len(ws) >= assoc:
                        evict(ws)
                    ws[si] = way
                    filled = True
                if not way.valid:
                    # The fault precedes the fill's DRAM accesses, so
                    # nothing below has run yet — exactly as the
                    # exception out of Mtlb.access leaves things.
                    d_m_fault += 1
                    entries_arr[si] |= _FAULT_NP
                    if paged_in:
                        raise MtlbFault(si, bool(op))
                    paged_in = True
                    drain()  # kernel page-in interleaves with live stats
                    stats.kernel_cycles += kernel.handle_mtlb_fault(si)
                    continue
                if op:
                    entries_arr[si] |= _DIRTY_REF_NP
                    if not way.dirty_written:
                        way.dirty_written = True
                        way.ref_written = True
                        d_m_bits += 1
                else:
                    entries_arr[si] |= _REF_NP
                    if not way.ref_written:
                        way.ref_written = True
                        d_m_bits += 1
                if filled:
                    # Hardware fill: one DRAM access to the flat table.
                    row = (table_base + (si << 2)) >> row_shift
                    bank = row % banks
                    d_dram_acc += 1
                    if open_rows[bank] == row:
                        mmc_c += row_hit_c
                    else:
                        d_dram_miss += 1
                        open_rows[bank] = row
                        mmc_c += row_miss_c
                real = (way.pfn << BASE_PAGE_SHIFT) | (paddr & BASE_PAGE_MASK)
                d_shadow_fills += 1
            else:
                if paddr >= dram_size or paddr < 0:
                    raise BadPhysicalAddress(paddr)
                real = paddr
            row = real >> row_shift
            bank = row % banks
            d_dram_acc += 1
            if open_rows[bank] == row:
                mmc_c += row_hit_c
            else:
                d_dram_miss += 1
                open_rows[bank] = row
                mmc_c += row_miss_c
            cpu_c = mmc_c * mmc_ratio
            d_fills += 1
            d_fill_cpu += cpu_c
            return req_cpu + cpu_c + ret_cpu

    def writeback(paddr: int) -> None:
        """``Bus.writeback_cycles`` + ``MemoryController.writeback``
        (the engines discard the returned occupancy: writebacks are
        buffered and never stall the processor)."""
        nonlocal d_dram_acc, d_dram_miss
        nonlocal d_wbs, d_shadow_wbs
        nonlocal d_m_look, d_m_miss, d_m_fault, d_m_bits
        if shadow_base <= paddr < shadow_end:
            si = (paddr - shadow_base) >> BASE_PAGE_SHIFT
            d_m_look += 1
            ws = sets[si & set_mask]
            way = ws.get(si)
            filled = False
            if way is not None:
                way.nru_referenced = True
            else:
                d_m_miss += 1
                raw = int(entries_arr[si])
                way = _Way(si, raw & PFN_MASK, bool(raw & VALID_BIT))
                if len(ws) >= assoc:
                    evict(ws)
                ws[si] = way
                filled = True
            if not way.valid:
                d_m_fault += 1
                entries_arr[si] |= _FAULT_NP
                raise AssertionError(
                    "writeback faulted: the OS must flush dirty data "
                    "before invalidating a shadow mapping"
                )
            entries_arr[si] |= _DIRTY_REF_NP
            if not way.dirty_written:
                way.dirty_written = True
                way.ref_written = True
                d_m_bits += 1
            if filled:
                row = (table_base + (si << 2)) >> row_shift
                bank = row % banks
                d_dram_acc += 1
                if open_rows[bank] != row:
                    d_dram_miss += 1
                    open_rows[bank] = row
            real = (way.pfn << BASE_PAGE_SHIFT) | (paddr & BASE_PAGE_MASK)
            d_shadow_wbs += 1
        else:
            if paddr >= dram_size or paddr < 0:
                raise BadPhysicalAddress(paddr)
            real = paddr
        row = real >> row_shift
        bank = row % banks
        d_dram_acc += 1
        if open_rows[bank] != row:
            d_dram_miss += 1
            open_rows[bank] = row
        d_wbs += 1

    return fill, writeback, drain


# ====================================================================== #
# Scalar engine
# ====================================================================== #


def _scalar_span(
    system: "System",
    seg: "Segment",
    start: int,
    stop: int,
    seg_base: int,
    inst_cycles: int,
    tlb_miss_cycles: int,
    mem_stall: int,
    tlb_misses: int,
    cache_misses: int,
    fill_path: Optional[Callable] = None,
    wb_path: Optional[Callable] = None,
) -> Tuple[int, int, int, int, int]:
    """Execute references ``[start, stop)`` one at a time.

    The whole scalar engine is one full-segment span; the vector engine
    calls this for TLB-miss-dense stretches.  Accumulators are threaded
    through so tracer clock stamps see the true segment-relative totals.
    *fill_path*/*wb_path* let the vector engine substitute its fused
    miss path; the defaults are the plain component calls, which keeps
    the scalar engine an independent reference for the equivalence
    suite.
    """
    ops = seg.ops[start:stop].tolist()
    vaddrs = seg.vaddrs[start:stop].tolist()
    gaps = seg.gaps[start:stop].tolist()

    tlb = system.tlb
    by_size = tlb._by_size
    sizes = tlb._sizes  # live list: refills mutate it in place
    mru_size = tlb._mru_size
    cache = system.cache
    inline_cache = isinstance(cache, DirectMappedCache)
    if inline_cache:
        tags = cache._tags
        cdirty = cache._dirty
        imask = cache._index_mask
        phys_indexed = cache.physically_indexed

    refill = system._refill_tlb
    miss_path = fill_path if fill_path is not None else system._fill_stall
    if wb_path is None:
        bus = system.bus
        mmc = system.mmc

        def wb_path(paddr: int) -> None:
            bus.writeback_cycles()
            mmc.writeback(paddr)

    # Event timestamps: components stamp ``tracer.clock``, which the
    # loop advances on the miss branches only (hit paths stay clean).
    tracer = system._tracer

    for i in range(len(vaddrs)):
        vaddr = vaddrs[i]
        op = ops[i]
        inst_cycles += gaps[i] + 1

        # TLB probe: MRU size first; a hit there still checks smaller
        # resident sizes so the most specific mapping wins (mirrors
        # Tlb._find).
        entry = None
        if mru_size is not None:
            table = by_size.get(mru_size)
            if table is not None:
                entry = table.get(vaddr & ~(mru_size - 1))
        if entry is not None:
            if sizes[0] < mru_size:
                for size in sizes:
                    if size >= mru_size:
                        break
                    small = by_size[size].get(vaddr & ~(size - 1))
                    if small is not None:
                        entry = small
                        break
                mru_size = entry.size
        else:
            for size in sizes:
                if size == mru_size:
                    continue
                found = by_size[size].get(vaddr & ~(size - 1))
                if found is not None:
                    entry = found
                    mru_size = size
                    break
        if entry is None:
            tlb_misses += 1
            if tracer is not None:
                tracer.clock = (
                    seg_base + inst_cycles + tlb_miss_cycles + mem_stall
                )
            entry, cost = refill(vaddr)
            tlb_miss_cycles += cost
            mru_size = entry.size
        else:
            entry.nru_referenced = True
        paddr = entry.pbase + vaddr - entry.vbase

        if inline_cache:
            idx = ((paddr if phys_indexed else vaddr) >> 5) & imask
            tag = paddr >> 5
            if tags[idx] == tag:
                if op:
                    cdirty[idx] = 1
            else:
                cache_misses += 1
                old = int(tags[idx])
                if old != -1 and cdirty[idx]:
                    cache.stats.writebacks += 1
                    wb_path(old << 5)
                tags[idx] = tag
                cdirty[idx] = 1 if op else 0
                if tracer is not None:
                    tracer.clock = (
                        seg_base
                        + inst_cycles
                        + tlb_miss_cycles
                        + mem_stall
                    )
                mem_stall += miss_path(paddr, op)
        else:
            result = cache.access(vaddr, paddr, op == 1)
            if not result.hit:
                cache_misses += 1
                if result.writeback_paddr is not None:
                    wb_path(result.writeback_paddr)
                if tracer is not None:
                    tracer.clock = (
                        seg_base
                        + inst_cycles
                        + tlb_miss_cycles
                        + mem_stall
                    )
                mem_stall += miss_path(paddr, op)

    tlb._mru_size = mru_size
    return inst_cycles, tlb_miss_cycles, mem_stall, tlb_misses, cache_misses


def run_segment_scalar(
    system: "System", seg: "Segment", process: "Process"
) -> None:
    """Execute one segment reference by reference."""
    n = seg.refs
    _check_budget(system, n)
    stats = system.stats
    seg_base = (
        stats.instruction_cycles
        + stats.memory_stall_cycles
        + stats.tlb_miss_cycles
        + stats.kernel_cycles
    )
    acc = _scalar_span(system, seg, 0, n, seg_base, 0, 0, 0, 0, 0)
    _fold_segment(
        system,
        seg,
        n,
        acc[3],
        acc[4],
        isinstance(system.cache, DirectMappedCache),
        acc[0],
        acc[1],
        acc[2],
    )


# ====================================================================== #
# Vector fast-forward engine
# ====================================================================== #


def _self_consistent_hits(
    tags: np.ndarray, line_idx: np.ndarray, tag: np.ndarray
) -> np.ndarray:
    """Exact in-window hit mask for a direct-mapped cache.

    A reference hits iff the line its set holds when it executes carries
    its tag — and in a direct-mapped cache that line is simply the tag
    of the *previous reference to the same set within the window*
    (whether that reference hit or missed, the set holds its tag
    afterwards), or the frozen ``tags`` array entry if the window has
    not touched the set yet.  A stable argsort groups references by set
    while preserving program order inside each group, so the whole
    schedule — including the fills the window's own misses perform —
    resolves in a handful of vector ops, with no fixpoint iteration.

    Exact only while nothing *outside* the window's own references
    mutates the cache; the caller watches
    :attr:`~repro.mem.cache.DirectMappedCache.mutation_stamp` and
    re-predicts from the first polluting miss onward.

    Returns ``(hit, order, li_s, tag_s, prev_tag, first)``: the hit mask
    in program order, plus the sorted-domain (grouped-by-set) arrays the
    vectorized miss retirement (:func:`_vector_miss_retire`) reuses —
    ``order`` is the stable argsort, ``li_s``/``tag_s`` the permuted
    sets/tags, ``prev_tag`` the line each reference observes, and
    ``first`` marks each set group's first reference.
    """
    t = len(line_idx)
    order = np.argsort(line_idx, kind="stable")
    li_s = line_idx[order]
    tag_s = tag[order]
    prev_tag = np.empty(t, dtype=np.int64)
    prev_tag[1:] = tag_s[:-1]
    first = np.empty(t, dtype=bool)
    first[0] = True
    np.not_equal(li_s[1:], li_s[:-1], out=first[1:])
    prev_tag[first] = tags[li_s[first]]
    hit = np.empty(t, dtype=bool)
    hit[order] = tag_s == prev_tag
    return hit, order, li_s, tag_s, prev_tag, first


def _row_chain(dram: "Dram", rows: np.ndarray) -> np.ndarray:
    """Open-row hit mask of a DRAM access stream given in program order.

    The cache-schedule trick again: an access hits iff its row equals
    the previous same-bank access's row, or the live open row for a
    bank's first access.  Commits the last row of each touched bank to
    ``dram._open_rows``; counters are the caller's.
    """
    dt = dram.timing
    total = len(rows)
    bank = rows % dt.banks
    border = np.argsort(bank, kind="stable")
    row_b = rows[border]
    bank_b = bank[border]
    prev_row = np.empty(total, dtype=np.int64)
    prev_row[1:] = row_b[:-1]
    bfirst = np.empty(total, dtype=bool)
    bfirst[0] = True
    np.not_equal(bank_b[1:], bank_b[:-1], out=bfirst[1:])
    open_rows = dram._open_rows
    prev_row[bfirst] = np.asarray(open_rows, dtype=np.int64)[bank_b[bfirst]]
    blast = np.empty(total, dtype=bool)
    blast[:-1] = bfirst[1:]
    blast[-1] = True
    for b, r in zip(bank_b[blast].tolist(), row_b[blast].tolist()):
        open_rows[b] = r
    rhit = np.empty(total, dtype=bool)
    rhit[border] = row_b == prev_row
    return rhit


def _mtlb_pass(
    mtlb: Mtlb, si: List[int], write: List[bool], pfn: List[int]
) -> Tuple[List[int], List[int], int]:
    """Run an MTLB access stream through the live way sets, in order.

    ``Mtlb.access`` with no injection sites and no faults (the caller
    has checked every touched mapping valid): a hit sets the way's NRU
    bit, a miss fills a way from *pfn* (the table's frame for that
    access, read up front — nothing writes a frame mid-window) after
    ``Mtlb._evict`` makes room in a full set.  Translation goes through
    the way's cached frame, not the table, so a missed purge behaves
    as in the sequential path.

    Returns ``(missed, frames, bit_writes)``: the stream positions that
    filled, each access's frame, and the first-time accounting-bit
    write count.
    """
    sets = mtlb._sets
    set_mask = mtlb._set_mask
    assoc = mtlb.associativity
    evict = mtlb._evict
    missed: List[int] = []
    frames: List[int] = []
    bits = 0
    for i, s in enumerate(si):
        ws = sets[s & set_mask]
        way = ws.get(s)
        if way is not None:
            way.nru_referenced = True
        else:
            missed.append(i)
            way = _Way(s, pfn[i], True)
            if len(ws) >= assoc:
                evict(ws)
            ws[s] = way
        if write[i]:
            if not way.dirty_written:
                way.dirty_written = True
                way.ref_written = True
                bits += 1
        elif not way.ref_written:
            way.ref_written = True
            bits += 1
        frames.append(way.pfn)
    return missed, frames, bits


def _vector_miss_retire(
    system: "System",
    tags: np.ndarray,
    cdirty: np.ndarray,
    order: np.ndarray,
    li_s: np.ndarray,
    tag_s: np.ndarray,
    prev_tag: np.ndarray,
    first: np.ndarray,
    store_mask: np.ndarray,
    mp: np.ndarray,
    paddr: np.ndarray,
    kernel: Optional[np.ndarray] = None,
) -> Optional[Tuple[int, int]]:
    """Retire a fully covered prefix — misses included — in one pass.

    When every fill and victim writeback of the prefix lands in
    installed DRAM or in the shadow window through a valid mapping,
    the miss path cannot fault, so no kernel entry can observe or
    pollute mid-prefix cache state.  Everything the per-miss loop would
    do then vectorizes, except the MTLB's NRU state, which one lean
    Python pass (:func:`_mtlb_pass`) walks in program order:

    * the *victim dirty bit* each miss observes is "was there a store to
      this set since the set's last in-window miss (which reset the bit
      to its own op), or — before the first in-window miss — since the
      frozen bit": a windowed any-store test via one cumulative sum over
      the set-grouped store flags;
    * the *memory stream* interleaves, per miss, the optional victim
      writeback (a write) before the fill (the miss's own op); its
      shadow accesses are the MTLB stream, and each MTLB miss adds a
      table fetch ahead of its data access in the DRAM stream;
    * the *DRAM open-row chain* over that stream is :func:`_row_chain`;
    * final tags/dirty bits per touched set are the last reference's,
      committed with one scatter each, and every counter is a sum.

    Returns ``(user_stall, kernel_stall)``, the fill-stall cycles split
    by whether the missing access is marked in the program-order
    *kernel* mask (the deferred span's replayed hashed-page-table
    accesses; without a mask the kernel share is 0), or None if the
    prefix does not qualify: some address lies outside both DRAM and
    the shadow window (or in it on a machine with no MTLB), or some
    touched shadow page is invalid in the table or in its cached way.
    The sequential path then raises or services the fault.  On None,
    nothing has been mutated.
    """
    t = len(li_s)
    nm = len(mp)
    mmc = system.mmc
    mm = mmc.memory_map
    mtlb = mmc.mtlb

    ops_s = store_mask[order]
    hit_s = tag_s == prev_tag

    # Victim dirty bit at each position, sorted domain: any store in
    # [q, p) where q is the set's last in-window miss at or before p-1
    # (the miss's own op included — a miss resets the bit to its op), or
    # the frozen bit OR'd with the stores since the group start.
    ar = np.arange(t, dtype=np.int64)
    gs = np.maximum.accumulate(np.where(first, ar, 0))
    lastm = np.maximum.accumulate(np.where(~hit_s, ar, -1))
    lm_prev = np.empty(t, dtype=np.int64)
    lm_prev[0] = -1
    lm_prev[1:] = lastm[:-1]
    s_excl = np.cumsum(ops_s, dtype=np.int64) - ops_s  # stores before p
    in_grp = lm_prev >= gs
    frozen_dirty = cdirty[li_s] != 0
    dirty_before = np.where(
        in_grp,
        (s_excl - s_excl[np.maximum(lm_prev, 0)]) > 0,
        frozen_dirty | ((s_excl - s_excl[gs]) > 0),
    )

    wb_s = ~hit_s & (prev_tag != -1) & dirty_before
    nwb = int(wb_s.sum())
    stall_sum = kernel_stall = 0
    if nm:
        # The memory stream, program order: each miss's optional victim
        # writeback precedes its fill.
        wb_o = np.empty(t, dtype=bool)
        wb_o[order] = wb_s
        vic_o = np.empty(t, dtype=np.int64)
        vic_o[order] = prev_tag
        wb_m = wb_o[mp]
        total = nm + nwb
        fill_pos = np.arange(nm, dtype=np.int64) + np.cumsum(wb_m)
        addr = np.empty(total, dtype=np.int64)
        addr[fill_pos] = paddr[mp]
        addr[fill_pos[wb_m] - 1] = vic_o[mp][wb_m] << CACHE_LINE_SHIFT
        is_fill = np.zeros(total, dtype=bool)
        is_fill[fill_pos] = True
        if mtlb is None:
            shadow = np.zeros(total, dtype=bool)
        else:
            shadow = (addr >= mm.shadow_base) & (addr < mm.shadow_end)
        if not (shadow | ((addr >= 0) & (addr < mm.dram_size))).all():
            return None
        sh_pos = np.flatnonzero(shadow)
        n_sh = len(sh_pos)
        if n_sh:
            table = mmc.shadow_table
            entries = table._entries
            si = (addr[sh_pos] - mm.shadow_base) >> BASE_PAGE_SHIFT
            raw = entries[si]
            if not (raw & VALID_BIT).all():
                return None
            sets = mtlb._sets
            set_mask = mtlb._set_mask
            for s in np.unique(si).tolist():
                way = sets[s & set_mask].get(s)
                if way is not None and not way.valid:
                    return None

            # Nothing below declines.  The MTLB stream: writebacks are
            # writes, fills carry their miss's op.
            op = np.ones(total, dtype=bool)
            op[fill_pos] = store_mask[mp]
            write = op[sh_pos]
            missed, frames, bits = _mtlb_pass(
                mtlb,
                si.tolist(),
                write.tolist(),
                (raw & PFN_MASK).tolist(),
            )
            n_mmiss = len(missed)
            real = addr.copy()
            real[sh_pos] = (
                np.array(frames, dtype=np.int64) << BASE_PAGE_SHIFT
            ) | (addr[sh_pos] & BASE_PAGE_MASK)
            entries[si] |= _REF_NP
            entries[si[write]] |= _DIRTY_REF_NP
            ts = mtlb.stats
            ts.lookups += n_sh
            ts.hits += n_sh - n_mmiss
            ts.misses += n_mmiss
            ts.fills += n_mmiss
            ts.bit_writebacks += bits
            n_sh_fills = int(is_fill[sh_pos].sum())
            mmc.stats.shadow_fills += n_sh_fills
            mmc.stats.shadow_writebacks += n_sh - n_sh_fills
        else:
            n_mmiss = 0
            real = addr

        # The DRAM stream: an MTLB miss's table fetch precedes the data
        # access of the stream entry that missed.
        dt = mmc.dram.timing
        rows = real >> dt.row_shift
        fill_owner = is_fill
        k_owner = None
        if kernel is not None:
            k_owner = np.zeros(total, dtype=bool)
            k_owner[fill_pos] = kernel[mp]
        if n_mmiss:
            at = sh_pos[missed]
            fetch_row = (table.table_base + (si[missed] << 2)) >> dt.row_shift
            rows = np.insert(rows, at, fetch_row)
            fill_owner = np.insert(is_fill, at, is_fill[at])
            if k_owner is not None:
                k_owner = np.insert(k_owner, at, k_owner[at])
        n_dram = total + n_mmiss
        rhit = _row_chain(mmc.dram, rows)
        n_rhit = int(rhit.sum())

        timing = mmc.timing
        base_mmc = timing.base_occupancy + (
            timing.shadow_check if mtlb is not None else 0
        )
        bt = system.bus.timing
        reqret_cpu = (
            bt.request_cycles + bt.line_beats * bt.beat_cycles
        ) * bt.cpu_cycles_per_bus_cycle

        def fill_costs(fills: int, owner: np.ndarray) -> Tuple[int, int]:
            """(MMC cpu cycles, stall cycles) of *fills* fills whose
            DRAM accesses *owner* marks."""
            accesses = int(owner.sum())
            row_hits = int(rhit[owner].sum())
            cpu = (
                base_mmc * fills
                + row_hits * dt.row_hit_cycles
                + (accesses - row_hits) * dt.row_miss_cycles
            ) * timing.cpu_cycles_per_mmc_cycle
            return cpu, fills * reqret_cpu + cpu

        cpu_sum, stall_sum = fill_costs(nm, fill_owner)
        if kernel is not None:
            kernel_stall = fill_costs(int(kernel[mp].sum()), k_owner)[1]

        ds = mmc.dram.stats
        ds.accesses += n_dram
        ds.row_hits += n_rhit
        ds.row_misses += n_dram - n_rhit
        bs = system.bus.stats
        bs.transactions += total
        bs.fill_transactions += nm
        bs.writeback_transactions += nwb
        bs.busy_cpu_cycles += total * reqret_cpu
        ms = mmc.stats
        ms.fills += nm
        ms.writebacks += nwb
        ms.fill_cpu_cycles += cpu_sum
        st = system.stats
        st.fills += nm
        st.fill_stall_cycles += stall_sum
        system.cache.stats.writebacks += nwb

    # Commit final per-set cache state: the last reference of each set
    # group leaves its tag (misses overwrite, hits restate) and its
    # resulting dirty bit.
    last = np.empty(t, dtype=bool)
    last[:-1] = first[1:]
    last[-1] = True
    tags[li_s[last]] = tag_s[last]
    d_after = np.where(hit_s, dirty_before | ops_s, ops_s)
    cdirty[li_s[last]] = d_after[last]
    return stall_sum - kernel_stall, kernel_stall


def _deferred_span(
    system: "System",
    seg: "Segment",
    start: int,
    stop: int,
    gap_cum: np.ndarray,
    inst_cycles: int,
    tlb_miss_cycles: int,
    mem_stall: int,
    tlb_misses: int,
    cache_misses: int,
) -> Tuple[int, int, int, int, int]:
    """Dense-phase span on a machine that decodes no shadow window.

    The vector engine's replacement for :func:`_scalar_span` when the
    fused miss path qualifies and ``mmc.mtlb is None``.  There every
    fill and writeback is a plain DRAM access and nothing on the cache
    path can enter the kernel, so the span's cache traffic depends on
    the TLB only through each reference's physical address, and the
    TLB sees the cache not at all.  Two passes exploit that:

    1. **TLB only.**  References are probed one at a time exactly as in
       :func:`_scalar_span` (same MRU probe, same NRU touches, real
       refills), but the refill handler's hashed-page-table loads and
       installs are *recorded* through the ``kernel_access`` hook
       instead of executed.
    2. **Cache in one pass.**  The span's references and the recorded
       kernel accesses are merged in program order — a refill's
       accesses precede the access of the reference that missed — and
       the merged stream retires through :func:`_self_consistent_hits`
       and :func:`_vector_miss_retire`.

    Each kernel access costs 1 cycle plus its fill stall on a miss
    (``System._kernel_access``); those cycles land in the span's
    TLB-miss cycles and the miss handler's total, the user share of the
    fill stall in memory stall.  Kernel accesses count in the cache
    stats and move ``mutation_stamp`` exactly as
    ``DirectMappedCache.access`` would.  Same accumulator contract as
    :func:`_scalar_span`.
    """
    v = seg.vaddrs[start:stop]

    # Pass 1: the TLB, reference by reference.
    tlb = system.tlb
    by_size = tlb._by_size
    sizes = tlb._sizes  # live list: refills mutate it in place
    mru_size = tlb._mru_size
    refill = system._refill_tlb
    deltas: List[int] = []  # pbase - vbase per reference
    k_addr: List[int] = []
    k_write: List[bool] = []
    k_pos: List[int] = []  # reference each kernel access precedes

    def record(paddr: int, is_write: bool) -> int:
        k_addr.append(paddr)
        k_write.append(is_write)
        k_pos.append(len(deltas))
        return 0  # charged after pass 2

    for vaddr in v.tolist():
        # The _scalar_span probe, verbatim.
        entry = None
        if mru_size is not None:
            table = by_size.get(mru_size)
            if table is not None:
                entry = table.get(vaddr & ~(mru_size - 1))
        if entry is not None:
            if sizes[0] < mru_size:
                for size in sizes:
                    if size >= mru_size:
                        break
                    small = by_size[size].get(vaddr & ~(size - 1))
                    if small is not None:
                        entry = small
                        break
                mru_size = entry.size
        else:
            for size in sizes:
                if size == mru_size:
                    continue
                found = by_size[size].get(vaddr & ~(size - 1))
                if found is not None:
                    entry = found
                    mru_size = size
                    break
        if entry is None:
            tlb_misses += 1
            entry, cost = refill(vaddr, record)
            tlb_miss_cycles += cost
            mru_size = entry.size
        else:
            entry.nru_referenced = True
        deltas.append(entry.pbase - entry.vbase)
    tlb._mru_size = mru_size

    # Pass 2: the merged access stream through the cache, in one go.
    cache = system.cache
    n_user = stop - start
    n_kernel = len(k_addr)
    user_paddr = v + np.array(deltas, dtype=np.int64)
    user_index = user_paddr if cache.physically_indexed else v
    user_store = seg.ops[start:stop] != 0
    kernel = None
    if n_kernel:
        # Kernel access j lands after the k_pos[j] references and j
        # kernel accesses that precede it.
        k_at = np.array(k_pos, dtype=np.int64) + np.arange(n_kernel)
        kernel = np.zeros(n_user + n_kernel, dtype=bool)
        kernel[k_at] = True
        user = ~kernel
        paddr = np.empty(n_user + n_kernel, dtype=np.int64)
        paddr[user] = user_paddr
        paddr[k_at] = k_addr
        index = paddr.copy()  # kernel accesses index by paddr
        index[user] = user_index
        store = np.empty(n_user + n_kernel, dtype=bool)
        store[user] = user_store
        store[k_at] = k_write
    else:
        paddr, index, store = user_paddr, user_index, user_store
    line_idx = (index >> CACHE_LINE_SHIFT) & cache._index_mask
    hit, order, li_s, tag_s, prev_tag, first = _self_consistent_hits(
        cache._tags, line_idx, paddr >> CACHE_LINE_SHIFT
    )
    mp = np.flatnonzero(~hit)
    split = _vector_miss_retire(
        system,
        cache._tags,
        cache._dirty,
        order,
        li_s,
        tag_s,
        prev_tag,
        first,
        store,
        mp,
        paddr,
        kernel,
    )
    if split is None:
        # Victims were filled before they were evicted, so the culprit
        # is a fill; the first one in program order is what the scalar
        # path trips on.
        fills = paddr[mp]
        raise BadPhysicalAddress(
            int(fills[np.argmax(fills >= system.mmc.memory_map.dram_size)])
        )
    user_stall, kernel_stall = split
    k_misses = int(kernel[mp].sum()) if n_kernel else 0
    cache_misses += len(mp) - k_misses
    mem_stall += user_stall
    base_gap = int(gap_cum[start - 1]) if start else 0
    inst_cycles += n_user + int(gap_cum[stop - 1]) - base_gap
    if n_kernel:
        k_cycles = n_kernel + kernel_stall
        tlb_miss_cycles += k_cycles
        system.miss_handler.stats.total_cycles += k_cycles
        cs = cache.stats
        cs.accesses += n_kernel
        cs.hits += n_kernel - k_misses
        cs.misses += k_misses
        cache.mutation_stamp += k_misses
    return inst_cycles, tlb_miss_cycles, mem_stall, tlb_misses, cache_misses


def run_segment_vector(
    system: "System", seg: "Segment", process: "Process"
) -> None:
    """Execute one segment, fast-forwarding over hit runs."""
    if not isinstance(system.cache, DirectMappedCache):
        return _run_segment_vector_setassoc(system, seg, process)
    n = seg.refs
    _check_budget(system, n)

    tlb = system.tlb
    cache = system.cache
    tags = cache._tags
    cdirty = cache._dirty
    imask = cache._index_mask
    phys_indexed = cache.physically_indexed

    vaddrs = seg.vaddrs
    ops = seg.ops
    gaps = seg.gaps
    gap_cum = np.cumsum(gaps, dtype=np.int64)

    inst_cycles = 0
    tlb_miss_cycles = 0
    mem_stall = 0
    tlb_misses = 0
    cache_misses = 0

    refill = system._refill_tlb
    tracer = system._tracer
    bus = system.bus
    mmc = system.mmc
    fused = _fused_paths(system)
    if fused is not None:
        miss_path, wb_path, drain = fused
    else:
        miss_path = system._fill_stall
        drain = None

        def wb_path(paddr: int) -> None:
            bus.writeback_cycles()
            mmc.writeback(paddr)

    cache_stats = cache.stats
    stats = system.stats
    seg_base = (
        stats.instruction_cycles
        + stats.memory_stall_cycles
        + stats.tlb_miss_cycles
        + stats.kernel_cycles
    )

    # Dense phases on a machine with no shadow window defer their cache
    # traffic (_deferred_span); anywhere else they step scalar.
    deferred = fused is not None and mmc.mtlb is None

    fault_plan = system.fault_plan
    state = system.engine_state
    cur = 0
    window = state.window
    dense = state.dense
    while cur < n:
        w = window
        if fault_plan is not None:
            dist = fault_plan.next_trigger_distance()
            if dist is not None and dist < w:
                # A directed fault is scheduled soon: shrink the window
                # so the trigger lands early in its prediction and the
                # kernel-entry pollution restart throws little away.
                # Trigger distance is in site consultations (a lower
                # bound on references, since consultations only happen
                # on miss paths) — a heuristic clamp only, geometry
                # never affects results.
                w = max(MIN_WINDOW, dist)
        end = min(cur + w, n)
        m = end - cur
        v = vaddrs[cur:end]

        # TLB coverage, ascending size order: the first size that covers
        # a reference is its most specific mapping, matching the scalar
        # probe.  The mirror is cached inside the Tlb per generation, so
        # consecutive windows with no refill between them rebuild
        # nothing.
        covered = np.zeros(m, dtype=bool)
        delta = np.zeros(m, dtype=np.int64)
        touches = []
        for size, bases, deltas in tlb.coverage_arrays():
            masked = v & (-size)
            pos = np.searchsorted(bases, masked)
            np.minimum(pos, len(bases) - 1, out=pos)
            won = (bases[pos] == masked) & ~covered
            if won.any():
                delta[won] = deltas[pos[won]]
                covered |= won
                touches.append((size, masked, won))

        # The window's usable prefix ends at the first TLB miss: the
        # software refill probes the hashed page table *through this
        # cache* and may promote, so nothing behind it can be trusted.
        uncov = np.flatnonzero(~covered)
        t = int(uncov[0]) if uncov.size else m

        # Uncovered references carry a zero delta and garbage tags, but
        # everything below only reads the [:t] prefix, which is fully
        # covered.
        paddr = v + delta
        line_idx = ((paddr if phys_indexed else v) >> CACHE_LINE_SHIFT) & imask
        tag = paddr >> CACHE_LINE_SHIFT

        polluted_at = -1
        if t:
            # Ordinary cache misses do NOT end the prefix: the
            # self-consistent schedule already accounts for their fills,
            # so the engine executes only the misses through the real
            # machine and retires the hit runs between them in bulk.
            hit, order, li_s, tag_s, prev_tag, first = (
                _self_consistent_hits(tags, line_idx[:t], tag[:t])
            )
            mp = np.flatnonzero(~hit)
            base_gap = int(gap_cum[cur - 1]) if cur else 0
            store_mask = ops[cur:cur + t] != 0
            nm = len(mp)
            retired = False
            if fused is not None:
                added = _vector_miss_retire(
                    system,
                    tags,
                    cdirty,
                    order,
                    li_s,
                    tag_s,
                    prev_tag,
                    first,
                    store_mask,
                    mp,
                    paddr,
                )
                if added is not None:
                    mem_stall += added[0]
                    cache_misses += nm
                    retired = True
            if not retired:
                spos = np.flatnonzero(store_mask)
                sline = line_idx[spos]
                # Hit-run k spans [run_lo[k], run_hi[k]) positions of
                # ``spos``: the stores to dirty before executing miss k
                # (the last run is the post-final-miss tail).
                # Everything the miss loop needs is extracted to Python
                # lists in bulk — per-element numpy scalar reads are
                # what made early versions of this engine slower than
                # scalar.
                run_lo = np.searchsorted(
                    spos, np.append(0, mp + 1)
                ).tolist()
                run_hi = np.searchsorted(spos, np.append(mp, t)).tolist()
                if nm:
                    mp_l = mp.tolist()
                    midx = line_idx[mp].tolist()
                    mtag = tag[mp].tolist()
                    mpad = paddr[mp].tolist()
                    mop = store_mask[mp].tolist()
                    # Segment-relative instruction cycles after each
                    # miss reference retires, for the tracer clock
                    # stamp.
                    inst_at = (
                        mp + 1 + (gap_cum[cur + mp] - base_gap)
                    ).tolist()
                    clock_base = seg_base + inst_cycles + tlb_miss_cycles
                    stamp = cache.mutation_stamp
                    for k in range(nm):
                        lo = run_lo[k]
                        hi = run_hi[k]
                        if hi > lo:
                            cdirty[sline[lo:hi]] = 1
                        # The miss reference: the scalar cache-miss
                        # branch, with the TLB probe elided (it is
                        # covered; its NRU touch is deferred with the
                        # rest of the prefix's — nothing reads NRU until
                        # the next refill).
                        op = 1 if mop[k] else 0
                        idx = midx[k]
                        cache_misses += 1
                        old = int(tags[idx])
                        if old != -1 and cdirty[idx]:
                            cache_stats.writebacks += 1
                            wb_path(old << CACHE_LINE_SHIFT)
                        tags[idx] = mtag[k]
                        cdirty[idx] = op
                        if tracer is not None:
                            tracer.clock = (
                                clock_base + inst_at[k] + mem_stall
                            )
                        mem_stall += miss_path(mpad[k], op)
                        if cache.mutation_stamp != stamp:
                            # Fault service reached the kernel and the
                            # kernel touched the cache (page-in flushes,
                            # HPT traffic): the rest of the schedule is
                            # stale.  Re-predict from the next
                            # reference.
                            polluted_at = mp_l[k]
                            inst_cycles += inst_at[k]
                            break
                if polluted_at < 0:
                    lo = run_lo[nm]
                    if len(sline) > lo:
                        cdirty[sline[lo:]] = 1
            if polluted_at < 0:
                inst_cycles += t + int(gap_cum[cur + t - 1]) - base_gap

            # NRU referenced bits for every executed reference of the
            # prefix, applied before anything can read them (the next
            # TLB refill's eviction scan).  Scalar sets each bit at hit
            # time; setting them in bulk here is indistinguishable.
            limit = polluted_at + 1 if polluted_at >= 0 else t
            for size, masked, won in touches:
                in_run = won[:limit]
                if in_run.any():
                    tlb.touch_pages(
                        size, np.unique(masked[:limit][in_run]).tolist()
                    )

        if polluted_at >= 0:
            cur += polluted_at + 1
            continue

        if t == m:
            cur = end
            if m == w:
                window = min(window * 2, MAX_WINDOW)
            continue

        # The TLB-missing reference at cur+t: the scalar loop body,
        # verbatim.
        i = cur + t
        vaddr = int(vaddrs[i])
        op = int(ops[i])
        inst_cycles += int(gaps[i]) + 1
        tlb_misses += 1
        if tracer is not None:
            tracer.clock = (
                seg_base + inst_cycles + tlb_miss_cycles + mem_stall
            )
        entry, cost = refill(vaddr)
        tlb_miss_cycles += cost
        tlb._mru_size = entry.size
        ref_paddr = entry.pbase + vaddr - entry.vbase

        idx = ((ref_paddr if phys_indexed else vaddr) >> CACHE_LINE_SHIFT) & imask
        new_tag = ref_paddr >> CACHE_LINE_SHIFT
        if tags[idx] == new_tag:
            if op:
                cdirty[idx] = 1
        else:
            cache_misses += 1
            old = int(tags[idx])
            if old != -1 and cdirty[idx]:
                cache_stats.writebacks += 1
                wb_path(old << CACHE_LINE_SHIFT)
            tags[idx] = new_tag
            cdirty[idx] = 1 if op else 0
            if tracer is not None:
                tracer.clock = (
                    seg_base + inst_cycles + tlb_miss_cycles + mem_stall
                )
            mem_stall += miss_path(ref_paddr, op)

        cur = i + 1
        # TLB misses are what end prefixes, so the window chases the
        # observed TLB-hit run length; two degenerate prefixes in a row
        # hand the next stretch to a dense-phase span outright.
        dense = dense + 1 if t < DENSE_RUN else 0
        if dense >= 2 and cur < n:
            span_end = min(cur + SCALAR_SPAN, n)
            acc = (
                inst_cycles,
                tlb_miss_cycles,
                mem_stall,
                tlb_misses,
                cache_misses,
            )
            if deferred:
                acc = _deferred_span(
                    system, seg, cur, span_end, gap_cum, *acc
                )
            else:
                acc = _scalar_span(
                    system,
                    seg,
                    cur,
                    span_end,
                    seg_base,
                    *acc,
                    fill_path=miss_path,
                    wb_path=wb_path,
                )
            (
                inst_cycles,
                tlb_miss_cycles,
                mem_stall,
                tlb_misses,
                cache_misses,
            ) = acc
            cur = span_end
            dense = 0
            window = INITIAL_WINDOW
        elif t < window // 2:
            window = max(window // 2, MIN_WINDOW)

    state.window = window
    state.dense = dense
    if drain is not None:
        drain()
    _fold_segment(
        system,
        seg,
        n,
        tlb_misses,
        cache_misses,
        True,
        inst_cycles,
        tlb_miss_cycles,
        mem_stall,
    )


# ====================================================================== #
# Set-associative vector path (the PR-8 lift)
# ====================================================================== #


def _retire_assoc_hits(
    sets_list: List[dict],
    line_idx: np.ndarray,
    tag: np.ndarray,
    store_mask: np.ndarray,
    index_bits: int,
) -> None:
    """Replay a pure-hit run into the LRU set dicts, per unique line.

    Within one set, the dict order after a run of hits is the order of
    each touched line's *last* touch (untouched lines keep their place
    at the LRU-old end, exactly as if never popped), and a line's dirty
    bit ends as its old bit OR any store to it in the run.  So the run
    collapses to one pop/re-insert per unique (set, line) — grouped
    with one stable argsort on the combined ``(tag << index_bits) |
    set`` key (VIPT synonyms land in distinct sets, hence the combined
    key) — replayed in ascending last-touch order so the final
    recency order matches the per-reference replay.
    """
    t = len(line_idx)
    if t == 1:
        line_set = sets_list[int(line_idx[0])]
        tg = int(tag[0])
        line_set[tg] = line_set.pop(tg) or bool(store_mask[0])
        return
    key = (tag << index_bits) | line_idx
    perm = np.argsort(key, kind="stable")
    key_s = key[perm]
    first = np.empty(t, dtype=bool)
    first[0] = True
    np.not_equal(key_s[1:], key_s[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], t) - 1
    last_pos = perm[ends]  # program position of each line's last touch
    stores = np.cumsum(store_mask[perm], dtype=np.int64)
    any_store = (
        stores[ends] - np.where(starts > 0, stores[starts - 1], 0)
    ) > 0
    rep = perm[starts]
    order = np.argsort(last_pos)
    for s, tgv, d in zip(
        line_idx[rep][order].tolist(),
        tag[rep][order].tolist(),
        any_store[order].tolist(),
    ):
        line_set = sets_list[s]
        line_set[tgv] = line_set.pop(tgv) or d


def _run_segment_vector_setassoc(
    system: "System", seg: "Segment", process: "Process"
) -> None:
    """Vector fast-forward against a set-associative cache.

    The same window pipeline as :func:`run_segment_vector`, with the
    cache-hit predicate answered by the residency mirror
    (:meth:`~repro.mem.cache.SetAssociativeCache.ensure_mirror`): an
    LRU *hit* never changes which lines are resident, so within a
    pure-hit run the frozen ``(sets, ways)`` tag plane is exact, and
    the whole run retires with one vectorized membership test plus one
    LRU replay per unique line (:func:`_retire_assoc_hits`).

    Unlike the direct-mapped self-consistent schedule, a predicted
    cache miss *ends* the prefix here — which line the fill evicts
    depends on live LRU recency state, so the miss executes through the
    real ``cache.access`` (which also patches the mirror in place) and
    prediction restarts after it.  The adaptive window plus the
    dense-phase scalar escape bound that re-prediction cost exactly as
    they do for TLB-miss-dense phases.
    """
    n = seg.refs
    _check_budget(system, n)

    tlb = system.tlb
    cache = system.cache
    plane = cache.ensure_mirror()  # live (num_sets, ways) tag plane
    imask = cache._index_mask
    index_bits = imask.bit_length()
    phys_indexed = cache.physically_indexed

    vaddrs = seg.vaddrs
    ops = seg.ops
    gaps = seg.gaps
    gap_cum = np.cumsum(gaps, dtype=np.int64)

    inst_cycles = 0
    tlb_miss_cycles = 0
    mem_stall = 0
    tlb_misses = 0
    cache_misses = 0

    refill = system._refill_tlb
    tracer = system._tracer
    bus = system.bus
    mmc = system.mmc
    fused = _fused_paths(system)
    if fused is not None:
        miss_path, wb_path, drain = fused
    else:
        miss_path = system._fill_stall
        drain = None

        def wb_path(paddr: int) -> None:
            bus.writeback_cycles()
            mmc.writeback(paddr)

    cache_stats = cache.stats
    stats = system.stats
    seg_base = (
        stats.instruction_cycles
        + stats.memory_stall_cycles
        + stats.tlb_miss_cycles
        + stats.kernel_cycles
    )

    fault_plan = system.fault_plan
    state = system.engine_state
    cur = 0
    window = state.window
    dense = state.dense
    while cur < n:
        w = window
        if fault_plan is not None:
            dist = fault_plan.next_trigger_distance()
            if dist is not None and dist < w:
                w = max(MIN_WINDOW, dist)
        end = min(cur + w, n)
        m = end - cur
        v = vaddrs[cur:end]

        # TLB coverage, identical to the direct-mapped path.
        covered = np.zeros(m, dtype=bool)
        delta = np.zeros(m, dtype=np.int64)
        touches = []
        for size, bases, deltas in tlb.coverage_arrays():
            masked = v & (-size)
            pos = np.searchsorted(bases, masked)
            np.minimum(pos, len(bases) - 1, out=pos)
            won = (bases[pos] == masked) & ~covered
            if won.any():
                delta[won] = deltas[pos[won]]
                covered |= won
                touches.append((size, masked, won))
        uncov = np.flatnonzero(~covered)
        t_tlb = int(uncov[0]) if uncov.size else m

        paddr = v + delta
        line_idx = (
            (paddr if phys_indexed else v) >> CACHE_LINE_SHIFT
        ) & imask
        tag = paddr >> CACHE_LINE_SHIFT

        # The prefix ends at the first TLB miss *or* the first
        # predicted cache miss, whichever is earlier.
        if t_tlb:
            hit = (
                plane[line_idx[:t_tlb]] == tag[:t_tlb, None]
            ).any(axis=1)
            miss_rel = np.flatnonzero(~hit)
            t = int(miss_rel[0]) if miss_rel.size else t_tlb
        else:
            t = 0
        base_gap = int(gap_cum[cur - 1]) if cur else 0

        if t:
            # [0, t) is a pure-hit run: bulk-retire the LRU/dirty
            # effects and count the hits by hand (the real access path
            # never ran).
            _retire_assoc_hits(
                cache._sets,
                line_idx[:t],
                tag[:t],
                ops[cur:cur + t] != 0,
                index_bits,
            )
            cache_stats.accesses += t
            cache_stats.hits += t

        # Was the prefix ended by a predicted cache miss (covered
        # reference) rather than a TLB miss / window end?
        ends_in_cache_miss = t < m and bool(covered[t])

        # NRU referenced bits for every executed covered reference,
        # applied before the next refill's eviction scan can read them
        # (the prefix-ending cache-miss reference is itself covered, so
        # its touch belongs in this batch too).
        limit = t + 1 if ends_in_cache_miss else t
        for size, masked, won in touches:
            in_run = won[:limit]
            if in_run.any():
                tlb.touch_pages(
                    size, np.unique(masked[:limit][in_run]).tolist()
                )

        if t == m:
            inst_cycles += t + int(gap_cum[cur + t - 1]) - base_gap
            cur = end
            if m == w:
                window = min(window * 2, MAX_WINDOW)
            continue

        i = cur + t
        if ends_in_cache_miss:
            # The predicted miss: the scalar generic cache branch with
            # the TLB probe elided (the reference is covered).  Which
            # victim it evicts reads live LRU state, so this runs the
            # real access; the cache patches the mirror in place.
            inst_cycles += (t + 1) + int(gap_cum[i]) - base_gap
            op = int(ops[i])
            paddr_i = int(paddr[t])
            result = cache.access(int(v[t]), paddr_i, op == 1)
            cache_misses += 1
            if result.writeback_paddr is not None:
                wb_path(result.writeback_paddr)
            if tracer is not None:
                tracer.clock = (
                    seg_base + inst_cycles + tlb_miss_cycles + mem_stall
                )
            mem_stall += miss_path(paddr_i, op)
        else:
            # The TLB-missing reference: the scalar loop body, verbatim
            # (generic cache branch).
            if t:
                inst_cycles += t + int(gap_cum[cur + t - 1]) - base_gap
            vaddr_i = int(vaddrs[i])
            op = int(ops[i])
            inst_cycles += int(gaps[i]) + 1
            tlb_misses += 1
            if tracer is not None:
                tracer.clock = (
                    seg_base + inst_cycles + tlb_miss_cycles + mem_stall
                )
            entry, cost = refill(vaddr_i)
            tlb_miss_cycles += cost
            tlb._mru_size = entry.size
            ref_paddr = entry.pbase + vaddr_i - entry.vbase
            result = cache.access(vaddr_i, ref_paddr, op == 1)
            if not result.hit:
                cache_misses += 1
                if result.writeback_paddr is not None:
                    wb_path(result.writeback_paddr)
                if tracer is not None:
                    tracer.clock = (
                        seg_base
                        + inst_cycles
                        + tlb_miss_cycles
                        + mem_stall
                    )
                mem_stall += miss_path(ref_paddr, op)

        cur = i + 1
        # Short prefixes — whether TLB-miss- or conflict-miss-dense —
        # shrink the window; two degenerate ones in a row hand the next
        # stretch to the scalar loop outright.
        dense = dense + 1 if t < DENSE_RUN else 0
        if dense >= 2 and cur < n:
            span_end = min(cur + SCALAR_SPAN, n)
            (
                inst_cycles,
                tlb_miss_cycles,
                mem_stall,
                tlb_misses,
                cache_misses,
            ) = _scalar_span(
                system,
                seg,
                cur,
                span_end,
                seg_base,
                inst_cycles,
                tlb_miss_cycles,
                mem_stall,
                tlb_misses,
                cache_misses,
                fill_path=miss_path,
                wb_path=wb_path,
            )
            cur = span_end
            dense = 0
            window = INITIAL_WINDOW
        elif t < window // 2:
            window = max(window // 2, MIN_WINDOW)

    state.window = window
    state.dense = dense
    if drain is not None:
        drain()
    _fold_segment(
        system,
        seg,
        n,
        tlb_misses,
        cache_misses,
        False,
        inst_cycles,
        tlb_miss_cycles,
        mem_stall,
    )


# ====================================================================== #
# Shared epilogue
# ====================================================================== #


def _fold_segment(
    system: "System",
    seg: "Segment",
    n: int,
    tlb_misses: int,
    cache_misses: int,
    inline_cache: bool,
    inst_cycles: int,
    tlb_miss_cycles: int,
    mem_stall: int,
) -> None:
    """Fold the locally accumulated statistics back into the machine."""
    tlb = system.tlb
    tlb.stats.lookups += n
    tlb.stats.misses += tlb_misses
    tlb.stats.hits += n - tlb_misses
    if inline_cache:
        cache = system.cache
        cache.stats.accesses += n
        cache.stats.misses += cache_misses
        cache.stats.hits += n - cache_misses

    stats = system.stats
    stats.references += n
    stats.instructions += seg.instructions
    stats.instruction_cycles += inst_cycles
    stats.tlb_miss_cycles += tlb_miss_cycles
    stats.memory_stall_cycles += mem_stall
    system.segment_cycles.append(
        (seg.label, inst_cycles + tlb_miss_cycles + mem_stall)
    )

    system._model_ifetch(seg)
    if system.obs is not None:
        system._obs_sample()
