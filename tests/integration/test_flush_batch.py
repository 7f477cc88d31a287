"""The batched cache flush equals flushing one line at a time.

``System.flush_virtual_range`` (the remap/page-out consistency flush,
paper Section 3.3) hands the cache a whole range's lines in one
``flush_lines`` call and then writes the dirty ones back in range order.
Both engines share that kernel-side code, so the lockstep engine diff
cannot see it; this suite pins it instead against a per-line reference
kept here: ``flush_line`` per 32-byte line, with ``bus.writeback_cycles``
and ``mmc.writeback`` for each dirty one, exactly the loop the batch
replaced.

Each case builds two identical machines, runs the same setup on both,
lets one flush through the batch and the other through the reference,
and compares everything the flush can touch: the returned values, the
full metrics-registry snapshot, bus/DRAM/MMC/MTLB counters, the cache's
lines and mutation stamp (tags and dirty bits, or the LRU sets and the
residency mirror), DRAM open rows, MTLB ways and shadow-table entries.
"""

import dataclasses
import types

import numpy as np
import pytest

from repro.core.addrspace import BASE_PAGE_SIZE, CACHE_LINE_SIZE
from repro.errors import SimulationError
from repro.mem.cache import DirectMappedCache
from repro.sim.config import CacheConfig, paper_mtlb
from repro.sim.system import System

REGION = 0x0200_0000
PAGES = 16
SIZE = PAGES * BASE_PAGE_SIZE
#: Smaller than the 64 KB region, so a range flush wraps the cache.
SMALL_CACHE = 16 << 10
#: The page left unmapped mid-range; the small cache still holds lines
#: of the page before it.
UNMAPPED = 13

CACHES = {
    "dm-virtual": dict(associativity=1, physically_indexed=False),
    "dm-physical": dict(associativity=1, physically_indexed=True),
    "2way": dict(associativity=2, physically_indexed=False),
}


def reference_flush(system, process, vstart, length):
    """The per-line flush loop the batched flush replaced."""
    cfg = system.config.cache
    table = process.page_table
    cycles = 0
    dirty_lines = 0
    for page_vaddr in range(vstart, vstart + length, BASE_PAGE_SIZE):
        mapping = table.lookup(page_vaddr)
        if mapping is None:
            raise SimulationError(
                f"flush of unmapped page {page_vaddr:#010x}"
            )
        delta = mapping.pbase - mapping.vbase
        for line_vaddr in range(
            page_vaddr, page_vaddr + BASE_PAGE_SIZE, CACHE_LINE_SIZE
        ):
            cycles += cfg.flush_line_cycles
            present, dirty = system.cache.flush_line(
                line_vaddr, line_vaddr + delta
            )
            if present and dirty:
                cycles += cfg.flush_dirty_cycles
                system.bus.writeback_cycles()
                system.mmc.writeback(line_vaddr + delta)
                dirty_lines += 1
    return cycles, dirty_lines


def _config(cache, cache_bytes, fused):
    # An 8-entry MTLB makes the writeback order visible in its ways.
    cfg = paper_mtlb(96, mtlb_entries=8)
    cfg = dataclasses.replace(
        cfg,
        cache=CacheConfig(size_bytes=cache_bytes, **CACHES[cache]),
        # The oracle checker disqualifies the fused writeback, so the
        # writebacks go through the bus and MMC components instead.
        check_translations=0 if fused else 1,
    )
    return cfg


def _touch_pages(system, process, pages):
    """Loads and stores over most lines of *pages*, through the full
    timed path (TLB, cache, bus, MMC, MTLB)."""
    for page in pages:
        base = REGION + page * BASE_PAGE_SIZE
        for line in range(BASE_PAGE_SIZE // CACHE_LINE_SIZE):
            if line % 5 == 4:
                continue
            is_write = (line * 7 + page) % 3 != 0
            system.touch(
                process, base + line * CACHE_LINE_SIZE, is_write=is_write
            )


def _shadow_record(system, process):
    mapping = process.page_table.lookup(REGION)
    return system.kernel.vm.superpage_record(mapping.pbase)


# -- scenarios: setup, then the flushing operation; return what it returns #


def dram_remap(system, process):
    """Remap of DRAM base pages: the remap flushes them first."""
    system.kernel.sys_map(process, REGION, SIZE)
    _touch_pages(system, process, range(PAGES))
    report = system.kernel.sys_remap(process, REGION, SIZE)
    return (
        report.flush_cycles,
        report.dirty_lines_written,
        report.total_cycles,
        report.pages_remapped,
    )


def dram_flush(system, process):
    """A direct flush of DRAM base pages (the OS cleaning pass)."""
    system.kernel.sys_map(process, REGION, SIZE)
    _touch_pages(system, process, range(PAGES))
    return system.flush_virtual_range(process, REGION, SIZE)


def remap_back(system, process):
    """Tearing a shadow superpage down flushes its shadow-tagged lines."""
    system.kernel.sys_map(process, REGION, SIZE)
    system.kernel.sys_remap(process, REGION, SIZE)
    _touch_pages(system, process, range(PAGES))
    report = system.kernel.vm.remap_back(process, REGION)
    return (
        report.flush_cycles,
        report.dirty_lines_written,
        report.total_cycles,
    )


def page_out(system, process):
    """Paging base pages of a shadow superpage out, one at a time."""
    system.kernel.sys_map(process, REGION, SIZE)
    system.kernel.sys_remap(process, REGION, SIZE)
    _touch_pages(system, process, range(PAGES))
    record = _shadow_record(system, process)
    pager = system.kernel.pager
    return [pager.page_out(record, page) for page in (0, 3, 4, 9, 15)]


def unmapped_mid_range(system, process):
    """An unmapped page mid-range: the pages before it are flushed (and
    written back), then the flush raises."""
    system.kernel.sys_map(process, REGION, SIZE)
    _touch_pages(system, process, range(PAGES))
    process.page_table.unmap_range(REGION + UNMAPPED * BASE_PAGE_SIZE,
                                   BASE_PAGE_SIZE)
    with pytest.raises(SimulationError) as err:
        system.flush_virtual_range(process, REGION, SIZE)
    return str(err.value)


def frame_alias(system, process):
    """Pages 4-7 alias the frames of pages 0-3, one cache size apart, so
    each aliased line names the same set and tag as the original: it is
    flushed (and written back) once, at its first occurrence."""
    alias_pages = 4
    alias_bytes = alias_pages * BASE_PAGE_SIZE
    assert alias_bytes == SMALL_CACHE
    system.kernel.sys_map(process, REGION, alias_bytes)
    table = process.page_table
    for page in range(alias_pages):
        pbase = table.lookup(REGION + page * BASE_PAGE_SIZE).pbase
        table.map_base_page(
            REGION + alias_bytes + page * BASE_PAGE_SIZE,
            pbase // BASE_PAGE_SIZE,
        )
    _touch_pages(system, process, range(alias_pages))
    return system.flush_virtual_range(process, REGION, 2 * alias_bytes)


SCENARIOS = [dram_remap, dram_flush, remap_back, page_out,
             unmapped_mid_range]


def _state(system):
    """Everything a flush can change, as comparable plain values."""
    cache = system.cache
    out = {
        "metrics": system.metrics.collect(),
        "run_stats": dataclasses.asdict(system.stats),
        "bus": vars(system.bus.stats).copy(),
        "dram": vars(system.dram.stats).copy(),
        "open_rows": list(system.dram._open_rows),
        "mmc": vars(system.mmc.stats).copy(),
        "mtlb": vars(system.mtlb.stats).copy(),
        "mtlb_ways": [
            [(si, vars(way).copy()) for si, way in ways.items()]
            for ways in system.mtlb._sets
        ],
        "stamp": cache.mutation_stamp,
        "cache_stats": vars(cache.stats).copy(),
    }
    if isinstance(cache, DirectMappedCache):
        out["tags"] = cache._tags.tolist()
        out["dirty"] = cache._dirty.tolist()
    else:
        out["sets"] = [list(line_set.items()) for line_set in cache._sets]
        out["mirror"] = cache._mirror.tolist()
    return out


def _run_pair(scenario, cache, cache_bytes, fused):
    """Run *scenario* on a batched machine and a per-line reference
    machine; returns ``(batched, reference)`` as (result, state, table)."""
    runs = []
    for reference in (False, True):
        system = System(_config(cache, cache_bytes, fused))
        if reference:
            system.flush_virtual_range = types.MethodType(
                reference_flush, system
            )
        if not isinstance(system.cache, DirectMappedCache):
            # Build the residency mirror up front so the flush has to
            # keep it in step with the LRU sets.
            system.cache.ensure_mirror()
        process = system.kernel.create_process("flush")
        result = scenario(system, process)
        runs.append(
            (result, _state(system), system.shadow_table._entries.copy())
        )
    return runs


def _assert_same(batched, reference):
    result, state, table = batched
    ref_result, ref_state, ref_table = reference
    assert result == ref_result
    for key in ref_state:
        assert state[key] == ref_state[key], key
    assert np.array_equal(table, ref_table)


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "components"])
@pytest.mark.parametrize("cache_bytes", [SMALL_CACHE, 512 << 10],
                         ids=["16K", "512K"])
@pytest.mark.parametrize("cache", sorted(CACHES))
@pytest.mark.parametrize("scenario", SCENARIOS,
                         ids=[s.__name__ for s in SCENARIOS])
def test_batched_flush_equals_per_line(scenario, cache, cache_bytes, fused):
    batched, reference = _run_pair(scenario, cache, cache_bytes, fused)
    _assert_same(batched, reference)
    # The case must exercise the flush: lines found and written back.
    stats = batched[1]["cache_stats"]
    assert stats["flush_lines_present"] > 0
    assert stats["flush_writebacks"] > 0


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "components"])
@pytest.mark.parametrize("cache", sorted(CACHES))
def test_frame_alias_counted_once(cache, fused):
    batched, reference = _run_pair(frame_alias, cache, SMALL_CACHE, fused)
    _assert_same(batched, reference)
    stats = batched[1]["cache_stats"]
    # Every aliased line was looked up twice but found once.
    assert stats["flush_lines_checked"] == 2 * SMALL_CACHE // CACHE_LINE_SIZE
    assert 0 < stats["flush_lines_present"] <= SMALL_CACHE // CACHE_LINE_SIZE


def test_unmapped_page_flushes_the_pages_before_it():
    batched, _reference = _run_pair(
        unmapped_mid_range, "dm-virtual", 512 << 10, True
    )
    message, state, _table = batched
    assert f"{REGION + UNMAPPED * BASE_PAGE_SIZE:#010x}" in message
    assert state["cache_stats"]["flush_lines_checked"] == (
        UNMAPPED * BASE_PAGE_SIZE // CACHE_LINE_SIZE
    )
