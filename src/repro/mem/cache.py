"""Data cache model (HP PA8000-like).

The paper's simulated data cache is a single-level, direct-mapped, 512 KB,
virtually indexed / physically tagged (VIPT), writeback cache with 32-byte
lines and single-cycle hits.  Being virtually indexed, the set index comes
from the virtual address while the tag is the full physical line address —
which is what allows cache lines to be tagged with *shadow* physical
addresses without the cache noticing anything unusual, and what lets the OS
flush a remapped region by walking its virtual addresses.

Two implementations share one interface: a fast direct-mapped cache (the
paper's configuration, and the simulator hot path) and a generic
set-associative LRU cache used for sensitivity studies and tests.  The
direct-mapped cache keeps its tag and dirty state in numpy arrays so the
vectorized fast-forward engine (DESIGN.md §10) can predict whole hit runs
with one fancy-indexed comparison (:meth:`DirectMappedCache.bulk_probe`).

The cache is purely *functional* here (hit/miss/writeback decisions); all
timing is charged by :class:`repro.sim.system.System` and
:class:`repro.mem.mmc.MemoryController`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.addrspace import CACHE_LINE_SHIFT, CACHE_LINE_SIZE, is_power_of_two

#: Sentinel tag meaning "line invalid".
_INVALID = -1


@dataclass
class CacheStats:
    """Event counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    flush_lines_checked: int = 0
    flush_lines_present: int = 0
    flush_writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 if there were none)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def metrics_snapshot(self) -> Dict[str, int]:
        """Flat counter mapping for the machine's metrics registry.

        ``writebacks`` is the combined eviction + flush total (the
        number ``RunStats.cache_writebacks`` has always reported); the
        raw parts are exposed alongside it.
        """
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks + self.flush_writebacks,
            "evict_writebacks": self.writebacks,
            "flush_writebacks": self.flush_writebacks,
            "flush_lines_checked": self.flush_lines_checked,
            "flush_lines_present": self.flush_lines_present,
        }


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    #: Physical line address (paddr of line start) written back, if any.
    writeback_paddr: Optional[int] = None


class _RangeFlush:
    """``flush_range`` over a cache's batched ``flush_lines``."""

    def flush_range(
        self,
        vstart: int,
        length: int,
        translate: Callable[[int], int],
    ) -> Tuple[int, List[int]]:
        """Flush every line of ``[vstart, vstart+length)``.

        *translate* maps a virtual line address to its current physical
        line address.  Returns ``(lines_checked, dirty_paddrs)``.
        """
        if vstart % CACHE_LINE_SIZE or length % CACHE_LINE_SIZE:
            raise ValueError("flush range must be line aligned")
        vaddrs = np.arange(vstart, vstart + length, CACHE_LINE_SIZE,
                           dtype=np.int64)
        paddrs = np.array([translate(v) for v in vaddrs.tolist()],
                          dtype=np.int64)
        _present, dirty = self.flush_lines(vaddrs, paddrs)
        return len(vaddrs), paddrs[dirty].tolist()


class DirectMappedCache(_RangeFlush):
    """Direct-mapped writeback cache — the simulator fast path.

    Virtually indexed (the paper's PA8000-like configuration) by
    default; ``physically_indexed=True`` selects physical indexing,
    which the no-copy page-recoloring extension requires (recoloring
    changes a page's *physical* name to move it between cache colors).
    """

    associativity = 1

    def __init__(
        self,
        size_bytes: int = 512 << 10,
        physically_indexed: bool = False,
    ) -> None:
        if size_bytes % CACHE_LINE_SIZE:
            raise ValueError("cache size must be a multiple of the line size")
        num_sets = size_bytes // CACHE_LINE_SIZE
        if not is_power_of_two(num_sets):
            raise ValueError("number of cache sets must be a power of two")
        self.size_bytes = size_bytes
        self.num_sets = num_sets
        self.physically_indexed = physically_indexed
        self._index_mask = num_sets - 1
        # Numpy state so the vector engine can compare a whole reference
        # window against the tag array at once; mutated in place only
        # (the engine holds live views across miss handling).
        self._tags = np.full(num_sets, _INVALID, dtype=np.int64)
        self._dirty = np.zeros(num_sets, dtype=np.uint8)
        #: Mutation stamp for every *API* path that can change line
        #: residency (kernel HPT probes, flushes).  The vector engine
        #: fills lines by writing the arrays directly, so a moved stamp
        #: during miss service means some other agent polluted the cache
        #: and in-flight window predictions must be rebuilt.
        self.mutation_stamp = 0
        self.stats = CacheStats()

    def metrics_snapshot(self) -> Dict[str, int]:
        """Counters this cache registers into the metrics registry."""
        return self.stats.metrics_snapshot()

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #

    def access(self, vaddr: int, paddr: int, is_write: bool) -> AccessResult:
        """Look up (and on a miss, fill) the line for *vaddr*/*paddr*.

        Returns whether the access hit, and the physical address of any
        dirty victim line that must be written back.
        """
        idx_addr = paddr if self.physically_indexed else vaddr
        idx = (idx_addr >> CACHE_LINE_SHIFT) & self._index_mask
        tag = paddr >> CACHE_LINE_SHIFT
        stats = self.stats
        stats.accesses += 1
        if self._tags[idx] == tag:
            stats.hits += 1
            if is_write:
                self._dirty[idx] = 1
            return AccessResult(hit=True)
        stats.misses += 1
        self.mutation_stamp += 1
        writeback = None
        if self._tags[idx] != _INVALID and self._dirty[idx]:
            writeback = int(self._tags[idx]) << CACHE_LINE_SHIFT
            stats.writebacks += 1
        self._tags[idx] = tag
        self._dirty[idx] = 1 if is_write else 0
        return AccessResult(hit=False, writeback_paddr=writeback)

    def probe(self, vaddr: int, paddr: int) -> bool:
        """Return True if the line is present, with no side effects."""
        idx_addr = paddr if self.physically_indexed else vaddr
        idx = (idx_addr >> CACHE_LINE_SHIFT) & self._index_mask
        return bool(self._tags[idx] == (paddr >> CACHE_LINE_SHIFT))

    def bulk_probe(self, vaddrs: np.ndarray, paddrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`probe`: hit mask for whole address arrays.

        No side effects; the vector engine uses this shape of comparison
        (against :attr:`tag_view`) to find the first reference of a
        window that misses.
        """
        idx_addr = paddrs if self.physically_indexed else vaddrs
        idx = (idx_addr >> CACHE_LINE_SHIFT) & self._index_mask
        return self._tags[idx] == (paddrs >> CACHE_LINE_SHIFT)

    @property
    def tag_view(self) -> np.ndarray:
        """Live view of the per-set physical line tags (int64; -1 =
        invalid).  Mutating entries is the engine fill path's job."""
        return self._tags

    @property
    def dirty_view(self) -> np.ndarray:
        """Live view of the per-set dirty bits (uint8)."""
        return self._dirty

    # ------------------------------------------------------------------ #
    # Flush path (remap consistency, page cleaning)
    # ------------------------------------------------------------------ #

    def flush_line(self, vaddr: int, paddr: int) -> Tuple[bool, bool]:
        """Flush one line by virtual address.

        Returns ``(was_present, was_dirty)``.  A dirty line must be written
        back by the caller before its mapping changes.
        """
        idx_addr = paddr if self.physically_indexed else vaddr
        idx = (idx_addr >> CACHE_LINE_SHIFT) & self._index_mask
        tag = paddr >> CACHE_LINE_SHIFT
        self.stats.flush_lines_checked += 1
        if self._tags[idx] != tag:
            return False, False
        self.stats.flush_lines_present += 1
        self.mutation_stamp += 1
        dirty = bool(self._dirty[idx])
        if dirty:
            self.stats.flush_writebacks += 1
        self._tags[idx] = _INVALID
        self._dirty[idx] = 0
        return True, dirty

    def flush_lines(
        self, vaddrs: np.ndarray, paddrs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flush a batch of lines, exactly as :meth:`flush_line` would
        one at a time in array order.

        Returns ``(present, dirty)`` boolean masks; ``dirty`` is only set
        where ``present`` is.  Two entries naming the same set and tag
        (a frame aliased twice in the range) count once, at the first:
        the first flush invalidates the line the second would have found.
        Distinct tags in one set never interact, because only a line whose
        tag matches is invalidated.
        """
        idx_addr = paddrs if self.physically_indexed else vaddrs
        idx = (idx_addr >> CACHE_LINE_SHIFT) & self._index_mask
        found = self._tags[idx] == (paddrs >> CACHE_LINE_SHIFT)
        hit_sets, first = np.unique(idx[found], return_index=True)
        hits = np.flatnonzero(found)[first]
        present = np.zeros_like(found)
        present[hits] = True
        dirty = np.zeros_like(present)
        dirty[hits] = self._dirty[hit_sets] != 0
        stats = self.stats
        stats.flush_lines_checked += len(idx)
        stats.flush_lines_present += len(hits)
        stats.flush_writebacks += int(np.count_nonzero(dirty))
        self.mutation_stamp += len(hits)
        self._tags[hit_sets] = _INVALID
        self._dirty[hit_sets] = 0
        return present, dirty

    def invalidate_all(self) -> None:
        """Drop every line without writing anything back (tests only).

        Fills in place: the vector engine holds live views of the
        arrays, so they must never be reallocated.
        """
        self.mutation_stamp += 1
        self._tags.fill(_INVALID)
        self._dirty.fill(0)

    @property
    def occupancy(self) -> int:
        """Number of valid lines."""
        return int((self._tags != _INVALID).sum())


class SetAssociativeCache(_RangeFlush):
    """Generic N-way set-associative VIPT writeback cache with LRU.

    Shares the :class:`DirectMappedCache` interface.  Each set is a dict
    ordered by recency (oldest first) — that dict is the ground truth.
    For the vector engine a lazy ``(num_sets, associativity)`` int64
    *residency mirror* of the tags is kept (:meth:`ensure_mirror`): way
    order within a mirror row is arbitrary, only membership matters,
    which is exactly the predicate a pure-hit run needs (LRU reordering
    on hits never changes residency).  The mirror is patched in place on
    every residency change, and :attr:`mutation_stamp` moves with it so
    the engine can detect pollution by other agents mid-window.
    """

    def __init__(
        self,
        size_bytes: int = 512 << 10,
        associativity: int = 2,
        physically_indexed: bool = False,
    ) -> None:
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        if size_bytes % (CACHE_LINE_SIZE * associativity):
            raise ValueError("cache size not divisible into sets")
        num_sets = size_bytes // (CACHE_LINE_SIZE * associativity)
        if not is_power_of_two(num_sets):
            raise ValueError("number of cache sets must be a power of two")
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.num_sets = num_sets
        self.physically_indexed = physically_indexed
        self._index_mask = num_sets - 1
        # Each set maps physical line tag -> dirty flag; dict order is LRU
        # (first key is least recently used).
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(num_sets)]
        #: Bumped on every *residency* change (miss fill, flush of a
        #: present line, invalidation) — hits only reorder LRU state and
        #: do not move the stamp.  Same contract as the direct-mapped
        #: cache's stamp: the vector engine snapshots it per window.
        self.mutation_stamp = 0
        # Lazy (num_sets, associativity) tag plane; None until the
        # vector engine first asks for it via ensure_mirror().
        self._mirror: Optional[np.ndarray] = None
        self.stats = CacheStats()

    def ensure_mirror(self) -> np.ndarray:
        """Build (once) and return the residency mirror.

        Row *s* holds the physical line tags resident in set *s* in
        arbitrary way order, padded with ``_INVALID``.  After the first
        call the mirror is maintained incrementally and in place (the
        vector engine holds a live view across miss handling, mirroring
        the direct-mapped cache's never-reallocate rule).
        """
        if self._mirror is None:
            self._mirror = np.full(
                (self.num_sets, self.associativity), _INVALID,
                dtype=np.int64,
            )
            for idx, line_set in enumerate(self._sets):
                for way, tag in enumerate(line_set):
                    self._mirror[idx, way] = tag
        return self._mirror

    def metrics_snapshot(self) -> Dict[str, int]:
        """Counters this cache registers into the metrics registry."""
        return self.stats.metrics_snapshot()

    def access(self, vaddr: int, paddr: int, is_write: bool) -> AccessResult:
        """Look up (and on a miss, fill) the line for *vaddr*/*paddr*."""
        idx_addr = paddr if self.physically_indexed else vaddr
        idx = (idx_addr >> CACHE_LINE_SHIFT) & self._index_mask
        tag = paddr >> CACHE_LINE_SHIFT
        line_set = self._sets[idx]
        stats = self.stats
        stats.accesses += 1
        if tag in line_set:
            stats.hits += 1
            dirty = line_set.pop(tag) or is_write
            line_set[tag] = dirty
            return AccessResult(hit=True)
        stats.misses += 1
        self.mutation_stamp += 1
        writeback = None
        victim_tag = None
        if len(line_set) >= self.associativity:
            victim_tag = next(iter(line_set))
            victim_dirty = line_set.pop(victim_tag)
            if victim_dirty:
                writeback = victim_tag << CACHE_LINE_SHIFT
                stats.writebacks += 1
        line_set[tag] = is_write
        if self._mirror is not None:
            row = self._mirror[idx]
            old = _INVALID if victim_tag is None else victim_tag
            row[np.flatnonzero(row == old)[0]] = tag
        return AccessResult(hit=False, writeback_paddr=writeback)

    def probe(self, vaddr: int, paddr: int) -> bool:
        """Return True if the line is present, with no side effects."""
        idx_addr = paddr if self.physically_indexed else vaddr
        idx = (idx_addr >> CACHE_LINE_SHIFT) & self._index_mask
        return (paddr >> CACHE_LINE_SHIFT) in self._sets[idx]

    def peek_lru(self, vaddr: int, paddr: int) -> Optional[int]:
        """Tag that filling *vaddr*/*paddr* would evict, or ``None``.

        Side-effect free: ``None`` when the set still has a free way or
        when the line is already present (a hit evicts nothing).  Agents
        that keep a per-tag directory alongside the cache (the Victima
        backend's entry pool) call this before :meth:`access` to learn
        which directory entry dies with the fill.
        """
        idx_addr = paddr if self.physically_indexed else vaddr
        idx = (idx_addr >> CACHE_LINE_SHIFT) & self._index_mask
        line_set = self._sets[idx]
        if (paddr >> CACHE_LINE_SHIFT) in line_set:
            return None
        if len(line_set) < self.associativity:
            return None
        return next(iter(line_set))

    def flush_line(self, vaddr: int, paddr: int) -> Tuple[bool, bool]:
        """Flush one line by virtual address; see DirectMappedCache."""
        idx_addr = paddr if self.physically_indexed else vaddr
        idx = (idx_addr >> CACHE_LINE_SHIFT) & self._index_mask
        tag = paddr >> CACHE_LINE_SHIFT
        self.stats.flush_lines_checked += 1
        line_set = self._sets[idx]
        if tag not in line_set:
            return False, False
        self.stats.flush_lines_present += 1
        self.mutation_stamp += 1
        dirty = line_set.pop(tag)
        if dirty:
            self.stats.flush_writebacks += 1
        if self._mirror is not None:
            row = self._mirror[idx]
            row[row == tag] = _INVALID
        return True, dirty

    def flush_lines(
        self, vaddrs: np.ndarray, paddrs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flush a batch of lines; see :meth:`DirectMappedCache.flush_lines`.

        The LRU dicts are the ground truth, so each line is one dict pop
        (a repeated line finds its set already emptied of it); the
        residency mirror, if built, is patched once for all of them.
        """
        idx_addr = paddrs if self.physically_indexed else vaddrs
        idx = (idx_addr >> CACHE_LINE_SHIFT) & self._index_mask
        tags = paddrs >> CACHE_LINE_SHIFT
        present = np.zeros(len(idx), dtype=bool)
        dirty = np.zeros(len(idx), dtype=bool)
        sets = self._sets
        for i, (set_index, tag) in enumerate(
            zip(idx.tolist(), tags.tolist())
        ):
            line_set = sets[set_index]
            if tag in line_set:
                present[i] = True
                dirty[i] = line_set.pop(tag)
        hits = np.flatnonzero(present)
        stats = self.stats
        stats.flush_lines_checked += len(idx)
        stats.flush_lines_present += len(hits)
        stats.flush_writebacks += int(np.count_nonzero(dirty))
        self.mutation_stamp += len(hits)
        if self._mirror is not None and len(hits):
            rows = idx[hits]
            hit_rows, ways = np.nonzero(
                self._mirror[rows] == tags[hits][:, None]
            )
            self._mirror[rows[hit_rows], ways] = _INVALID
        return present, dirty

    def invalidate_all(self) -> None:
        """Drop every line without writing anything back (tests only)."""
        self.mutation_stamp += 1
        self._sets = [dict() for _ in range(self.num_sets)]
        if self._mirror is not None:
            self._mirror.fill(_INVALID)

    @property
    def occupancy(self) -> int:
        """Number of valid lines."""
        return sum(len(s) for s in self._sets)


def build_cache(
    size_bytes: int, associativity: int, physically_indexed: bool = False
):
    """Construct the right cache implementation for the configuration."""
    if associativity == 1:
        return DirectMappedCache(size_bytes, physically_indexed)
    return SetAssociativeCache(size_bytes, associativity,
                               physically_indexed)
