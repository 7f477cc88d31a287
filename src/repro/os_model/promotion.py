"""Online superpage promotion (paper Section 5 / Romer et al.).

The paper's experiments create superpages *statically* — the programmer
(or a modified ``sbrk``) says which regions to remap.  Section 5 notes
that an online policy in the style of Romer et al., which *promotes*
regions once their observed TLB-miss cost exceeds the promotion cost,
"would be useful in the kernel of a machine exploiting shadow memory,
although the specific parameters would need to be tweaked to reflect the
reduced cost of exploiting superpages in our design" (no page copying —
remap is a cache flush plus mapping writes).

This module implements that policy.  The kernel registers every mapped
region as a candidate; the software TLB miss handler reports each miss
that lands in a candidate; when a region's accumulated misses cross the
threshold, the engine remaps it onto shadow superpages on the spot, at
its real simulated cost.

The threshold is expressed in *misses per remapped page*, which is the
natural break-even unit: one software refill costs roughly 50-100
cycles, while remapping costs ~1400 cycles per page (the measured flush
cost) — so thresholds of a handful of misses per page already pay for
themselves on any region that keeps missing.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.addrspace import BASE_PAGE_SHIFT, SUPERPAGE_SIZES
from ..core.shadow_space import ShadowSpaceExhausted
from ..obs.tracer import PROMOTION
from .process import Process


@dataclass(frozen=True)
class PromotionConfig:
    """Online-promotion policy parameters."""

    enabled: bool = False
    #: Promote a region once it has accumulated this many TLB misses
    #: *per 4 KB page of the region* (fractional accumulation: a big
    #: region needs proportionally more misses).
    misses_per_page: float = 3.0
    #: Regions smaller than this are never promoted (can't hold even the
    #: smallest superpage after alignment, or not worth the bookkeeping).
    min_region_bytes: int = SUPERPAGE_SIZES[0]


@dataclass
class PromotionStats:
    """Activity counters for the promotion engine."""

    candidates: int = 0
    misses_observed: int = 0
    promotions: int = 0
    promoted_pages: int = 0
    promotion_cycles: int = 0
    exhaustion_failures: int = 0

    def metrics_snapshot(self) -> Dict[str, int]:
        """Flat counter mapping for the machine's metrics registry."""
        return {
            "candidates": self.candidates,
            "misses_observed": self.misses_observed,
            "promotions": self.promotions,
            "promoted_pages": self.promoted_pages,
            "promotion_cycles": self.promotion_cycles,
            "exhaustion_failures": self.exhaustion_failures,
        }


@dataclass
class _Candidate:
    """One registered region and its miss accounting."""

    process: Process
    vaddr: int
    length: int
    misses: int = 0
    dead: bool = False

    @property
    def pages(self) -> int:
        return self.length >> BASE_PAGE_SHIFT


class PromotionEngine:
    """Miss-driven promotion of base-page regions to shadow superpages."""

    def __init__(self, kernel, config: PromotionConfig) -> None:
        # The kernel owns this engine; held by weak proxy so a finished
        # kernel is freed by reference counting, not the collector.
        self.kernel = weakref.proxy(kernel)
        self.config = config
        self.stats = PromotionStats()
        self._candidates: List[_Candidate] = []
        #: (pid, vpn) -> candidate covering that page.
        self._by_vpn: Dict[Tuple[int, int], _Candidate] = {}

    # ------------------------------------------------------------------ #
    # Registration (at map time)
    # ------------------------------------------------------------------ #

    def register_region(
        self, process: Process, vaddr: int, length: int
    ) -> None:
        """Track a freshly mapped region as a promotion candidate."""
        if not self.config.enabled:
            return
        if length < self.config.min_region_bytes:
            return
        candidate = _Candidate(process=process, vaddr=vaddr, length=length)
        self._candidates.append(candidate)
        first_vpn = vaddr >> BASE_PAGE_SHIFT
        for vpn in range(first_vpn, first_vpn + candidate.pages):
            self._by_vpn[(process.pid, vpn)] = candidate
        self.stats.candidates += 1

    def forget_region(self, vaddr: int, length: int) -> None:
        """Stop tracking (unmap or manual remap made it moot).

        Applies to the kernel's *current* process.
        """
        current = self.kernel.current
        pid = current.pid if current is not None else 0
        first_vpn = vaddr >> BASE_PAGE_SHIFT
        for vpn in range(first_vpn, first_vpn + (length >> BASE_PAGE_SHIFT)):
            candidate = self._by_vpn.pop((pid, vpn), None)
            if candidate is not None:
                candidate.dead = True

    # ------------------------------------------------------------------ #
    # The hot hook (called from the TLB miss handler path)
    # ------------------------------------------------------------------ #

    def note_miss(self, vaddr: int) -> int:
        """Record one TLB miss; returns promotion cycles if it fired.

        The returned cycles are kernel time the caller must charge (the
        remap happened inside the miss trap, as a real kernel would).
        The miss is attributed to the kernel's current process.
        """
        current = self.kernel.current
        pid = current.pid if current is not None else 0
        candidate = self._by_vpn.get((pid, vaddr >> BASE_PAGE_SHIFT))
        if candidate is None or candidate.dead:
            return 0
        self.stats.misses_observed += 1
        candidate.misses += 1
        threshold = self.config.misses_per_page * candidate.pages
        if candidate.misses < threshold:
            return 0
        return self._promote(candidate)

    def _promote(self, candidate: _Candidate) -> int:
        candidate.dead = True
        pid = candidate.process.pid
        first_vpn = candidate.vaddr >> BASE_PAGE_SHIFT
        for vpn in range(first_vpn, first_vpn + candidate.pages):
            self._by_vpn.pop((pid, vpn), None)
        try:
            report = self.kernel.vm.remap_to_shadow(
                candidate.process, candidate.vaddr, candidate.length
            )
        except ShadowSpaceExhausted:
            # degradation_policy="abort": the remap refuses outright.
            self.stats.exhaustion_failures += 1
            return 0
        if report.superpages_created == 0:
            # degradation_policy="demote": graceful degradation left the
            # whole region on base pages — promotion achieved nothing.
            self.stats.exhaustion_failures += 1
            return report.total_cycles
        self.stats.promotions += 1
        self.stats.promoted_pages += report.pages_remapped
        self.stats.promotion_cycles += report.total_cycles
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.emit(
                PROMOTION, report.pages_remapped, report.total_cycles
            )
        return report.total_cycles

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def live_candidates(self) -> int:
        """Number of regions still waiting to cross the threshold."""
        return sum(1 for c in self._candidates if not c.dead)
