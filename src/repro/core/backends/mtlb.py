"""The paper's translation backend: MTLB + shadow table + promotion.

This is the pre-refactor translation path extracted behind the
:class:`~repro.core.backends.base.TranslationBackend` protocol,
**bit-identical** to the inline code it replaced: the same structures
are built under the same conditions, the refill path is the same
statement sequence, and the ``mtlb`` metrics source registers under the
same name — pinned by the backend-equivalence suite
(``tests/integration/test_backend_equivalence.py``) and the store
fingerprints of every pre-existing scenario.

The backend covers the whole MTLB *family*: ``MtlbConfig.enabled``
selects between the conventional baseline (no shadow window decoded)
and the shadow-superpage machine, exactly as before — which is why
``backend="mtlb"`` is the default for every config ever written.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .base import BackendParts, TranslationBackend
from ..addrspace import BASE_PAGE_SIZE
from ..mtlb import Mtlb
from ..shadow_space import BucketShadowAllocator
from ..shadow_table import ShadowPageTable
from ...cpu.miss_handler import PageFault
from ...errors import SimulationError
from ...obs.tracer import TLB_MISS

if TYPE_CHECKING:
    from ...sim.system import System


class MtlbBackend(TranslationBackend):
    """Shadow superpages through a memory-controller TLB (ISCA 1998)."""

    name = "mtlb"

    @classmethod
    def validate(cls, config) -> None:
        if config.use_superpages and not config.mtlb.enabled:
            raise ValueError(
                "use_superpages requires an enabled MTLB "
                "(conventional superpages go through "
                "VmSubsystem.map_region_conventional_superpages)"
            )
        if config.promotion.enabled and not config.mtlb.enabled:
            raise ValueError("online promotion requires an enabled MTLB")
        if config.all_shadow and not config.mtlb.enabled:
            raise ValueError("all-shadow mode requires an enabled MTLB")
        if config.all_shadow and config.use_superpages:
            raise ValueError(
                "all-shadow base mappings cannot be promoted in place; "
                "run all-shadow with use_superpages=False"
            )

    def build_parts(self, system: "System") -> BackendParts:
        config = self.config
        if not config.mtlb.enabled:
            return BackendParts()
        shadow_table = ShadowPageTable(config.memory_map, table_base=0)
        return BackendParts(
            shadow_table=shadow_table,
            mtlb=Mtlb(
                shadow_table,
                entries=config.mtlb.entries,
                associativity=config.mtlb.associativity,
                fault_plan=system.fault_plan,
            ),
            shadow_allocator=BucketShadowAllocator(config.memory_map),
        )

    def refill_tlb(
        self,
        system: "System",
        vaddr: int,
        kernel_access: Callable[[int, bool], int],
    ):
        """Software TLB refill; returns (entry, handler cycles).

        With online promotion enabled, a miss on a base-page mapping may
        trigger the kernel to remap the whole region onto a shadow
        superpage inside the trap; the refill is then retried against
        the new mapping (both passes are charged).
        """
        try:
            result = system.miss_handler.handle(
                vaddr, kernel_access
            )
        except PageFault as exc:
            raise SimulationError(
                f"unexpected page fault at {exc.vaddr:#010x}: workload "
                "traces must map every region they touch"
            ) from exc
        cycles = result.cycles
        if (
            system.config.promotion.enabled
            and result.entry.size == BASE_PAGE_SIZE
        ):
            promoted = system.kernel.promotion.note_miss(vaddr)
            if promoted:
                system.stats.kernel_cycles += promoted
                result = system.miss_handler.handle(
                    vaddr, kernel_access
                )
                cycles += result.cycles
        system.tlb.insert(result.entry)
        if system._tracer is not None:
            system._tracer.emit(TLB_MISS, vaddr, cycles)
        return result.entry, cycles

    def register_metrics(self, system: "System") -> None:
        if system.mtlb is not None:
            system.metrics.add_source(
                "mtlb", lambda: system.mtlb.metrics_snapshot()
            )
