"""The :class:`TranslationBackend` protocol (DESIGN.md §16).

A *translation backend* owns everything between a CPU TLB miss and the
installed :class:`~repro.cpu.tlb.TlbEntry`: the intermediate translation
structures (shadow table + MTLB, range-coalescing state, a cache-resident
entry pool, ...), the miss/refill path, the kernel hooks its structures
need (promotion/demotion, remap shootdowns), and the metrics sources it
reports.  :class:`~repro.sim.system.System` speaks only this protocol —
it never special-cases a backend — which is what lets every workload,
engine policy, fault plan, and sweep multiply across backends.

Lifecycle (one backend instance per :class:`System`, built by
``System.__init__`` from the registry in :mod:`repro.core.backends`):

1. ``validate(config)`` (classmethod) — reject impossible knob
   combinations at :class:`~repro.sim.config.SystemConfig` construction
   time, before any machine exists.
2. ``build_parts(system)`` — construct the backend's translation
   structures; the returned :class:`BackendParts` is wired into the MMC
   and kernel exactly where the legacy MTLB block used to be.
3. ``attach(system)`` — late wiring once the TLB, miss handler, and
   kernel all exist.
4. ``refill_tlb(system, vaddr, kernel_access)`` — the
   software-visible miss path; both engines call it for every CPU TLB
   miss.
5. ``on_shootdown(system, vstart, length)`` — the kernel unmapped or
   remapped a virtual range; drop any backend state naming it.
6. ``register_metrics(system)`` / ``reach_bytes(system)`` — the
   metrics-source contract: counters land in the machine's registry,
   reach feeds the cross-backend figure (``repro-bench backends``).
7. ``sanitize(system, where)`` — backend-owned invariants, run by the
   sanitizer suite at every segment/event boundary when enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

if TYPE_CHECKING:
    from ..mtlb import Mtlb
    from ..shadow_space import BucketShadowAllocator
    from ..shadow_table import ShadowPageTable
    from ...cpu.tlb import TlbEntry
    from ...sim.system import System


@dataclass
class BackendParts:
    """Structures a backend contributes to machine construction.

    All three are None for backends that keep their state private (the
    coalesced and Victima backends); the MTLB backend returns the
    paper's shadow table + MTLB + shadow-space allocator, which the
    System wires into the MMC and kernel exactly as it always has.
    """

    shadow_table: Optional["ShadowPageTable"] = None
    mtlb: Optional["Mtlb"] = None
    shadow_allocator: Optional["BucketShadowAllocator"] = None


def require_conventional(config, name: str) -> None:
    """Reject shadow-machine knobs for backends that own no shadow
    structures (coalesced, victima): under them the MMC decodes no
    shadow window and the kernel runs the conventional path only."""
    if config.mtlb.enabled:
        raise ValueError(
            f"backend {name!r} owns the translation path; disable "
            "the MTLB (mtlb.enabled=False) to use it"
        )
    if config.use_superpages:
        raise ValueError(
            f"backend {name!r} has no shadow superpages; "
            "use_superpages requires backend='mtlb'"
        )
    if config.promotion.enabled:
        raise ValueError(
            f"backend {name!r} has no promotion engine; online "
            "promotion requires backend='mtlb'"
        )
    if config.all_shadow:
        raise ValueError(
            f"backend {name!r} decodes no shadow window; all-shadow "
            "mode requires backend='mtlb'"
        )
    if config.stream_buffers.enabled:
        raise ValueError(
            f"backend {name!r} has no MMC retranslation for stream "
            "buffers to sit behind; they require backend='mtlb'"
        )


class TranslationBackend:
    """Base class every registered translation backend extends.

    Subclasses override the hooks they need; the defaults are the
    no-structure, no-op behaviour a minimal backend (plain per-page
    software refill) would want.  ``refill_tlb`` has no default — the
    miss path is the one thing every backend must define.
    """

    #: Registry key (``SystemConfig.backend`` value).
    name: str = ""

    def __init__(self, config) -> None:
        self.config = config

    # -- config-time ---------------------------------------------------- #

    @classmethod
    def validate(cls, config) -> None:
        """Raise ``ValueError`` on knob combinations this backend cannot
        run.  Called from ``SystemConfig.__post_init__``."""

    @classmethod
    def vector_config_supported(cls, config) -> Tuple[bool, str]:
        """Can the vector engine batch a machine built for *config*?

        ``(ok, reason)``; the reason is surfaced by ``engine='auto'``
        resolution banners and by ``validate_spec`` rejections of
        ``engine='vector'`` requests.
        """
        del config
        return True, ""

    # -- build-time ----------------------------------------------------- #

    def build_parts(self, system: "System") -> BackendParts:
        """Construct the backend's translation structures.

        Called early in ``System.__init__`` — the DRAM, bus, and fault
        plan exist; the MMC, cache, TLB, and kernel do not yet.
        """
        del system
        return BackendParts()

    def attach(self, system: "System") -> None:
        """Late wiring once the whole machine is assembled."""
        del system

    # -- run-time ------------------------------------------------------- #

    def refill_tlb(
        self,
        system: "System",
        vaddr: int,
        kernel_access: Callable[[int, bool], int],
    ):
        """Service one CPU TLB miss; returns ``(entry, cycles)``.

        Must insert the entry into ``system.tlb`` and emit the
        ``TLB_MISS`` trace event (when tracing) — both engines treat
        this as the complete software miss path.  The miss handler's
        hashed-page-table loads and installs go through
        *kernel_access* — ``System._kernel_access`` unless the vector
        engine's deferred span is recording them instead.
        """
        raise NotImplementedError

    def on_shootdown(
        self, system: "System", vstart: int, length: int
    ) -> None:
        """The kernel purged ``[vstart, vstart+length)`` from the CPU
        TLB (remap, unmap, demotion).  Drop backend state naming it."""
        del system, vstart, length

    # -- metrics / checking --------------------------------------------- #

    def register_metrics(self, system: "System") -> None:
        """Register backend-owned sources with ``system.metrics``."""
        del system

    def reach_bytes(self, system: "System") -> int:
        """Bytes of address space reachable without a software refill
        (the cross-backend figure's reach metric).  The baseline is the
        CPU TLB's resident reach; backends with a second-level entry
        pool add whatever that pool can serve."""
        return system.tlb.reach

    def sanitize(self, system: "System", where: str) -> None:
        """Backend-owned invariant checks (read-only); raise
        :class:`~repro.errors.InvariantViolation` on the first break."""
        del system, where
