"""Physical page-frame allocation.

The point of shadow-backed superpages is that the OS does *not* need
physically contiguous, aligned frames.  To make that benefit measurable,
this allocator can hand out frames in deliberately scattered order
(as happens naturally on a system that has been paging for a while), and
it also implements the contiguous aligned allocation a *conventional*
superpage system would need — which fails under fragmentation, giving the
baseline for ablation A1.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import List, Set, Tuple

from ..core.addrspace import BASE_PAGE_SHIFT, BASE_PAGE_SIZE


@functools.lru_cache(maxsize=8)
def _free_order(
    first_frame: int, frame_count: int, fragmentation: str, seed: int
) -> Tuple[int, ...]:
    """The initial free list of an allocator, last frame to hand out
    first.

    Deterministic in its arguments, so it is computed once per process
    and shared (as an immutable tuple) by every allocator built with
    the same arguments; each allocator copies it into its own list.
    """
    frames = list(range(first_frame, first_frame + frame_count))
    if fragmentation == "none":
        free_list = frames
    elif fragmentation == "shuffled":
        rng = random.Random(seed)
        rng.shuffle(frames)
        free_list = frames
    elif fragmentation == "aged":
        rng = random.Random(seed)
        free_list = [f for f in frames if rng.random() < 0.5]
        rng.shuffle(free_list)
    elif fragmentation == "checkerboard":
        free_list = [f for f in frames if (f - first_frame) % 2 == 0]
    else:
        raise ValueError(f"unknown fragmentation mode {fragmentation!r}")
    return tuple(reversed(free_list))


class OutOfMemory(Exception):
    """No free physical frames satisfy the request."""


@dataclass
class FrameStats:
    """Allocation counters."""

    allocated: int = 0
    freed: int = 0
    contiguous_requests: int = 0
    contiguous_failures: int = 0


class FrameAllocator:
    """Allocator over the user-visible portion of installed DRAM.

    *fragmentation* controls the order frames are handed out in:

    * ``"none"`` — ascending order (a freshly booted machine);
    * ``"shuffled"`` — a seeded random permutation (a machine that has
      been running for a while; the common case the paper targets);
    * ``"aged"`` — like shuffled, but a random half of all frames is
      already in use by other processes, so long aligned runs of free
      frames are vanishingly rare;
    * ``"checkerboard"`` — alternate frames are pre-reserved, so no two
      free frames are ever adjacent (worst case for conventional
      superpages, harmless for shadow-backed ones).
    """

    def __init__(
        self,
        first_frame: int,
        frame_count: int,
        fragmentation: str = "shuffled",
        seed: int = 1998,
    ) -> None:
        if frame_count <= 0:
            raise ValueError("frame_count must be positive")
        self.first_frame = first_frame
        self.frame_count = frame_count
        self.fragmentation = fragmentation
        order = _free_order(first_frame, frame_count, fragmentation, seed)
        # Pop from the end: the order is stored reversed.
        self._free: List[int] = list(order)
        self._free_set: Set[int] = set(order)
        self.stats = FrameStats()

    @property
    def free_frames(self) -> int:
        """Number of currently free frames."""
        return len(self._free)

    def allocate(self) -> int:
        """Allocate one frame; returns its frame number (PFN)."""
        if not self._free:
            raise OutOfMemory("no free physical frames")
        pfn = self._free.pop()
        self._free_set.discard(pfn)
        self.stats.allocated += 1
        return pfn

    def allocate_many(self, count: int) -> List[int]:
        """Allocate *count* frames (not necessarily contiguous)."""
        if count > len(self._free):
            raise OutOfMemory(
                f"requested {count} frames, only {len(self._free)} free"
            )
        return [self.allocate() for _ in range(count)]

    def allocate_contiguous(self, count: int, align_frames: int = 1) -> int:
        """Allocate *count* contiguous frames aligned to *align_frames*.

        This is what a conventional superpage needs.  Returns the first
        PFN.  Raises :class:`OutOfMemory` when fragmentation leaves no
        suitable run — the failure mode shadow superpages eliminate.
        """
        self.stats.contiguous_requests += 1
        free_set = self._free_set
        start = self.first_frame
        if start % align_frames:
            start += align_frames - (start % align_frames)
        limit = self.first_frame + self.frame_count - count
        pfn = start
        while pfn <= limit:
            if all((pfn + k) in free_set for k in range(count)):
                for k in range(count):
                    frame = pfn + k
                    free_set.discard(frame)
                    self._free.remove(frame)
                self.stats.allocated += count
                return pfn
            pfn += align_frames
        self.stats.contiguous_failures += 1
        raise OutOfMemory(
            f"no aligned run of {count} contiguous frames available"
        )

    def free(self, pfn: int) -> None:
        """Return one frame to the allocator."""
        if pfn in self._free_set:
            raise ValueError(f"frame {pfn:#x} is already free")
        if not (
            self.first_frame <= pfn < self.first_frame + self.frame_count
        ):
            raise ValueError(f"frame {pfn:#x} is outside this allocator")
        self._free.append(pfn)
        self._free_set.add(pfn)
        self.stats.freed += 1

    @staticmethod
    def frame_paddr(pfn: int) -> int:
        """Physical address of the start of frame *pfn*."""
        return pfn << BASE_PAGE_SHIFT

    @staticmethod
    def paddr_frame(paddr: int) -> int:
        """Frame number containing physical address *paddr*."""
        return paddr >> BASE_PAGE_SHIFT

    def largest_free_run(self) -> int:
        """Length (in frames) of the longest free contiguous run.

        A direct fragmentation metric used by the ablation benches.
        """
        if not self._free_set:
            return 0
        best = 0
        run = 0
        for pfn in range(self.first_frame, self.first_frame + self.frame_count):
            if pfn in self._free_set:
                run += 1
                best = max(best, run)
            else:
                run = 0
        return best


def frames_for_bytes(length: int) -> int:
    """Number of base-page frames needed to back *length* bytes."""
    return (length + BASE_PAGE_SIZE - 1) >> BASE_PAGE_SHIFT
