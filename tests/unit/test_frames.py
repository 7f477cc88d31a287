"""Unit and property tests for the physical frame allocator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.os_model.frames import FrameAllocator, OutOfMemory, frames_for_bytes


class TestBasics:
    def test_allocate_free_roundtrip(self):
        alloc = FrameAllocator(100, 10, fragmentation="none")
        pfn = alloc.allocate()
        assert 100 <= pfn < 110
        assert alloc.free_frames == 9
        alloc.free(pfn)
        assert alloc.free_frames == 10

    def test_exhaustion(self):
        alloc = FrameAllocator(0, 2, fragmentation="none")
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(OutOfMemory):
            alloc.allocate()

    def test_double_free_rejected(self):
        alloc = FrameAllocator(0, 4, fragmentation="none")
        pfn = alloc.allocate()
        alloc.free(pfn)
        with pytest.raises(ValueError):
            alloc.free(pfn)

    def test_foreign_frame_rejected(self):
        alloc = FrameAllocator(100, 4, fragmentation="none")
        with pytest.raises(ValueError):
            alloc.free(50)

    def test_allocate_many(self):
        alloc = FrameAllocator(0, 8, fragmentation="none")
        frames = alloc.allocate_many(5)
        assert len(set(frames)) == 5
        with pytest.raises(OutOfMemory):
            alloc.allocate_many(4)

    def test_shuffled_order_differs(self):
        sequential = FrameAllocator(0, 256, fragmentation="none")
        shuffled = FrameAllocator(0, 256, fragmentation="shuffled", seed=3)
        seq = [sequential.allocate() for _ in range(32)]
        shf = [shuffled.allocate() for _ in range(32)]
        assert seq != shf
        assert sorted(seq) == seq

    def test_frame_addr_helpers(self):
        assert FrameAllocator.frame_paddr(3) == 3 * 4096
        assert FrameAllocator.paddr_frame(0x5123) == 5
        assert frames_for_bytes(1) == 1
        assert frames_for_bytes(4096) == 1
        assert frames_for_bytes(4097) == 2


class TestContiguous:
    def test_success_when_unfragmented(self):
        alloc = FrameAllocator(0, 64, fragmentation="none")
        pfn = alloc.allocate_contiguous(16, align_frames=16)
        assert pfn % 16 == 0
        assert alloc.free_frames == 48

    def test_alignment_respected(self):
        alloc = FrameAllocator(4, 64, fragmentation="none")
        pfn = alloc.allocate_contiguous(4, align_frames=4)
        assert pfn % 4 == 0

    def test_checkerboard_defeats_contiguity(self):
        alloc = FrameAllocator(0, 64, fragmentation="checkerboard")
        with pytest.raises(OutOfMemory):
            alloc.allocate_contiguous(2)
        # Single frames still work.
        assert alloc.allocate() is not None

    def test_aged_defeats_large_runs(self):
        alloc = FrameAllocator(0, 4096, fragmentation="aged", seed=1)
        with pytest.raises(OutOfMemory):
            alloc.allocate_contiguous(64, align_frames=64)
        assert alloc.stats.contiguous_failures == 1

    def test_largest_free_run(self):
        alloc = FrameAllocator(0, 8, fragmentation="none")
        assert alloc.largest_free_run() == 8
        # Poke a hole in the middle.
        frames = alloc.allocate_many(8)
        for pfn in frames:
            if pfn != 3:
                alloc.free(pfn)
        assert alloc.largest_free_run() == 4

    def test_contiguous_marks_frames_used(self):
        alloc = FrameAllocator(0, 32, fragmentation="none")
        pfn = alloc.allocate_contiguous(8, align_frames=8)
        taken = set(range(pfn, pfn + 8))
        rest = {alloc.allocate() for _ in range(24)}
        assert taken.isdisjoint(rest)


MODES = ["none", "shuffled", "aged", "checkerboard"]


def _uncached_hand_out_order(first_frame, frame_count, fragmentation, seed):
    """The order a fresh allocator hands frames out in, computed from
    scratch (no per-process cache involved)."""
    frames = list(range(first_frame, first_frame + frame_count))
    if fragmentation == "shuffled":
        random.Random(seed).shuffle(frames)
    elif fragmentation == "aged":
        rng = random.Random(seed)
        frames = [f for f in frames if rng.random() < 0.5]
        rng.shuffle(frames)
    elif fragmentation == "checkerboard":
        frames = [f for f in frames if (f - first_frame) % 2 == 0]
    return frames


class TestFrameOrderCache:
    """The initial free list is computed once per process and shared."""

    @pytest.mark.parametrize("mode", MODES)
    def test_order_equals_uncached_reference(self, mode):
        expected = _uncached_hand_out_order(7, 300, mode, 41)
        for _ in range(2):  # the second build reads the cache
            alloc = FrameAllocator(7, 300, fragmentation=mode, seed=41)
            assert [alloc.allocate() for _ in expected] == expected
            with pytest.raises(OutOfMemory):
                alloc.allocate()

    @pytest.mark.parametrize("mode", MODES)
    def test_allocators_from_one_key_are_independent(self, mode):
        first = FrameAllocator(0, 64, fragmentation=mode, seed=9)
        second = FrameAllocator(0, 64, fragmentation=mode, seed=9)
        expected = _uncached_hand_out_order(0, 64, mode, 9)
        taken = first.allocate_many(len(expected) // 2)
        first.free(taken[0])
        first.allocate_contiguous(1)
        assert second.free_frames == len(expected)
        assert [second.allocate() for _ in expected] == expected
        third = FrameAllocator(0, 64, fragmentation=mode, seed=9)
        assert [third.allocate() for _ in expected] == expected

    def test_seed_is_part_of_the_key(self):
        a = FrameAllocator(0, 256, fragmentation="shuffled", seed=1)
        b = FrameAllocator(0, 256, fragmentation="shuffled", seed=2)
        assert [a.allocate() for _ in range(16)] != [
            b.allocate() for _ in range(16)
        ]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.booleans(), min_size=1, max_size=200),
    st.sampled_from(["none", "shuffled", "aged", "checkerboard"]),
)
def test_conservation(ops, mode):
    """Alternating allocate/free never duplicates or loses frames."""
    alloc = FrameAllocator(10, 128, fragmentation=mode, seed=5)
    initial_free = alloc.free_frames
    live = []
    for do_alloc in ops:
        if do_alloc:
            try:
                live.append(alloc.allocate())
            except OutOfMemory:
                pass
        elif live:
            alloc.free(live.pop())
    assert len(set(live)) == len(live)
    assert alloc.free_frames + len(live) == initial_free
    for pfn in live:
        alloc.free(pfn)
    assert alloc.free_frames == initial_free
