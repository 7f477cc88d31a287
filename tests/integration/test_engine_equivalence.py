"""Golden scalar-vs-vector engine equivalence (DESIGN.md §10).

The vector fast-forward engine's contract is *bit-identity*: every
``RunStats`` field and every derived metric must equal the scalar
engine's on every workload and every batchable configuration — the
engines may only differ in wall-clock time.  These tests are the
contract's enforcement:

* a golden run of all five paper workloads at the quick (CI) scales,
  mixing no-MTLB, MTLB, and online-promotion configurations, plus
  conventional vortex — the dense conventional machine whose TLB-miss
  storms run the vector engine's deferred-cache span;
* a targeted deferred-span machine (tiny TLB, physically indexed
  cache, hashed-page-table installs inside the span) compared on every
  counter the span touches, with a spy proving the span ran;
* batched MTLB retirement: vortex/gcc/em3d MTLB cells compared on
  RunStats and the full registry with a spy proving the batched pass
  ran, a page-out whose next window must decline untouched, and a
  mixed DRAM/shadow/table-fetch stream checked against the per-miss
  fused closures;
* hypothesis-sampled machine geometries at tiny scales, so geometry
  corners (tiny TLBs, fully associative MTLBs) are exercised too;
* the policy surface: ``engine="vector"`` on an unbatchable machine
  must refuse at build time, and ``engine="auto"`` must fall back to
  scalar instead.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine
from repro.bench import BenchContext
from repro.core.addrspace import BASE_PAGE_SIZE
from repro.cpu.tlb import TlbEntry
from repro.errors import SimulationError
from repro.faults import FaultConfig
from repro.obs import stats_metrics
from repro.sim.config import (
    CacheConfig,
    SystemConfig,
    paper_mtlb,
    paper_no_mtlb,
    paper_promotion,
)
from repro.mem.mmc import BadPhysicalAddress
from repro.sim.engine import (
    _deferred_span,
    _mtlb_pass,
    _scalar_span,
    _self_consistent_hits,
    _vector_miss_retire,
    resolve_engine,
    vector_supported,
)
from repro.sim.system import System
from repro.trace import synth
from repro.trace.events import MapConventional, MapRegion, Remap
from repro.trace.trace import Trace, make_segment
from repro.workloads import PAPER_SUITE

#: One configuration per workload, covering both sides of the Figure 3
#: matrix and all three CPU TLB sizes.
GOLDEN_CONFIGS = {
    "compress95": paper_no_mtlb(64),
    "vortex": paper_mtlb(96),
    "radix": paper_no_mtlb(128),
    "em3d": paper_mtlb(64),
    "gcc": paper_mtlb(128),
}

TINY_SCALES = {name: 0.02 for name in PAPER_SUITE}


@pytest.fixture(scope="module")
def quick_ctx(tmp_path_factory):
    return BenchContext(
        quick=True, cache_dir=tmp_path_factory.mktemp("traces")
    )


@pytest.fixture(scope="module")
def tiny_ctx(tmp_path_factory):
    return BenchContext(
        quick=True,
        scales=TINY_SCALES,
        cache_dir=tmp_path_factory.mktemp("tiny_traces"),
    )


def assert_bit_identical(ctx, workload, config):
    scalar = ctx.run(
        workload, dataclasses.replace(config, engine="scalar")
    )
    vector = ctx.run(
        workload, dataclasses.replace(config, engine="vector")
    )
    assert dataclasses.asdict(scalar.stats) == dataclasses.asdict(
        vector.stats
    )
    assert stats_metrics(scalar.stats) == stats_metrics(vector.stats)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("workload", PAPER_SUITE)
    def test_workload_bit_identical_at_quick_scale(
        self, quick_ctx, workload
    ):
        assert_bit_identical(
            quick_ctx, workload, GOLDEN_CONFIGS[workload]
        )

    @pytest.mark.parametrize("tlb", [64, 96])
    def test_conventional_vortex_bit_identical(self, quick_ctx, tlb):
        """Vortex misses the TLB every ~20 references, so on a machine
        with no MTLB most of it retires through deferred spans."""
        assert_bit_identical(quick_ctx, "vortex", paper_no_mtlb(tlb))

    def test_promotion_config_bit_identical(self, tiny_ctx):
        assert_bit_identical(tiny_ctx, "em3d", paper_promotion())


REGION = 0x0200_0000
REGION_LEN = 1024 * BASE_PAGE_SIZE
#: 16 KB- but not 64 KB-aligned, so the conventional superpages come in
#: mixed sizes; their HPT entries are installed on first touch.
SUPER = 0x0410_4000
SUPER_LEN = (1 << 20) + (48 << 10)


def deferred_trace():
    """A warm-up segment that drives a tiny TLB into the dense-phase
    escape, then a mixed segment whose first touches of conventional
    superpages do HPT segment walks (installs) mid-span."""
    rng = np.random.default_rng(7)
    n = 12000
    trace = Trace("deferred")
    trace.add(MapRegion(REGION, REGION_LEN))
    trace.add(MapConventional(SUPER, SUPER_LEN))
    warm = synth.uniform_random(rng, REGION, REGION_LEN, n)
    trace.add(
        make_segment("warm", warm, write_mask=rng.random(n) < 0.3, gap=2)
    )
    mixed = np.where(
        rng.random(n) < 0.5,
        synth.uniform_random(rng, REGION, REGION_LEN, n),
        synth.uniform_random(rng, SUPER, SUPER_LEN, n),
    )
    trace.add(
        make_segment("mixed", mixed, write_mask=rng.random(n) < 0.3, gap=1)
    )
    return trace


class TestDeferredSpan:
    def test_hpt_installs_inside_span_identical(self, monkeypatch):
        walks_in_spans = []

        def spy(system, *args):
            before = system.miss_handler.stats.segment_walks
            acc = _deferred_span(system, *args)
            walks_in_spans.append(
                system.miss_handler.stats.segment_walks - before
            )
            return acc

        monkeypatch.setattr(engine, "_deferred_span", spy)
        config = dataclasses.replace(
            paper_no_mtlb(8),
            cache=CacheConfig(physically_indexed=True),
        )
        trace = deferred_trace()
        seen = {}
        for name in ("scalar", "vector"):
            system = System(dataclasses.replace(config, engine=name))
            result = system.run(trace)
            metrics = system.metrics.collect()
            # The one registry value that names the engine by design.
            del metrics["sim.engine_resolved"]
            seen[name] = (
                dataclasses.asdict(result.stats),
                metrics,
                dataclasses.asdict(system.miss_handler.stats),
                dataclasses.asdict(system.kernel.hpt.stats),
                system.cache.mutation_stamp,
            )
        assert walks_in_spans and sum(walks_in_spans) > 0
        assert seen["scalar"] == seen["vector"]

    def test_miss_retire_kernel_split_sums_to_total(self):
        rng = np.random.default_rng(3)
        t = 4000
        paddr = rng.integers(0, 1 << 22, t, dtype=np.int64) & ~31
        store = rng.random(t) < 0.4
        kernel = rng.random(t) < 0.2
        results = []
        for mask in (None, kernel):
            system = System(paper_no_mtlb(64))
            cache = system.cache
            line_idx = (paddr >> 5) & cache._index_mask
            hit, order, li_s, tag_s, prev_tag, first = (
                _self_consistent_hits(cache._tags, line_idx, paddr >> 5)
            )
            split = _vector_miss_retire(
                system, cache._tags, cache._dirty, order, li_s, tag_s,
                prev_tag, first, store, np.flatnonzero(~hit), paddr, mask,
            )
            results.append((split, dataclasses.asdict(system.stats)))
        (total, kernel_none), stats_plain = results[0]
        (user, kernel_share), stats_split = results[1]
        assert kernel_none == 0
        assert 0 < kernel_share < total
        assert user + kernel_share == total
        assert stats_plain == stats_split

    def test_fill_outside_dram_raises_like_scalar(self):
        dram = paper_no_mtlb(8).memory_map.dram_size
        vaddrs = REGION + 64 * np.arange(200, dtype=np.int64) % 4096
        seg = make_segment("bad", vaddrs, gap=0)
        raised = []
        for span in ("scalar", "deferred"):
            system = System(paper_no_mtlb(8))
            system.tlb.insert(
                TlbEntry(vbase=REGION, pbase=dram, size=BASE_PAGE_SIZE)
            )
            with pytest.raises(BadPhysicalAddress) as exc:
                if span == "scalar":
                    _scalar_span(system, seg, 0, seg.refs, 0, 0, 0, 0, 0, 0)
                else:
                    _deferred_span(
                        system, seg, 0, seg.refs,
                        np.cumsum(seg.gaps, dtype=np.int64), 0, 0, 0, 0, 0,
                    )
            raised.append(exc.value.paddr)
        assert raised[0] == raised[1] == dram


#: A 256 KB region remapped onto one shadow-backed superpage.
SHADOW_PAGES = 64
SHADOW_LEN = SHADOW_PAGES * BASE_PAGE_SIZE


def registry(result):
    """The run's full metrics registry minus the one value that names
    the engine by design."""
    metrics = dict(result.metrics)
    del metrics["sim.engine_resolved"]
    return metrics


def machine_state(system):
    """Everything a declined batch retirement must leave untouched."""
    mmc = system.mmc
    return (
        system.cache._tags.copy(),
        system.cache._dirty.copy(),
        list(mmc.dram._open_rows),
        [
            [
                (k, w.pfn, w.valid, w.nru_referenced, w.ref_written,
                 w.dirty_written)
                for k, w in ways.items()
            ]
            for ways in mmc.mtlb._sets
        ],
        mmc.shadow_table._entries.copy(),
        [
            dataclasses.asdict(c.stats)
            for c in (system, system.cache, system.bus, mmc, mmc.dram,
                      mmc.mtlb)
        ],
    )


def states_equal(a, b):
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b)
    )


class TestBatchedMtlbRetire:
    """MTLB machines retire a window's shadow-backed fills and
    writebacks in one pass (:func:`_vector_miss_retire` driving
    :func:`_mtlb_pass`) and must stay bit-identical to scalar."""

    @pytest.fixture
    def batched(self, monkeypatch):
        """Spy: the MTLB accesses the batched pass retired."""
        seen = []

        def spy(mtlb, si, *args):
            seen.append(len(si))
            return _mtlb_pass(mtlb, si, *args)

        monkeypatch.setattr(engine, "_mtlb_pass", spy)
        return seen

    @pytest.mark.parametrize("tlb", [64, 96, 128])
    @pytest.mark.parametrize("workload", ["vortex", "gcc"])
    def test_paper_mtlb_bit_identical(
        self, quick_ctx, batched, workload, tlb
    ):
        config = paper_mtlb(tlb)
        scalar = quick_ctx.run(
            workload, dataclasses.replace(config, engine="scalar")
        )
        assert not batched
        vector = quick_ctx.run(
            workload, dataclasses.replace(config, engine="vector")
        )
        assert dataclasses.asdict(scalar.stats) == dataclasses.asdict(
            vector.stats
        )
        assert registry(scalar) == registry(vector)
        # The batched pass carried most of the MTLB traffic; a retire
        # that always declined would leave it at zero.
        assert sum(batched) > vector.stats.mtlb_lookups // 2

    @pytest.mark.parametrize(
        "mtlb_entries,assoc", [(512, 0), (256, 4)], ids=["512full", "2564w"]
    )
    def test_em3d_figure4_geometry_bit_identical(
        self, quick_ctx, batched, mtlb_entries, assoc
    ):
        config = paper_mtlb(128, mtlb_entries, assoc)
        results = [
            quick_ctx.run(
                "em3d", dataclasses.replace(config, engine=name)
            )
            for name in ("scalar", "vector")
        ]
        assert dataclasses.asdict(results[0].stats) == dataclasses.asdict(
            results[1].stats
        )
        assert registry(results[0]) == registry(results[1])
        assert sum(batched) > 0

    def test_paged_out_page_declines_then_faults_identically(
        self, monkeypatch
    ):
        """A base page paged out between segments: the next window
        touching it declines with nothing mutated, the sequential path
        takes the MTLB fault and pages it back in, and both engines
        end identical."""
        rng = np.random.default_rng(11)
        lines = REGION + 32 * rng.integers(0, SHADOW_LEN // 32, 6000)
        # The second segment opens on the page that gets paged out.
        page3 = REGION + 3 * BASE_PAGE_SIZE + 32 * np.arange(8)
        again = np.concatenate([page3, lines])
        trace = Trace("pageout")
        trace.add(MapRegion(REGION, SHADOW_LEN))
        trace.add(Remap(REGION, SHADOW_LEN))
        for label, vaddrs in (("warm", lines), ("again", again)):
            stores = rng.random(vaddrs.size) < 0.3
            trace.add(make_segment(label, vaddrs, write_mask=stores))

        def page_out(system, seg):
            if seg.label == "warm":
                process = system.kernel.current
                record = system.kernel.vm.superpage_record(
                    process.page_table.lookup(REGION).pbase
                )
                system.kernel.pager.page_out(record, 3)

        declined = []

        def spy(system, *args):
            before = machine_state(system)
            split = _vector_miss_retire(system, *args)
            if split is None:
                declined.append(states_equal(before, machine_state(system)))
            return split

        monkeypatch.setattr(engine, "_vector_miss_retire", spy)
        seen = {}
        for name in ("scalar", "vector"):
            system = System(dataclasses.replace(paper_mtlb(96), engine=name))
            system.check_hook = page_out
            result = system.run(trace)
            assert system.kernel.pager.stats.pages_in == 1
            seen[name] = (
                dataclasses.asdict(result.stats),
                registry(result),
                dataclasses.asdict(system.kernel.pager.stats),
                system.mmc.shadow_table._entries.tolist(),
            )
        assert declined == [True]
        assert seen["scalar"] == seen["vector"]

    def test_mixed_stream_matches_the_fused_closures(self):
        """DRAM fills, shadow fills, shadow writebacks and MTLB table
        fetches share one open-row chain: one batched retirement equals
        the per-miss fused closures on every counter and every piece
        of machine state."""
        rng = np.random.default_rng(5)
        t = 6000
        # Shadow pages 1500 entries apart, so their table fetches open
        # different DRAM rows.
        pages = 1500 * np.arange(SHADOW_PAGES, dtype=np.int64)

        def machine():
            system = System(paper_mtlb(96, 8, 2))
            for k, si in enumerate(pages.tolist()):
                system.mmc.shadow_table.set_mapping(si, 0x400 + 3 * k)
            return system

        batch, serial = machine(), machine()
        mm = batch.mmc.memory_map
        dram_lines = rng.integers(0, 1 << 22, t, dtype=np.int64)
        shadow_lines = mm.shadow_base + (
            rng.choice(pages, t) << 12
        ) + rng.integers(0, BASE_PAGE_SIZE, t, dtype=np.int64)
        paddr = np.where(rng.random(t) < 0.5, dram_lines, shadow_lines)
        paddr &= ~31
        store = rng.random(t) < 0.4

        cache = batch.cache
        line_idx = (paddr >> 5) & cache._index_mask
        hit, order, li_s, tag_s, prev_tag, first = _self_consistent_hits(
            cache._tags, line_idx, paddr >> 5
        )
        user, kernel_share = _vector_miss_retire(
            batch, cache._tags, cache._dirty, order, li_s, tag_s,
            prev_tag, first, store, np.flatnonzero(~hit), paddr,
        )

        fill, writeback, drain = engine._fused_paths(serial)
        tags, dirty = serial.cache._tags, serial.cache._dirty
        stall = 0
        for i, (addr, op) in enumerate(zip(paddr.tolist(),
                                           store.tolist())):
            idx = int(line_idx[i])
            if tags[idx] == addr >> 5:
                dirty[idx] |= op
                continue
            if tags[idx] != -1 and dirty[idx]:
                serial.cache.stats.writebacks += 1
                writeback(int(tags[idx]) << 5)
            tags[idx] = addr >> 5
            dirty[idx] = op
            stall += fill(addr, int(op))
        drain()

        assert kernel_share == 0 and user == stall
        assert states_equal(machine_state(batch), machine_state(serial))
        mmc, mtlb = batch.mmc, batch.mmc.mtlb
        assert 0 < mmc.stats.shadow_fills < mmc.stats.fills
        assert mmc.stats.shadow_writebacks > 0
        assert mtlb.stats.misses > 0 and mtlb.stats.evictions > 0


class TestSampledGeometries:
    @settings(max_examples=10, deadline=None)
    @given(
        tlb_entries=st.sampled_from([16, 48, 96]),
        mtlb_entries=st.sampled_from([32, 128]),
        mtlb_assoc=st.sampled_from([0, 2]),
        use_mtlb=st.booleans(),
        workload=st.sampled_from(["em3d", "gcc"]),
    )
    def test_sampled_config_bit_identical(
        self,
        tiny_ctx,
        tlb_entries,
        mtlb_entries,
        mtlb_assoc,
        use_mtlb,
        workload,
    ):
        if use_mtlb:
            config = paper_mtlb(tlb_entries, mtlb_entries, mtlb_assoc)
        else:
            config = paper_no_mtlb(tlb_entries)
        assert_bit_identical(tiny_ctx, workload, config)


class TestEnginePolicy:
    def test_vector_accepted_on_set_associative_cache(self):
        """PR-8 lift: set-assoc caches batch via the residency mirror."""
        config = SystemConfig(
            cache=CacheConfig(associativity=2), engine="vector"
        )
        ok, why = vector_supported(System(dataclasses.replace(
            config, engine="auto"
        )))
        assert ok and why == ""
        assert System(config).engine == "vector"

    def test_vector_accepted_under_fault_injection(self):
        """PR-8 lift: fault consultations all live on miss paths the
        vector engine executes in program order, so plans batch."""
        config = SystemConfig(
            faults=FaultConfig(mtlb_parity_rate=0.5), engine="vector"
        )
        assert System(config).engine == "vector"

    def test_vector_refused_on_unknown_cache_model(self):
        """The one refusal left: a cache the engine has no mirror for."""

        class AlienCache:
            pass

        system = System(SystemConfig(engine="auto"))
        system.cache = AlienCache()
        ok, why = vector_supported(system)
        assert not ok and "AlienCache" in why
        system.config = dataclasses.replace(system.config, engine="vector")
        with pytest.raises(SimulationError, match="AlienCache"):
            resolve_engine(system)

    def test_auto_resolves_vector_everywhere(self):
        for config in (
            SystemConfig(),
            SystemConfig(cache=CacheConfig(associativity=2)),
            SystemConfig(faults=FaultConfig(mtlb_parity_rate=0.5)),
        ):
            system = System(config)
            assert system.engine == "vector"
            assert resolve_engine(system) == "vector"
            assert system.engine_reason == "auto: configuration batches"

    def test_invalid_engine_string_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            SystemConfig(engine="turbo")

    def test_context_engine_override(self, tiny_ctx):
        override = BenchContext(
            quick=True,
            scales=TINY_SCALES,
            cache_dir=tiny_ctx.cache_dir,
            engine="scalar",
        )
        result = override.run("em3d", paper_no_mtlb(96))
        assert result.stats.references > 0
