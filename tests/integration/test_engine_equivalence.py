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
    _scalar_span,
    _self_consistent_hits,
    _vector_miss_retire,
    resolve_engine,
    vector_supported,
)
from repro.sim.system import System
from repro.trace import synth
from repro.trace.events import MapConventional, MapRegion
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
