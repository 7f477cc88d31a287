"""Property tests pinning hardware models to trivial reference models.

Each structure is exercised with a random operation stream and compared
against the simplest possible Python model of the same semantics — the
dict/set formulations a reviewer can verify by eye.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addrspace import PhysicalMemoryMap
from repro.core.mtlb import Mtlb, MtlbFault
from repro.core.shadow_table import ShadowPageTable
from repro.os_model.page_table import PageTable
from repro.os_model.hpt import HashedPageTable


# --------------------------------------------------------------------- #
# MTLB vs reference: translation results always match the table
# --------------------------------------------------------------------- #

mtlb_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=300),  # shadow index
        st.booleans(),  # write?
        st.sampled_from(["access", "remap", "invalidate", "purge"]),
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=40, deadline=None)
@given(mtlb_ops, st.sampled_from([(16, 2), (32, 4), (64, 0)]))
def test_mtlb_translations_match_table(ops, geometry):
    """No matter the interleaving of accesses, OS remaps, invalidations
    and purges, a successful MTLB access returns exactly the PFN the
    table held at the *last purge-visible update* — and after a purge,
    exactly the current table contents."""
    entries, assoc = geometry
    memory_map = PhysicalMemoryMap()
    table = ShadowPageTable(memory_map, table_base=0)
    mtlb = Mtlb(table, entries=entries, associativity=assoc)

    authoritative = {}  # shadow index -> (pfn, valid) in the table
    visible = {}  # what a cached MTLB copy may legitimately return

    next_pfn = 1
    for index, is_write, op in ops:
        if op == "remap":
            authoritative[index] = (next_pfn, True)
            table.set_mapping(index, next_pfn)
            mtlb.purge(index)  # the OS control write purges
            visible.pop(index, None)
            next_pfn += 1
        elif op == "invalidate":
            pfn = authoritative.get(index, (0, False))[0]
            authoritative[index] = (pfn, False)
            table.invalidate(index)
            mtlb.purge(index)
            visible.pop(index, None)
        elif op == "purge":
            mtlb.purge(index)
            visible.pop(index, None)
        else:  # access
            expected_pfn, expected_valid = authoritative.get(
                index, (0, False)
            )
            cached = visible.get(index)
            try:
                pfn, _filled = mtlb.access(index, is_write)
                ok = True
            except MtlbFault:
                ok = False
            if cached is not None:
                # A cached copy may serve stale data only if never
                # purged since; our protocol always purges on updates,
                # so cached == authoritative here.
                assert cached == (pfn if ok else None)
            if ok:
                assert pfn == expected_pfn
                assert expected_valid
                visible[index] = pfn
            else:
                assert not expected_valid
                # a faulting fill still caches the invalid way; record
                visible[index] = None


# --------------------------------------------------------------------- #
# HPT vs reference: probe always finds what a dict would
# --------------------------------------------------------------------- #

hpt_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # space
        st.integers(min_value=0, max_value=400),  # vpn
        st.sampled_from(["map", "probe", "purge"]),
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=40, deadline=None)
@given(hpt_ops)
def test_hpt_matches_dict_model(ops):
    page_tables = {s: PageTable() for s in range(3)}
    hpt = HashedPageTable(base_paddr=0x10_0000, buckets=64,
                          overflow_entries=512)
    reference = {}  # (space, vpn) -> pbase

    for space, vpn, op in ops:
        hpt.current_space = space
        if op == "map":
            if (space, vpn) in reference:
                continue
            pfn = (space + 1) * 1000 + vpn
            # A purge drops only the HPT entry; re-mapping the page
            # reloads the HPT from the page table's existing mapping.
            mapping = page_tables[space].lookup(
                vpn << 12
            ) or page_tables[space].map_base_page(vpn << 12, pfn)
            hpt.preload(vpn, mapping, space=space)
            reference[(space, vpn)] = pfn << 12
        elif op == "purge":
            hpt.purge_vpn(vpn, space=space)
            reference.pop((space, vpn), None)
        else:  # probe
            found, touched = hpt.probe(vpn)
            assert touched, "every probe loads at least the chain head"
            expected = reference.get((space, vpn))
            if expected is None:
                assert found is None
            else:
                assert found is not None
                assert found.pbase == expected
