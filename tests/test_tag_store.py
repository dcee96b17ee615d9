"""Maya's skewed tag store: installs, promotions, pools, invariants.

The packed store (:mod:`repro.core.tag_store`) keeps lookups,
invalidation and the invariant check; its installs, promotions and
evictions happen inside the generated Maya step.  The
method-per-operation protocol (install, promote, demote, skew
selection, the priority-0 pool draw) lives on in the object-model
reference store, which the step transcribes, so those cases drive
:class:`repro.reference.tag_store.SkewedTagStore`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import MayaConfig
from repro.common.errors import SimulationError
from repro.core.maya_cache import MayaCache
from repro.core.tag_store import SkewedTagStore, TagState
from repro.reference.data_store import DataStore as ReferenceDataStore
from repro.reference.tag_store import NO_DATA as REF_NO_DATA
from repro.reference.tag_store import SkewedTagStore as ReferenceSkewedTagStore
from repro.reference.tag_store import TagState as RefTagState


def _config(sets, seed):
    return MayaConfig(sets_per_skew=sets, rng_seed=seed, hash_algorithm="splitmix")


def make_store(sets=16, seed=7):
    return SkewedTagStore(_config(sets, seed))


def make_reference_store(sets=16, seed=7):
    return ReferenceSkewedTagStore(_config(sets, seed))


class TestIndexArithmetic:
    def test_tag_index_roundtrip(self):
        store = make_store()
        for skew in (0, 1):
            for set_idx in (0, 7, 15):
                for way in (0, 14):
                    idx = store.tag_index(skew, set_idx, way)
                    assert store.locate(idx) == (skew, set_idx, way)


class TestPackedStore:
    """The packed store's own operations, over entries the step installed."""

    def test_lookup_paths_agree_and_invalidate(self):
        cache = MayaCache(_config(16, 7))
        cache.access(0x42)
        cache.access(0x43, is_write=True)
        store = cache.tags
        slot = store.lookup(0x42, 0)
        assert slot is not None
        assert store.lookup(0x42, 1) is None  # different domain, no match
        # The map lookup agrees with the hardware's two-set probe: the
        # slot lies in one of the sets the randomizer maps the line to.
        skew, set_idx, _ = store.locate(slot)
        assert set_idx == store.randomizer.all_indices(0x42, 0)[skew]
        entry = store.entry(slot)
        assert entry.state is TagState.PRIORITY_0 and entry.line_addr == 0x42
        store.invalidate_fast(slot)
        assert not entry.valid
        assert store.priority0_count == 0
        assert store.lookup(0x42, 0) is None
        store.check_invariants()


class TestInstallLookup:
    def test_install_then_lookup(self):
        store = make_reference_store()
        skew, set_idx = store.pick_skew_load_aware(0x42, 0)
        slot = store.find_invalid_way(skew, set_idx)
        store.install(slot, 0x42, sdid=0, core_id=1, priority1=False)
        assert store.lookup(0x42, 0) == slot
        assert store.lookup(0x42, 1) is None  # different domain, no match
        assert store.lookup_associative(0x42, 0) == slot

    def test_install_over_valid_rejected(self):
        store = make_reference_store()
        store.install(0, 1, sdid=0, core_id=0, priority1=False)
        with pytest.raises(SimulationError):
            store.install(0, 2, sdid=0, core_id=0, priority1=False)

    def test_sdid_duplication(self):
        """The same line can be resident once per domain (Section IV-C)."""
        store = make_reference_store()
        for sdid in (0, 1, 2):
            skew, set_idx = store.pick_skew_load_aware(0x42, sdid)
            slot = store.find_invalid_way(skew, set_idx)
            store.install(slot, 0x42, sdid=sdid, core_id=0, priority1=False)
        assert len({store.lookup(0x42, s) for s in (0, 1, 2)}) == 3


class TestPromotionDemotion:
    def test_promote_and_demote_cycle(self):
        store = make_reference_store()
        store.install(3, 0x99, sdid=0, core_id=0, priority1=False)
        assert store.priority0_count == 1 and store.priority1_count == 0
        store.promote(3, fptr=5, dirty=False)
        assert store.priority0_count == 0 and store.priority1_count == 1
        assert store.entry(3).fptr == 5
        store.demote(3)
        assert store.priority0_count == 1 and store.priority1_count == 0
        assert store.entry(3).fptr == REF_NO_DATA
        store.check_invariants()

    def test_promote_requires_priority0(self):
        store = make_reference_store()
        with pytest.raises(SimulationError):
            store.promote(0, fptr=1, dirty=False)

    def test_demote_requires_priority1(self):
        store = make_reference_store()
        store.install(0, 1, sdid=0, core_id=0, priority1=False)
        with pytest.raises(SimulationError):
            store.demote(0)


class TestPriority0Pool:
    def test_random_priority0_none_when_empty(self):
        assert make_reference_store().random_priority0() is None

    def test_random_priority0_respects_exclude(self):
        store = make_reference_store()
        store.install(0, 1, sdid=0, core_id=0, priority1=False)
        assert store.random_priority0(exclude=0) is None
        store.install(1, 2, sdid=0, core_id=0, priority1=False)
        for _ in range(20):
            assert store.random_priority0(exclude=0) == 1

    def test_invalidate_removes_from_pool(self):
        store = make_reference_store()
        store.install(0, 1, sdid=0, core_id=0, priority1=False)
        old = store.invalidate(0)
        assert old.state is RefTagState.PRIORITY_0
        assert store.priority0_count == 0
        assert store.lookup(1, 0) is None


class TestLoadAwareSelection:
    def test_prefers_emptier_set(self):
        store = make_reference_store()
        indices = store.randomizer.all_indices(0xABC, 0)
        # Fill skew 0's candidate set completely.
        base = store.tag_index(0, indices[0], 0)
        for way in range(store.config.ways_per_skew):
            store.install(base + way, 1000 + way, sdid=0, core_id=0, priority1=False)
        skew, set_idx = store.pick_skew_load_aware(0xABC, 0)
        assert (skew, set_idx) == (1, indices[1])

    def test_random_selection_hits_both_skews(self):
        store = make_reference_store()
        skews = {store.pick_skew_random(addr, 0)[0] for addr in range(50)}
        assert skews == {0, 1}


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300))
@settings(max_examples=25, deadline=None)
def test_random_operations_maintain_invariants(addresses):
    """Random install/promote/demote/invalidate traffic keeps every
    structural invariant intact (checked by check_invariants)."""
    store = make_reference_store(sets=8, seed=3)
    data = ReferenceDataStore(store.config.data_entries, seed=3)
    for addr in addresses:
        existing = store.lookup(addr, 0)
        if existing is None:
            skew, set_idx = store.pick_skew_load_aware(addr, 0)
            slot = store.find_invalid_way(skew, set_idx)
            if slot is None:
                continue
            store.install(slot, addr, sdid=0, core_id=0, priority1=False)
            if store.priority0_count > store.config.priority0_entries:
                victim = store.random_priority0(exclude=slot)
                store.invalidate(victim)
        else:
            entry = store.entry(existing)
            if entry.state is RefTagState.PRIORITY_0:
                if data.full:
                    victim_data = data.random_victim()
                    store.demote(data.entry(victim_data).rptr)
                    data.free(victim_data)
                store.promote(existing, fptr=data.allocate(existing), dirty=False)
    store.check_invariants()
