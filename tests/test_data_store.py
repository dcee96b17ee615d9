"""Maya's decoupled data store."""

import pytest

from repro.common.errors import SimulationError
from repro.core.data_store import NO_TAG, DataStore


class TestAllocation:
    def test_allocate_sets_rptr(self):
        store = DataStore(4, seed=1)
        idx = store.allocate(rptr=10)
        assert store.entry(idx).rptr == 10
        assert store.used == 1

    def test_full_and_free(self):
        store = DataStore(2, seed=1)
        a = store.allocate(1)
        b = store.allocate(2)
        assert store.full
        with pytest.raises(SimulationError):
            store.allocate(3)
        store.free(a)
        assert not store.full
        assert store.used == 1

    def test_double_free_rejected(self):
        store = DataStore(2, seed=1)
        idx = store.allocate(1)
        store.free(idx)
        with pytest.raises(SimulationError):
            store.free(idx)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(SimulationError):
            DataStore(0)


class TestRandomVictim:
    def test_requires_valid_entries(self):
        with pytest.raises(SimulationError):
            DataStore(4, seed=1).random_victim()

    def test_victim_is_valid(self):
        store = DataStore(8, seed=1)
        used = [store.allocate(i) for i in range(4)]
        for _ in range(20):
            assert store.random_victim() in used

    def test_uniform_over_full_store(self):
        store = DataStore(4, seed=1)
        for i in range(4):
            store.allocate(i)
        counts = {i: 0 for i in range(4)}
        for _ in range(4000):
            counts[store.random_victim()] += 1
        assert min(counts.values()) > 800  # ~1000 each


class TestInvariants:
    def test_check_invariants_detects_mismatch(self):
        store = DataStore(2, seed=1)
        idx = store.allocate(5)
        store.check_invariants({idx: 5})
        with pytest.raises(SimulationError):
            store.check_invariants({idx: 6})
        with pytest.raises(SimulationError):
            store.check_invariants({})
