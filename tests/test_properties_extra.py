"""Additional property-based tests across subsystems."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheGeometry, MayaConfig
from repro.core import MayaCache
from repro.crypto.randomizer import IndexRandomizer
from repro.llc import MirageCache
from repro.common.config import MirageConfig
from repro.trace import get_workload, WORKLOADS


@given(st.sampled_from(sorted(WORKLOADS)), st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=30, deadline=None)
def test_workload_streams_are_valid(name, seed):
    """Every workload yields non-negative addresses and sane flags."""
    stream = get_workload(name).stream(llc_lines=1024, seed=seed)
    for access in itertools.islice(stream, 100):
        assert access.line_addr >= 0
        assert isinstance(access.is_write, bool)
        assert access.gap >= 0


@given(st.integers(min_value=0, max_value=(1 << 40) - 1), st.integers(min_value=0, max_value=3))
@settings(max_examples=50, deadline=None)
def test_randomizer_is_stable_per_key(addr, sdid):
    """The mapping is a pure function of (address, SDID) until rekey."""
    r = IndexRandomizer(2, 64, seed=9, algorithm="splitmix")
    first = r.all_indices(addr, sdid)
    for _ in range(3):
        assert r.all_indices(addr, sdid) == first


@given(st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=200))
@settings(max_examples=20, deadline=None)
def test_maya_vs_mirage_tag_visibility(addresses):
    """Any line Mirage holds after a trace, Maya at least holds the tag
    for (same traffic, same steady state) - reuse filtering only delays
    the data, never loses track of the tag sooner than capacity does."""
    maya = MayaCache(MayaConfig(sets_per_skew=32, rng_seed=1, hash_algorithm="splitmix"))
    for addr in addresses:
        maya.access(addr)
    # Every address still tracked is either priority-0 or priority-1;
    # contains_tag and contains must agree with the tag state.
    for addr in set(addresses):
        if maya.contains(addr):
            assert maya.contains_tag(addr)
    maya.check_invariants()


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_mirage_occupancy_never_exceeds_data_entries(data):
    cfg = MirageConfig(sets_per_skew=8, rng_seed=1, hash_algorithm="splitmix")
    llc = MirageCache(cfg)
    n = data.draw(st.integers(min_value=1, max_value=500))
    for i in range(n):
        addr = data.draw(st.integers(min_value=0, max_value=1000))
        llc.access(addr)
        assert llc.occupancy <= cfg.data_entries
    llc.check_invariants()
