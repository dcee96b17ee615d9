"""The translated-index kind of the artifact cache: keys, format, fallbacks.

Ahead-of-time index translation is a pure performance layer: every
column it serves must equal what ``IndexRandomizer.compute_indices``
returns live, corruption must degrade to a retranslate (never a crash
or a wrong index), the content key must change with every input that
shapes the mapping (keys/seed, algorithm, skews, index width, SDID,
address set), and a ``rekey()`` must make both the in-randomizer side
table and any cached file unreachable.  ``tests/test_artifact_cache.py``
runs the cache mechanics for every artifact kind; these tests drive
the translated kind through :func:`translate_trace`.
"""

import random
from array import array

import pytest

from repro import store
from repro.common.errors import TraceError
from repro.crypto.prince import NUMPY_BATCH_THRESHOLD
from repro.crypto.randomizer import IndexRandomizer
from repro.trace.compiled import CompiledTrace
from repro.trace.record import MemoryAccess
from repro.trace.translated import (
    TRANSLATIONS,
    TranslatedTrace,
    translate_trace,
    translated_key,
)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """A private on-disk cache + clean counters/memo for one test."""
    directory = tmp_path / "tix"
    monkeypatch.setenv(store.CACHE_ENV, str(directory))
    TRANSLATIONS.clear_memory()
    TRANSLATIONS.reset_stats()
    yield directory
    TRANSLATIONS.clear_memory()
    TRANSLATIONS.reset_stats()


def make_randomizer(seed=7, algorithm="prince", **kwargs):
    return IndexRandomizer(2, 512, seed=seed, algorithm=algorithm, **kwargs)


def make_trace(addr_count=60, stride=3):
    return CompiledTrace.from_records(
        [MemoryAccess(a * stride) for a in range(addr_count)]
    )


class TestTranslatedTrace:
    def test_columns_match_live_randomizer(self, cache_dir):
        rand = make_randomizer()
        trace = make_trace()
        for sdid, offset in ((0, 0), (3, 1 << 20)):
            t = translate_trace(rand, trace, sdid=sdid, offset=offset)
            assert list(t.line_addrs) == sorted(trace.unique_lines(offset))
            for i, addr in enumerate(t.line_addrs):
                assert tuple(col[i] for col in t.columns) == rand.compute_indices(
                    addr, sdid
                )

    def test_splitmix_also_translates(self, cache_dir):
        rand = make_randomizer(algorithm="splitmix")
        t = translate_trace(rand, make_trace())
        for i, addr in enumerate(t.line_addrs):
            assert tuple(col[i] for col in t.columns) == rand.compute_indices(addr, 0)

    def test_column_length_validation(self):
        with pytest.raises(TraceError, match="column length"):
            TranslatedTrace(array("Q", [1, 2]), [array("I", [0])])


class TestKeySensitivity:
    def test_every_input_changes_the_key(self, cache_dir):
        addrs = array("Q", range(0, 100, 3))
        base_rand = make_randomizer(seed=7)
        base = translated_key(addrs, base_rand, 0)
        variants = [
            translated_key(addrs, base_rand, 1),  # SDID
            translated_key(array("Q", range(0, 100, 5)), base_rand, 0),  # addresses
            translated_key(addrs, make_randomizer(seed=8), 0),  # keys (seed)
            translated_key(addrs, make_randomizer(algorithm="splitmix"), 0),
            translated_key(addrs, IndexRandomizer(3, 512, seed=7), 0),  # skews
            translated_key(addrs, IndexRandomizer(2, 1024, seed=7), 0),  # index bits
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_rekey_changes_the_key(self, cache_dir):
        rand = make_randomizer()
        addrs = array("Q", range(50))
        before = translated_key(addrs, rand, 0)
        rand.rekey()
        after = translated_key(addrs, rand, 0)
        assert before != after

    def test_rekey_invalidates_cached_translation(self, cache_dir):
        # A translation cached before a rekey must not be served after:
        # the fingerprint in the key changes, so the old file is simply
        # unreachable and a fresh translation (matching the new keys)
        # is produced and verified against the live randomizer.
        rand = make_randomizer()
        trace = make_trace()
        translate_trace(rand, trace)
        rand.rekey()
        assert rand.cache_info().precomputed == 0  # side table dropped
        t = translate_trace(rand, trace)
        assert TRANSLATIONS.info().builds == 2
        for i, addr in enumerate(t.line_addrs):
            assert tuple(col[i] for col in t.columns) == rand.compute_indices(addr, 0)

    def test_distinct_keys_get_distinct_files(self, cache_dir):
        rand = make_randomizer()
        translate_trace(rand, make_trace(40))
        translate_trace(rand, make_trace(41))
        assert len(list(cache_dir.glob("*.tix"))) == 2


class TestTranslationKernels:
    """The serial numpy translation and the bulk side-table install."""

    @pytest.mark.parametrize("count", [10, 20_000])
    @pytest.mark.parametrize("sdid", [0, 3])
    @pytest.mark.parametrize("sets", [64, 512, 1024])
    @pytest.mark.parametrize("algorithm", ["prince", "splitmix"])
    def test_translate_matches_compute_indices(self, algorithm, sets, sdid, count):
        # 10 addresses stay below the numpy cipher batch threshold, so
        # PRINCE takes the pure-Python kernel there; 20,000 take numpy.
        assert 10 < NUMPY_BATCH_THRESHOLD <= 20_000
        rand = IndexRandomizer(2, sets, seed=sets + sdid, algorithm=algorithm)
        rng = random.Random(count)
        addrs = array("Q", (rng.getrandbits(64) for _ in range(count)))
        columns = rand.translate(addrs, sdid)
        assert [col.typecode for col in columns] == ["I", "I"]
        got = list(zip(*columns))
        expected = [rand.compute_indices(addr, sdid) for addr in addrs]
        assert got == expected

    @pytest.mark.parametrize("overlap", [0, 5])
    @pytest.mark.parametrize("overflow", [0, 1])
    def test_load_packed_equals_per_entry_install(self, overflow, overlap):
        # The batch fits exactly (len + n == capacity: one dict.update)
        # or overflows by one (the FIFO path), and its first ``overlap``
        # addresses are already in the table.  Either way the table must
        # equal installing entry by entry: keys, values, order, counter.
        # Entries are (line << 16) | sdid -> skew 0 | skew 1 << 32; the
        # column values exceed the 64-set index width and still pack
        # exactly into their 32-bit lanes.
        capacity, prefill = 50, 20
        n = capacity - prefill + overflow
        addrs = array("Q", range(overlap)) + array("Q", range(100, 100 + n - overlap))
        columns = [array("I", range(1000, 1000 + n)), array("I", range(n))]
        fast = IndexRandomizer(2, 64, seed=3, algorithm="splitmix",
                               precomputed_capacity=capacity)
        slow = IndexRandomizer(2, 64, seed=3, algorithm="splitmix",
                               precomputed_capacity=capacity)
        for rand in (fast, slow):
            for addr in range(prefill):
                rand._install_precomputed((addr << 16) | 1, addr | addr << 32)
        assert fast.load_packed(addrs, columns, sdid=1) == n
        for i, addr in enumerate(addrs):
            slow._install_precomputed((addr << 16) | 1, columns[0][i] | columns[1][i] << 32)
        assert list(fast._precomputed.items()) == list(slow._precomputed.items())
        assert fast.precomputed_evictions == slow.precomputed_evictions
        assert fast.precomputed_evictions == (0 if overlap else overflow)
        assert all(type(key) is int for key in fast._precomputed)
        assert all(type(value) is int for value in fast._precomputed.values())

    def test_load_packed_keys_wide_addresses_exactly(self):
        # (addr << 16) | sdid wraps a uint64 from 2**48 on: such a batch
        # is keyed in Python, so every key is the exact int.
        rand = IndexRandomizer(2, 64, seed=3, algorithm="splitmix")
        addrs = array("Q", [5, (1 << 48) - 1, 1 << 48, (1 << 64) - 1])
        rand.load_packed(addrs, rand.translate(addrs, sdid=9), sdid=9)
        assert list(rand._precomputed) == [(addr << 16) | 9 for addr in addrs]
        for addr in addrs:
            assert rand.all_indices(addr, 9) == rand.compute_indices(addr, 9)

    @pytest.mark.parametrize("algorithm", ["prince", "splitmix"])
    @pytest.mark.parametrize("sets", [64, 16_384])
    @pytest.mark.parametrize("skews", [1, 2, 3])
    def test_packed_lanes_round_trip(self, skews, sets, algorithm):
        # Half the addresses come from the side table, half from the
        # cipher; the second pass hits the memo.  Every path unpacks
        # the 32-bit lanes back to the cipher's indices.
        rand = IndexRandomizer(skews, sets, seed=skews + sets, algorithm=algorithm)
        rng = random.Random(sets - skews)
        addrs = [rng.getrandbits(46) for _ in range(120)]
        loaded = array("Q", addrs[::2])
        rand.load_packed(loaded, rand.translate(loaded, sdid=3), sdid=3)
        for _ in range(2):
            for addr in addrs:
                assert rand.all_indices(addr, 3) == rand.compute_indices(addr, 3)
        info = rand.cache_info()
        assert (info.hits, info.misses) == (len(addrs), len(addrs))
        for table in (rand._memo, rand._precomputed):
            assert all(type(k) is int and type(v) is int for k, v in table.items())
