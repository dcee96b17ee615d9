"""Shared fixtures: small, fast configurations for unit tests.

Also the drive seam.  ``run_mix`` takes the op-stream replay unless
``repro.engine.vector.create_vector_replay`` declines, and only then
runs the per-access drive loop, the replay's differential oracle.  The
``drives`` fixture pins either drive inside a ``with`` block by
patching that function, and ``pytest --per-access-drive`` declines the
replay for the whole session, so every ``run_mix``-level test reruns
on the per-access drive (tests that pin a drive keep it).

And the load-path seam.  Artifact-cache loads go through the mmap
store when ``repro.store.mmap_enabled()`` says so (on little-endian
hosts) and through the heap path, the store's differential oracle,
otherwise.  Tests pin a path by patching that function, and ``pytest
--heap-loads`` pins the heap path for the whole session.  Both
session options reach forked worker processes (``--jobs``, the
service pool), which inherit the patched modules, but not spawned
subprocesses.
"""

import contextlib
import os

import pytest

from repro import store
from repro.common.config import CacheGeometry, MayaConfig, MirageConfig, SystemConfig
from repro.engine import vector
from repro.store import CACHE_ENV

#: The real replay factory, captured before any test patches it.
CREATE_VECTOR_REPLAY = vector.create_vector_replay


def decline_replay(*args, **kwargs):
    """A ``create_vector_replay`` that declines every input."""
    return None, "per-access drive pinned by the test suite"


def pytest_addoption(parser):
    parser.addoption(
        "--per-access-drive", action="store_true", default=False,
        help="decline the op-stream replay in every run_mix call, so the "
        "suite runs on the per-access drive, the replay's oracle",
    )
    parser.addoption(
        "--heap-loads", action="store_true", default=False,
        help="load every cached artifact through the heap path, the mmap "
        "store's oracle, instead of mapping it",
    )


@pytest.fixture(autouse=True, scope="session")
def _session_drive(request):
    """Apply ``--per-access-drive`` for the whole session."""
    if not request.config.getoption("--per-access-drive"):
        yield
        return
    vector.create_vector_replay = decline_replay
    try:
        yield
    finally:
        vector.create_vector_replay = CREATE_VECTOR_REPLAY


@pytest.fixture(autouse=True, scope="session")
def _session_load_path(request):
    """Apply ``--heap-loads`` for the whole session."""
    if not request.config.getoption("--heap-loads"):
        yield
        return
    mmap_enabled = store.mmap_enabled
    store.mmap_enabled = lambda: False
    try:
        yield
    finally:
        store.mmap_enabled = mmap_enabled


class Drives:
    """Pin the drive ``run_mix`` takes inside a ``with`` block."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch

    @contextlib.contextmanager
    def _pinned(self, create):
        with self._monkeypatch.context() as patch:
            patch.setattr(vector, "create_vector_replay", create)
            yield

    def per_access(self):
        """The per-access drive: the replay declines every input."""
        return self._pinned(decline_replay)

    def replay(self):
        """The op-stream replay, also under ``--per-access-drive``."""
        return self._pinned(CREATE_VECTOR_REPLAY)


@pytest.fixture
def drives(monkeypatch) -> Drives:
    return Drives(monkeypatch)


@pytest.fixture(autouse=True, scope="session")
def _isolated_artifact_cache(tmp_path_factory):
    """Point the artifact cache at a temp dir for the run.

    Keeps test runs from writing into the repository's
    ``results/.trace_cache/`` (and from *reading* stale entries out of
    it).  Individual tests that need a private directory or a disabled
    cache override the variable with ``monkeypatch.setenv``.
    """
    original = os.environ.get(CACHE_ENV)
    os.environ[CACHE_ENV] = str(tmp_path_factory.mktemp("artifact_cache"))
    yield
    if original is None:
        os.environ.pop(CACHE_ENV, None)
    else:
        os.environ[CACHE_ENV] = original


@pytest.fixture
def sharded_grid():
    """A small sharded ``table7`` task: two rate mixes and one
    heterogeneous mix, each a shard that runs all three designs."""
    from repro.harness.cli import build_tasks

    tasks = build_tasks(["table7"], fast=True)
    tasks[0].kwargs.update(
        rate_workloads=["mcf", "lbm"], hetero_bins=["L"], mixes_per_bin=1,
        accesses_per_core=400, warmup_per_core=200,
    )
    return tasks


@pytest.fixture
def tiny_geometry() -> CacheGeometry:
    """A 64-line cache: 8 sets x 8 ways."""
    return CacheGeometry(sets=8, ways=8)


@pytest.fixture
def small_maya() -> MayaConfig:
    """Maya at 16 sets/skew with the paper's way structure (fast hash)."""
    return MayaConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")


@pytest.fixture
def small_mirage() -> MirageConfig:
    """Mirage at 16 sets/skew with the paper's way structure (fast hash)."""
    return MirageConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")


@pytest.fixture
def tiny_system() -> SystemConfig:
    """A 2-core system small enough for sub-second trace runs."""
    return SystemConfig(
        cores=2,
        l1d_geometry=CacheGeometry(sets=4, ways=4),
        l2_geometry=CacheGeometry(sets=16, ways=8),
        llc_geometry=CacheGeometry(sets=64, ways=16),
    )
