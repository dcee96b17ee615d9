"""Shared fixtures: small, fast configurations for unit tests."""

import os

import pytest

from repro.common.config import CacheGeometry, MayaConfig, MirageConfig, SystemConfig
from repro.store import CACHE_ENV


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
