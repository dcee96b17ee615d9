"""Canonical experiment-scale configurations.

The paper simulates an 8-core 16 MB LLC (16K sets x 16 ways).  A pure
Python model cannot push 1.6 B instructions through that, so every
performance experiment here runs at **1/16 scale**: 1024 LLC sets with
identical way structure, private caches scaled to keep the same
capacity *ratios* between levels, and footprints scaled with the LLC
(workload footprints are expressed in multiples of LLC capacity).  The
numbers that matter to the paper's claims - relative MPKI, weighted
speedups, dead-block fractions, provisioning ratios - are preserved;
see DESIGN.md "Substitutions".

The randomized designs use the ``splitmix`` index hash at experiment
scale (uniformity is all that performance needs); the security
analyses and the crypto tests use real PRINCE.
"""

from __future__ import annotations

from ..common.config import (
    CacheGeometry,
    MayaConfig,
    MirageConfig,
    SystemConfig,
)

#: Default experiment scale: paper sets / 16.
EXPERIMENT_LLC_SETS = 1024


def experiment_system(cores: int = 8, llc_sets: int = EXPERIMENT_LLC_SETS) -> SystemConfig:
    """Scaled Table V system: LLC ``llc_sets`` x 16 ways, private levels
    scaled to the paper's capacity ratios (L2 = 1/16 LLC, L1D = 3/256 LLC)."""
    l2_sets = max(16, llc_sets // 8)
    l1_sets = max(4, llc_sets // 64)
    return SystemConfig(
        cores=cores,
        l1d_geometry=CacheGeometry(sets=l1_sets, ways=12),
        l2_geometry=CacheGeometry(sets=l2_sets, ways=8),
        llc_geometry=CacheGeometry(sets=llc_sets, ways=16),
    )


def experiment_maya(
    llc_sets: int = EXPERIMENT_LLC_SETS,
    reuse_ways_per_skew: int = 3,
    invalid_ways_per_skew: int = 6,
    base_ways_per_skew: int = 6,
    seed: int = 0,
) -> MayaConfig:
    """Scaled Maya config (12 MB-equivalent data store at full scale)."""
    return MayaConfig(
        sets_per_skew=llc_sets,
        base_ways_per_skew=base_ways_per_skew,
        reuse_ways_per_skew=reuse_ways_per_skew,
        invalid_ways_per_skew=invalid_ways_per_skew,
        rng_seed=seed,
        hash_algorithm="splitmix",
    )


def experiment_mirage(llc_sets: int = EXPERIMENT_LLC_SETS, seed: int = 0) -> MirageConfig:
    """Scaled Mirage config (16 MB-equivalent data store at full scale)."""
    return MirageConfig(
        sets_per_skew=llc_sets,
        rng_seed=seed,
        hash_algorithm="splitmix",
    )


def experiment_maya_iso_area(llc_sets: int = EXPERIMENT_LLC_SETS, seed: int = 0) -> MayaConfig:
    """Maya with an area budget matching Mirage ("Maya ISO", Table IX/X).

    The ISO-area variant spends the saved area on a baseline-sized data
    store: 8 base ways per skew (16 MB-equivalent) with the same reuse
    and invalid provisioning.
    """
    return MayaConfig(
        sets_per_skew=llc_sets,
        base_ways_per_skew=8,
        reuse_ways_per_skew=3,
        invalid_ways_per_skew=6,
        rng_seed=seed,
        hash_algorithm="splitmix",
    )
