"""The quick protocol: 8 cores of ``mcf`` on a 512-set LLC, seed 7.

3000 measured and 1500 warm-up accesses per core.  Two gates hold the
``run_mix`` hot path to it:

* **Fingerprints** - each design's LLC MPKI is deterministic for a
  fixed seed, so it is pinned exactly, on the op-stream replay and on
  the per-access drive (the replay's oracle) alike.  Any drift is a
  behaviour change in a generated step, the private levels, the trace
  generator or the replay.  The values are the quick rows of the frozen
  ``BENCH_10.json``.
* **Replay speedup** - the replay must beat the same generated Maya
  step on the per-access drive by at least 1.2x, best of 3 runs per
  side in the same process, so the ratio cancels the host's speed.

Each test pins its drive through the ``drives`` fixture, so both gates
hold under ``--per-access-drive`` too.
"""

import dataclasses
import time

import pytest

from repro.core.maya_cache import MayaCache
from repro.harness.presets import experiment_maya, experiment_mirage, experiment_system
from repro.hierarchy.simulator import run_mix
from repro.llc.baseline import BaselineLLC
from repro.llc.mirage import MirageCache
from repro.trace.mixes import homogeneous

SETS, CORES, ACCESSES, WARMUP, SEED = 512, 8, 3000, 1500, 7

#: Exact LLC MPKI per design; equal on both drives.
FINGERPRINTS = {
    "maya": 34.118589743589745,  # splitmix indexing
    "maya_prince": 34.017628205128204,
    "mirage": 33.69230769230769,
    "baseline": 36.443910256410255,
}

#: The replay's same-run speedup floor over the per-access drive.
SPEEDUP_FLOOR = 1.2


def make_llc(design):
    if design == "maya":
        return MayaCache(experiment_maya(llc_sets=SETS, seed=SEED))
    if design == "maya_prince":
        config = experiment_maya(llc_sets=SETS, seed=SEED)
        return MayaCache(dataclasses.replace(config, hash_algorithm="prince"))
    if design == "mirage":
        return MirageCache(experiment_mirage(llc_sets=SETS, seed=SEED))
    return BaselineLLC(experiment_system(llc_sets=SETS).llc_geometry)


def run_quick(design):
    """One quick-protocol run on a fresh LLC, and its wall time."""
    llc = make_llc(design)
    start = time.perf_counter()
    result = run_mix(
        llc, homogeneous("mcf", CORES), experiment_system(cores=CORES, llc_sets=SETS),
        accesses_per_core=ACCESSES, warmup_accesses=WARMUP, seed=SEED,
    )
    return result, time.perf_counter() - start


@pytest.mark.parametrize("drive", ["replay", "per_access"])
@pytest.mark.parametrize("design", sorted(FINGERPRINTS))
def test_fingerprint(drives, design, drive):
    with getattr(drives, drive)():
        result, _ = run_quick(design)
    assert result.specialize_info["replay"] == (
        "opstream-scalar" if drive == "replay" else None
    )
    assert result.llc_mpki == FINGERPRINTS[design]


@pytest.mark.perf
def test_replay_beats_the_per_access_drive(drives):
    best = {"replay": float("inf"), "per_access": float("inf")}
    for _ in range(3):
        for drive in best:  # alternate, so drift hits both sides
            with getattr(drives, drive)():
                result, seconds = run_quick("maya")
            assert result.llc_mpki == FINGERPRINTS["maya"]
            best[drive] = min(best[drive], seconds)
    ratio = best["per_access"] / best["replay"]
    assert ratio >= SPEEDUP_FLOOR, (
        f"the replay ran {best['replay']:.3f} s against {best['per_access']:.3f} s "
        f"on the per-access drive: {ratio:.2f}x < {SPEEDUP_FLOOR}x"
    )
