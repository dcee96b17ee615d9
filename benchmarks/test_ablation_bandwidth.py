"""Ablation: DRAM bandwidth modelling on streaming mixes.

With infinite bandwidth (the default timing model) the secure designs'
+4 lookup cycles and their DRAM traffic cost lbm little.  With
channel-occupancy queueing on, the stream becomes bandwidth-bound -
closer to the paper's testbed, where Mirage loses ~8% on lbm.  This
ablation quantifies how much of that loss our model recovers when
bandwidth is modelled.

It runs without the stride prefetcher: with it on, the L1 prefetcher
hides every DRAM cycle from the cores' clocks (each core reads the
same cycles with and without the bandwidth model), so both modes would
report a weighted speedup of exactly 1 and measure nothing.
"""

from repro.core import MayaCache
from repro.harness.experiments import fig9_homogeneous  # noqa: F401  (report shape)
from repro.harness.presets import experiment_maya, experiment_mirage, experiment_system
from repro.hierarchy import normalized_weighted_speedup, run_mix
from repro.llc import BaselineLLC, MirageCache
from repro.trace import homogeneous


def _ws(model_bandwidth: bool, accesses: int, warmup: int):
    """Maya's and Mirage's weighted speedup over the baseline, and the
    baseline's core-0 cycles."""
    system = experiment_system()
    mix = homogeneous("lbm")
    base, maya, mirage = [
        run_mix(
            llc, mix, system, accesses, warmup,
            seed=5, model_bandwidth=model_bandwidth, enable_prefetch=False,
        )
        for llc in (
            BaselineLLC(system.llc_geometry),
            MayaCache(experiment_maya(seed=5)),
            MirageCache(experiment_mirage(seed=5)),
        )
    ]
    return (
        normalized_weighted_speedup(maya, base),
        normalized_weighted_speedup(mirage, base),
        base.cores[0].cycles,
    )


def test_ablation_bandwidth(benchmark, save_report):
    results = benchmark.pedantic(
        lambda: {
            "unbounded": _ws(False, 5_000, 2_500),
            "bounded": _ws(True, 5_000, 2_500),
        },
        rounds=1,
        iterations=1,
    )
    report = "\n".join(
        f"{mode:10s}: Maya WS {ws[0]:.3f}, Mirage WS {ws[1]:.3f}, "
        f"baseline core-0 cycles {ws[2]:,.0f}"
        for mode, ws in results.items()
    )
    save_report("ablation_bandwidth", report)

    # Streaming stays within a few percent of baseline either way
    # (everyone is bound by the same stream).
    for mode, (maya_ws, mirage_ws, _) in results.items():
        assert 0.85 < maya_ws < 1.1, (mode, maya_ws)
        assert 0.85 < mirage_ws < 1.1, (mode, mirage_ws)
    # Queueing reaches the cores' clocks: the bounded channel is slower.
    assert results["bounded"][2] > results["unbounded"][2], results
