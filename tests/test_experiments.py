"""Each experiment module runs end to end at a tiny scale and has the
paper's structure and (coarse) shape."""

import math

import pytest

from repro.harness.experiments import (
    fig1_dead_blocks,
    fig4_reuse_ways,
    fig6_bucket_spills,
    fig7_occupancy,
    fig8_occupancy_attack,
    fig9_homogeneous,
    fig10_heterogeneous,
    table1_reuse_security,
    table4_associativity,
    table7_mpki,
    table8_storage,
    table9_power,
    table10_summary,
    table11_partitioning,
)
from repro.hierarchy.simulator import run_mix


class TestFig1:
    def test_dead_blocks_dominant(self):
        rows = fig1_dead_blocks.run(
            workloads=("mcf", "lbm", "cc"), accesses=3000, warmup=1500
        )
        assert set(rows) == {"mcf", "lbm", "cc"}
        # The paper's headline: most inserted blocks are dead.
        assert fig1_dead_blocks.average_dead_pct(rows) > 60
        report = fig1_dead_blocks.report(rows)
        assert "mcf" in report and "average" in report


class TestFig4:
    def test_structure_and_report(self):
        result = fig4_reuse_ways.run(
            workloads=("mcf",), reuse_options=(1, 3), accesses_per_core=1200, warmup_per_core=600
        )
        assert ("mcf", 1) in result.speedups and ("mcf", 3) in result.speedups
        assert result.average(3) > 0.5
        assert "reuse ways" in fig4_reuse_ways.report(result, (1, 3))


class TestFig6:
    def test_spills_fall_with_capacity(self):
        rows = fig6_bucket_spills.run(
            capacities=(9, 11, 13, 15), iterations=3000, buckets_per_skew=128
        )
        assert rows[9].spills > rows[11].spills >= rows[13].spills
        assert rows[15].iterations == 0  # analytical only
        assert rows[15].analytical_iterations_per_spill > 1e25
        assert "capacity" in fig6_bucket_spills.report(rows)


class TestFig7:
    def test_simulation_matches_model(self):
        comparison = fig7_occupancy.run(iterations=4000, buckets_per_skew=256)
        assert comparison.max_relative_error(threshold=0.02) < 0.35
        assert "analytical" in fig7_occupancy.report(comparison)


class TestFig8:
    def test_ordering(self):
        rows = fig8_occupancy_attack.run(trials=1, max_operations=1500)
        by = {(r.victim, r.design): r for r in rows}
        for victim in ("AES", "ModExp"):
            assert by[(victim, "FullyAssoc")].normalized_to_fa == 1.0
            # 16-way is no harder than fully associative (paper: easier).
            assert by[(victim, "16-way")].normalized_to_fa <= 1.2
        assert "normalized" in fig8_occupancy_attack.report(rows)


class TestFig9And10:
    def test_fig9_rows(self):
        rows = fig9_homogeneous.run(
            workloads=("mcf", "pr"), accesses_per_core=1500, warmup_per_core=800
        )
        assert rows["mcf"].suite == "spec" and rows["pr"].suite == "gap"
        assert 0.5 < rows["mcf"].maya_ws < 1.6
        assert "geomean" in fig9_homogeneous.report(rows)

    def test_fig10_rows(self):
        rows = fig10_heterogeneous.run(
            mixes=("M1", "M16"), accesses_per_core=1200, warmup_per_core=600
        )
        assert rows["M1"].bin == "L" and rows["M16"].bin == "H"
        assert "bin" in fig10_heterogeneous.report(rows)


class TestSecurityTables:
    def test_table1(self):
        table = table1_reuse_security.run()
        assert 31 < math.log10(table[6][3].installs_per_sae) < 35
        report = table1_reuse_security.report(table)
        assert "Reuse ways/skew" in report and "invalid" in report

    def test_table4(self):
        table = table4_associativity.run()
        assert table[6][8].installs_per_sae > table[6][36].installs_per_sae
        assert "Invalid ways" in table4_associativity.report(table)


class TestTable7:
    def test_groups_present(self):
        rows = table7_mpki.run(
            rate_workloads=("mcf", "cc"), hetero_bins=("L",), mixes_per_bin=1,
            accesses_per_core=1200, warmup_per_core=600,
        )
        assert "SPEC and GAP-RATE" in rows and "HETERO LOW" in rows
        assert rows["SPEC and GAP-RATE"].baseline > 0
        assert "Baseline" in table7_mpki.report(rows)


class TestExactTables:
    def test_table8(self):
        breakdowns = table8_storage.run()
        assert breakdowns["Maya"].total_kb == 16944.0
        assert "overhead" in table8_storage.report(breakdowns)

    def test_table9(self):
        estimates = table9_power.run()
        assert estimates["Maya"].area_mm2 < estimates["Baseline"].area_mm2
        assert "static" in table9_power.report(estimates)


class TestTable10:
    def test_summary_rows(self):
        rows = table10_summary.run(
            perf_workloads=("mcf",), accesses_per_core=1200, warmup_per_core=600
        )
        assert set(rows) == {"Maya", "Mirage", "Mirage-Lite", "Maya ISO"}
        assert rows["Maya"].storage_overhead < 0
        assert rows["Mirage"].storage_overhead > 0.15
        assert rows["Mirage"].security.installs_per_sae > rows["Mirage-Lite"].security.installs_per_sae
        assert "installs/SAE" in table10_summary.report(rows)


class TestTable11:
    def test_partitioning_loses_performance(self):
        rows = table11_partitioning.run(
            workloads=("mcf",), accesses_per_core=1500, warmup_per_core=800
        )
        assert set(rows) == {"Page coloring", "DAWG", "BCE"}
        for row in rows.values():
            assert row.performance_ws < 1.0  # all partitioning schemes lose
        assert "technique" in table11_partitioning.report(rows)

    @pytest.mark.parametrize("bench", ["mcf", "lbm"])
    def test_every_run_replays_and_matches_the_per_access_drive(self, monkeypatch, drives,
                                                                 bench):
        # The baseline profile run and the three partitioned designs all
        # take the op-stream replay, and the rows equal the per-access
        # drive's exactly.
        infos = []

        def recording_run_mix(*args, **kwargs):
            result = run_mix(*args, **kwargs)
            infos.append(result.specialize_info)
            return result

        monkeypatch.setattr(table11_partitioning, "run_mix", recording_run_mix)
        kwargs = dict(workloads=(bench,), accesses_per_core=600, warmup_per_core=300)
        with drives.replay():
            replayed = table11_partitioning.run(**kwargs)
        with drives.per_access():
            per_access = table11_partitioning.run(**kwargs)
        assert [info["replay"] for info in infos] == ["opstream-scalar"] * 4 + [None] * 4
        assert replayed == per_access
