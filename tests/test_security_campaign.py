"""The adversarial campaign: scorecard schema, determinism, and the
probe surface it runs on.

The campaign's contract is threefold: (1) every (design, attack) cell
computes the same bits serially, sharded, or alone - seeding is
CRC-32-derived from the cell key, never from process state; (2) the
scorecard artifact has a fixed schema and canonical serialization so
CI can diff two runs byte for byte; (3) the headline result holds:
eviction-set construction verifiably succeeds against the
set-associative baseline and fails (at measurably higher cost)
against Maya.
"""

import gc
import hashlib
import json
import subprocess
import sys
import weakref
import zlib
from pathlib import Path

import pytest

from repro.common.config import CacheGeometry
from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.llc.baseline import BaselineLLC
from repro.llc.ceaser import CeaserCache
from repro.llc.fully_assoc import FullyAssociativeCache
from repro.llc.interface import attack_capacity, supports_rekey
from repro.security import campaign

pytestmark = pytest.mark.security

QUICK = dict(seed=7, quick=True)

#: sha256 of ``campaign.run(quick=True, seed=7)``'s canonical scorecard
#: (also what ``cli campaign --quick --seed 7`` writes).
QUICK_SCORECARD_SHA256 = "62f817eb5fb51fe1dcedbecf875371f06c849962b452cb10cf4c2bab152184ee"


def small(design, policy=None, seed=3):
    return campaign._make_design(design, 16, seed, policy=policy)


# -- the attacker-facing probe surface ------------------------------------


class TestProbeSurface:
    def test_attack_capacity_matches_design_storage(self):
        assert attack_capacity(small("baseline")) == 16 * 8
        assert attack_capacity(small("fully_assoc")) == 16 * 8
        assert attack_capacity(small("ceaser_s")) == 16 * 8
        # Maya/Mirage expose the *data* store - what an occupancy
        # attacker can actually hold - not the larger tag store.
        maya = small("maya")
        assert attack_capacity(maya) == maya.config.data_entries
        mirage = small("mirage")
        assert attack_capacity(mirage) == mirage.config.data_entries

    def test_attack_capacity_rejects_unknown_objects(self):
        with pytest.raises(TypeError):
            attack_capacity(object())

    @pytest.mark.parametrize(
        "design,expected",
        [
            ("baseline", False),
            ("fully_assoc", False),
            ("ceaser", True),
            ("ceaser_s", True),
            ("scatter", True),
            ("mirage", True),
            ("maya", True),
        ],
    )
    def test_supports_rekey_truth_table(self, design, expected):
        assert supports_rekey(small(design)) is expected

    def test_rekey_refuses_static_mappings(self):
        llc = BaselineLLC(CacheGeometry(16, 8), policy="lru", seed=1)
        llc.access(0x123)
        with pytest.raises(TypeError, match="BaselineLLC has no mapping keys to refresh"):
            llc.rekey()
        assert llc.contains(0x123)

    def test_rekey_invalidates_ceaser_mapping(self):
        llc = small("ceaser")
        before = llc.index_randomizer.key_fingerprint()
        llc.rekey()
        assert llc.index_randomizer.key_fingerprint() != before
        assert llc.remaps == 1


# -- design registry ------------------------------------------------------


class TestDesignRegistry:
    @pytest.mark.parametrize("design", campaign.DESIGNS)
    def test_every_design_builds_and_serves_the_surface(self, design):
        llc = small(design)
        llc.access(0x42, sdid=0)
        llc.access(0x42, sdid=0)
        assert llc.contains(0x42, sdid=0)
        assert attack_capacity(llc) > 0
        assert llc.flush_all() >= 1

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigurationError):
            campaign._make_design("tardis", 16, 1)

    def test_policy_knob_only_on_policy_designs(self):
        assert isinstance(small("baseline", policy="brrip"), BaselineLLC)
        assert isinstance(small("ceaser", policy="random"), CeaserCache)
        with pytest.raises(ConfigurationError):
            small("maya", policy="lru")

    def test_fully_assoc_capacity_matches_baseline(self):
        assert small("fully_assoc").capacity_lines == attack_capacity(small("baseline"))
        assert isinstance(small("fully_assoc"), FullyAssociativeCache)


# -- cell seeding ---------------------------------------------------------


class TestCellSeeding:
    def test_cell_seed_is_crc32_derived(self):
        key = "maya:ppp"
        assert campaign.cell_seed(7, key) == derive_seed(7, zlib.crc32(key.encode()))

    def test_cell_seeds_differ_across_cells(self):
        keys = campaign.shard_keys(**QUICK)
        seeds = {campaign.cell_seed(7, key) for key in keys}
        assert len(seeds) == len(keys)

    def test_shard_keys_cover_matrix_in_order(self):
        keys = campaign.shard_keys(designs=["baseline", "maya"], attacks=["ppp", "policy"])
        assert keys == ["baseline:ppp", "baseline:policy", "maya:ppp", "maya:policy"]

    def test_unknown_attack_rejected(self):
        with pytest.raises(ConfigurationError):
            campaign.shard_keys(attacks=["rowhammer"])


# -- determinism: serial == sharded == repeated ---------------------------


class TestCampaignDeterminism:
    DESIGNS = ["baseline", "maya"]
    ATTACKS = ["ppp", "policy"]

    def _run(self):
        return campaign.run(designs=self.DESIGNS, attacks=self.ATTACKS, **QUICK)

    def test_repeated_runs_identical(self):
        a, b = self._run(), self._run()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_shard_order_does_not_matter(self):
        keys = campaign.shard_keys(self.DESIGNS, self.ATTACKS, **QUICK)
        parts = [
            campaign.run_shard(key, self.DESIGNS, self.ATTACKS, **QUICK)
            for key in reversed(keys)
        ]
        merged = campaign.merge_shards(keys, list(reversed(parts)), self.DESIGNS, self.ATTACKS, **QUICK)
        assert json.dumps(merged, sort_keys=True) == json.dumps(self._run(), sort_keys=True)

    def test_seed_changes_results(self):
        other = campaign.run(designs=self.DESIGNS, attacks=self.ATTACKS, seed=8, quick=True)
        ours = self._run()
        assert ours["cells"]["baseline"]["ppp"] != other["cells"]["baseline"]["ppp"]

    def test_quick_scorecard_bytes_are_pinned(self, tmp_path):
        """The whole quick matrix, written canonically, hashes to the
        recorded digest: a change that moves every cell the same way
        still fails here, where comparing two runs would not."""
        path = tmp_path / "SCORECARD.json"
        campaign.run(scorecard_path=str(path), **QUICK)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == QUICK_SCORECARD_SHA256

    def test_write_scorecard_canonical_bytes(self, tmp_path):
        scorecard = self._run()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        campaign.write_scorecard(scorecard, str(p1))
        campaign.write_scorecard(scorecard, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")


# -- per-cell specialization: installed, then released -------------------


class TestCellSpecialization:
    """``run_shard`` specializes every design a cell builds and releases
    it all when the cell ends, also when an attack raises.

    The generated steps close over their designs, so an unreleased cell
    leaves reference cycles behind.  The cyclic collector would free
    them eventually, which is why these tests disable it and check with
    weakrefs that every design dies by refcount when ``run_shard``
    returns.
    """

    @staticmethod
    def _record(monkeypatch, on_built):
        """Call ``on_built(obj)`` for every design and inner array a cell
        builds; returns the list of templates specialize_llc installed."""
        make = campaign._make_design
        specialize = campaign.specialize_llc
        installed = []

        def recording_make(*args, **kwargs):
            llc = make(*args, **kwargs)
            for obj in (llc, getattr(llc, "_cache", None)):
                if obj is not None:
                    on_built(obj)
            return llc

        def recording_specialize(llc, spec):
            reason = specialize(llc, spec)
            if reason is None:
                installed.append(type(llc).__name__)
            return reason

        monkeypatch.setattr(campaign, "_make_design", recording_make)
        monkeypatch.setattr(campaign, "specialize_llc", recording_specialize)
        return installed

    @pytest.mark.parametrize("design", campaign.DESIGNS)
    def test_raising_cell_releases_every_design(self, design, monkeypatch):
        from repro.llc.interface import access_step

        built = []  # (object, its access_fast instance binding before the cell)
        installed = self._record(
            monkeypatch, lambda obj: built.append((obj, vars(obj).get("access_fast")))
        )

        def failing_leakage(llc, ways, **kwargs):
            step = access_step(llc)
            for line in range(300):
                step(line, False, 0, False, 0)
            raise RuntimeError("injected attack failure")

        monkeypatch.setattr(campaign, "replacement_leakage", failing_leakage)
        with pytest.raises(RuntimeError, match="injected attack failure"):
            campaign.run_shard(f"{design}:policy", **QUICK)
        assert len(built) >= 2  # the probe-surface design and the attacked one
        assert installed  # a template really was installed
        for obj, before in built:
            assert vars(obj).get("access_fast") is before, type(obj).__name__

    @pytest.mark.parametrize("attack", campaign.ATTACKS)
    def test_designs_free_by_refcount_after_each_cell(self, attack, monkeypatch):
        refs = []
        installed = self._record(monkeypatch, lambda obj: refs.append(weakref.ref(obj)))
        gc.collect()
        gc.disable()
        try:
            for design in campaign.DESIGNS:
                del refs[:]
                campaign.run_shard(f"{design}:{attack}", **QUICK)
                assert refs
                alive = [type(ref()).__name__ for ref in refs if ref() is not None]
                assert not alive, f"{design}:{attack} left {alive} alive"
        finally:
            gc.enable()
        assert set(installed) == {
            "BaselineLLC", "CeaserCache", "SkewedRandomizedCache", "MirageCache", "MayaCache",
            "FullyAssociativeCache",
        }


# -- the headline result --------------------------------------------------


class TestMayaHarderThanBaseline:
    @pytest.fixture(scope="class")
    def ppp_cells(self):
        scorecard = campaign.run(designs=["baseline", "maya"], attacks=["ppp"], **QUICK)
        return scorecard["cells"], scorecard["summary"]

    def test_baseline_eviction_set_constructed(self, ppp_cells):
        cells, _ = ppp_cells
        assert cells["baseline"]["ppp"]["found"] is True
        assert cells["baseline"]["ppp"]["eviction_set_size"] >= 8

    def test_maya_construction_fails(self, ppp_cells):
        cells, _ = ppp_cells
        assert cells["maya"]["ppp"]["found"] is False
        assert cells["maya"]["ppp"]["eviction_set_size"] == 0

    def test_maya_costs_more_attacker_operations(self, ppp_cells):
        cells, summary = ppp_cells
        assert (
            cells["maya"]["ppp"]["construction_cost"]
            > cells["baseline"]["ppp"]["construction_cost"]
        )
        assert summary["maya_vs_baseline_ppp_cost_ratio"] > 1.0

    def test_policy_probe_separates_baseline_from_maya(self):
        scorecard = campaign.run(designs=["baseline", "maya"], attacks=["policy"], **QUICK)
        cells = scorecard["cells"]
        assert cells["baseline"]["policy"]["best_accuracy"] >= 0.9
        assert cells["maya"]["policy"]["best_accuracy"] <= 0.7


# -- scorecard schema and validation --------------------------------------


class TestScorecardSchema:
    @pytest.fixture(scope="class")
    def scorecard(self):
        return campaign.run(designs=["baseline", "maya"], attacks=list(campaign.ATTACKS), **QUICK)

    def test_valid_scorecard_passes(self, scorecard):
        campaign.validate_scorecard(scorecard)

    def test_schema_field_checked(self, scorecard):
        bad = dict(scorecard, schema="repro.security.campaign/0")
        with pytest.raises(ValueError, match="schema"):
            campaign.validate_scorecard(bad)

    def test_missing_cell_detected(self, scorecard):
        bad = json.loads(json.dumps(scorecard))
        del bad["cells"]["maya"]["occupancy"]
        with pytest.raises(ValueError, match="maya:occupancy"):
            campaign.validate_scorecard(bad)

    def test_missing_top_level_field_detected(self, scorecard):
        bad = {k: v for k, v in scorecard.items() if k != "summary"}
        with pytest.raises(ValueError, match="summary"):
            campaign.validate_scorecard(bad)

    def test_report_renders_all_designs(self, scorecard):
        text = campaign.report(scorecard)
        assert "baseline" in text and "maya" in text
        assert "ppp" in text

    def test_occupancy_cell_shape(self, scorecard):
        occ = scorecard["cells"]["maya"]["occupancy"]
        for victim in ("aes", "modexp"):
            assert set(occ[victim]) == {"operations", "distinguished", "mean_gap", "capacity_bits"}
            assert occ[victim]["operations"] >= 2


# -- CLI subcommand and the rendering tool --------------------------------


class TestCampaignCLI:
    ARGS = ["--quick", "--seed", "7", "--designs", "baseline,maya", "--attacks", "ppp,policy"]

    def test_campaign_subcommand_writes_scorecard(self, tmp_path, capsys):
        from repro.harness import cli

        path = tmp_path / "SCORECARD.json"
        rc = cli.main(["campaign", *self.ARGS, "--scorecard", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "security campaign" in out
        scorecard = campaign.load_scorecard(str(path))
        campaign.validate_scorecard(scorecard)
        assert scorecard["designs"] == ["baseline", "maya"]

    def test_serial_matches_parallel_jobs(self, tmp_path, capsys):
        """The acceptance check: --jobs 2 emits the same bytes as serial."""
        from repro.harness import cli

        serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
        assert cli.main(["campaign", *self.ARGS, "--scorecard", str(serial)]) == 0
        assert (
            cli.main(["campaign", *self.ARGS, "--jobs", "2", "--scorecard", str(parallel)]) == 0
        )
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_bad_design_fails(self, tmp_path, capsys):
        from repro.harness import cli

        rc = cli.main(
            ["campaign", "--quick", "--designs", "tardis", "--scorecard", str(tmp_path / "s.json")]
        )
        capsys.readouterr()
        assert rc == 1

    def test_list_mentions_campaign(self, capsys):
        from repro.harness import cli

        assert cli.main(["list"]) == 0
        assert "campaign" in capsys.readouterr().out

    def test_scorecard_tool_validates_and_renders(self, tmp_path):
        scorecard = campaign.run(designs=["baseline"], attacks=["ppp"], **QUICK)
        path = tmp_path / "SCORECARD.json"
        campaign.write_scorecard(scorecard, str(path))
        tool = Path(__file__).resolve().parent.parent / "tools" / "scorecard.py"
        proc = subprocess.run(
            [sys.executable, str(tool), str(path)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "valid repro.security.campaign/1" in proc.stdout

    def test_scorecard_tool_rejects_schema_drift(self, tmp_path):
        scorecard = campaign.run(designs=["baseline"], attacks=["ppp"], **QUICK)
        scorecard["schema"] = "repro.security.campaign/999"
        path = tmp_path / "SCORECARD.json"
        campaign.write_scorecard(scorecard, str(path))
        tool = Path(__file__).resolve().parent.parent / "tools" / "scorecard.py"
        proc = subprocess.run(
            [sys.executable, str(tool), str(path)], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "schema error" in proc.stderr
