"""Guard the headline numbers quoted in README.md and DESIGN.md.

Documentation rots; these tests tie the quoted reproduction numbers to
the code that produces them.
"""

import math
import pathlib
import re

import pytest

from repro.power.cacti_lite import table_ix
from repro.power.storage import baseline_storage, maya_storage, mirage_storage
from repro.security.analytical import analyze

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestReadmeNumbers:
    def test_storage_headline(self):
        base = baseline_storage()
        assert maya_storage().overhead_vs(base) * 100 == pytest.approx(-2.1, abs=0.1)
        assert mirage_storage().overhead_vs(base) * 100 == pytest.approx(20.5, abs=0.1)

    def test_security_headline(self):
        est = analyze(6, 3, 6)
        assert math.log10(est.installs_per_sae) == pytest.approx(33.3, abs=1.0)

    def test_area_power_headline(self):
        estimates = table_ix()
        deltas = estimates["Maya"].relative_to(estimates["Baseline"])
        assert deltas["area"] * 100 == pytest.approx(-28.1, abs=0.3)
        assert deltas["static_power"] * 100 == pytest.approx(-5.5, abs=0.3)


class TestDocsExist:
    @pytest.mark.parametrize(
        "path",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "LICENSE",
            "CONTRIBUTING.md",
            "docs/architecture.md",
            "docs/security-model.md",
            "docs/workloads.md",
        ],
    )
    def test_document_present_and_nonempty(self, path):
        full = ROOT / path
        assert full.exists(), path
        assert len(full.read_text()) > 500, path

    def test_design_md_indexes_every_bench(self):
        """Every benchmark file is referenced from DESIGN.md or EXPERIMENTS.md."""
        design = (ROOT / "DESIGN.md").read_text() + (ROOT / "EXPERIMENTS.md").read_text()
        for bench in (ROOT / "benchmarks").glob("test_*.py"):
            assert bench.name in design, f"{bench.name} not indexed in DESIGN/EXPERIMENTS"


class TestEnvironmentTable:
    def test_readme_lists_exactly_the_variables_src_reads(self):
        """README's ``REPRO_*`` table names every variable ``src``
        reads, and nothing else."""
        readme = (ROOT / "README.md").read_text()
        listed = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme, re.MULTILINE))
        read = set()
        for path in (ROOT / "src").rglob("*.py"):
            read.update(re.findall(r"[\"'](REPRO_[A-Z_]+)[\"']", path.read_text()))
        assert listed == read
