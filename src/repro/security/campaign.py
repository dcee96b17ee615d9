"""Adversarial security campaign: every attack against every design.

The analytical model (``repro.security.analytical``) argues Maya is
safe; this module *attacks the live simulator* and writes the outcome
down.  Three attacks from the follow-on literature run against the LLC
design zoo plus Maya:

* ``ppp`` - Prime+Prune+Probe eviction-set construction (Song et al.),
  reporting construction cost in attacker operations and whether a
  verified set was ever found;
* ``policy`` - the replacement-policy leakage probe, swept over
  replacement policies (where the design takes one) and over rekey
  periods (where the design can rekey): decode accuracy per curve
  point;
* ``occupancy`` - the cacheFX-style occupancy matrix: victim
  operations needed to distinguish two AES / ModExp keys, plus a
  mutual-information capacity estimate per observation.

Every (design, attack) cell is an independent shard keyed by
``"design:attack"``; its seed is derived from the campaign seed via a
CRC-32 of the cell key (the PR 1 idiom), so a cell computes the same
bits whether it runs serially, in a worker pool, or alone.  No
wall-clock value ever enters a cell: "time" is counted in attacker
operations, which is what makes ``results/SCORECARD.json``
byte-reproducible and diffable in CI.

Campaign designs use the ``splitmix`` index hash (not PRINCE): the
campaign compares *structures* - what an attacker observes through the
probe surface - and the statistical quality of the index hash is the
same while cells run an order of magnitude faster.  PRINCE's
cryptographic strength is evaluated where it matters, in
``repro.crypto`` and the analytical layer.

Attacker loads run through a sweep kernel per attacker
(:func:`repro.llc.interface.access_lines`): generated code that loops
over a batch of lines and runs the design's allocation-free
``access_fast`` step body inline, once per touch.  All seven designs
have a generated step: each cell installs the step of every design it
builds through one releasable ``Specialization``
(:func:`repro.engine.specialize.specialize_llc`) before an attack binds
its kernel, and releases it when the cell ends, also when it raises;
the kernels die with their attackers, so every design frees by
refcount with its cell.  A fresh batch's set mappings - each PPP
round's, the policy probe's fillers and conflict lines after every
rekey - are derived in one batch pass first
(:meth:`repro.llc.interface.LLCache.premap`) and dropped once the batch
is installed; the step reads them only on a counted memo miss, so no
cell's bits move.  Residency scans - PPP's prune and catch, the
occupancy attacker's repair and probe passes - ask the design once per
scan (:meth:`repro.llc.interface.LLCache.missing`) rather than once per
line.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, List, Optional

from ..common.config import CacheGeometry, MayaConfig, MirageConfig
from ..common.errors import ConfigurationError
from ..common.rng import derive_seed
from ..core.maya_cache import MayaCache
from ..engine.specialize import Specialization, specialize_llc
from ..llc.baseline import BaselineLLC
from ..llc.ceaser import CeaserCache
from ..llc.fully_assoc import FullyAssociativeCache
from ..llc.interface import attack_capacity, supports_rekey
from ..llc.mirage import MirageCache
from ..llc.skewed import SkewedRandomizedCache
from .attacks.occupancy import operations_to_distinguish, OccupancyAttacker
from .attacks.policy_probe import replacement_leakage
from .attacks.ppp import prime_prune_probe
from .channel import mutual_information_binary
from .victims import aes_key_pair, modexp_key_pair, AESVictim, ModExpVictim

SCHEMA = "repro.security.campaign/1"

#: Policy options per design family; ``None`` means "the design's own".
_SWEEP_POLICIES = ("lru", "srrip", "brrip", "random")


def _geometry(sets: int) -> CacheGeometry:
    return CacheGeometry(sets=sets, ways=8)


def _make_design(name: str, sets: int, seed: Optional[int], policy: Optional[str] = None):
    """Build one campaign design instance.

    ``policy`` selects the replacement policy on designs that take one
    (baseline, ceaser); it must be ``None`` for the rest.
    """
    if policy is not None and name not in ("baseline", "ceaser"):
        raise ConfigurationError(f"design {name!r} has no replacement-policy knob")
    if name == "baseline":
        return BaselineLLC(_geometry(sets), policy=policy or "lru", seed=seed)
    if name == "ceaser":
        return CeaserCache(
            _geometry(sets),
            remap_period=10**9,
            seed=seed,
            hash_algorithm="splitmix",
            policy=policy or "lru",
        )
    if name == "ceaser_s":
        return SkewedRandomizedCache(
            _geometry(sets),
            use_sdid_in_hash=False,
            remap_period=None,
            seed=seed,
            hash_algorithm="splitmix",
        )
    if name == "scatter":
        return SkewedRandomizedCache(
            _geometry(sets),
            use_sdid_in_hash=True,
            remap_period=None,
            seed=seed,
            hash_algorithm="splitmix",
        )
    if name == "mirage":
        return MirageCache(
            MirageConfig(sets_per_skew=sets, rng_seed=seed, hash_algorithm="splitmix")
        )
    if name == "maya":
        return MayaCache(
            MayaConfig(sets_per_skew=sets, rng_seed=seed, hash_algorithm="splitmix")
        )
    if name == "fully_assoc":
        return FullyAssociativeCache(sets * 8, seed=seed)
    raise ConfigurationError(f"unknown campaign design {name!r}")


DESIGNS = ("baseline", "ceaser", "ceaser_s", "scatter", "mirage", "maya", "fully_assoc")
ATTACKS = ("ppp", "policy", "occupancy")


def _params(quick: bool) -> Dict[str, object]:
    """Cell-size knobs; ``quick`` keeps the whole matrix under seconds."""
    if quick:
        return {
            "sets": 16,
            "ppp_target": 8,
            "ppp_rounds": 12,
            "ppp_confirm": 2,
            "policy_trials": 24,
            "rekey_periods": (0, 8, 2),
            "occ_samples": 10,
            "occ_max_operations": 48,
            "occ_t_threshold": 4.5,
        }
    return {
        "sets": 64,
        "ppp_target": 8,
        "ppp_rounds": 32,
        "ppp_confirm": 3,
        "policy_trials": 60,
        "rekey_periods": (0, 16, 4),
        "occ_samples": 16,
        "occ_max_operations": 120,
        "occ_t_threshold": 4.5,
    }


# -- per-attack cell runners -------------------------------------------------


def _ppp_cell(design: str, params: Dict[str, object], seed: int, build) -> Dict[str, object]:
    llc = build(derive_seed(seed, 1))
    result = prime_prune_probe(
        llc,
        target_size=params["ppp_target"],
        max_rounds=params["ppp_rounds"],
        confirm=params["ppp_confirm"],
        seed=derive_seed(seed, 2),
    )
    return {
        "found": result.found,
        "eviction_set_size": len(result.eviction_set),
        "rounds": result.rounds,
        "accesses": result.accesses,
        "probes": result.probes,
        "construction_cost": result.construction_cost,
    }


def _policy_cell(design: str, params: Dict[str, object], seed: int, build) -> Dict[str, object]:
    policies: List[Optional[str]]
    if design in ("baseline", "ceaser"):
        policies = list(_SWEEP_POLICIES)
    else:
        policies = [None]
    periods = params["rekey_periods"] if supports_rekey(build(derive_seed(seed, 3))) else (0,)
    ways = 8
    curves: Dict[str, Dict[str, float]] = {}
    for policy in policies:
        label = policy or "native"
        curve: Dict[str, float] = {}
        for period in periods:
            llc = build(derive_seed(seed, 4 + (period or 0)), policy=policy)
            outcome = replacement_leakage(
                llc,
                ways,
                trials=params["policy_trials"],
                rekey_every=period or None,
                seed=derive_seed(seed, zlib.crc32(f"{label}:{period}".encode())),
            )
            curve["never" if not period else str(period)] = round(outcome.accuracy, 4)
        curves[label] = curve
    best = max(curve.get("never", 0.0) for curve in curves.values())
    return {"ways": ways, "trials": params["policy_trials"], "curves": curves, "best_accuracy": best}


def _occupancy_cell(design: str, params: Dict[str, object], seed: int, build) -> Dict[str, object]:
    llc = build(derive_seed(seed, 5))
    lines = attack_capacity(llc)
    victims = {
        "aes": (aes_key_pair(derive_seed(seed, 6)), AESVictim),
        "modexp": (modexp_key_pair(seed=derive_seed(seed, 7)), ModExpVictim),
    }
    cell: Dict[str, object] = {}
    for name, ((key_a, key_b), victim_cls) in victims.items():
        llc.flush_all()
        outcome = operations_to_distinguish(
            llc,
            lambda key_a=key_a: victim_cls(key_a),
            lambda key_b=key_b: victim_cls(key_b),
            attacker_lines=lines,
            max_operations=params["occ_max_operations"],
            t_threshold=params["occ_t_threshold"],
            seed=derive_seed(seed, zlib.crc32(name.encode())),
        )
        capacity = _occupancy_capacity(
            llc, lines, victim_cls, key_a, key_b,
            samples=params["occ_samples"],
            seed=derive_seed(seed, zlib.crc32(f"mi:{name}".encode())),
        )
        cell[name] = {
            "operations": outcome.operations,
            "distinguished": outcome.distinguished,
            "mean_gap": round(abs(outcome.mean_a - outcome.mean_b), 4),
            "capacity_bits": round(capacity, 4),
        }
    return cell


def _occupancy_capacity(llc, lines, victim_cls, key_a, key_b, samples, seed) -> float:
    """Mutual information of the occupancy signal over one key bit."""
    attacker = OccupancyAttacker(llc, lines, seed=seed)
    victim_a, victim_b = victim_cls(key_a), victim_cls(key_b)
    samples_a = [attacker.measure_once(victim_a.encryption_accesses()) for _ in range(samples)]
    samples_b = [attacker.measure_once(victim_b.encryption_accesses()) for _ in range(samples)]
    return mutual_information_binary(samples_a, samples_b)


_CELL_RUNNERS = {
    "ppp": _ppp_cell,
    "policy": _policy_cell,
    "occupancy": _occupancy_cell,
}


# -- shard protocol (repro.harness.runner) -----------------------------------


def _normalize(designs, attacks):
    designs = list(designs) if designs else list(DESIGNS)
    attacks = list(attacks) if attacks else list(ATTACKS)
    for design in designs:
        if design not in DESIGNS:
            raise ConfigurationError(f"unknown campaign design {design!r}")
    for attack in attacks:
        if attack not in ATTACKS:
            raise ConfigurationError(f"unknown campaign attack {attack!r}")
    return designs, attacks


def cell_seed(base_seed: Optional[int], key: str) -> int:
    """Per-cell seed: CRC-32 of the cell key mixed into the base seed.

    Process-independent (no salted ``hash()``), so a cell's bits do not
    depend on which worker - or how many workers - computed it.
    """
    return derive_seed(base_seed, zlib.crc32(key.encode("utf-8")))


def shard_keys(
    designs=None, attacks=None, seed: int = 7, quick: bool = False, scorecard_path=None
) -> List[str]:
    designs, attacks = _normalize(designs, attacks)
    return [f"{design}:{attack}" for design in designs for attack in attacks]


def run_shard(
    key: str, designs=None, attacks=None, seed: int = 7, quick: bool = False, scorecard_path=None
) -> Dict[str, object]:
    design, attack = key.split(":", 1)
    params = _params(quick)
    spec = Specialization()

    def build(design_seed: int, policy: Optional[str] = None):
        llc = _make_design(design, params["sets"], design_seed, policy=policy)
        specialize_llc(llc, spec)
        return llc

    try:
        cell = _CELL_RUNNERS[attack](design, params, cell_seed(seed, key), build)
    finally:
        # The generated steps close over their designs; releasing breaks
        # those cycles, so every design frees by refcount with its cell.
        spec.release()
    return {"design": design, "attack": attack, "cell": cell}


def merge_shards(
    keys, parts, designs=None, attacks=None, seed: int = 7, quick: bool = False, scorecard_path=None
) -> Dict[str, object]:
    designs, attacks = _normalize(designs, attacks)
    cells: Dict[str, Dict[str, object]] = {design: {} for design in designs}
    for part in parts:
        cells[part["design"]][part["attack"]] = part["cell"]
    scorecard = {
        "schema": SCHEMA,
        "seed": seed,
        "quick": quick,
        "designs": designs,
        "attacks": attacks,
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in _params(quick).items()},
        "cells": cells,
        "summary": _summarize(designs, attacks, cells),
    }
    if scorecard_path:
        write_scorecard(scorecard, scorecard_path)
    return scorecard


def run(
    designs=None, attacks=None, seed: int = 7, quick: bool = False, scorecard_path=None
) -> Dict[str, object]:
    keys = shard_keys(designs, attacks, seed=seed, quick=quick)
    parts = [
        run_shard(key, designs, attacks, seed=seed, quick=quick) for key in keys
    ]
    return merge_shards(
        keys, parts, designs, attacks, seed=seed, quick=quick, scorecard_path=scorecard_path
    )


def _summarize(designs, attacks, cells) -> Dict[str, object]:
    """Cross-design headline numbers (the acceptance claims)."""
    summary: Dict[str, object] = {}
    if "ppp" in attacks:
        costs = {d: cells[d]["ppp"]["construction_cost"] for d in designs}
        found = {d: cells[d]["ppp"]["found"] for d in designs}
        summary["ppp_construction_cost"] = costs
        summary["ppp_found"] = found
        if "baseline" in designs and "maya" in designs:
            base = max(costs["baseline"], 1)
            summary["maya_vs_baseline_ppp_cost_ratio"] = round(costs["maya"] / base, 4)
    if "policy" in attacks:
        summary["policy_best_accuracy"] = {
            d: cells[d]["policy"]["best_accuracy"] for d in designs
        }
    if "occupancy" in attacks:
        summary["occupancy_operations"] = {
            d: {v: cells[d]["occupancy"][v]["operations"] for v in cells[d]["occupancy"]}
            for d in designs
        }
    return summary


# -- scorecard I/O and reporting --------------------------------------------


def write_scorecard(scorecard: Dict[str, object], path: str) -> None:
    """Canonical serialization: sorted keys, 2-space indent, newline EOF.

    Canonical form is what lets CI diff two seeded runs byte-for-byte.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scorecard, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_scorecard(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def validate_scorecard(scorecard: Dict[str, object]) -> None:
    """Schema gate for CI: raise ``ValueError`` on any drift."""
    if scorecard.get("schema") != SCHEMA:
        raise ValueError(f"scorecard schema {scorecard.get('schema')!r} != {SCHEMA!r}")
    for field in ("seed", "quick", "designs", "attacks", "cells", "summary"):
        if field not in scorecard:
            raise ValueError(f"scorecard missing field {field!r}")
    cells = scorecard["cells"]
    for design in scorecard["designs"]:
        if design not in cells:
            raise ValueError(f"scorecard missing design row {design!r}")
        for attack in scorecard["attacks"]:
            if attack not in cells[design]:
                raise ValueError(f"scorecard missing cell {design}:{attack}")


def report(scorecard: Dict[str, object]) -> str:
    """Human-readable scorecard (the runner's task text)."""
    from ..harness.formatting import render_table

    designs = scorecard["designs"]
    attacks = scorecard["attacks"]
    cells = scorecard["cells"]
    headers = ["design"]
    if "ppp" in attacks:
        headers += ["ppp found", "ppp cost"]
    if "policy" in attacks:
        headers += ["policy acc"]
    if "occupancy" in attacks:
        headers += ["occ ops (aes/modexp)"]
    rows = []
    for design in designs:
        row: List[object] = [design]
        if "ppp" in attacks:
            ppp = cells[design]["ppp"]
            row += ["yes" if ppp["found"] else "no", ppp["construction_cost"]]
        if "policy" in attacks:
            row += [f"{cells[design]['policy']['best_accuracy']:.3f}"]
        if "occupancy" in attacks:
            occ = cells[design]["occupancy"]
            row += ["/".join(str(occ[v]["operations"]) for v in sorted(occ))]
        rows.append(row)
    lines = [f"security campaign (seed {scorecard['seed']}, quick={scorecard['quick']})"]
    lines.append(render_table(headers, rows))
    ratio = scorecard["summary"].get("maya_vs_baseline_ppp_cost_ratio")
    if ratio is not None:
        lines.append(f"maya/baseline PPP construction-cost ratio: {ratio}")
    return "\n".join(lines)
