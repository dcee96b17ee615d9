"""Attack-traffic capture and replay for the differential test layer.

Attack harnesses exercise code paths ordinary benchmark streams rarely
reach - flush storms, dense same-set conflicts, cross-SDID interleaving,
mid-stream rekeys.  This module makes that traffic *replayable*:

* :class:`RecordingLLC` wraps any design on the probe surface and logs
  every state-mutating call as an op tuple while forwarding it;
* :func:`replay` drives an identical op stream into another engine;
* the ``*_ops`` generators synthesize deterministic adversarial
  streams (eviction storms, prime/probe cycles) without needing a live
  attack run.

Op format (plain tuples, JSON-friendly):

``("access", line, is_write, core, is_writeback, sdid)`` |
``("invalidate", line, sdid)`` | ``("flush",)`` | ``("rekey",)``

The differential tests replay one stream through a packed
struct-of-arrays engine and its object-model reference and require
bit-identical statistics - the attack layer becomes a fuzzer for the
fast engines.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...common.rng import derive_seed, make_rng
from ...llc.interface import access_step, supports_rekey

Op = Tuple


class RecordingLLC:
    """Forwarding proxy that logs all state-mutating probe-surface calls.

    Read-only calls (``contains``/``missing``/properties) are forwarded
    without logging: replay only needs the mutations, and probes on the
    replayed engines are what the differential assertions are for.
    """

    def __init__(self, llc):
        self._llc = llc
        self.ops: List[Op] = []

    def access(self, line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        self.ops.append(("access", line_addr, is_write, core_id, is_writeback, sdid))
        return self._llc.access(
            line_addr, is_write=is_write, core_id=core_id, is_writeback=is_writeback, sdid=sdid
        )

    def access_fast(self, line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        """Log like :meth:`access`, then run the wrapped design's step
        (what harnesses bind through :func:`~repro.llc.interface.access_step`)."""
        self.ops.append(("access", line_addr, is_write, core_id, is_writeback, sdid))
        return access_step(self._llc)(line_addr, is_write, core_id, is_writeback, sdid)

    def invalidate(self, line_addr, sdid=0):
        self.ops.append(("invalidate", line_addr, sdid))
        return self._llc.invalidate(line_addr, sdid=sdid)

    def flush_all(self):
        self.ops.append(("flush",))
        return self._llc.flush_all()

    def rekey(self):
        self.ops.append(("rekey",))
        return self._llc.rekey()

    def contains(self, line_addr, sdid=0):
        return self._llc.contains(line_addr, sdid=sdid)

    def __getattr__(self, name):
        return getattr(self._llc, name)


def replay(llc, ops) -> int:
    """Drive a recorded op stream into ``llc``; returns ops applied.

    ``("rekey",)`` ops are skipped on designs without a real rekey so
    one stream can replay across the whole zoo.
    """
    applied = 0
    for op in ops:
        kind = op[0]
        if kind == "access":
            _, line, is_write, core, is_writeback, sdid = op
            llc.access(line, is_write=is_write, core_id=core, is_writeback=is_writeback, sdid=sdid)
        elif kind == "invalidate":
            _, line, sdid = op
            llc.invalidate(line, sdid=sdid)
        elif kind == "flush":
            llc.flush_all()
        elif kind == "rekey":
            if not supports_rekey(llc):
                continue
            llc.rekey()
        else:
            raise ValueError(f"unknown traffic op {op!r}")
        applied += 1
    return applied


def eviction_storm_ops(
    capacity: int,
    rounds: int = 4,
    stride_sets: int = 16,
    victims: int = 4,
    seed: Optional[int] = None,
) -> List[Op]:
    """Prime/prune/probe-shaped storm: dense conflicts + flush cycles.

    Each round primes a full-capacity sweep twice (the double-touch
    install idiom), re-touches a pruned suffix, interleaves victim
    installs in a second SDID, invalidates a few hot lines, and ends
    with a flush - the access shape PPP produces, minus the adaptivity.
    """
    rng = make_rng(derive_seed(seed, 0x570))
    ops: List[Op] = []
    victim_lines = [0x7FF0_0000 + v * stride_sets for v in range(victims)]
    for _ in range(rounds):
        batch = [0x6000_0000 + rng.randrange(1 << 20) for _ in range(capacity)]
        stride = [0x6100_0000 + i * stride_sets for i in range(capacity // 2)]
        for sweep in (batch, batch, stride):
            for line in sweep:
                ops.append(("access", line, False, 0, False, 0))
        for line in batch[: capacity // 4]:
            ops.append(("access", line, False, 0, False, 0))
        for victim in victim_lines:
            ops.append(("access", victim, False, 1, False, 1))
            ops.append(("access", victim, True, 1, False, 1))
        for line in rng.sample(batch, min(4, len(batch))):
            ops.append(("invalidate", line, 0))
        ops.append(("flush",))
    return ops


def prime_probe_ops(
    capacity: int,
    trials: int = 6,
    ways: int = 8,
    rekey_period: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[Op]:
    """One-set prime/probe cycles with optional mid-stream rekeys.

    Models the policy-leakage probe's traffic: a small conflict group
    primed repeatedly, a sometimes-running victim, and (when
    ``rekey_period`` is set) ``("rekey",)`` ops that exercise the
    engines' key-refresh path mid-stream - the PR 5 fallback boundary.
    """
    rng = make_rng(derive_seed(seed, 0x571))
    ops: List[Op] = []
    group = [0x6200_0000 + i * max(capacity // ways, 1) for i in range(ways)]
    victim = 0x7FFE_0000
    for trial in range(trials):
        if rekey_period and trial and trial % rekey_period == 0:
            ops.append(("rekey",))
        ops.append(("flush",))
        for line in group:
            ops.append(("access", line, False, 0, False, 0))
            ops.append(("access", line, False, 0, False, 0))
        if rng.random() < 0.5:
            ops.append(("access", victim, False, 1, False, 1))
            ops.append(("access", victim, True, 1, False, 1))
    return ops
