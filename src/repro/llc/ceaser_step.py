"""CEASER's per-access step, rendered per configuration.

The one fast implementation of :class:`~repro.llc.ceaser.CeaserCache`'s
access protocol: encrypt the line address, run the inner
set-associative array's installed step on the ciphertext (looked up per
access, so whatever step the array has runs), mirror a victim into the
design's ``victim_*`` fields and count the fill toward the epoch remap.
The remap period renders as a literal.  Under ``"splitmix"`` the mixer
is inlined and its key read per access, because a rekey swaps it; a
PRINCE encryption calls out to the cipher, as in Mirage's step.
:meth:`CeaserCache.access_fast` binds the step on first use;
:mod:`repro.engine.specialize` installs the array's step and then this
one, releasably.  The differential tests hold it against the protocol
written out call by call over the reference set-associative cache.
"""

from __future__ import annotations

from ..common.codegen import _indent, _splitmix, bind_template, compiled_template

# ACC literals: HIT=1, EVICTED=2.  A remap's flush overwrites the array's
# victim fields, so the fill's victim is mirrored first.
_TEMPLATE = '''\
# Generated by repro.llc.ceaser_step; do not edit.
# kind=ceaser algorithm={ALGORITHM} remap={REMAP_PERIOD}


def _bind(llc, SimulationError, SetAssociativeEviction):
    cache = llc._cache
    rand = llc.index_randomizer
    encrypt = rand.encrypt_address

    def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
{ENCRYPT}
        flags = cache.access_fast(tag, is_write, core_id, is_writeback, sdid)
        if flags & 1:
            return flags
        if flags & 2:
            llc.victim_addr = cache.victim_addr
            llc.victim_core = cache.victim_core
            llc.victim_sdid = cache.victim_sdid
            llc.victim_reused = cache.victim_reused
        llc._fills_since_remap = fills = llc._fills_since_remap + 1
        if fills >= {REMAP_PERIOD}:
            llc.rekey()
        return flags

    return access_fast
'''


def ceaser_step(llc):
    """The ``access_fast`` closure for a :class:`CeaserCache`."""
    algorithm = llc.index_randomizer.algorithm
    fingerprint = (algorithm, llc.remap_period)

    def build() -> str:
        if algorithm == "splitmix":
            encrypt = _splitmix("line_addr", "rand._mix_keys[0]") + "tag = x\n"
        else:
            encrypt = "tag = encrypt(line_addr)\n"
        return _TEMPLATE.format(
            ALGORITHM=algorithm,
            REMAP_PERIOD=llc.remap_period,
            ENCRYPT=_indent(encrypt, 8),
        )

    return bind_template(compiled_template("ceaser", fingerprint, build), llc)
