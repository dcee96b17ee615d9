"""Fast execution layers behind ``run_mix``.

* :mod:`repro.engine.specialize` - installs each design's one generated
  ``access_fast`` step (Maya's :mod:`repro.core.maya_step`, Mirage's
  :mod:`repro.llc.mirage_step`, the set-associative array's
  :mod:`repro.cache.set_assoc_step`) through a releasable
  ``Specialization``, and resolves which drive ``run_mix`` takes.
* :mod:`repro.engine.opstream` - per-core op streams: the private
  levels pre-simulated once, leaving only the LLC/DRAM operations.
* :mod:`repro.engine.vector` - the op-stream replay that drives every
  op through the LLC's generated step in the per-access drive's order.

The per-access drive loops in :mod:`repro.hierarchy.simulator` stay
the replay's differential oracle (``specialize=False`` /
``REPRO_SPECIALIZE=0``); they run the same generated steps.
"""
