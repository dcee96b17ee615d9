"""Fast execution layers behind ``run_mix``.

* :mod:`repro.engine.specialize` - installs config-specialized
  ``access_fast`` step functions per run: the Mirage and set-assoc
  templates, and Maya's one generated step
  (:mod:`repro.core.maya_step`).
* :mod:`repro.engine.opstream` - per-core op streams: the private
  levels pre-simulated once, leaving only the LLC/DRAM operations.
* :mod:`repro.engine.vector` - the op-stream replay that drives every
  op through the LLC's (specialized) step in the per-access drive's
  order.

The per-access drive loops in :mod:`repro.hierarchy.simulator` stay
the differential oracle (``specialize=False`` / ``REPRO_SPECIALIZE=0``).
"""
