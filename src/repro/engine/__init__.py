"""Fast execution layers behind ``run_mix``.

* :mod:`repro.engine.specialize` - installs each design's one generated
  ``access_fast`` step (Maya's :mod:`repro.core.maya_step`, Mirage's
  :mod:`repro.llc.mirage_step`, the set-associative array's
  :mod:`repro.cache.set_assoc_step`) through a releasable
  ``Specialization``.
* :mod:`repro.engine.opstream` - per-core op streams: the private
  levels pre-simulated once, leaving only the LLC/DRAM operations.
* :mod:`repro.engine.vector` - the op-stream replay that drives every
  op through the LLC's generated step in the per-access drive's order,
  in a generated kernel that runs the step's body inline.

``run_mix`` (:mod:`repro.hierarchy.simulator`) takes the replay unless
it declines an input it cannot replay exactly; only then does the
per-access drive loop run.  That loop runs the same generated steps and
stays the replay's differential oracle in the test suite.
"""
