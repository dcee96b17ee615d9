"""Resident simulation service: persistent workers, zero per-job spawn.

A ``--jobs N`` sweep (``repro.harness.runner``) starts its worker pool
per run, so every sweep pays worker start-up, imports and cache
re-warm.  This package keeps all of that resident:

* :mod:`~repro.service.pool` - N workers boot once over
  ``multiprocessing`` pipes, pre-import the simulation stack, keep the
  compiled-trace / translated-index / op-stream caches hot, survive
  crashes (lost units are re-issued, byte-identically), and report
  per-worker cache-warm accounting.  ``--jobs N`` drains on an
  in-process pool of its own, with no HTTP layer.
* :mod:`~repro.service.jobs` - adapts :class:`ExperimentTask` grids
  and the shard protocol to the pool through the runner's *own*
  planning/merge code, so results match serial byte for byte.
* :mod:`~repro.service.server` / :mod:`~repro.service.client` - a
  localhost HTTP/JSON endpoint (submit / status / result / stream /
  shutdown) with graceful SIGTERM drain and pidfile management.
* :mod:`~repro.service.cli` - the ``repro serve`` / ``repro status`` /
  ``repro stop`` commands.

The batch CLI targets a running service with ``--service ADDR`` or the
:data:`SERVICE_ENV` (``REPRO_SERVICE``) environment variable.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable naming the default service address; consulted
#: by the harness CLI's ``--service`` and ``repro status``.
SERVICE_ENV = "REPRO_SERVICE"

#: Where ``repro serve`` listens when no port is given.
DEFAULT_ADDRESS = "127.0.0.1:8971"


def resolve_address(address: Optional[str] = None) -> Optional[str]:
    """Explicit ``address`` wins; else :data:`SERVICE_ENV`; else None.

    Returning None means "no service configured - run locally", which
    is how ``runner.run_tasks`` keeps the local paths (serial or
    ``--jobs``) the default.
    """
    if address:
        return address
    return os.environ.get(SERVICE_ENV) or None


def __getattr__(name: str):
    # Lazy re-exports so `import repro.service` stays light.
    if name in ("WorkerPool", "DEFAULT_WARM_MODULES"):
        from . import pool

        return getattr(pool, name)
    if name in ("GridRun", "Unit", "cache_snapshot"):
        from . import jobs

        return getattr(jobs, name)
    if name in ("ServiceClient", "ServiceError", "wait_until_up"):
        from . import client

        return getattr(client, name)
    if name in ("serve", "make_server", "stop_running", "SimulationService"):
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
