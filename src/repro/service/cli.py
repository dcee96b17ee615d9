"""``repro`` - the resident simulation service CLI.

Usage::

    repro serve --workers 4                 # run the service (foreground)
    repro serve --port 9000 --workers 2
    repro status                            # worker + cache-warm accounting
    repro stop                              # stop running instance(s)
    repro stop --port 9000

Grids go to a running service through the experiment CLI:
``repro-experiments fig9 table7 --fast --service ADDR`` builds the task
grid a serial run would and drains it through the service; its printed
reports and ``--results`` JSON are byte-identical to a serial run, only
faster on repeat submissions because the workers stay warm.  ``status``
targets ``$REPRO_SERVICE``, falling back to ``127.0.0.1:8971``.

Also runnable as ``python -m repro.service``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import DEFAULT_ADDRESS, SERVICE_ENV
from .server import DEFAULT_DRAIN_DEADLINE, DEFAULT_STATE_DIR, serve, stop_running


def _default_address() -> str:
    return os.environ.get(SERVICE_ENV) or DEFAULT_ADDRESS


def _serve_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve", description="Run the resident simulation service."
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default localhost)")
    parser.add_argument("--port", type=int, default=8971, help="port (default 8971; 0 = ephemeral)")
    parser.add_argument(
        "--workers", type=int, default=0,
        help="resident workers (0 = one per CPU, capped at 8)",
    )
    parser.add_argument("--state-dir", default=DEFAULT_STATE_DIR,
                        help=f"pidfile directory (default {DEFAULT_STATE_DIR})")
    parser.add_argument("--drain-deadline", type=float, default=DEFAULT_DRAIN_DEADLINE,
                        metavar="S", help="seconds in-flight jobs get on SIGTERM/SIGINT")
    args = parser.parse_args(argv)

    from ..harness.runner import default_jobs

    workers = args.workers if args.workers > 0 else default_jobs()
    return serve(
        host=args.host, port=args.port, workers=workers,
        state_dir=args.state_dir, drain_deadline=args.drain_deadline,
    )


def _status_main(argv: List[str]) -> int:
    import json as json_mod

    from .client import ServiceClient, ServiceError

    parser = argparse.ArgumentParser(prog="repro status",
                                     description="Query the resident service.")
    parser.add_argument("--service", default=None, metavar="ADDR")
    args = parser.parse_args(argv)
    try:
        payload = ServiceClient(args.service or _default_address()).status()
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    print(json_mod.dumps(payload, indent=2))
    return 0


def _stop_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="repro stop",
                                     description="Stop running service instance(s).")
    parser.add_argument("--state-dir", default=DEFAULT_STATE_DIR)
    parser.add_argument("--port", type=int, default=None)
    args = parser.parse_args(argv)
    stopped = stop_running(state_dir=args.state_dir, port=args.port)
    print(f"stopped {stopped} service instance(s)")
    return 0


_COMMANDS = {
    "serve": _serve_main,
    "status": _status_main,
    "stop": _stop_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0
    command, rest = argv[0], argv[1:]
    handler = _COMMANDS.get(command)
    if handler is None:
        print(f"unknown command {command!r}; expected one of "
              f"{', '.join(_COMMANDS)}", file=sys.stderr)
        return 2
    return handler(rest)


if __name__ == "__main__":
    raise SystemExit(main())
