"""Run the experiments CLI on the per-access drive.

Makes ``repro.engine.vector.create_vector_replay`` decline every input,
so each ``run_mix`` call walks every access through the hierarchy - the
op-stream replay's differential oracle - and then runs the CLI's
``main`` with the given arguments.  ``--jobs`` workers are forked, so
they inherit the patch; a ``--service`` drain does not (the service's
workers are its own).  The canonical ``--results`` file must be
byte-identical to a normal run's.

Usage::

    python tools/per_access_drive.py fig9 fig10 table7 table11 --fast \\
        --jobs 2 --results results/grid_per_access.json
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.engine import vector  # noqa: E402
from repro.harness import cli  # noqa: E402


def decline_replay(*args, **kwargs):
    return None, "per-access drive pinned by tools/per_access_drive.py"


@contextlib.contextmanager
def per_access_drive():
    """The ``run_mix`` calls inside the block take the per-access drive."""
    create = vector.create_vector_replay
    vector.create_vector_replay = decline_replay
    try:
        yield
    finally:
        vector.create_vector_replay = create


def main(argv=None) -> int:
    # Forked workers inherit the patched module; spawned ones would not.
    multiprocessing.set_start_method("fork", force=True)
    with per_access_drive():
        return cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
