"""A fresh interpreter pays only for what it runs.

Every CLI run, ``--jobs``/service parent and bench set-up starts a new
process, so an import that no entry point needs costs each of them its
load time and resident memory.  scipy was such an import (~1 s and
~65 MiB); this pins that no entry point brings it back.  There is no
timing assertion: wall times vary too much between hosts.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

CHILD = """
import sys

import repro
import repro.harness.cli
import repro.security.campaign
import repro.service.server

print("\\n".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_entry_points_do_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
