"""Host speed: a fixed probe, timed twenty times a second, that turns
wall time into time at a reference speed.

The measuring machine is a VM shared with other tenants, and its speed
drifts by up to 2x over seconds to minutes: a fixed pure-Python loop
timed back to back read 14-24 ms within 90 s, with CPU time equal to
wall time and no steal time recorded.  Fourteen fresh processes each
timing the same ``maya-mcf`` job for 25 s had medians 1.53-2.23 s
(interquartile spread 19.5%).  A job's wall time therefore measures the
host as much as the program.

So every untraced bench process, and every process it forks, runs a
:class:`Probe` from a ``SIGALRM`` handler every :data:`INTERVAL_S`
seconds and appends ``(start, duration)`` to a file of its own in one
shared directory.  The probe is bench code, the same on every commit,
and does the kind of work the simulator does: cache lookups in pure
Python.  The host's speed over a window, relative to the reference, is
the mean of ``REFERENCE_S / duration`` over the probes that started
inside it (in any process), and a window's reference time is its wall
time times that speed: the time the same work takes on a host where one
probe takes :data:`REFERENCE_S`.

Why this probe: one process per workload ran jobs back to back for
90-150 s while a probe of five parts ran.  Job wall times varied by
16.0% (``maya-mcf``), 17.6% (``campaign``) and 8.2% (``paper-grid``),
as coefficients of variation.  Scaled by the cache-lookup part, they
varied 3.0%, 2.7% and 2.6%.  Scaled by the other four parts together
(int and dict arithmetic, bytes scattered over 16 MiB, tuples made and
dropped in a large list, method calls), they varied 4.4%, 5.4% and 3.4%:
on the two busier workloads the jobs slowed 1.3-1.4 times as much as
those parts did, and 1.0-1.15 times as much as the cache lookups.

The probe costs ~1.5% of each process's time, on every commit alike,
and its tables add under 1 MiB to each process's resident set.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import struct
import time
from typing import Iterator, List, Tuple

#: Seconds between probes.
INTERVAL_S = 0.05

#: Shortest window a speed is taken over: a shorter one (a job that
#: failed at once) is widened backwards to this.
MIN_WINDOW_S = 1.0

#: Duration of one probe on the reference host: a round figure inside
#: the 0.5-0.8 ms the probe takes on the measuring VM, so reference times
#: read close to wall times there.
REFERENCE_S = 0.5e-3

_RECORD = struct.Struct("<dd")
_SETS = 4096
_WAYS = 8


class Probe:
    """The fixed piece of work whose duration measures the host: a
    4096-set, 8-way LRU cache in pure Python, looked up by a fixed stream
    of 1000 addresses through a dict of set indices - the kind of work
    the simulator itself does.  The cache is filled once, so every probe
    does the same 1000 lookups, all hits."""

    def __init__(self):
        rng = random.Random(20240611)  # fixed: the probe never depends on --seed
        hot = [rng.randrange(1 << 30) for _ in range(3000)]
        self.addresses = [
            hot[rng.randrange(len(hot))] if rng.random() < 0.6 else rng.randrange(1 << 30)
            for _ in range(1000)
        ]
        self.tags = [-1] * (_SETS * _WAYS)
        self.stamps = [0] * (_SETS * _WAYS)
        self.set_of = {}
        self.clock = 0
        self()

    def __call__(self) -> None:
        tags, stamps, set_of = self.tags, self.stamps, self.set_of
        clock = self.clock
        for address in self.addresses:
            clock += 1
            base = set_of.get(address)
            if base is None:
                base = set_of[address] = ((address * 0x9E3779B1) >> 11) % _SETS * _WAYS
            for way in range(base, base + _WAYS):
                if tags[way] == address:
                    stamps[way] = clock
                    break
            else:
                victim = min(range(base, base + _WAYS), key=stamps.__getitem__)
                tags[victim] = address
                stamps[victim] = clock
        self.clock = clock


class Sampler:
    """Runs the probe every :data:`INTERVAL_S` seconds in this process
    and in every process forked from it, each appending its samples to
    ``<directory>/<pid>.bin``.

    Only one sampler may run in a process: it owns ``SIGALRM`` and the
    real-time interval timer.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.probe = Probe()
        self.fd = -1
        self.running = False
        self.started = 0.0

    def start(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        os.register_at_fork(after_in_child=self._restart_in_child)
        signal.signal(signal.SIGALRM, self._tick)
        self.running = True
        self._open()
        self.started = time.monotonic()
        self._tick(signal.SIGALRM, None)  # every window from here on holds a probe
        self._arm(INTERVAL_S)

    def stop(self) -> None:
        if not self.running:
            return
        self._arm(0.0)
        self.running = False
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        os.close(self.fd)
        self.fd = -1

    @contextlib.contextmanager
    def pause(self) -> Iterator[None]:
        """No probes in this process (its forked children go on) while
        the block runs: for a process that only waits on its children,
        whose cores its probes would take."""
        self._arm(0.0)
        try:
            yield
        finally:
            self._arm(INTERVAL_S)

    def _open(self) -> None:
        path = os.path.join(self.directory, f"{os.getpid()}.bin")
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def _arm(self, seconds: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)

    def _restart_in_child(self) -> None:
        # Interval timers are not inherited across fork; the handler is.
        if not self.running:
            return
        os.close(self.fd)
        self._open()
        self._arm(INTERVAL_S)

    def _tick(self, _signum, _frame) -> None:
        if self.fd < 0:  # a signal that arrived just before stop()
            return
        start = time.monotonic()
        self.probe()
        os.write(self.fd, _RECORD.pack(start, time.monotonic() - start))

    def samples(self) -> List[Tuple[float, float]]:
        """Every ``(start, duration)`` written so far, by every process."""
        out: List[Tuple[float, float]] = []
        for name in os.listdir(self.directory):
            with open(os.path.join(self.directory, name), "rb") as handle:
                data = handle.read()
            usable = len(data) - len(data) % _RECORD.size
            out.extend(_RECORD.iter_unpack(data[:usable]))
        return out

    def speed(self, start: float, end: float) -> float:
        """The host's mean speed relative to the reference over
        ``[start, end)`` (``time.monotonic`` seconds, from :attr:`started`
        on), widened to at least :data:`MIN_WINDOW_S`."""
        return window_speed(self.samples(), min(start, end - MIN_WINDOW_S), end)


def window_speed(samples: List[Tuple[float, float]], start: float, end: float) -> float:
    """Mean of ``REFERENCE_S / duration`` over the probes that started in
    ``[start, end)``.  A window's reference time is its wall time times
    this: work done is wall time times the mean speed over the window,
    so averaging the inverse durations (not the durations) is exact for
    evenly spaced probes."""
    speeds = [REFERENCE_S / duration for t, duration in samples
              if start <= t < end and duration > 0]
    if not speeds:
        raise ValueError(f"no speed probe ran in a window of {end - start:.3f} s")
    return sum(speeds) / len(speeds)
