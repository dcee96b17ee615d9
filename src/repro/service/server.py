"""HTTP/JSON front end over the resident worker pool.

``repro serve`` binds a localhost endpoint backed by one
:class:`repro.service.pool.WorkerPool` and keeps it resident: workers
boot once, caches warm once, and every submitted grid after that pays
only pipe round-trips.  The wire protocol is deliberately tiny - JSON
over stdlib ``http.server``, no third-party dependencies:

===========================  ===============================================
``POST /submit``             body ``{"tasks": [{name, description, module,
                             kwargs}, ...]}`` -> ``{"id": ..., "units": N}``.
                             Planning (shard fan-out) happens server-side
                             through the runner's own ``plan_task``.
``GET  /status``             server + per-worker cache-warm accounting.
``GET  /result/<id>``        ``{"done": false, "completed_units": k}`` while
                             running; the full per-task results once done.
``GET  /stream/<id>``        JSON-lines: one ``shard`` event per completed
                             unit, a ``task`` event per finished task (text
                             included), then a final ``done`` line.  Partial
                             results stream as shards complete.
``POST /shutdown``           body ``{"drain": true, "deadline": 30}``;
                             drains in-flight work, then exits the process.
===========================  ===============================================

**Lifecycle.**  ``serve()`` writes a pidfile under
``results/.service/`` so ``repro stop`` can find running
instances; a stale pidfile (dead pid) is cleaned up on the next start
or stop.  SIGTERM and SIGINT trigger the same graceful path as
``POST /shutdown``: submissions are refused (503), in-flight jobs get
``drain_deadline`` seconds to finish, then the pool is torn down and
the pidfile removed.

Determinism: the server executes the exact units a serial run would
and merges them with the runner's own code, so a grid drained through
the service produces byte-identical results to a serial run and to
``--jobs``, which drains an in-process pool through the same
:class:`~repro.service.jobs.GridRun` (see tests/test_service_server.py
and the CI ``service-smoke`` job).
"""

from __future__ import annotations

import json
import os
import queue
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence

from ..harness.runner import ExperimentTask
from . import jobs as jobs_mod
from .jobs import GridRun
from .pool import WorkerPool

#: Default state directory: pidfiles live next to the on-disk caches.
DEFAULT_STATE_DIR = os.path.join("results", ".service")

#: Default seconds in-flight jobs get to finish on graceful shutdown.
DEFAULT_DRAIN_DEADLINE = 30.0

SCHEMA = "repro.service/1"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


# -- pidfile management ------------------------------------------------------


def pidfile_path(state_dir: str, port: int) -> str:
    return os.path.join(state_dir, f"serve-{port}.pid")


def write_pidfile(state_dir: str, port: int, address: str) -> str:
    os.makedirs(state_dir, exist_ok=True)
    path = pidfile_path(state_dir, port)
    payload = {"pid": os.getpid(), "address": address, "port": port,
               "started": time.time()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return path


def read_pidfiles(state_dir: str) -> List[Dict[str, object]]:
    """All pidfiles under ``state_dir`` (including stale ones)."""
    if not os.path.isdir(state_dir):
        return []
    entries = []
    for name in sorted(os.listdir(state_dir)):
        if not (name.startswith("serve-") and name.endswith(".pid")):
            continue
        path = os.path.join(state_dir, name)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            payload["path"] = path
            entries.append(payload)
        except (OSError, json.JSONDecodeError, ValueError):
            entries.append({"path": path, "pid": None})
    return entries


def clean_stale_pidfiles(state_dir: str) -> List[str]:
    """Remove pidfiles whose process is gone; returns removed paths."""
    removed = []
    for entry in read_pidfiles(state_dir):
        pid = entry.get("pid")
        if pid is None or not _pid_alive(int(pid)):
            try:
                os.unlink(str(entry["path"]))
                removed.append(str(entry["path"]))
            except OSError:
                pass
    return removed


# -- the service --------------------------------------------------------------


class _Submission:
    def __init__(self, sub_id: str, grid: GridRun):
        self.id = sub_id
        self.grid = grid
        self.events: List[Dict[str, object]] = []
        self.cond = threading.Condition()
        self.done = False
        self.created = time.time()

    def add_event(self, event: Dict[str, object]) -> None:
        with self.cond:
            if self.done and event.get("event") == "done":
                return  # pump and shutdown path raced; one 'done' wins
            self.events.append(event)
            if event.get("event") == "done":
                self.done = True
            self.cond.notify_all()


class SimulationService:
    """The shared state behind the HTTP handler: pool + submissions."""

    def __init__(self, workers: int = 2, warm_modules: Optional[Sequence[str]] = None):
        self.pool = WorkerPool(workers=workers, warm_modules=warm_modules)
        self.submissions: Dict[str, _Submission] = {}
        self.lock = threading.Lock()
        self.started = time.time()
        self.draining = False
        self._counter = 0
        self._owner: Dict[str, str] = {}  # job_id -> submission id
        self._pump: Optional[threading.Thread] = None

    def start(self) -> "SimulationService":
        self.pool.start()
        self._pump = threading.Thread(
            target=self._pump_results, name="repro-service-pump", daemon=True
        )
        self._pump.start()
        return self

    def submit(self, tasks: Sequence[ExperimentTask]) -> _Submission:
        with self.lock:
            if self.draining:
                raise RuntimeError("service is draining; submission refused")
            self._counter += 1
            sub_id = f"s{self._counter}"
            grid = GridRun(tasks, job_prefix=sub_id)
            submission = _Submission(sub_id, grid)
            self.submissions[sub_id] = submission
            for unit in grid.units:
                self._owner[unit.job_id] = sub_id
        if grid.units:
            self.pool.submit_many(grid.units)
        else:
            submission.add_event({"event": "done", "ok": True})
        return submission

    def _pump_results(self) -> None:
        while True:
            try:
                message = self.pool.next_result(timeout=0.5)
            except queue.Empty:
                continue
            with self.lock:
                sub_id = self._owner.get(message.job_id)
                submission = self.submissions.get(sub_id) if sub_id else None
            if submission is None:
                continue
            grid = submission.grid
            finished = grid.record(
                message.job_id, message.payload, message.seconds, message.error,
                message.reissues,
            )
            unit = grid.unit(message.job_id)
            submission.add_event({
                "event": "shard",
                "task": grid.tasks[unit.task_index].name,
                "unit": unit.unit_index,
                "shard_key": None if unit.shard_key is None else str(unit.shard_key),
                "seconds": round(message.seconds, 4),
                "ok": message.error is None,
                "worker": message.worker,
                "reissues": message.reissues,
            })
            if finished is not None:
                submission.add_event({
                    "event": "task",
                    "result": jobs_mod.result_to_dict(finished),
                })
            if grid.done:
                submission.add_event({
                    "event": "done",
                    "ok": all(r.ok for r in grid.results()),
                })

    def status(self) -> Dict[str, object]:
        with self.lock:
            submissions = list(self.submissions.values())
        workers = self.pool.worker_stats()
        # Aggregate warm accounting: total resident-cache reuse across
        # the pool, plus first-touch warm cost, so "did the residency
        # pay off" is answerable from /status alone.
        # Memory: per-worker peak RSS sums to the pool's aggregate
        # footprint, while mapped artifact bytes are *shared* - the
        # same page-cache pages back every worker's maps - so the
        # physical cost of all maps together is the max, not the sum.
        mapped = [w.get("mapped_bytes", 0) for w in workers]
        totals = {
            "jobs": sum(w["jobs"] for w in workers),
            "resident_memory_hits": sum(w["resident_memory_hits"] for w in workers),
            "warm_seconds": round(
                sum(w["boot"].get("warm_seconds", 0.0) for w in workers), 4
            ),
            "restarts": self.pool.restarts,
            "peak_rss_kb": sum(w.get("peak_rss_kb", 0) for w in workers),
            "mapped_bytes_total": sum(mapped),
            "mapped_bytes_shared": max(mapped) if mapped else 0,
            "map_reuses": sum(
                w["caches"].get("store", {}).get("map_reuses", 0) for w in workers
            ),
        }
        return {
            "schema": SCHEMA,
            "pid": os.getpid(),
            "uptime_seconds": round(time.time() - self.started, 3),
            "draining": self.draining,
            "pending_units": self.pool.pending(),
            "workers": workers,
            "totals": totals,
            "submissions": {
                "count": len(submissions),
                "done": sum(1 for s in submissions if s.done),
            },
        }

    def shutdown(self, drain: bool = True, deadline: Optional[float] = None) -> bool:
        with self.lock:
            self.draining = True
        finished = self.pool.shutdown(
            drain=drain, deadline=DEFAULT_DRAIN_DEADLINE if deadline is None else deadline
        )
        # Whatever did not finish is marked failed so streaming clients
        # terminate instead of hanging.
        with self.lock:
            submissions = list(self.submissions.values())
        for submission in submissions:
            if not submission.done:
                submission.grid.fail_outstanding("service shut down before completion")
                submission.add_event({"event": "done", "ok": False})
        return finished


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    service: SimulationService = None  # injected by make_server
    on_shutdown = None  # callable, injected

    # quiet by default; the serve() loop logs one line per request
    def log_message(self, fmt, *args):  # noqa: A003
        pass

    def _json(self, code: int, payload: Dict[str, object]) -> None:
        blob = (json.dumps(payload, indent=None) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _read_body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return {}

    # -- GET ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/status":
            self._json(200, self.service.status())
        elif self.path.startswith("/result/"):
            self._result(self.path[len("/result/"):])
        elif self.path.startswith("/stream/"):
            self._stream(self.path[len("/stream/"):])
        else:
            self._json(404, {"error": f"no such endpoint {self.path!r}"})

    def _result(self, sub_id: str) -> None:
        submission = self.service.submissions.get(sub_id)
        if submission is None:
            self._json(404, {"error": f"unknown submission {sub_id!r}"})
            return
        grid = submission.grid
        if not submission.done:
            self._json(200, {
                "id": sub_id, "done": False,
                "completed_units": grid.completed_units, "units": len(grid),
            })
            return
        self._json(200, {
            "id": sub_id, "done": True, "units": len(grid),
            "ok": all(r.ok for r in grid.results()),
            "results": [jobs_mod.result_to_dict(r) for r in grid.results()],
        })

    def _stream(self, sub_id: str) -> None:
        submission = self.service.submissions.get(sub_id)
        if submission is None:
            self._json(404, {"error": f"unknown submission {sub_id!r}"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def emit(event: Dict[str, object]) -> None:
            line = (json.dumps(event) + "\n").encode("utf-8")
            self.wfile.write(f"{len(line):x}\r\n".encode("ascii"))
            self.wfile.write(line + b"\r\n")
            self.wfile.flush()

        sent = 0
        try:
            while True:
                with submission.cond:
                    while sent >= len(submission.events) and not submission.done:
                        submission.cond.wait(timeout=1.0)
                    batch = submission.events[sent:]
                    done = submission.done
                sent += len(batch)
                for event in batch:
                    emit(event)
                if done and sent >= len(submission.events):
                    break
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    # -- POST --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802
        if self.path == "/submit":
            body = self._read_body()
            raw_tasks = body.get("tasks")
            if not isinstance(raw_tasks, list) or not raw_tasks:
                self._json(400, {"error": "body must carry a non-empty 'tasks' list"})
                return
            try:
                tasks = [jobs_mod.task_from_dict(t) for t in raw_tasks]
            except (KeyError, TypeError) as exc:
                self._json(400, {"error": f"malformed task: {exc}"})
                return
            try:
                submission = self.service.submit(tasks)
            except RuntimeError as exc:
                self._json(503, {"error": str(exc)})
                return
            self._json(200, {
                "id": submission.id,
                "tasks": len(submission.grid.tasks),
                "units": len(submission.grid),
            })
        elif self.path == "/shutdown":
            body = self._read_body()
            drain = bool(body.get("drain", True))
            deadline = body.get("deadline")
            self._json(200, {"ok": True, "draining": drain})
            if self.on_shutdown is not None:
                threading.Thread(
                    target=self.on_shutdown, args=(drain, deadline), daemon=True
                ).start()
        else:
            self._json(404, {"error": f"no such endpoint {self.path!r}"})


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    warm_modules: Optional[Sequence[str]] = None,
):
    """Build (but do not run) the HTTP server + service; returns both.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.server_address``.  The returned server's ``shutdown_service``
    runs the graceful path: refuse new work, drain, stop the pool, stop
    the HTTP loop.
    """
    service = SimulationService(workers=workers, warm_modules=warm_modules).start()

    class Handler(_Handler):
        pass

    Handler.service = service

    server = ThreadingHTTPServer((host, port), Handler)
    server.daemon_threads = True
    done = threading.Event()

    def shutdown_service(drain: bool = True, deadline: Optional[float] = None) -> None:
        if done.is_set():
            return
        done.set()
        service.shutdown(drain=drain, deadline=deadline)
        server.shutdown()

    Handler.on_shutdown = staticmethod(shutdown_service)
    server.shutdown_service = shutdown_service
    server.service = service
    return server, service


def serve(
    host: str = "127.0.0.1",
    port: int = 8971,
    workers: int = 2,
    state_dir: str = DEFAULT_STATE_DIR,
    drain_deadline: float = DEFAULT_DRAIN_DEADLINE,
    warm_modules: Optional[Sequence[str]] = None,
    ready_message: bool = True,
) -> int:
    """Run the service until shut down; returns an exit status.

    Installs SIGTERM/SIGINT handlers for graceful drain, cleans stale
    pidfiles from previous runs, and removes its own pidfile on exit.
    """
    for removed in clean_stale_pidfiles(state_dir):
        print(f"[serve] removed stale pidfile {removed}", flush=True)
    for entry in read_pidfiles(state_dir):
        pid = entry.get("pid")
        if pid is not None and _pid_alive(int(pid)):
            print(
                f"[serve] already running (pid {pid}, {entry.get('address')}); "
                "use 'repro stop' first",
                flush=True,
            )
            return 1
    try:
        server, service = make_server(host=host, port=port, workers=workers,
                                      warm_modules=warm_modules)
    except OSError as exc:
        print(f"[serve] cannot bind {host}:{port}: {exc}", flush=True)
        return 1
    actual_port = server.server_address[1]
    address = f"{host}:{actual_port}"
    pidfile = write_pidfile(state_dir, actual_port, address)

    def on_signal(signum, _frame):
        print(f"[serve] signal {signum}: draining (deadline {drain_deadline:.0f}s)",
              flush=True)
        threading.Thread(
            target=server.shutdown_service, args=(True, drain_deadline), daemon=True
        ).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, on_signal)
        except ValueError:
            pass  # not the main thread (tests drive make_server directly)
    if ready_message:
        print(f"[serve] listening on {address} with {service.pool.size} resident "
              f"worker(s); pidfile {pidfile}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except ValueError:
                pass
        server.server_close()
        try:
            os.unlink(pidfile)
        except OSError:
            pass
        print("[serve] stopped", flush=True)
    return 0


def stop_running(
    state_dir: str = DEFAULT_STATE_DIR,
    port: Optional[int] = None,
    timeout: float = 15.0,
) -> int:
    """Stop running instance(s) found via pidfiles; returns #stopped.

    Tries a graceful ``POST /shutdown`` first, falls back to SIGTERM,
    and always cleans up stale pidfiles.
    """
    from .client import ServiceClient, ServiceError

    stopped = 0
    for entry in read_pidfiles(state_dir):
        pid = entry.get("pid")
        if port is not None and entry.get("port") != port:
            continue
        path = str(entry["path"])
        if pid is None or not _pid_alive(int(pid)):
            try:
                os.unlink(path)
            except OSError:
                pass
            continue
        address = str(entry.get("address") or f"127.0.0.1:{entry.get('port')}")
        try:
            ServiceClient(address).shutdown(drain=True)
        except ServiceError:
            try:
                os.kill(int(pid), signal.SIGTERM)
            except OSError:
                pass
        limit = time.monotonic() + timeout
        while _pid_alive(int(pid)) and time.monotonic() < limit:
            time.sleep(0.1)
        if _pid_alive(int(pid)):
            print(f"[serve] pid {pid} did not exit within {timeout:.0f}s", flush=True)
        else:
            stopped += 1
            try:
                os.unlink(path)
            except OSError:
                pass
    return stopped
