"""Stdlib HTTP client for the resident simulation service.

:class:`ServiceClient` wraps the tiny JSON protocol of
:mod:`repro.service.server` - submit a task grid, stream per-shard
progress, fetch results - and reconstructs the same
:class:`repro.harness.runner.TaskResult` list a local ``run_tasks``
call would return, so callers (the harness CLI's ``--service`` path,
tests) cannot tell the difference except in speed.

Addresses are forgiving: ``HOST:PORT``, ``:PORT``, a bare port, or a
full ``http://`` URL all resolve; bare ports bind to ``127.0.0.1``.
The service is localhost-oriented by design - it is a worker pool, not
a public API.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..harness.runner import ExperimentTask, TaskResult
from . import jobs as jobs_mod


class ServiceError(RuntimeError):
    """The service is unreachable or rejected the request."""


def normalize_address(address: str) -> str:
    """``HOST:PORT`` / ``:PORT`` / ``PORT`` / URL -> ``http://host:port``."""
    address = str(address).strip()
    if not address:
        raise ServiceError("empty service address")
    if address.startswith(("http://", "https://")):
        return address.rstrip("/")
    if address.isdigit():
        return f"http://127.0.0.1:{address}"
    if address.startswith(":"):
        return f"http://127.0.0.1{address}"
    return f"http://{address}"


class ServiceClient:
    def __init__(self, address: str, timeout: float = 30.0):
        self.base = normalize_address(address)
        self.timeout = timeout

    # -- raw endpoints -----------------------------------------------------

    def _request(self, path: str, body: Optional[Dict] = None,
                 timeout: Optional[float] = None) -> Dict[str, object]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base + path, data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:  # noqa: BLE001 - best-effort error detail
                detail = ""
            raise ServiceError(
                f"{path}: HTTP {exc.code}" + (f" ({detail})" if detail else "")
            ) from exc
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            raise ServiceError(f"service at {self.base} unreachable: {exc}") from exc

    def status(self) -> Dict[str, object]:
        return self._request("/status")

    def submit(self, tasks: Sequence[ExperimentTask]) -> str:
        payload = self._request(
            "/submit", body={"tasks": [jobs_mod.task_to_dict(t) for t in tasks]}
        )
        return str(payload["id"])

    def result(self, sub_id: str) -> Dict[str, object]:
        return self._request(f"/result/{sub_id}")

    def shutdown(self, drain: bool = True, deadline: Optional[float] = None) -> None:
        body: Dict[str, object] = {"drain": drain}
        if deadline is not None:
            body["deadline"] = deadline
        self._request("/shutdown", body=body)

    def stream(self, sub_id: str) -> Iterator[Dict[str, object]]:
        """Yield progress events (shard/task/done) as the service emits
        them; returns when the submission completes."""
        request = urllib.request.Request(self.base + f"/stream/{sub_id}")
        try:
            with urllib.request.urlopen(request, timeout=max(self.timeout, 3600.0)) as response:
                for raw in response:
                    line = raw.strip()
                    if not line:
                        continue
                    event = json.loads(line.decode("utf-8"))
                    yield event
                    if event.get("event") == "done":
                        return
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            raise ServiceError(f"stream from {self.base} failed: {exc}") from exc

    # -- high-level --------------------------------------------------------

    def wait(
        self,
        sub_id: str,
        progress: Optional[Callable[[str], None]] = None,
        poll: float = 0.2,
    ) -> List[TaskResult]:
        """Block until ``sub_id`` completes; returns its TaskResults.

        Prefers the streaming endpoint (live per-task progress lines in
        the runner's format); degrades to polling ``/result`` if the
        stream breaks mid-flight.
        """
        notify = progress or (lambda _line: None)
        try:
            for event in self.stream(sub_id):
                if event.get("event") == "task":
                    result = jobs_mod.result_from_dict(event["result"])
                    from ..harness.runner import progress_line

                    notify(progress_line(result))
        except ServiceError:
            while True:  # stream broke: fall back to polling until done
                payload = self.result(sub_id)
                if payload.get("done"):
                    break
                time.sleep(poll)
        payload = self.result(sub_id)
        if not payload.get("done"):
            # The stream said done before /result caught up; brief poll.
            deadline = time.monotonic() + self.timeout
            while not payload.get("done") and time.monotonic() < deadline:
                time.sleep(poll)
                payload = self.result(sub_id)
        if not payload.get("done"):
            raise ServiceError(f"submission {sub_id} never completed")
        return [jobs_mod.result_from_dict(r) for r in payload["results"]]

    def run_tasks(
        self,
        tasks: Sequence[ExperimentTask],
        progress: Optional[Callable[[str], None]] = None,
    ) -> List[TaskResult]:
        """Submit + wait: the drop-in equivalent of ``runner.run_tasks``."""
        return self.wait(self.submit(tasks), progress=progress)


def wait_until_up(address: str, timeout: float = 30.0, poll: float = 0.1) -> Dict[str, object]:
    """Poll ``/status`` until the service answers; returns its payload.

    For scripts (and CI) that background ``repro serve`` and need to
    know when workers are accepting jobs.
    """
    client = ServiceClient(address, timeout=max(poll * 5, 2.0))
    deadline = time.monotonic() + timeout
    last: Optional[ServiceError] = None
    while time.monotonic() < deadline:
        try:
            return client.status()
        except ServiceError as exc:
            last = exc
            time.sleep(poll)
    raise ServiceError(f"service at {address} not up after {timeout:.0f}s: {last}")
