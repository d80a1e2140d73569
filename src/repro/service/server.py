"""The stdlib-HTTP observability endpoint of the job service.

Routes (all JSON):

* ``GET  /healthz``            -- liveness + service counters digest
* ``GET  /apps``               -- the app registry (names, kinds)
* ``GET  /metrics``            -- :meth:`JobManager.service_metrics`
* ``GET  /jobs``               -- job summaries (``?state=`` filters)
* ``GET  /jobs/<id>``          -- one job's summary
* ``GET  /jobs/<id>/metrics``  -- the job's unified metrics snapshot
  (live while running, frozen at completion)
* ``POST /jobs``               -- submit a :class:`JobSpec` as JSON;
  202 on admit/queue, 422 when the footprint can never fit, 429 on
  queue-full backpressure

Built on ``http.server.ThreadingHTTPServer`` -- no third-party
dependency -- and bound to an ephemeral port by default so tests and
the load harness can run many servers concurrently.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.runtime.errors import MPIError
from repro.service.errors import (
    AdmissionError,
    QueueFullError,
    UnknownAppError,
)
from repro.service.manager import JobManager
from repro.service.spec import JobSpec


class _Handler(BaseHTTPRequestHandler):
    """One request; the manager is reached through the server."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # silence the default stderr access log (the service's own metrics
    # replace it); error_message_format stays JSON-free but unused
    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        pass

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    # ------------------------------------------------------------ plumbing
    def _reply(self, code: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _job_id(self, part: str) -> Optional[int]:
        try:
            return int(part)
        except ValueError:
            return None

    # ------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        if path == "/healthz":
            sm = self.manager.service_metrics()
            self._reply(200, {"ok": True, "jobs": sm["jobs"],
                              "running": sm["running"],
                              "queue_depth": sm["queue_depth"]})
        elif path == "/apps":
            self._reply(200, self.manager.apps.describe())
        elif path == "/metrics":
            self._reply(200, self.manager.service_metrics())
        elif parts and parts[0] == "jobs":
            self._jobs_get(parts, query)
        else:
            self._reply(404, {"error": f"no route {path!r}"})

    def _jobs_get(self, parts, query: str) -> None:
        if len(parts) == 1:
            state = None
            for kv in query.split("&"):
                if kv.startswith("state="):
                    state = kv.split("=", 1)[1]
            self._reply(200, [j.info() for j in self.manager.jobs(state)])
            return
        job_id = self._job_id(parts[1])
        if job_id is None:
            self._reply(404, {"error": f"bad job id {parts[1]!r}"})
            return
        try:
            job = self.manager.job(job_id)
        except KeyError:
            self._reply(404, {"error": f"no job {job_id}"})
            return
        if len(parts) == 2:
            self._reply(200, job.info())
        elif len(parts) == 3 and parts[2] == "metrics":
            snap = self.manager.job_metrics(job_id)
            if snap is None:
                self._reply(404, {"error": f"job {job_id} has no metrics "
                                           "(not started, or a driver app)"})
            else:
                self._reply(200, snap)
        else:
            self._reply(404, {"error": "unknown job subresource"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path.rstrip("/") != "/jobs":
            self._reply(404, {"error": f"no route {self.path!r}"})
            return
        length = int(self.headers.get("Content-Length", "0"))
        try:
            spec = JobSpec.from_json(self.rfile.read(length).decode())
        except (ValueError, TypeError, MPIError) as exc:
            # MPIError: a runtime option the runtime itself refuses
            self._reply(400, {"error": f"bad job spec: {exc}"})
            return
        try:
            job = self.manager.submit(spec)
        except QueueFullError as exc:
            self._reply(429, {"error": str(exc)})
        except UnknownAppError as exc:
            self._reply(400, {"error": str(exc)})
        except AdmissionError as exc:
            self._reply(422, {"error": str(exc)})
        else:
            self._reply(202, {"id": job.id, "state": job.state})


class ObservabilityServer:
    """A threaded HTTP server streaming one manager's state."""

    def __init__(self, manager: JobManager, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.manager = manager
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.manager = manager  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ObservabilityServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


__all__ = ["ObservabilityServer"]
