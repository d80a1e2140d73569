"""The observability endpoint, exercised over real HTTP (stdlib
urllib against an ephemeral-port ThreadingHTTPServer): every route,
every admission-control status code."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.service import JobManager, JobSpec, ObservabilityServer

MB = 1 << 20


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        return resp.status, json.loads(resp.read().decode())


def _post(url: str, payload) -> tuple:
    body = json.dumps(payload).encode() if not isinstance(payload, bytes) \
        else payload
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


def _get_err(url: str) -> tuple:
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


@pytest.fixture()
def service():
    with JobManager(capacity_bytes=64 * MB, queue_limit=2,
                    max_workers=2) as manager:
        with ObservabilityServer(manager) as server:
            yield manager, server


class TestRoutes:
    def test_healthz(self, service):
        manager, server = service
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["jobs"] == 0

    def test_apps_lists_registry(self, service):
        _, server = service
        status, body = _get(server.url + "/apps")
        assert status == 200
        assert body["ring"]["kind"] == "task"
        assert body["matmul"]["kind"] == "driver"

    def test_service_metrics(self, service):
        _, server = service
        status, body = _get(server.url + "/metrics")
        assert status == 200
        assert body["capacity_bytes"] == 64 * MB
        assert body["queue_limit"] == 2

    def test_unknown_route_404(self, service):
        _, server = service
        status, body = _get_err(server.url + "/nope")
        assert status == 404


class TestJobLifecycleOverHTTP:
    def test_submit_run_inspect(self, service):
        manager, server = service
        spec = JobSpec(app="ring", n_tasks=4, params={"seed": 5},
                       footprint_bytes=1 * MB)
        status, body = _post(server.url + "/jobs",
                             json.loads(spec.to_json()))
        assert status == 202
        job_id = body["id"]
        manager.drain(timeout=30.0)

        status, row = _get(server.url + f"/jobs/{job_id}")
        assert status == 200
        assert row["state"] == "completed"
        assert row["leak_bytes"] == 0

        status, rows = _get(server.url + "/jobs")
        assert status == 200
        assert [r["id"] for r in rows] == [job_id]
        status, rows = _get(server.url + "/jobs?state=completed")
        assert len(rows) == 1
        status, rows = _get(server.url + "/jobs?state=failed")
        assert rows == []

        status, snap = _get(server.url + f"/jobs/{job_id}/metrics")
        assert status == 200
        assert tuple(sorted(snap)) == (
            "collectives", "faults", "loadbalance", "memory", "p2p",
            "rma", "sched", "storage",
        )
        assert snap["p2p"]["messages"] >= 4

    def test_unknown_job_404(self, service):
        _, server = service
        status, _ = _get_err(server.url + "/jobs/999")
        assert status == 404
        status, _ = _get_err(server.url + "/jobs/not-an-id")
        assert status == 404
        status, _ = _get_err(server.url + "/jobs/0/weird")
        assert status == 404


class TestAdmissionStatusCodes:
    def test_bad_spec_400(self, service):
        _, server = service
        status, body = _post(server.url + "/jobs", b"{not json")
        assert status == 400
        status, body = _post(server.url + "/jobs",
                             {"app": "ring", "bogus": 1})
        assert status == 400
        assert "unknown job spec fields" in body["error"]

    def test_unknown_app_400(self, service):
        _, server = service
        status, body = _post(server.url + "/jobs", {"app": "not-an-app"})
        assert status == 400
        assert "registered:" in body["error"]

    def test_never_fits_422(self, service):
        _, server = service
        status, body = _post(server.url + "/jobs", {
            "app": "ring", "footprint_bytes": 65 * MB,
        })
        assert status == 422
        assert "never" in body["error"]

    def test_queue_full_429(self):
        import threading

        gate = threading.Event()
        with JobManager(capacity_bytes=4 * MB, queue_limit=1,
                        max_workers=1,
                        on_start=lambda job: gate.wait(30.0)) as manager:
            with ObservabilityServer(manager) as server:
                spec = {"app": "ring", "footprint_bytes": 3 * MB}
                assert _post(server.url + "/jobs", spec)[0] == 202  # runs
                assert _post(server.url + "/jobs", spec)[0] == 202  # queues
                status, body = _post(server.url + "/jobs", spec)
                assert status == 429
                assert "retry" in body["error"]
                gate.set()
                manager.drain(timeout=30.0)


class TestBadRuntimeFields:
    def test_bad_backend_400_and_no_job(self, service):
        manager, server = service
        status, body = _post(server.url + "/jobs",
                             {"app": "ring", "backend": "bogus"})
        assert status == 400
        assert "unknown execution backend" in body["error"]
        assert manager.jobs() == []
