"""End-to-end service tests: real HTTP, real process workers, real sims.

These run tiny simulations (MM at 1 SM, scale 0.1 — ~0.2 s each)
through :class:`repro.serve.server.ServerThread`, exercising the full
stack the CI ``serve-smoke`` job drives from the command line.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Tuple

import pytest

from repro.gpu.simulator import SimResult
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import cell_request, replay_request, sweep_request
from repro.serve.server import ServeApp, ServerThread
from tests.serve.test_scheduler import payload_for

CELL = cell_request("MM", "baseline", sms=1, scale=0.1)
HEALTH = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


@pytest.fixture()
def server(tmp_path):
    with ServerThread(workers=2, store=tmp_path / "store") as srv:
        yield srv


def connect(srv: ServerThread) -> socket.socket:
    return socket.create_connection(("127.0.0.1", srv.port), timeout=10)


def read_response(sock: socket.socket) -> Tuple[int, Dict[str, str], bytes]:
    """One response, framed by its ``Content-Length``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-response: {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("ascii").split("\r\n")
    headers = {name.strip().lower(): value.strip()
               for name, _, value in (line.partition(":")
                                      for line in lines[1:])}
    while len(body) < int(headers["content-length"]):
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    return int(lines[0].split()[1]), headers, body


def at_eof(sock: socket.socket) -> bool:
    """The server closed its side (a reset after the response counts)."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


class TestColdCoalescing:
    def test_three_concurrent_clients_one_simulation(self, server):
        """The ISSUE acceptance criterion: N identical cold submissions
        produce exactly one simulation and N identical results."""
        def submit_and_wait(_):
            client = server.client()
            return client.run(CELL, timeout=120)

        with ThreadPoolExecutor(max_workers=3) as pool:
            docs = list(pool.map(submit_and_wait, range(3)))

        assert all(doc["state"] == "done" for doc in docs)
        payloads = [doc["results"][0]["result"] for doc in docs]
        assert payloads[0] == payloads[1] == payloads[2]
        # the payload is a real SimResult
        result = SimResult.from_dict(payloads[0])
        assert result.cycles > 0 and result.l1d.accesses > 0

        metrics = server.client().metrics()
        assert metrics["cells"]["requested"] == 3
        assert metrics["cells"]["simulated"] == 1
        assert metrics["cells"]["coalesced"] + metrics["store"]["hits"] == 2

    def test_warm_resubmission_hits_store(self, server):
        client = server.client()
        client.run(CELL, timeout=120)
        client.run(CELL, timeout=120)
        metrics = client.metrics()
        assert metrics["cells"]["simulated"] == 1
        assert metrics["store"]["hits"] >= 1


class TestLivenessUnderLoad:
    def test_health_and_metrics_respond_during_bulk_sweep(self, server):
        client = server.client()
        job = client.submit(
            sweep_request(["MM", "HS"], ["baseline", "dlp"],
                          sms=1, scale=0.1)
        )
        health = client.healthz()
        assert health["status"] == "ok"
        metrics = client.metrics()
        assert metrics["jobs"]["submitted"] == 1
        prom = client.metrics_prometheus()
        assert "repro_serve_jobs_submitted 1" in prom
        done = client.wait(job["id"], timeout=240)
        assert done["state"] == "done"
        assert len(done["results"]) == 4
        # per-scheme latency labels show up once work completed
        prom = client.metrics_prometheus()
        assert 'scheme="dlp"' in prom and 'scheme="baseline"' in prom


class TestReplayJobs:
    def test_replay_reuses_one_trace_across_schemes(self, tmp_path):
        with ServerThread(workers=2, store=tmp_path / "store",
                          trace_dir=tmp_path / "traces") as srv:
            client = srv.client()
            done = client.run(
                replay_request(["MM"], ["baseline", "dlp"],
                               sms=1, scale=0.1),
                timeout=240,
            )
            assert done["state"] == "done"
            assert len(done["results"]) == 2
            traces = list((tmp_path / "traces").glob("*.rptr"))
            assert len(traces) == 1      # both schemes replayed one stream


class TestErrorPaths:
    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServeError) as excinfo:
            server.client().status("job-999999")
        assert excinfo.value.status == 404

    def test_bad_request_body_is_400(self, server):
        client = server.client()
        status, body = client.request(
            "POST", "/jobs", {"kind": "cell", "app": "NOPE", "scheme": "dlp"}
        )
        assert status == 400 and "error" in body

    def test_non_json_body_is_400(self, server):
        # raw transport bypassing the client's JSON encoding
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/jobs", body=b"not json",
                         headers={"Content-Type": "application/json",
                                  "Content-Length": "8"})
            response = conn.getresponse()
            doc = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "JSON" in doc["error"]

    def test_unknown_route_is_404_and_bad_method_is_405(self, server):
        client = server.client()
        assert client.request("GET", "/nope", None)[0] == 404
        assert client.request("POST", "/healthz", {})[0] == 405


class TestPersistentConnections:
    def test_requests_share_one_connection(self, server, monkeypatch):
        routed = []
        route = ServeApp.route

        def counting_route(self, method, path, query, body):
            routed.append(path)
            return route(self, method, path, query, body)

        monkeypatch.setattr(ServeApp, "route", counting_route)
        with connect(server) as sock:
            for _ in range(3):
                sock.sendall(HEALTH)
                status, headers, body = read_response(sock)
                assert status == 200 and json.loads(body)["status"] == "ok"
                assert headers["connection"] == "keep-alive"
        assert routed == ["/healthz"] * 3
        metrics = server.scheduler.metrics
        assert (metrics.http_connections, metrics.http_requests) == (1, 3)

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http-1.0"])
    def test_closing_request_gets_one_response_then_eof(self, server,
                                                        request_bytes):
        with connect(server) as sock:
            sock.sendall(request_bytes + HEALTH)
            status, headers, _body = read_response(sock)
            assert status == 200 and headers["connection"] == "close"
            assert at_eof(sock)

    def test_handler_error_answers_500_then_closes(self, server,
                                                   monkeypatch):
        def broken_route(self, method, path, query, body):
            raise RuntimeError("boom")

        monkeypatch.setattr(ServeApp, "route", broken_route)
        with connect(server) as sock:
            sock.sendall(HEALTH)
            status, headers, body = read_response(sock)
            assert status == 500 and "boom" in json.loads(body)["error"]
            assert headers["connection"] == "close"
            assert at_eof(sock)

    def test_blocking_client_opens_one_connection_per_request(self, server):
        client = server.client()
        for _ in range(3):
            client.healthz()
        http = client.metrics()["http"]
        assert http == {"connections": 4, "requests": 4}

    def test_blocking_run_polls_on_its_one_connection(self, tmp_path):
        def slow_sim(cell):
            time.sleep(0.05)
            return payload_for(cell)

        with ServerThread(workers=1, store=tmp_path / "store",
                          pool=ThreadPoolExecutor(max_workers=1),
                          sim_fn=slow_sim) as srv:
            client = srv.client()
            assert client.run(CELL)["state"] == "done"
            http = client.metrics()["http"]
        # the run's submit and polls (the 50 ms cell takes at least two)
        # on one connection, closed when it returned, so the metrics
        # call opens its own
        assert http["connections"] == 2 and http["requests"] >= 4


class TestFraming:
    """A request whose end cannot be trusted answers 400 (413 when too
    large) and closes: on a kept connection, the rest of it would be
    parsed as the next request."""

    @pytest.mark.parametrize("request_bytes, status", [
        (b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 66000
         + b"\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"0\r\n\r\n", 400),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n"
         b"Content-Length: 3\r\n\r\n{}", 400),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n", 413),
    ], ids=["negative-length", "header-over-limit", "chunked",
            "conflicting-lengths", "too-large"])
    def test_untrusted_framing_answers_then_closes(self, server,
                                                   request_bytes, status):
        with connect(server) as sock:
            sock.sendall(request_bytes)
            got, headers, body = read_response(sock)
            assert got == status, body
            assert headers["connection"] == "close"
            assert at_eof(sock)


class TestDrain:
    def test_stop_closes_an_idle_kept_connection(self, tmp_path, caplog):
        """Drain closes a connection idle between requests and waits for
        its handler; none is left for loop teardown to cancel."""
        srv = ServerThread(workers=1, store=tmp_path / "store").start()
        with connect(srv) as sock:
            sock.sendall(HEALTH)
            assert read_response(sock)[1]["connection"] == "keep-alive"
            started = time.monotonic()
            assert srv.stop() == 0
            assert time.monotonic() - started < 10
            assert at_eof(sock)
        assert [r for r in caplog.records if r.name == "asyncio"
                and r.levelno >= logging.ERROR] == []

    def test_sigterm_equivalent_drains_clean(self, tmp_path):
        srv = ServerThread(workers=1, store=tmp_path / "store").start()
        client = srv.client()
        job = client.submit(CELL)
        exit_code = srv.stop()          # same path as the SIGTERM handler
        assert exit_code == 0
        # the in-flight job was allowed to finish before shutdown
        assert srv.scheduler.jobs[job["id"]].state == "done"

    def test_draining_server_rejects_submissions(self, tmp_path):
        gate = threading.Event()

        def slow_sim(cell):
            gate.wait(timeout=60)
            raise RuntimeError("unreachable in this test")

        srv = ServerThread(
            workers=1, store=tmp_path / "store",
            pool=ThreadPoolExecutor(max_workers=1), sim_fn=slow_sim,
        ).start()
        client = srv.client()
        client.submit(CELL)
        stopper = threading.Thread(target=srv.stop)
        stopper.start()
        try:
            # wait for the drain flag to flip, then probe admission
            deadline_probe = ServeClient("127.0.0.1", srv.port, timeout=30)
            for _ in range(200):
                if deadline_probe.healthz()["status"] == "draining":
                    break
                threading.Event().wait(0.01)
            status, body = deadline_probe.request("POST", "/jobs", CELL)
            assert status == 503
            assert "drain" in body["error"]
        finally:
            gate.set()
            stopper.join(timeout=60)
