"""AsyncServeClient and ConnectionPool: HTTP parsing, retry/backoff,
connection reuse, scripted servers.

The scripted server is a real ``asyncio.start_server`` speaking raw
bytes, so these tests cover the client's actual wire path — framing,
kept and ``Connection: close`` connections, dropped connections —
without a simulation service behind it.
"""

from __future__ import annotations

import asyncio
import json
from typing import List, Tuple

import pytest

from repro.loadtest.client import (
    AsyncServeClient,
    ConnectionPool,
    LoadClientError,
)
from repro.utils.rng import DeterministicRng


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


def http_bytes(status: int, doc=None, retry_after=None,
               connection: str = "close") -> bytes:
    body = json.dumps(doc).encode() if doc is not None else b""
    extra = f"Retry-After: {retry_after}\r\n" if retry_after is not None \
        else ""
    head = (
        f"HTTP/1.1 {status} Whatever\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}Connection: {connection}\r\n\r\n"
    )
    return head.encode("ascii") + body


def kept(status: int, doc=None) -> bytes:
    return http_bytes(status, doc, connection="keep-alive")


class ScriptedServer:
    """Serves a fixed list of canned responses, then kept 200s echoing
    each request's path.

    Requests are read by their ``Content-Length``, so one connection
    can carry many.  'drop' closes the connection without answering;
    a response not marked ``Connection: keep-alive`` closes it after
    answering.  Counts connections accepted and the most open at once.
    """

    def __init__(self, script: List):
        self.script = list(script)
        self.connections = 0
        self.open = 0
        self.peak = 0
        self._server = None

    async def __aenter__(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0)
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        self.connections += 1
        self.open += 1
        self.peak = max(self.peak, self.open)
        try:
            while await self._answer(reader, writer):
                pass
        except (asyncio.IncompleteReadError, ConnectionError):
            pass                                  # the client went away
        finally:
            self.open -= 1
            writer.close()

    async def _answer(self, reader, writer) -> bool:
        head = await reader.readuntil(b"\r\n\r\n")
        path = head.split()[1].decode()
        length = 0
        for line in head.decode().split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        await reader.readexactly(length)
        action = self.script.pop(0) if self.script \
            else kept(200, {"path": path})
        if action == "drop":
            return False
        await asyncio.sleep(0.001)    # let concurrent requests overlap
        writer.write(action)
        await writer.drain()
        return b"Connection: keep-alive" in action


def split_head(raw: bytes) -> bytes:
    head, _, _body = raw.partition(b"\r\n\r\n")
    return head + b"\r\n\r\n"


class TestParse:
    def test_status_headers_and_retry_after(self):
        status, headers, hint = AsyncServeClient._parse_head(
            split_head(http_bytes(429, {"error": "full"},
                                  retry_after="0.125")))
        assert status == 429
        assert "json" in headers["content-type"]
        assert hint == pytest.approx(0.125)

    def test_json_body_decodes(self):
        doc = AsyncServeClient._decode(
            {"content-type": "application/json"}, b'{"error": "full"}')
        assert doc == {"error": "full"}

    def test_non_json_body_stays_text(self):
        doc = AsyncServeClient._decode(
            {"content-type": "text/plain"}, b"hello")
        assert doc == "hello"

    def test_malformed_status_line_raises_oserror(self):
        with pytest.raises(OSError):
            AsyncServeClient._parse_head(b"garbage\r\n\r\n")
        with pytest.raises(OSError):
            AsyncServeClient._parse_head(b"\r\n\r\n")

    def test_unparseable_retry_after_ignored(self):
        status, _headers, hint = AsyncServeClient._parse_head(
            split_head(http_bytes(429, {}, retry_after="soon")))
        assert status == 429 and hint is None


class TestRetrySchedule:
    def test_429_then_success(self):
        async def body():
            server = ScriptedServer([
                http_bytes(429, {"error": "full"}, retry_after="0.01"),
                http_bytes(200, {"id": "job-1"}),
            ])
            async with server as (host, port):
                client = AsyncServeClient(
                    host, port, retries=3, backoff_base=0.01,
                    backoff_cap=0.02,
                    rng=DeterministicRng("test"))
                status, doc = await client.request("POST", "/jobs", {})
                assert status == 200 and doc == {"id": "job-1"}
                assert client.throttled == 1
                assert server.connections == 2
        run(body())

    def test_dropped_connection_then_success(self):
        async def body():
            server = ScriptedServer(["drop", http_bytes(200, {"ok": 1})])
            async with server as (host, port):
                client = AsyncServeClient(
                    host, port, retries=3, backoff_base=0.01,
                    backoff_cap=0.02, rng=DeterministicRng("test"))
                status, _doc = await client.request("GET", "/healthz")
                assert status == 200
                assert client.transport_errors == 1
        run(body())

    def test_exhausted_transport_retries_raise(self):
        async def body():
            server = ScriptedServer(["drop", "drop", "drop"])
            async with server as (host, port):
                client = AsyncServeClient(
                    host, port, retries=2, backoff_base=0.01,
                    backoff_cap=0.02, rng=DeterministicRng("test"))
                with pytest.raises(LoadClientError):
                    await client.request("GET", "/healthz")
                assert server.connections == 3
        run(body())

    def test_exhausted_429s_surface_final_status(self):
        async def body():
            script = [http_bytes(429, {"error": "full"},
                                 retry_after="0.01")] * 3
            server = ScriptedServer(script)
            async with server as (host, port):
                client = AsyncServeClient(
                    host, port, retries=2, backoff_base=0.01,
                    backoff_cap=0.02, rng=DeterministicRng("test"))
                status, doc = await client.request("POST", "/jobs", {})
                assert status == 429
                assert client.throttled == 3
        run(body())


class TestConnectionPool:
    def test_sequential_requests_reuse_one_connection(self):
        async def body():
            server = ScriptedServer([])
            async with server as (host, port):
                client = AsyncServeClient(host, port, retries=0)
                for i in range(3):
                    status, doc = await client.request("GET", f"/x/{i}")
                    assert status == 200 and doc == {"path": f"/x/{i}"}
                await client.aclose()
                assert server.connections == 1
                assert client.pool.opened == 1
        run(body())

    def test_connection_close_response_is_not_reused(self):
        async def body():
            server = ScriptedServer([kept(200, {}), http_bytes(200, {})])
            async with server as (host, port):
                client = AsyncServeClient(host, port, retries=0)
                for _ in range(3):
                    status, _doc = await client.request("GET", "/x")
                    assert status == 200
                await client.aclose()
                # first two on one connection, which the second closed
                assert server.connections == 2
        run(body())

    def test_stale_pooled_connection_reopens_uncounted(self):
        async def body():
            # the server reads the second request on the kept connection,
            # then closes it unanswered, as a drain closes an idle one
            server = ScriptedServer([kept(200, {"n": 1}), "drop"])
            async with server as (host, port):
                client = AsyncServeClient(host, port, retries=0)
                assert (await client.request("GET", "/a"))[0] == 200
                status, doc = await client.request("GET", "/b")
                await client.aclose()
                assert status == 200 and doc == {"path": "/b"}
                assert client.transport_errors == 0
                assert server.connections == 2
        run(body())

    def test_timeout_mid_response_discards_the_connection(self):
        async def body():
            stalled = kept(200, {"long": "x" * 64})[:-20]
            server = ScriptedServer([stalled])
            async with server as (host, port):
                client = AsyncServeClient(host, port, timeout=0.2,
                                          retries=0)
                with pytest.raises(LoadClientError):
                    await client.request("GET", "/slow")
                client.timeout = 30.0
                status, doc = await client.request("GET", "/next")
                await client.aclose()
                assert status == 200 and doc == {"path": "/next"}
                assert server.connections == 2
                assert client.pool.opened == 2
        run(body())

    def test_pool_bounds_connections(self):
        async def body():
            server = ScriptedServer([])
            async with server as (host, port):
                pool = ConnectionPool(host, port, 2)
                client = AsyncServeClient(host, port, pool=pool)
                statuses = await asyncio.gather(*(
                    client.request("GET", "/x") for _ in range(8)))
                await pool.close()
                assert all(s == 200 for s, _ in statuses)
                assert server.peak <= 2 and pool.opened <= 2
        run(body())

    def test_shared_pool_never_hands_a_connection_to_two_requests(self):
        """50 concurrent requests over a pool of 3: a connection shared by
        two coroutines would cross their responses or exceed the bound."""
        async def body():
            server = ScriptedServer([])
            async with server as (host, port):
                pool = ConnectionPool(host, port, 3)
                clients = [AsyncServeClient(host, port, retries=0, pool=pool)
                           for _ in range(10)]
                results = await asyncio.gather(*(
                    clients[i % 10].request("GET", f"/echo/{i}")
                    for i in range(50)))
                await pool.close()
                for i, (status, doc) in enumerate(results):
                    assert status == 200 and doc == {"path": f"/echo/{i}"}
                assert server.peak <= 3 and pool.opened <= 3
                assert sum(c.transport_errors for c in clients) == 0
        run(body())

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            ConnectionPool("h", 1, 0)


class TestBackoff:
    def test_retry_after_wins_and_is_capped(self):
        client = AsyncServeClient("h", 1, backoff_cap=0.5,
                                  rng=DeterministicRng("x"))
        assert client._backoff(0, 0.2) == pytest.approx(0.2)
        assert client._backoff(0, 9.0) == pytest.approx(0.5)

    def test_full_jitter_within_ceiling(self):
        client = AsyncServeClient("h", 1, backoff_base=0.2,
                                  backoff_cap=2.0,
                                  rng=DeterministicRng("x"))
        for attempt in range(8):
            ceiling = min(2.0, 0.2 * (2 ** attempt))
            for _ in range(8):
                assert 0.0 <= client._backoff(attempt, None) <= ceiling
