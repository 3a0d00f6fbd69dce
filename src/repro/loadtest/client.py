"""Asyncio HTTP client for the simulation service.

The blocking :class:`repro.serve.client.ServeClient` holds one thread
per caller; a load test needs thousands of concurrent clients, so this
module speaks the same minimal HTTP/1.1 (JSON bodies, ``Content-Length``
framing) directly over asyncio streams.

Connections persist: a :class:`ConnectionPool` hands each request an
idle connection (last in, first out) or opens one, and takes it back
after a complete response the server did not mark ``Connection:
close``.  One pool may be shared by many clients; its ``limit`` bounds
the connections open at once, idle ones included, so a thousand pollers
cannot exhaust the listen backlog or the process's file descriptors.

Retry semantics mirror the blocking client: exponential backoff with
full jitter for transport failures, and ``429 Too Many Requests``
honours the server's fractional ``Retry-After`` hint.  A reused
connection that fails before any byte of the response arrives (the
server closed it while it sat idle) is not a transport failure: the
request is sent once more on a fresh connection, uncounted.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.utils.rng import DeterministicRng


class LoadClientError(RuntimeError):
    """Transport failure that survived every retry."""


class _Connection:
    """One open connection and whether a pool handed it out before."""

    __slots__ = ("reader", "writer", "reused")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.reused = False


class ConnectionPool:
    """Keep-alive connections to one server, reused last in, first out.

    ``limit`` (None = unbounded) bounds the connections open at once,
    idle ones included: a request holds one of ``limit`` slots while it
    uses a connection, and a new connection is opened only when none is
    idle, so idle plus in-use connections never exceed the slots.
    """

    def __init__(self, host: str, port: int,
                 limit: Optional[int] = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError(f"connection limit must be >= 1, got {limit}")
        self.host = host
        self.port = port
        self._slots = asyncio.Semaphore(limit) if limit is not None \
            else None
        self._idle: List[_Connection] = []
        #: Connections opened over the pool's lifetime.
        self.opened = 0

    async def acquire(self) -> _Connection:
        """An idle connection, or a new one; waits for a free slot."""
        if self._slots is not None:
            await self._slots.acquire()
        try:
            if self._idle:
                conn = self._idle.pop()
                conn.reused = True
                return conn
            return await self._open()
        except BaseException:
            self._release_slot()
            raise

    async def reopen(self, conn: _Connection) -> _Connection:
        """Close ``conn`` and open a fresh connection in the same slot."""
        conn.writer.close()
        return await self._open()

    def release(self, conn: _Connection, reusable: bool) -> None:
        """Give ``conn`` back: kept idle if ``reusable``, else closed."""
        if reusable:
            self._idle.append(conn)
        else:
            conn.writer.close()
        self._release_slot()

    async def close(self) -> None:
        """Close every idle connection."""
        idle, self._idle = self._idle, []
        for conn in idle:
            conn.writer.close()
        for conn in idle:
            try:
                await conn.writer.wait_closed()
            except OSError:
                pass

    async def _open(self) -> _Connection:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self.opened += 1
        return _Connection(reader, writer)

    def _release_slot(self) -> None:
        if self._slots is not None:
            self._slots.release()


class AsyncServeClient:
    """One logical client; requests go over ``pool``'s connections.

    Without a ``pool`` the client keeps a private, unbounded one, which
    :meth:`aclose` closes.
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0,
                 retries: int = 6, backoff_base: float = 0.2,
                 backoff_cap: float = 2.0,
                 rng: Optional[DeterministicRng] = None,
                 pool: Optional[ConnectionPool] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = rng if rng is not None \
            else DeterministicRng("loadtest-client-backoff")
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else ConnectionPool(host, port)
        #: Telemetry: 429 responses observed (before retrying) and
        #: transport errors absorbed by retries.
        self.throttled = 0
        self.transport_errors = 0

    async def aclose(self) -> None:
        """Close the client's private pool (a shared one is the
        caller's to close)."""
        if self._owns_pool:
            await self.pool.close()

    async def request(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None,
                      ) -> Tuple[int, Any]:
        """One logical request; returns (final status, decoded body)."""
        attempt = 0
        while True:
            try:
                status, decoded, retry_after = await asyncio.wait_for(
                    self._exchange(method, path, body), self.timeout)
            except (OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                if attempt >= self.retries:
                    raise LoadClientError(
                        f"{method} {path} failed after "
                        f"{attempt + 1} attempts: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                self.transport_errors += 1
                delay = self._backoff(attempt, None)
            else:
                if status != 429:
                    return status, decoded
                self.throttled += 1
                if attempt >= self.retries:
                    return status, decoded
                delay = self._backoff(attempt, retry_after)
            attempt += 1
            await asyncio.sleep(delay)

    async def _exchange(self, method: str, path: str,
                        body: Optional[Dict[str, Any]],
                        ) -> Tuple[int, Any, Optional[float]]:
        """One wire round trip on a pooled connection, framed by
        ``Content-Length``.

        Deliberately NOT framed by EOF: the self-hosted harness runs
        client, server and the scheduler's process pool in one process,
        and a worker forked while this connection is in flight inherits
        its fd — the server's close then never reaches FIN, so a
        ``read()``-to-EOF client hangs until its timeout even though
        the full response arrived.  Reading exactly the advertised body
        length sidesteps the pinned socket entirely.

        A timeout, a cancellation or any exception closes the connection
        instead of pooling it.
        """
        payload = json.dumps(body).encode("utf-8") \
            if body is not None else b""
        message = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("ascii") + payload
        conn = await self.pool.acquire()
        reusable = False
        try:
            try:
                raw_head = await self._send(conn, message)
            except (asyncio.IncompleteReadError, ConnectionResetError,
                    BrokenPipeError) as exc:
                # The server closes only idle connections or ones it
                # announced as closing: a kept connection that fails
                # before any response byte never had its request read.
                if not conn.reused or (
                        isinstance(exc, asyncio.IncompleteReadError)
                        and exc.partial):
                    raise
                conn = await self.pool.reopen(conn)
                raw_head = await self._send(conn, message)
            status, headers, retry_after = self._parse_head(raw_head)
            length_text = headers.get("content-length")
            if length_text is None:
                raw_body = await conn.reader.read(-1)   # EOF-framed fallback
            else:
                try:
                    length = int(length_text)
                except ValueError:
                    raise OSError(
                        f"bad Content-Length: {length_text!r}") from None
                raw_body = await conn.reader.readexactly(length) if length \
                    else b""
                reusable = "close" not in (
                    token.strip().lower()
                    for token in headers.get("connection", "").split(","))
        finally:
            self.pool.release(conn, reusable)
        return status, self._decode(headers, raw_body), retry_after

    @staticmethod
    async def _send(conn: _Connection, message: bytes) -> bytes:
        """Write one request; returns the response head.

        A head longer than the stream limit is a malformed response,
        like a bad status line: ``OSError``, so it is retried and the
        connection is closed.
        """
        conn.writer.write(message)
        await conn.writer.drain()
        try:
            return await conn.reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError as exc:
            raise OSError(
                f"response head exceeds the stream limit: {exc}") from exc

    @staticmethod
    def _parse_head(raw: bytes) -> Tuple[int, Dict[str, str],
                                         Optional[float]]:
        """Status line + headers + parsed ``Retry-After`` hint."""
        lines = raw.decode("ascii", "replace").split("\r\n")
        parts = lines[0].split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise OSError(f"malformed response line: {lines[0]!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        retry_after: Optional[float] = None
        raw_hint = headers.get("retry-after")
        if raw_hint is not None:
            try:
                retry_after = float(raw_hint)
            except ValueError:
                pass
        return status, headers, retry_after

    @staticmethod
    def _decode(headers: Dict[str, str], body: bytes) -> Any:
        decoded: Any = body.decode("utf-8", "replace")
        if "json" in headers.get("content-type", ""):
            try:
                decoded = json.loads(decoded) if decoded else None
            except ValueError:
                pass    # surface the raw text; callers check status
        return decoded

    def _backoff(self, attempt: int, retry_after: Optional[float]) -> float:
        if retry_after is not None:
            return min(self.backoff_cap, max(0.0, retry_after))
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return float(self._rng.random()) * ceiling
