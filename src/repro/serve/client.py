"""HTTP client for the simulation service.

``repro submit``, the loadtest harness and the test suite talk to a
running ``repro serve`` through this module; it is also the
programmatic API for driving the service from scripts::

    client = ServeClient(port=8642)
    job = client.submit(cell_request("BFS", "dlp", sms=2))
    done = client.wait(job["id"])
    payload = done["results"][0]["result"]     # SimResult.to_dict shape

:class:`AsyncServeClient` is the one client.  A load test needs
thousands of concurrent clients, so it speaks minimal HTTP/1.1 (JSON
bodies, ``Content-Length`` framing) directly over asyncio streams.
:class:`ServeClient` is its blocking face: each call runs the async
client on a private event loop and closes that call's connection
before it returns, so a blocking caller never holds an idle
connection.

Connections persist: a :class:`ConnectionPool` hands each request an
idle connection (last in, first out) or opens one, and takes it back
after a complete response the server did not mark ``Connection:
close``.  One pool may be shared by many clients; its ``limit`` bounds
the connections open at once, idle ones included, so a thousand pollers
cannot exhaust the listen backlog or the process's file descriptors.

Retries: exponential backoff with full jitter (AWS style: sleep a
uniform fraction of the doubling ceiling) for transport failures, and
``429 Too Many Requests`` honours the server's fractional
``Retry-After`` hint.  A reused connection that fails before any byte
of the response arrives (the server closed it while it sat idle) is not
a transport failure: the request is sent once more on a fresh
connection, uncounted.

The server keeps only the most recently settled jobs: polling a job it
has since evicted answers ``410 Gone``, and ``run`` resubmits the
request body then, within the client's ``retries``.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import (
    Any, Awaitable, Callable, Dict, List, Optional, Tuple, TypeVar,
)

from repro.serve.jobs import TERMINAL_STATES
from repro.serve.protocol import (  # noqa: F401  (re-exported convenience)
    cell_request,
    replay_request,
    sweep_request,
)
from repro.utils import wallclock
from repro.utils.rng import DeterministicRng

T = TypeVar("T")


class ServeError(RuntimeError):
    """Transport failure or non-2xx response from the service."""

    def __init__(self, message: str, status: Optional[int] = None,
                 body: Optional[Any] = None) -> None:
        super().__init__(message)
        self.status = status
        self.body = body


class JobFailedError(ServeError):
    """A waited-on job settled as failed/cancelled; carries its status."""

    def __init__(self, status_doc: Dict[str, Any]) -> None:
        error = status_doc.get("error", {})
        super().__init__(
            f"job {status_doc.get('id')} {status_doc.get('state')}: "
            f"{error.get('error', 'no detail')}",
            body=status_doc,
        )
        self.job = status_doc


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
                    raise ServeError(
                        f"cannot reach repro-serve at "
                        f"{self.host}:{self.port}: {method} {path} failed "
                        f"after {attempt + 1} attempts: "
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

    # -- job-level calls -----------------------------------------------

    async def checked(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None) -> Any:
        """:meth:`request`'s decoded body; a status of 400 or more
        raises :class:`ServeError` carrying it."""
        status, decoded = await self.request(method, path, body)
        if status >= 400:
            message = decoded.get("error", str(decoded)) \
                if isinstance(decoded, dict) else str(decoded)
            raise ServeError(f"{method} {path} -> {status}: {message}",
                             status=status, body=decoded)
        return decoded

    async def wait(self, job_id: str, timeout: float = 300.0,
                   raise_on_failure: bool = True,
                   poll_initial: float = 0.005, poll_factor: float = 2.0,
                   poll_max: float = 0.05) -> Dict[str, Any]:
        """Poll until the job settles; returns its final status doc.

        The first sleep is ``poll_initial`` and each next one grows by
        ``poll_factor``, up to ``poll_max``: a job that settles in a few
        ms is seen within a few ms, and a long one costs a poll every
        ``poll_max`` seconds.  A poll answering 400 or more (410 for a
        job the server evicted) raises :class:`ServeError`.
        """
        deadline = wallclock.monotonic() + timeout
        delay = poll_initial
        while True:
            doc: Dict[str, Any] = await self.checked("GET", f"/jobs/{job_id}")
            if doc.get("state") in TERMINAL_STATES:
                if raise_on_failure and doc.get("state") != "done":
                    raise JobFailedError(doc)
                return doc
            if wallclock.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {doc.get('state')!r} "
                    f"after {timeout:g}s"
                )
            await asyncio.sleep(delay)
            delay = min(poll_max, delay * poll_factor)

    async def run(self, job_body: Dict[str, Any], timeout: float = 300.0,
                  on_submit: Optional[Callable[[Dict[str, Any]], Any]] = None,
                  **poll: Any) -> Dict[str, Any]:
        """Submit + wait in one call; returns the final status doc.

        A job the server evicted before a poll saw it settle (410) is
        submitted again, up to ``retries`` times.  ``on_submit`` gets
        each submission's job summary; ``poll`` takes :meth:`wait`'s
        ``poll_*`` schedule.
        """
        attempt = 0
        while True:
            job = await self.checked("POST", "/jobs", job_body)
            if on_submit is not None:
                on_submit(job)
            try:
                return await self.wait(job["id"], timeout, **poll)
            except ServeError as exc:
                if exc.status != 410 or attempt >= self.retries:
                    raise
            attempt += 1


class ServeClient:
    """Talk to one ``repro serve`` instance, blocking.

    Each call runs :class:`AsyncServeClient` on a private event loop
    (``asyncio.run``) and closes that call's connection before it
    returns; a ``wait`` or ``run`` makes all its requests on that one
    connection.  One client serves one thread at a time: its calls
    share one private pool, emptied at the end of each call, and its
    counters (``throttled``, ``transport_errors``) stay readable from
    another thread meanwhile.  A thread already running an event loop
    uses :class:`AsyncServeClient` instead.

    ``retries`` > 0 turns on transparent retry for transport failures
    and ``429 Too Many Requests``, and resubmission by :meth:`run` of a
    job the server evicted (410).  Off by default so tests observe every
    response; ``repro submit`` turns it on.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 60.0, retries: int = 0,
                 backoff_base: float = 0.25, backoff_cap: float = 5.0,
                 rng: Optional[DeterministicRng] = None) -> None:
        self._client = AsyncServeClient(
            host, port, timeout=timeout, retries=retries,
            backoff_base=backoff_base, backoff_cap=backoff_cap,
            # deterministic per process, decorrelated across processes
            rng=rng if rng is not None
            else DeterministicRng("serve-client-backoff", salt=os.getpid()))

    @property
    def throttled(self) -> int:
        """429 responses seen over this client's lifetime."""
        return self._client.throttled

    @property
    def transport_errors(self) -> int:
        """Transport failures retried over this client's lifetime."""
        return self._client.transport_errors

    def _call(self, method: Callable[..., Awaitable[T]],
              *args: Any, **kwargs: Any) -> T:
        async def call() -> T:
            try:
                return await method(*args, **kwargs)
            finally:
                await self._client.aclose()

        return asyncio.run(call())

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None,
                ) -> Tuple[int, Any]:
        """One logical HTTP request; returns (status, decoded body).

        With ``retries`` enabled this may perform several round trips;
        the returned status is the final one (so a 429 that survives
        every retry is still surfaced to the caller).
        """
        return self._call(self._client.request, method, path, body)

    def _checked(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Any:
        return self._call(self._client.checked, method, path, body)

    # -- API -----------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._checked("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._checked("GET", "/metrics")

    def metrics_prometheus(self) -> str:
        return self._checked("GET", "/metrics?format=prom")

    def submit(self, job_body: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a job body (see the builders in repro.serve.protocol);
        returns the job summary with its ``id``."""
        return self._checked("POST", "/jobs", job_body)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._checked("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._checked("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._checked("POST", f"/jobs/{job_id}/cancel")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.05, raise_on_failure: bool = True,
             ) -> Dict[str, Any]:
        """Poll until the job settles; returns its final status doc.

        The first sleep is 5 ms and each next one doubles, up to
        ``poll``.
        """
        return self._call(self._client.wait, job_id, timeout,
                          raise_on_failure, poll_initial=min(0.005, poll),
                          poll_max=poll)

    def run(self, job_body: Dict[str, Any], timeout: float = 300.0,
            on_submit: Optional[Callable[[Dict[str, Any]], Any]] = None,
            ) -> Dict[str, Any]:
        """Submit + wait in one call (:meth:`AsyncServeClient.run`);
        returns the final status doc."""
        return self._call(self._client.run, job_body, timeout, on_submit)
