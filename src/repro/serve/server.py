"""Stdlib-only asyncio HTTP front end for the simulation service.

A deliberately small HTTP/1.1 implementation over ``asyncio.streams``
(no framework, no threads): JSON in, JSON out, bodies framed by
``Content-Length``.  Connections persist: one connection carries any
number of requests, and the server closes it only after a response
marked ``Connection: close`` — the request asked for it or was
HTTP/1.0, its framing could not be trusted (400) or its body was too
large (413), the handler raised (500), or the server is draining.
There is no idle timeout: a process worker forked while a connection
is open holds a copy of its socket, so closing an idle connection
might never reach the client as FIN.  Routes:

=======  ======================  =========================================
method   path                    behaviour
=======  ======================  =========================================
GET      /healthz                liveness + drain state (always answers)
GET      /metrics                counters/histograms as JSON;
                                 ``?format=prom`` for Prometheus text
POST     /jobs                   submit a job (see repro.serve.protocol)
GET      /jobs                   list job summaries, in submission order
GET      /jobs/<id>              full status incl. results when done
POST     /jobs/<id>/cancel       cancel (also DELETE /jobs/<id>)
=======  ======================  =========================================

The scheduler keeps every active job and only the most recently
settled ones (:data:`~repro.serve.scheduler.RETAINED_JOBS`).  Any
``/jobs/<id>`` route for an id it issued but no longer holds answers
``410 Gone``: the client resubmits its request, which for a warm cell
costs one ``stat``.  An id it never issued answers 404.

``serve_async`` is the long-running entry point behind ``repro serve``:
it wires a :class:`~repro.serve.scheduler.Scheduler` to the listener,
installs SIGTERM/SIGINT handlers, and on the first signal stops
admitting jobs (503), drains active work, stops listening, closes every
connection waiting for its next request, waits for every connection
handler, then exits cleanly.
:class:`ServerThread` runs the same stack on a background thread with
an ephemeral port — the harness tests and benchmarks drive a real
server in-process through it.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Optional, Set, Tuple, Union,
)

from repro.serve.metrics import render_prometheus
from repro.serve.protocol import ProtocolError, parse_job_request
from repro.serve.scheduler import (
    DrainingError,
    JobTooLargeError,
    RetryableError,
    Scheduler,
)

if TYPE_CHECKING:
    from repro.serve.client import ServeClient

#: Largest accepted request body; a sweep grid is a few hundred bytes,
#: so anything near this is a client bug, not a bigger experiment.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 410: "Gone", 413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: What every handler returns: status, body, content type, and any
#: extra response headers (e.g. ``Retry-After`` on a 429).
Response = Tuple[int, str, str, Dict[str, str]]

#: One parsed request: method, target, whether the connection may stay
#: open after the response, and the body.
_Request = Tuple[str, str, bool, bytes]


class _BadFraming(Exception):
    """A request whose framing cannot be trusted: answer, then close."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServeApp:
    """Route table + request handler bound to one scheduler."""

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self._closed = False
        #: Every live connection handler, and the writers of connections
        #: waiting for (or still reading) their next request; both are
        #: what :meth:`close` ends.
        self._handlers: Set["asyncio.Task[None]"] = set()
        self._reading: Set[asyncio.StreamWriter] = set()

    # -- connection handling -------------------------------------------

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Answer requests on one connection until either side closes."""
        task = asyncio.current_task()
        assert task is not None, "asyncio runs every handler as a task"
        self._handlers.add(task)
        self.scheduler.metrics.http_connections += 1
        try:
            while await self._serve_next(reader, writer):
                pass
        except ConnectionError:
            pass                # the peer reset or dropped the connection
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _serve_next(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bool:
        """Read and answer one request; False once the connection is done.

        A clean EOF before the request line, or :meth:`close` while the
        request was still arriving, ends the connection with no response:
        that request was never routed, so a client may resend it.
        """
        if self._closed:
            return False
        request: Union[None, _Request, _BadFraming]
        self._reading.add(writer)
        try:
            request = await self._read_request(reader)
        except _BadFraming as exc:
            request = exc
        finally:
            self._reading.discard(writer)
        if request is None or writer.is_closing():
            return False
        self.scheduler.metrics.http_requests += 1
        if isinstance(request, _BadFraming):
            keep_alive = False
            response = self._error(request.status, str(request))
        else:
            method, target, keep_alive, body = request
            path, _, query = target.partition("?")
            try:
                response = self.route(method, path, query, body)
            except Exception as exc:  # a handler bug must not kill the server
                keep_alive = False
                response = self._error(500, f"{type(exc).__name__}: {exc}")
        keep_alive = keep_alive and not (self._closed
                                         or self.scheduler.draining)
        status, text, content_type, extra_headers = response
        payload = text.encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in extra_headers.items()
        )
        writer.write(
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n".encode("ascii") + payload
        )
        await writer.drain()
        return keep_alive

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[_Request]:
        """The next request, or None on a clean EOF before it starts.

        Raises :class:`_BadFraming` where the end of the request cannot
        be trusted (a line over the stream's limit, a chunked body, no
        single valid ``Content-Length``), since on a kept connection the
        rest would be parsed as the next request.
        """
        try:
            request_line = await reader.readline()
            if not request_line:
                return None
            parts = request_line.decode("ascii", "replace").split()
            if len(parts) < 2:
                raise _BadFraming(400, "malformed request line")
            keep_alive = len(parts) > 2 and parts[2] == "HTTP/1.1"
            length: Optional[str] = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = \
                    line.decode("ascii", "replace").partition(":")
                name, value = name.strip().lower(), value.strip()
                if name == "content-length":
                    if not value.isdigit() or length not in (None, value):
                        raise _BadFraming(400, "bad Content-Length")
                    length = value
                elif name == "transfer-encoding":
                    raise _BadFraming(400,
                                      "Transfer-Encoding is not supported")
                elif name == "connection" and "close" in \
                        (token.strip().lower() for token in value.split(",")):
                    keep_alive = False
        except ValueError:
            raise _BadFraming(400, "request line or header too long") \
                from None
        size = int(length) if length is not None else 0
        if size > MAX_BODY_BYTES:
            raise _BadFraming(413, "request body too large")
        try:
            body = await reader.readexactly(size) if size else b""
        except asyncio.IncompleteReadError:
            raise _BadFraming(400, "request body ended early") from None
        return parts[0].upper(), parts[1], keep_alive, body

    async def close(self) -> None:
        """Close every connection still waiting for a request, then wait
        for every handler: a response in progress finishes, announcing
        ``Connection: close``.

        ``Server.wait_closed`` never closes a connection, and waits for
        them only from Python 3.12.1; before that, handlers still
        pending would be cancelled at loop teardown.
        """
        self._closed = True
        for writer in list(self._reading):
            writer.close()
        while self._handlers:
            await asyncio.wait(set(self._handlers))

    # -- routing -------------------------------------------------------

    def route(self, method: str, path: str, query: str,
              body: bytes) -> Response:
        """Dispatch one request; returns (status, body, type, headers)."""
        if path == "/healthz":
            if method != "GET":
                return self._error(405, "use GET")
            return self._json(200, self.scheduler.health())

        if path == "/metrics":
            if method != "GET":
                return self._error(405, "use GET")
            snapshot = self.scheduler.metrics_snapshot()
            if "format=prom" in query:
                return 200, render_prometheus(snapshot), \
                    "text/plain; version=0.0.4", {}
            return self._json(200, snapshot)

        if path == "/jobs":
            if method == "GET":
                return self._json(200, {
                    "jobs": [job.summary()
                             for job in self.scheduler.jobs.values()]
                })
            if method == "POST":
                return self._submit(body)
            return self._error(405, "use GET or POST")

        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, action = rest.partition("/")
            job = self.scheduler.jobs.get(job_id)
            if job is None:
                if self.scheduler.evicted(job_id):
                    return self._error(
                        410, f"job {job_id!r} settled and was evicted; "
                             f"resubmit its request")
                return self._error(404, f"unknown job {job_id!r}")
            if action == "" and method == "GET":
                return self._json(200, job.status())
            if (action == "cancel" and method == "POST") or \
                    (action == "" and method == "DELETE"):
                cancelled = self.scheduler.cancel(job_id)
                return self._json(200, {
                    "id": job_id,
                    "cancelled": cancelled,
                    "state": job.state,
                })
            return self._error(405, "unsupported job action")

        return self._error(404, f"no route for {path!r}")

    def _submit(self, body: bytes) -> Response:
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError):
            return self._error(400, "request body is not valid JSON")
        try:
            request = parse_job_request(payload)
        except ProtocolError as exc:
            return self._error(400, str(exc))
        try:
            job = self.scheduler.submit(request)
        except DrainingError as exc:
            return self._error(503, str(exc))
        except JobTooLargeError as exc:
            return self._error(413, str(exc))
        except RetryableError as exc:
            # Retry-After is fractional seconds: nonstandard HTTP but
            # exact — every consumer is our own client/loadtest stack.
            return self._error(
                429, str(exc),
                headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
        return self._json(200, job.summary())

    @staticmethod
    def _json(status: int, doc: Dict[str, Any]) -> Response:
        return status, json.dumps(doc, sort_keys=True), \
            "application/json", {}

    @staticmethod
    def _error(status: int, message: str,
               headers: Optional[Dict[str, str]] = None) -> Response:
        return status, json.dumps({"error": message}), \
            "application/json", dict(headers or {})


# ----------------------------------------------------------------------
# long-running entry point (repro serve)
# ----------------------------------------------------------------------

async def serve_async(
    host: str = "127.0.0.1",
    port: int = 8642,
    workers: int = 2,
    store: Any = None,
    trace_dir: Optional[Union[str, Path]] = None,
    engine: str = "reference",
    drain_timeout: Optional[float] = None,
    ready: Optional["threading.Event"] = None,
    stop_event: Optional[asyncio.Event] = None,
    scheduler: Optional[Scheduler] = None,
    log: Callable[..., Any] = print,
    max_queued: int = 0,
    rate: Optional[float] = None,
    burst: Optional[float] = None,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain and exit.

    ``store`` is anything :func:`repro.experiments.store.open_store`
    accepts — or an already-open store object.  ``engine`` picks the
    workers' L1D implementation (results are engine-independent).
    ``max_queued``/``rate``/``burst`` configure the scheduler's
    admission control (0/None = off).  Returns the process exit code
    (0 = drained clean, 1 = drain timed out, remaining jobs cancelled).
    """
    from repro.experiments.store import open_store

    if scheduler is None:
        opened = store if hasattr(store, "get") else open_store(store)
        scheduler = Scheduler(store=opened, workers=workers,
                              trace_dir=trace_dir, engine=engine,
                              max_queued=max_queued, rate=rate, burst=burst)
    await scheduler.start()
    app = ServeApp(scheduler)
    server = await asyncio.start_server(app.handle, host=host, port=port)
    bound_port = server.sockets[0].getsockname()[1]

    stop = stop_event if stop_event is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or unsupported platform
    if ready is not None:
        ready.port = bound_port  # type: ignore[attr-defined]
        ready.set()
    log(f"repro-serve listening on http://{host}:{bound_port} "
        f"({workers} workers)", flush=True)
    try:
        await stop.wait()
        log("repro-serve draining ...", flush=True)
        scheduler.draining = True  # reject new jobs while /healthz answers
        clean = await scheduler.drain(timeout=drain_timeout)
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        server.close()
        await app.close()
        await server.wait_closed()
    log(f"repro-serve drained {'clean' if clean else 'with stragglers'}; "
        f"bye", flush=True)
    return 0 if clean else 1


# ----------------------------------------------------------------------
# in-process harness (tests, benchmarks)
# ----------------------------------------------------------------------

class ServerThread:
    """A real server on a daemon thread with an ephemeral port.

    ::

        with ServerThread(store=tmp_path / "store") as srv:
            client = srv.client()
            job = client.submit(cell_request("MM", "baseline", sms=1))

    Accepts the same injection points as :class:`Scheduler`, so harness
    tests can run stub work functions on a thread pool while the full
    integration tests exercise real process workers.
    """

    def __init__(self, host: str = "127.0.0.1", workers: int = 1,
                 store: Any = None,
                 trace_dir: Optional[Union[str, Path]] = None,
                 drain_timeout: Optional[float] = 30.0,
                 **scheduler_kwargs: Any) -> None:
        self._host = host
        self._workers = workers
        self._store = store
        self._trace_dir = trace_dir
        self._drain_timeout = drain_timeout
        self._scheduler_kwargs = scheduler_kwargs
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self.scheduler: Optional[Scheduler] = None
        self.port: Optional[int] = None
        self.exit_code: Optional[int] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start")
        self.port = getattr(self._ready, "port", None)
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        from repro.experiments.store import open_store

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        store = self._store if hasattr(self._store, "get") \
            else open_store(self._store if self._store is None
                            else str(self._store))
        self.scheduler = Scheduler(
            store=store, workers=self._workers,
            trace_dir=self._trace_dir, **self._scheduler_kwargs)
        self.exit_code = await serve_async(
            host=self._host, port=0, scheduler=self.scheduler,
            drain_timeout=self._drain_timeout, ready=self._ready,
            stop_event=self._stop, log=lambda *a, **k: None,
        )

    def stop(self) -> Optional[int]:
        """Signal drain and join the thread; returns the exit code."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        return self.exit_code

    def client(self, timeout: float = 60.0) -> ServeClient:
        from repro.serve.client import ServeClient

        assert self.port is not None, "server not started"
        return ServeClient(host=self._host, port=self.port, timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
