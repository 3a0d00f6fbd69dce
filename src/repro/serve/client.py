"""Blocking HTTP client for the simulation service.

``repro submit`` and the test suite talk to a running ``repro serve``
through this module; it is also the programmatic API for driving the
service from scripts::

    client = ServeClient(port=8642)
    job = client.submit(cell_request("BFS", "dlp", sms=2))
    done = client.wait(job["id"])
    payload = done["results"][0]["result"]     # SimResult.to_dict shape

Stdlib only (``http.client``).  The server keeps connections open
between requests, but this client opens one per request and sends
``Connection: close``, so the server closes its side right after the
response and a blocking caller never holds an idle connection.
"""

from __future__ import annotations

import http.client
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.jobs import TERMINAL_STATES
from repro.serve.protocol import (  # noqa: F401  (re-exported convenience)
    cell_request,
    replay_request,
    sweep_request,
)
from repro.utils import wallclock
from repro.utils.rng import DeterministicRng


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


class ServeClient:
    """Talk to one ``repro serve`` instance.

    ``retries`` > 0 turns on transparent retry for transport failures
    and ``429 Too Many Requests``: exponential backoff with full jitter
    (AWS style — sleep a uniform fraction of the doubling ceiling), and
    a server-provided ``Retry-After`` wins over the computed backoff.
    Off by default so tests observe every response; ``repro submit``
    and the loadtest harness turn it on.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 60.0, retries: int = 0,
                 backoff_base: float = 0.25, backoff_cap: float = 5.0,
                 rng: Optional[DeterministicRng] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = rng
        #: Telemetry for callers: how many 429s / transport errors were
        #: absorbed by retries over this client's lifetime.
        self.retried_throttles = 0
        self.retried_errors = 0

    # -- transport -----------------------------------------------------

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None,
                ) -> Tuple[int, Any]:
        """One logical HTTP request; returns (status, decoded body).

        With ``retries`` enabled this may perform several round trips;
        the returned status is the final one (so a 429 that survives
        every retry is still surfaced to the caller).
        """
        attempt = 0
        while True:
            try:
                status, decoded, retry_after = \
                    self._roundtrip(method, path, body)
            except ServeError:
                if attempt >= self.retries:
                    raise
                self.retried_errors += 1
                delay = self._backoff(attempt, None)
            else:
                if status != 429 or attempt >= self.retries:
                    return status, decoded
                self.retried_throttles += 1
                delay = self._backoff(attempt, retry_after)
            attempt += 1
            time.sleep(delay)

    def _roundtrip(self, method: str, path: str,
                   body: Optional[Dict[str, Any]],
                   ) -> Tuple[int, Any, Optional[float]]:
        """One HTTP round trip; returns (status, body, Retry-After)."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = None
            headers = {"Connection": "close"}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read().decode("utf-8", "replace")
        except OSError as exc:
            raise ServeError(
                f"cannot reach repro-serve at {self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            conn.close()
        content_type = response.getheader("Content-Type", "")
        decoded: Any = raw
        if "json" in content_type:
            try:
                decoded = json.loads(raw) if raw else None
            except ValueError as exc:
                raise ServeError(
                    f"malformed JSON from service: {exc}",
                    status=response.status,
                ) from exc
        retry_after: Optional[float] = None
        header = response.getheader("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                pass
        return response.status, decoded, retry_after

    def _backoff(self, attempt: int, retry_after: Optional[float]) -> float:
        if retry_after is not None:
            return min(self.backoff_cap, max(0.0, retry_after))
        if self._rng is None:
            # deterministic per process, decorrelated across processes
            self._rng = DeterministicRng("serve-client-backoff",
                                         salt=os.getpid())
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return float(self._rng.random()) * ceiling

    def _get(self, path: str) -> Any:
        return self._checked("GET", path, None)

    def _checked(self, method: str, path: str,
                 body: Optional[Dict[str, Any]]) -> Any:
        status, decoded = self.request(method, path, body)
        if status >= 400:
            message = decoded.get("error", str(decoded)) \
                if isinstance(decoded, dict) else str(decoded)
            raise ServeError(f"{method} {path} -> {status}: {message}",
                             status=status, body=decoded)
        return decoded

    # -- API -----------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._get("/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._get("/metrics")

    def metrics_prometheus(self) -> str:
        return self._get("/metrics?format=prom")

    def submit(self, job_body: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a job body (see the builders in repro.serve.protocol);
        returns the job summary with its ``id``."""
        return self._checked("POST", "/jobs", job_body)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._get("/jobs")["jobs"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._get(f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._checked("POST", f"/jobs/{job_id}/cancel", None)

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.05, raise_on_failure: bool = True,
             ) -> Dict[str, Any]:
        """Poll until the job settles; returns its final status doc."""
        deadline = wallclock.monotonic() + timeout
        while True:
            doc = self.status(job_id)
            if doc.get("state") in TERMINAL_STATES:
                if raise_on_failure and doc.get("state") != "done":
                    raise JobFailedError(doc)
                return doc
            if wallclock.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {doc.get('state')!r} "
                    f"after {timeout:g}s"
                )
            time.sleep(poll)

    def run(self, job_body: Dict[str, Any], timeout: float = 300.0,
            ) -> Dict[str, Any]:
        """Submit + wait in one call; returns the final status doc."""
        job = self.submit(job_body)
        return self.wait(job["id"], timeout=timeout)
