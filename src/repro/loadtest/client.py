"""The loadtest's client names, bound to the service's one client.

The async client and its connection pool live in
:mod:`repro.serve.client`.  The benchmark's serve workload
(``perfbench/workloads.py``) imports ``AsyncServeClient`` and
``LoadClientError`` from here, and its tracer patches
``AsyncServeClient.request`` through this module, so both names stay;
a transport failure that survived every retry is a
:class:`~repro.serve.client.ServeError`.
"""

from repro.serve.client import AsyncServeClient, ConnectionPool
from repro.serve.client import ServeError as LoadClientError

__all__ = ["AsyncServeClient", "ConnectionPool", "LoadClientError"]
