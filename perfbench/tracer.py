"""Outside-in layer tracing for the benchmark.

The tracer wraps each layer's public entry points *from the benchmark's
own process*: it swaps class attributes and module globals for timing
wrappers while a traced pass runs and restores them afterwards, so no
file under ``src/`` knows it exists.  With tracing off nothing is
patched and the program runs untouched.

Two kinds of span are recorded:

* **coarse spans** (one per cell, replay, batch, prediction, store
  read/write, HTTP route, client request) are kept in memory as
  ``(name, thread, start, end, parent, ident)`` records and written out
  when the run ends.  ``ident`` is the cell key, trace key or job id the
  span serves; a span without one inherits its parent's, so the spans
  of one request share an identifier.
* **hot spans** (per-cycle SM steps, per-access L1D calls, per-op
  generator steps, ...) fire 10^5-10^6 times per pass, so they are
  aggregated in place: calls, self time and useful outcomes per name.

Self time is a span's duration minus the time covered by its child
spans on the same thread.  A client request is a coroutine, so the
server route it causes is not nested inside it on the span stack;
:meth:`Tracer.link_requests` pairs them by job id afterwards and
subtracts the route time from the request's self time.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter


class _Stat:
    __slots__ = ("calls", "self_s", "useful")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.useful = 0


class _TimedIter:
    """Times each ``next()`` of a lazily generated stream as one hot span."""

    __slots__ = ("_inner", "_tracer", "_stat")

    def __init__(self, inner, tracer: "Tracer", stat: _Stat) -> None:
        self._inner = inner
        self._tracer = tracer
        self._stat = stat

    def __iter__(self):
        return self

    def __next__(self):
        stack = self._tracer._stack()
        stack.append(0.0)
        t0 = _perf()
        try:
            return next(self._inner)
        finally:
            dt = _perf() - t0
            stat = self._stat
            stat.self_s += dt - stack.pop()
            stack[-1] += dt
            stat.calls += 1


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {}
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, int] = {}
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- per-thread state ------------------------------------------------

    def _stack(self) -> List[float]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [0.0]
            self._local.open = []
            return self._local.stack

    def stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    # -- wrappers --------------------------------------------------------

    def hot(self, fn: Callable, name: str,
            useful: Optional[Callable[[Any], bool]] = None) -> Callable:
        stat = self.stat(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stat.self_s += dt - stack.pop()
                stack[-1] += dt
                stat.calls += 1
            if useful is not None and useful(result):
                stat.useful += 1
            return result

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """Count calls without timing them (their time stays the caller's)."""
        stat = self.stat(name)

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def stream(self, fn: Callable, name: str) -> Callable:
        """Wrap a function returning an iterator; time each ``next()``."""
        stat = self.stat(name)
        tracer = self

        def wrapper(*args, **kwargs):
            return _TimedIter(fn(*args, **kwargs), tracer, stat)

        return wrapper

    def coarse(self, fn: Callable, name: str,
               ident: Optional[Callable[..., Optional[str]]] = None,
               ) -> Callable:
        """A recorded span; ``ident(args, kwargs, result)`` names what it serves."""
        stat = self.stat(name)
        tracer = self
        spans = self.spans

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            opened = tracer._local.open
            parent = opened[-1] if opened else None
            record = [name, threading.get_ident(), 0.0, 0.0, parent, None]
            index = len(spans)
            spans.append(record)
            opened.append(index)
            stack.append(0.0)
            t0 = _perf()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                dt = t1 - t0
                stat.self_s += dt - stack.pop()
                stack[-1] += dt
                stat.calls += 1
                opened.pop()
                record[2], record[3] = t0, t1
                own = ident(args, kwargs, result) if ident else None
                if own is None and parent is not None:
                    own = spans[parent][5]
                record[5] = own
            return result

        return wrapper

    def coarse_async(self, fn: Callable, name: str,
                     ident: Optional[Callable[..., Optional[str]]] = None,
                     ) -> Callable:
        """A recorded span around a coroutine.  Coroutines interleave on
        one thread, so it stays out of the thread's span stack: its self
        time is its duration until :meth:`link_requests` runs."""
        stat = self.stat(name)
        spans = self.spans

        async def wrapper(*args, **kwargs):
            record = [name, threading.get_ident(), 0.0, 0.0, None, None]
            spans.append(record)
            t0 = _perf()
            result = None
            try:
                result = await fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stat.self_s += t1 - t0
                stat.calls += 1
                record[2], record[3] = t0, t1
                record[5] = ident(args, kwargs, result) if ident else None
            return result

        return wrapper

    def link_requests(self, client: str, server: str) -> None:
        """Make each ``server`` span the child of the ``client`` span that
        caused it (same job id, k-th with k-th) and move its time out of
        the client span's self time."""
        by_id: Dict[str, Tuple[List[int], List[int]]] = {}
        for index, span in enumerate(self.spans):
            if span[0] in (client, server) and span[5] is not None:
                pair = by_id.setdefault(span[5], ([], []))
                pair[span[0] == server].append(index)
        moved = 0.0
        for caller, callee in by_id.values():
            for c, s in zip(caller, callee):
                self.spans[s][4] = c
                moved += self.spans[s][3] - self.spans[s][2]
        self.stat(client).self_s -= moved

    # -- patching --------------------------------------------------------

    def patch(self, target: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``target.attr`` (``target`` = module or module:Class)."""
        module_name, _, class_name = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    # -- output ----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        base = min((s[2] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, thread, t0, t1, parent, ident) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "thread": thread,
                    "start_s": round(t0 - base, 9), "end_s": round(t1 - base, 9),
                    "parent": parent, "ident": ident,
                }) + "\n")


# ----------------------------------------------------------------------
# the patch table: every layer boundary the per-layer metrics read
# ----------------------------------------------------------------------

def _key_arg(args, kwargs, result) -> Optional[str]:
    return args[1] if len(args) > 1 else kwargs.get("key")


def _cell_key(args, kwargs, result) -> str:
    return args[0].key()


def _trace_cell(args, kwargs, result) -> str:
    scheme = args[1] if len(args) > 1 else kwargs.get("scheme", "baseline")
    return f"{Path(args[0].path).stem[:16]}/{scheme}"


def _trace_key(args, kwargs, result) -> str:
    return Path(args[0].path).stem[:16]


def _profile_cell(args, kwargs, result) -> str:
    return f"{args[0].meta.get('abbr')}/{args[1]}"


def _job_from_path(path: str) -> Optional[str]:
    if path.startswith("/jobs/"):
        return path[len("/jobs/"):].partition("/")[0]
    return None


def _route_ident(args, kwargs, result) -> Optional[str]:
    method, path = args[1], args[2]
    if method == "POST" and path == "/jobs" and result and result[0] == 200:
        return json.loads(result[1]).get("id")
    return _job_from_path(path)


def _request_ident(args, kwargs, result) -> Optional[str]:
    method, path = args[1], args[2]
    if method == "POST" and result and isinstance(result[1], dict):
        return result[1].get("id")
    return _job_from_path(path)


def _not_stall(result) -> bool:
    return not result.is_stall


def install(tracer: Tracer) -> None:
    """Patch every traced entry point; :meth:`Tracer.restore` undoes it."""
    t = tracer
    # workloads / gpu: the timing simulator's layers
    t.patch("repro.gpu.kernel:Kernel", "warp_trace",
            lambda f: t.stream(f, "workloads.op_gen"))
    t.patch("repro.gpu.sm:StreamingMultiprocessor", "step",
            lambda f: t.hot(f, "gpu.sm_step", useful=bool))
    t.patch("repro.gpu.sm", "coalesce", lambda f: t.hot(f, "gpu.coalesce"))
    t.patch("repro.gpu.ldst:LdStUnit", "step",
            lambda f: t.hot(f, "gpu.ldst_step", useful=bool))
    t.patch("repro.gpu.simulator:GpuSimulator", "schedule",
            lambda f: t.counted(f, "gpu.events"))
    t.patch("repro.gpu.simulator:GpuSimulator", "run",
            lambda f: t.coarse(f, "gpu.loop"))
    t.patch("repro.experiments.executor", "simulate_cell",
            lambda f: t.coarse(f, "timing.cell", ident=_cell_key))
    # l1d: the packed engine the timing cells run
    t.patch("repro.fastsim.engine:FastL1DCache", "access",
            lambda f: t.hot(f, "l1d.access", useful=_not_stall))
    t.patch("repro.fastsim.engine:FastL1DCache", "fill",
            lambda f: t.hot(f, "l1d.fill"))
    t.patch("repro.fastsim.engine:FastL1DCache", "drain_miss_queue",
            lambda f: t.hot(f, "l1d.drain"))
    # memory: interconnect both ways, partitions (L2 + DRAM)
    t.patch("repro.memory.interconnect:Interconnect", "send_request",
            lambda f: t.hot(f, "memory.icnt"))
    t.patch("repro.memory.interconnect:Interconnect", "send_response",
            lambda f: t.hot(f, "memory.icnt"))
    t.patch("repro.memory.partition:MemoryPartition", "receive",
            lambda f: t.hot(f, "memory.partition"))
    # store
    t.patch("repro.experiments.store:ResultStore", "put",
            lambda f: t.coarse(f, "store.put", ident=_key_arg))
    t.patch("repro.experiments.store:ResultStore", "get",
            lambda f: t.coarse(f, "store.get", ident=_key_arg))
    # replay tiers
    t.patch("repro.trace.format:TraceReader", "__iter__",
            lambda f: t.stream(f, "trace.read"))
    t.patch("repro.trace.sweep", "replay_trace",
            lambda f: t.coarse(f, "fastsim.replay", ident=_trace_cell))
    t.patch("repro.batchsim.engine", "decode_reader",
            lambda f: t.coarse(f, "batchsim.decode", ident=_trace_key))
    t.patch("repro.batchsim.engine", "replay_batch",
            lambda f: _count_lanes(t, t.coarse(f, "batchsim.replay_batch",
                                               ident=_trace_key)))
    t.patch("repro.predict.executor", "profile_trace",
            lambda f: t.coarse(f, "predict.profile", ident=_trace_key))
    t.patch("repro.predict.executor", "predict",
            lambda f: t.coarse(f, "predict.model", ident=_profile_cell))
    # serving: client, HTTP routing, admission
    t.patch("repro.loadtest.client:AsyncServeClient", "request",
            lambda f: t.coarse_async(f, "loadtest.request", ident=_request_ident))
    t.patch("repro.serve.server:ServeApp", "route",
            lambda f: t.coarse(f, "serve.route", ident=_route_ident))
    t.patch("repro.serve.scheduler:Scheduler", "submit",
            lambda f: t.coarse(f, "serve.submit",
                               ident=lambda a, k, r: r.id if r else None))


def _count_lanes(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(source, lanes, *args, **kwargs):
        tracer.counters["batchsim.lanes"] = (
            tracer.counters.get("batchsim.lanes", 0) + len(lanes))
        return fn(source, lanes, *args, **kwargs)

    return wrapper
