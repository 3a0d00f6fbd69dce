"""Policy replay engine: drive an L1D policy from a recorded trace.

:class:`ReplayEngine` instantiates one L1D and policy per SM — the
reference :class:`~repro.cache.l1d.L1DCache` with the real policy
objects, or under ``engine="fast"`` the bit-identical packed
:class:`~repro.fastsim.engine.FastL1DCache` — and drives the exact
protocol path of the paper's Figure 1/8 flow, including PL decay on set
queries, VTA insert/probe and PDPT sampling, but services every fetch
*immediately* instead of through the timing machine.  Workload
generation, coalescing, warp scheduling and the memory system are all
skipped: replaying a trace is the functional equivalent of
:func:`repro.experiments.cachesim`'s characterisation path, extended
from plain caches to full policies.  A fresh blocking fast engine runs
the generated kernels of :mod:`repro.batchsim` instead of the
per-record loop.

Replay semantics (and when they are valid — see EXPERIMENTS.md):

* fills are instantaneous, so lines are never left RESERVED between
  accesses and MSHR/miss-queue pressure never materialises — cache
  *contents* and policy decisions are exact, timing-induced stalls are
  not modelled;
* a STALL outcome is retried in place, re-querying the set exactly as
  the blocked pipeline register does in Section 2; each retry decays
  PLs, so protection policies always converge (bounded by the PL width);
* the returned :class:`~repro.gpu.simulator.SimResult` carries the full
  cache/policy counters with all timing fields zero.

Determinism: one recorded trace replayed through the same policy always
produces bit-identical counters, and replaying a recorded trace is
bit-identical to driving the policy from the live functional stream —
the differential oracle (`tests/trace/test_record_replay.py`) holds both.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union,
)

from repro.cache.l1d import L1DStats, MemAccess
from repro.core import make_policy
from repro.core.policy import CachePolicy
from repro.fastsim import PolicySpec, make_l1d, validate_engine
from repro.gpu.config import GPUConfig, resolve_scheme
from repro.gpu.simulator import SimResult
from repro.trace.format import TraceFormatError, TraceReader, TraceRecord
from repro.utils.hashing import hash_pc
from repro.workloads.base import Workload

#: Retry bound for in-place stall retries.  A stalled protection policy
#: frees a line after at most ``pl_max`` (15) decaying re-queries; 4096
#: turns a model bug into a loud error instead of a hang.
MAX_STALL_RETRIES = 4096

#: Non-blocking replay: how many accesses a fetch stays outstanding
#: before its fill is applied.  The replay clock is *accesses*, not
#: cycles, so the window is the functional analogue of memory latency —
#: large enough to keep several misses in flight (exercising RESERVED
#: lines, MSHR merging and resource stalls), small enough that the
#: outstanding set stays bounded by ``min(window, mshr_entries)``.
NB_FILL_WINDOW = 24


class ReplayStallError(RuntimeError):
    """An access stalled without converging — a policy/model bug."""


class ReplayEngine:
    """Per-SM caches + policies consuming a record stream.

    ``engine`` selects the L1D implementation each SM's cache is built
    with (:func:`repro.fastsim.make_l1d`); the engines are bit-identical,
    so the choice never changes a result.
    """

    def __init__(
        self,
        config: GPUConfig,
        policy_factory,
        engine: str = "reference",
    ) -> None:
        self.config = config
        self.engine = validate_engine(engine)
        self._insn_ids: Dict[int, int] = {}
        l1 = config.l1d
        self.non_blocking = l1.non_blocking
        if self.engine == "fast":
            # Packed caches read only the policy's knobs, so every SM
            # shares one spec instead of building a policy object each.
            spec = PolicySpec.from_policy(policy_factory())
            policies = [spec] * config.num_sms
        else:
            policies = [policy_factory() for _ in range(config.num_sms)]
        # L1DCache or FastL1DCache: both expose access/fill/miss_queue/
        # stats/policy, which is all the per-record loop touches.
        self.caches: List[Any] = [
            make_l1d(
                self.engine,
                l1.geometry(),
                policy,
                mshr_entries=l1.mshr_entries,
                mshr_merge=l1.mshr_merge,
                miss_queue_depth=l1.miss_queue_depth,
                sm_id=sm_id,
                non_blocking=l1.non_blocking,
            )
            for sm_id, policy in enumerate(policies)
        ]
        self.replayed_records = 0
        #: Records replayed per SM stream; :func:`replay_trace` checks
        #: this against the trace header's ``records_per_sm``.
        self.replayed_per_sm: List[int] = [0] * config.num_sms
        # Per-SM FIFO of (issue_seq, block) fetches awaiting their fill,
        # plus a per-SM access counter that serves as the replay clock.
        # Only non-blocking replay ever queues a fill here.
        self._outstanding: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(config.num_sms)
        ]
        self._seq: List[int] = [0] * config.num_sms

    # -- plumbing ------------------------------------------------------

    def _insn_id(self, pc: int) -> int:
        cached = self._insn_ids.get(pc)
        if cached is None:
            cached = self._insn_ids[pc] = hash_pc(pc)
        return cached

    # -- replay --------------------------------------------------------

    def access(self, record: TraceRecord) -> None:
        """Push one record through its SM's cache, retrying stalls in
        place.

        Blocking mode fills each fetch as it leaves the miss queue, so
        no RESERVED line survives to the next access and the FIFO of
        outstanding fills stays empty.  Non-blocking mode queues the
        fetch instead and applies its fill :data:`NB_FILL_WINDOW`
        accesses after issue, strictly in issue order (deterministic
        wakeups), so RESERVED lines survive, secondary misses merge and
        MSHR/miss-queue pressure builds; a stalled access drains the
        oldest outstanding fill early, modelling the pipeline waiting
        for the response that frees its resource.
        """
        sm_id = record[0]
        if not 0 <= sm_id < len(self.caches):
            raise ValueError(
                f"sm_id {sm_id} out of range for {len(self.caches)} SMs"
            )
        cache = self.caches[sm_id]
        acc = MemAccess(
            block_addr=record[1],
            pc=record[2],
            insn_id=self._insn_id(record[2]),
            is_write=record[3],
            warp_id=record[4] if len(record) > 4 else 0,
            sm_id=sm_id,
        )
        outstanding = self._outstanding[sm_id]
        seq = self._seq[sm_id]
        while outstanding and outstanding[0][0] + NB_FILL_WINDOW <= seq:
            cache.fill(outstanding.popleft()[1], 0)
        result = cache.access(acc)
        retries = 0
        while result.is_stall:
            retries += 1
            if retries > MAX_STALL_RETRIES:
                raise ReplayStallError(
                    f"SM{sm_id} access to block {acc.block_addr:#x} stalled "
                    f"{retries} times ({result.stall_reason}) without "
                    f"converging"
                )
            if outstanding:
                cache.fill(outstanding.popleft()[1], 0)
            result = cache.access(acc)
        while not cache.miss_queue.is_empty:
            fetch = cache.miss_queue.pop()
            if fetch.is_write:
                cache.stats.sent_writes += 1
            else:
                cache.stats.sent_fetches += 1
                if self.non_blocking:
                    outstanding.append((seq, fetch.block_addr))
                else:
                    cache.fill(fetch.block_addr, 0)
        self._seq[sm_id] = seq + 1
        self.replayed_records += 1
        self.replayed_per_sm[sm_id] += 1

    def flush(self) -> None:
        """Apply every fill still outstanding (end of stream)."""
        for sm_id, outstanding in enumerate(self._outstanding):
            cache = self.caches[sm_id]
            while outstanding:
                cache.fill(outstanding.popleft()[1], 0)

    def run(self, records: Iterable[TraceRecord]) -> SimResult:
        """Replay ``records`` and return the (cumulative) result.

        A fresh blocking ``fast`` engine hands the whole stream to the
        generated kernels of :mod:`repro.batchsim`, which start from an
        empty cache and need every fill serviced at once.  Every other
        engine — reference, non-blocking, or already warmed — runs
        :meth:`access` record by record.
        """
        if self.engine == "fast" and not self.non_blocking and not any(
            c._stamp or c.stats.loads or c.stats.stores for c in self.caches
        ):
            # Imported lazily: repro.batchsim.engine imports this module.
            from repro.batchsim.engine import run_kernels

            run_kernels(self, records)
        else:
            for record in records:
                self.access(record)
            self.flush()
        return self.result()

    # -- collection ----------------------------------------------------

    def result(self) -> SimResult:
        # Every send bumps its own cache's counters (bypasses at issue,
        # queued requests at the drain above or in the kernels), so the
        # per-cache sums are the replay's interconnect traffic.
        total = L1DStats.total(cache.stats for cache in self.caches)
        policy_total: Dict[str, float] = {}
        for cache in self.caches:
            for key, value in cache.policy.stats().items():
                policy_total[key] = policy_total.get(key, 0) + value

        return SimResult(
            cycles=0,
            thread_insns=0,
            warp_insns=0,
            l1d=total,
            interconnect={
                "total_requests": total.sent_fetches + total.sent_writes,
                "read_requests": total.sent_fetches,
                "write_requests": total.sent_writes,
            },
            l2={},
            dram={},
            policy=policy_total,
            per_sm_l1d=[cache.stats.as_dict() for cache in self.caches],
            ldst_stall_cycles=0,
            truncated=False,
        )


# ----------------------------------------------------------------------
# front doors
# ----------------------------------------------------------------------

def _resolve(scheme: Union[str, CachePolicy, None], config: GPUConfig,
             **policy_kwargs) -> Tuple[GPUConfig, Callable[[], CachePolicy]]:
    """Map a scheme name to (possibly resized config, policy factory)."""
    if callable(scheme) and not isinstance(scheme, str):
        return config, scheme
    name, config = resolve_scheme(scheme or "baseline", config)
    return config, (lambda: make_policy(name, **policy_kwargs))


def check_trace(reader: TraceReader,
                config: Optional[GPUConfig] = None) -> GPUConfig:
    """The machine to replay ``reader`` on.

    ``config`` defaults to the machine shape stored in the trace header
    (``num_sms`` SMs of the Table 1 core); when given, it must provide
    every recorded SM stream and match the trace's line size — block
    addresses are line-granular.
    """
    if config is None:
        return GPUConfig().scaled(reader.num_sms)
    if config.num_sms < reader.num_sms:
        raise ValueError(
            f"trace has {reader.num_sms} SM streams but config provides "
            f"only {config.num_sms} SMs"
        )
    if config.l1d.line_size != reader.line_size:
        raise ValueError(
            f"line-size mismatch: trace recorded at {reader.line_size} B, "
            f"config uses {config.l1d.line_size} B"
        )
    return config


def replay_records(
    records: Iterable[TraceRecord],
    config: GPUConfig,
    scheme: Union[str, object] = "baseline",
    engine: str = "reference",
    **policy_kwargs,
) -> SimResult:
    """Replay an in-memory record stream through one scheme."""
    config, factory = _resolve(scheme, config, **policy_kwargs)
    return ReplayEngine(config, factory, engine).run(records)


def replay_trace(
    trace: Union[TraceReader, str],
    scheme: Union[str, object] = "baseline",
    config: Optional[GPUConfig] = None,
    engine: str = "reference",
    **policy_kwargs,
) -> SimResult:
    """Replay a recorded trace file through one scheme, on the machine
    :func:`check_trace` resolves for it."""
    reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
    config, factory = _resolve(scheme, check_trace(reader, config),
                               **policy_kwargs)
    replay_engine = ReplayEngine(config, factory, engine)
    result = replay_engine.run(iter(reader))
    replayed = replay_engine.replayed_per_sm[: reader.num_sms]
    if replayed != reader.records_per_sm:
        bad = [
            f"SM{sm}: header says {want}, replayed {got}"
            for sm, (want, got) in enumerate(zip(reader.records_per_sm, replayed))
            if want != got
        ]
        raise TraceFormatError(
            f"{reader.path}: replayed record counts disagree with the "
            f"trace header ({'; '.join(bad)}) — the trace is corrupt or "
            f"its header was edited"
        )
    return result


def replay_workload(
    workload: Workload,
    config: Optional[GPUConfig] = None,
    scheme: Union[str, object] = "baseline",
    engine: str = "reference",
    **policy_kwargs,
) -> SimResult:
    """The functional path: drive a scheme from the live access stream
    (no trace file).  Bit-identical to recording then replaying."""
    from repro.trace.record import stream_records

    config = config or GPUConfig()
    return replay_records(
        stream_records(workload, config), config, scheme, engine=engine,
        **policy_kwargs
    )
