"""The packed replay engine: the generated kernels behind ``--engine fast``.

:func:`run_kernels` is how a fresh, blocking
:class:`~repro.trace.replay.ReplayEngine` built with ``engine="fast"``
(``batch`` is another spelling) replays: it decodes the record stream
once and advances each SM's packed
:class:`~repro.fastsim.engine.FastL1DCache` through it with the
specialized kernels in :mod:`repro.batchsim.kernels`.  A non-blocking
or already-warmed fast engine runs the per-record loop over the same
packed caches instead: fills in flight break the per-window set
decomposition the kernels rely on, and the kernels start from an empty
cache.

:func:`replay_batch` is the multi-lane front door: it decodes and
partitions the trace once (:mod:`repro.batchsim.decode`), then advances
every lane — a (scheme, policy_kwargs) variant — through the stream via
the same kernels.  Lanes whose blocking-replay trajectories are
provably identical (``baseline`` vs ``stall_bypass``, knobs the replay
path never reads such as ``insn_sample_limit``, Nasc-0 lanes that
differ only in ``pd_bits``) share one kernel run and the survivors get
a state copy, so a 17-cell ablation grid costs
~15 kernel passes plus one decode instead of 17 full replays.
Non-blocking lanes run the per-record loop, one private engine per
lane (no cross-lane state by construction).
"""

from __future__ import annotations

from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.fastsim.engine import KIND_DLP, FastL1DCache
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import SimResult
from repro.trace.format import TraceReader, TraceRecord
from repro.trace.replay import ReplayEngine, _resolve, check_trace

from repro.batchsim.decode import (
    SmColumns,
    TracePartitions,
    _columns_from_lists,
    decode_reader,
    decode_records,
)
from repro.batchsim.kernels import DLP, GLOBAL, UNPROTECTED, get_kernel, kernel_key


#: One lane: (scheme, policy kwargs) — the same pair ``repro sweep``
#: passes to :func:`repro.trace.replay.replay_trace`.
Lane = Tuple[Union[str, Any], Dict[str, Any]]

_COPY_INTS = (
    "_stamp", "_acc", "_ins", "samples_completed", "protected_bypasses",
    "_vta_hit_count", "_vta_insert_count", "_vta_probe_count", "_vta_stamp",
    "_g_tda", "_g_vta", "_gpd", "_gp_tda", "_gp_vta",
)
_COPY_LISTS = (
    "_st", "_blk", "_lru", "_iid", "_pli", "_pnd",
    "_pdt", "_pdv", "_pdl", "_pdu",
    "_vta_valid", "_vta_blk", "_vta_iid", "_vta_lru",
)
_COPY_DICTS = ("_bypassed", "closed_by", "pd_updates")


def _lane_key(cache: FastL1DCache) -> Tuple[Any, ...]:
    """Trajectory identity of one lane's blocking replay.

    Two lanes with equal keys take bit-identical paths through the
    stream: the key covers the geometry and every policy knob the
    blocking replay protocol reads.  ``insn_sample_limit`` is absent
    (replay never calls ``notify_instructions``) and ``baseline`` /
    ``stall_bypass`` collapse to one unprotected group (the only stall
    blocking replay can raise is one unprotected policies never hit).

    With Nasc 0 the PD width (``pl_max``) is keyed as 0, so DLP or
    Global-Protection lanes that differ only in ``pd_bits`` share a run:

    * every PD starts at 0, and ``policy_reset`` zeroes it;
    * the increase path adds ``_pd_increment(0, ...)``, a multiple of
      Nasc and so 0, and the decrease path subtracts 0, so no PDPT entry
      and no global PD ever leaves 0;
    * a line's Protected Life is ``min(PD, pl_max)`` = 0, so no line is
      ever protected and neither ``pl_max`` nor ``pd_max`` ever binds;
    * ``policy_stats`` reports no width, and :func:`_copy_cache` copies
      only state, never the width itself.
    """
    geom = cache.geometry
    base: Tuple[Any, ...] = (geom.num_sets, geom.assoc, geom.index_fn)
    if not cache._protected:
        return base + (UNPROTECTED,)
    kind = DLP if cache._kind == KIND_DLP else GLOBAL
    pl_max = cache._pl_max if cache._nasc else 0
    return base + (kind, cache._bypass_enabled, cache._acc_limit,
                   cache._vta_assoc, pl_max, cache._nasc)


def _copy_cache(src: FastL1DCache, dst: FastL1DCache) -> None:
    """Copy one cache's full observable end state onto a duplicate lane."""
    for name in _COPY_INTS:
        setattr(dst, name, getattr(src, name))
    for name in _COPY_LISTS:
        getattr(dst, name)[:] = getattr(src, name)
    for name in _COPY_DICTS:
        d = getattr(dst, name)
        d.clear()
        d.update(getattr(src, name))
    for field, value in vars(src.stats).items():
        setattr(dst.stats, field,
                dict(value) if isinstance(value, dict) else value)


def _run_lane(engine: ReplayEngine, parts: TracePartitions) -> None:
    """Drive one lane's per-SM caches through the shared partitions."""
    for sm_id, cache in enumerate(engine.caches):
        columns = parts.columns[sm_id]
        part = parts.get(sm_id, cache._num_sets, cache.geometry.index_fn)
        kernel = get_kernel(kernel_key(cache, parts.max_insn))
        if cache._protected:
            windows, full = part.windows(cache._acc_limit)
        else:
            windows, full = part.whole_stream()
        kernel(cache, windows, full, part.n, sm_id)
        engine.replayed_per_sm[sm_id] += columns.n
        engine.replayed_records += columns.n


def run_kernels(engine: ReplayEngine, records: Iterable[TraceRecord]) -> None:
    """Replay ``records`` on a fresh, blocking ``fast`` engine: one
    decode, then one kernel pass per SM."""
    _run_lane(engine, TracePartitions(
        decode_records(list(records), len(engine.caches))))


def _pad_columns(columns: List[SmColumns], num_sms: int) -> List[SmColumns]:
    while len(columns) < num_sms:
        columns.append(_columns_from_lists(len(columns), [], [], [], []))
    return columns


def replay_batch(
    source: Union[TraceReader, Sequence[TraceRecord]],
    lanes: Sequence[Lane],
    config: Optional[GPUConfig] = None,
) -> List[SimResult]:
    """Replay every lane over one decode of ``source``.

    ``source`` is a :class:`TraceReader` (decoded vectorized) or an
    in-memory record sequence; ``lanes`` are (scheme, policy_kwargs)
    pairs.  ``config`` defaults to the trace header's machine for a
    reader, as in :func:`~repro.trace.replay.replay_trace`, and to
    :class:`GPUConfig` for records.  Returns one :class:`SimResult` per
    lane, in order, each bit-identical to a solo
    ``replay_trace(..., engine="fast")`` run of that lane.
    """
    if isinstance(source, TraceReader):
        config = check_trace(source, config)
        columns = _pad_columns(decode_reader(source), config.num_sms)
    else:
        config = config or GPUConfig()
        columns = decode_records(list(source), config.num_sms)
    parts = TracePartitions(columns)

    engines: List[ReplayEngine] = []
    for scheme, policy_kwargs in lanes:
        lane_config, factory = _resolve(scheme, config, **policy_kwargs)
        engines.append(ReplayEngine(lane_config, factory, "fast"))

    done: Dict[Tuple[Any, ...], ReplayEngine] = {}
    nb_records: List[TraceRecord] = []
    for engine in engines:
        if engine.non_blocking:
            # No kernel specialization: fills in flight break the window
            # decomposition.  Each NB lane gets its own engine pass over
            # the shared decoded records — lane isolation by construction.
            if not nb_records:
                for col in columns:
                    nb_records.extend(col.records())
            engine.run(iter(nb_records))
            continue
        key = _lane_key(engine.caches[0])
        prior = done.get(key)
        if prior is None:
            _run_lane(engine, parts)
            done[key] = engine
        else:
            for src, dst in zip(prior.caches, engine.caches):
                _copy_cache(src, dst)
            engine.replayed_per_sm = list(prior.replayed_per_sm)
            engine.replayed_records = prior.replayed_records
    return [engine.result() for engine in engines]


__all__ = ["Lane", "replay_batch", "run_kernels"]
