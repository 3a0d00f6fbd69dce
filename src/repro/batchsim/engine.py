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
the same kernels.  Lanes with one static key (:func:`_lane_key`: the
geometry and every knob a kernel reads inside a sampling window) share
one kernel pass per SM.  Nasc and ``pd_bits`` are not in it: until the
first window barrier that raises a PD, lanes that differ only there
take the same path.  At each barrier every member applies its own
Figure 9 update to the pass's window counters, and a member whose
decisions can now differ forks off with a copy of the pass's carried
state (:class:`~repro.batchsim.kernels.Carry`) and resumes alone from
the next window.  Decisions, not PD values, split a pass: a lane whose
``pl_max`` is at most the associativity makes LRU's decisions whatever
its PDs (the proof is :class:`_SharedBarrier`'s), so it stays in the
pass of the lanes whose PDs are 0.  Members still together at the end
get a copy of the pass's state, their own PDs kept.  So the 15-lane
``nasc=0:4 x pd_bits=2,4,6`` frontier costs one pass per SM on a stream
where no PD leaves 0.  The benchmark's three-app frontier (seed 0,
2 SMs, scale 0.5) runs 2,444 window-passes (one kernel over one SM's
sampling window): one pass per lane costs 4,875, and splitting on raw
PD values 3,351.  Non-blocking lanes run the per-record loop, one
private engine per lane (no cross-lane state by construction).
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
from repro.batchsim.kernels import (
    DLP, GLOBAL, UNPROTECTED, Carry, get_kernel, kernel_key,
)


#: One lane: (scheme, policy kwargs) — the same pair ``repro sweep``
#: passes to :func:`repro.trace.replay.replay_trace`.
Lane = Tuple[Union[str, Any], Dict[str, Any]]

_COPY_INTS = (
    "_stamp", "_acc", "_ins", "samples_completed", "protected_bypasses",
    "_vta_hit_count", "_vta_insert_count", "_vta_probe_count", "_vta_stamp",
    "_g_tda", "_g_vta", "_gp_tda", "_gp_vta",
)
_COPY_LISTS = (
    "_st", "_blk", "_lru", "_iid", "_pli", "_pnd",
    "_pdt", "_pdv", "_pdu",
    "_vta_valid", "_vta_blk", "_vta_iid", "_vta_lru",
)
_COPY_DICTS = ("_bypassed", "closed_by", "pd_updates")


def _lane_key(cache: FastL1DCache) -> Tuple[Any, ...]:
    """The static part of one lane's blocking-replay trajectory: lanes
    with equal keys share one kernel pass per SM.

    The key covers the geometry and every knob a kernel reads inside a
    sampling window.  ``insn_sample_limit`` is absent (replay never
    calls ``notify_instructions``) and ``baseline`` / ``stall_bypass``
    collapse to one unprotected group (the only stall blocking replay
    can raise is one unprotected policies never hit).  Nasc and
    ``pd_bits`` are absent too: they act only through the Figure 9
    update at a window barrier, where :class:`_SharedBarrier` applies
    each member's own and forks off the members whose decisions can
    then differ.  Nasc-0 lanes need no rule of their own: their PDs
    never leave 0, so they never part.  Lanes whose ``pl_max`` is at
    most ``assoc`` stay with them: the barrier keys those on the
    all-zero PD state, since no PL that short outlives the LRU way's
    age.
    """
    geom = cache.geometry
    base: Tuple[Any, ...] = (geom.num_sets, geom.assoc, geom.index_fn)
    if not cache._protected:
        return base + (UNPROTECTED,)
    kind = DLP if cache._kind == KIND_DLP else GLOBAL
    return base + (kind, cache._bypass_enabled, cache._acc_limit,
                   cache._vta_assoc)


class _SharedBarrier:
    """The window barrier of a kernel pass that several lanes share.

    The pass runs on ``members[0]``'s cache.  At each barrier every
    member applies its own Figure 9 update (its own Nasc and ``pd_max``)
    to the pass's window counters, then keys the split on the decisions
    its next window makes.  An *inert* member, one whose ``pl_max`` is
    at most the associativity, keys on the all-zero PD state, so it
    stays with the members whose PDs are all 0 (the Nasc-0 lanes among
    them); every other member keys on its own PD state.  The members
    whose key differs from the leader's leave ``members``: each group of
    equal keys takes a :meth:`~repro.batchsim.kernels.Carry.fork` of the
    pass's carry and the leader's lifetime PDPT markers, and goes onto
    ``forks`` to resume alone from the next window.

    Why an inert lane makes LRU's decisions whatever its PDs: blocking
    replay fills every miss at once, so no way is RESERVED when a victim
    is chosen.  In a full set each of the other ``assoc - 1`` ways was
    touched after the LRU way, each by a set access of its own, and the
    current access is one more.  So the LRU way was last touched at
    least ``assoc`` set accesses ago, and any PL of at most ``assoc`` it
    got then has expired.  The victim is the LRU way, and the access
    never bypasses or stalls, exactly as when every PL is 0.  So every
    member of an all-zero pass takes the pass's path, whichever of them
    leads it.

    No leader ordering is needed either.  A member whose PDs are all 0
    and that leaves such a pass may hold lines whose PLs (at most
    ``assoc``) its own replay made 0.  Those lines never decide a
    victim: while one of them is the set's LRU way it has expired, so
    both replays evict it; once the LRU way was touched after the fork,
    so was every way in the set.

    The rule is static on purpose.  A lane whose PDs merely *are* at
    most ``assoc``, after a decrease, can still hold lines protected for
    longer, and those can outlive LRU age.  Nor does the rule hold in
    the timing simulator: there a set whose ways are all RESERVED makes
    a protected miss bypass where LRU stalls.
    """

    def __init__(self, members: List[FastL1DCache], carry: Carry,
                 forks: List[Tuple[List[FastL1DCache], Carry]]) -> None:
        self.members = members
        self.carry = carry
        self.forks = forks
        # The global PD, then the PDPT's PDs (a Global-Protection cache
        # has no PDPT), all 0: the state an inert member keys on.
        self.lru_state = (0,) * (1 + members[0]._pdpt_n)

    def __call__(self) -> None:
        lead, *rest = self.members
        # The window's counters, both kinds' (the other kind's are 0 or
        # empty): each member's own Figure 9 update reads them.
        for cache in rest:
            cache._pdt[:] = lead._pdt
            cache._pdv[:] = lead._pdv
            cache._g_tda, cache._g_vta = lead._g_tda, lead._g_vta
            cache._gp_tda, cache._gp_vta = lead._gp_tda, lead._gp_vta
        # Split by what the next window decides: LRU's for an inert
        # member, else what its PD state reads, the global PD and the
        # PDPT's PDs (a DLP cache's global PD stays 0).  Equal PDs also
        # clamp alike, min(PD, pl_max): no PD exceeds its lane's pd_max,
        # which is its pl_max.
        split: Dict[Tuple[int, ...], List[FastL1DCache]] = {}
        for cache in self.members:
            cache._end_sample()
            if cache._pl_max <= cache._assoc:
                state = self.lru_state
            else:
                state = (cache._gpd, *cache._pdl)
            split.setdefault(state, []).append(cache)
        if len(split) > 1:
            self.members, *forked = split.values()
            for group in forked:
                group[0]._pdu[:] = lead._pdu
                self.forks.append((group, self.carry.fork()))


def _copy_cache(src: FastL1DCache, dst: FastL1DCache) -> None:
    """Copy the end state of a pass from its leader onto another member.

    The PDs stay the member's own: it applied its own Figure 9 update at
    every barrier, and Global-Protection's ``global_pd`` statistic reads
    its global PD.  The PLs are the leader's.  They differ from a
    member's own only in a pass an inert lane shared, by values of at
    most ``assoc`` that never decide a victim (see
    :class:`_SharedBarrier`), and no replay result reads them.
    """
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


def _run_group(group: Sequence[ReplayEngine], parts: TracePartitions) -> None:
    """Drive lanes of one :func:`_lane_key` through the shared
    partitions: one kernel pass per SM, forked where the lanes'
    decisions can diverge."""
    for sm_id in range(len(group[0].caches)):
        lead = group[0].caches[sm_id]
        part = parts.get(sm_id, lead._num_sets, lead.geometry.index_fn)
        kernel = get_kernel(kernel_key(lead))
        if lead._protected:
            windows, full = part.windows(lead._acc_limit)
        else:
            windows, full = part.whole_stream()
        passes = [([engine.caches[sm_id] for engine in group], Carry())]
        while passes:
            members, carry = passes.pop()
            if len(members) == 1:
                kernel(members[0], carry, windows, full, part.n, sm_id,
                       members[0]._end_sample)
                continue
            barrier = _SharedBarrier(members, carry, passes)
            kernel(members[0], carry, windows, full, part.n, sm_id, barrier)
            src, *dups = barrier.members
            for dst in dups:
                _copy_cache(src, dst)
        for engine in group:
            engine.replayed_per_sm[sm_id] += part.n
            engine.replayed_records += part.n


def run_kernels(engine: ReplayEngine, records: Iterable[TraceRecord]) -> None:
    """Replay ``records`` on a fresh, blocking ``fast`` engine: one
    decode, then one kernel pass per SM."""
    _run_group([engine], TracePartitions(
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

    groups: Dict[Tuple[Any, ...], List[ReplayEngine]] = {}
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
        groups.setdefault(_lane_key(engine.caches[0]), []).append(engine)
    for group in groups.values():
        _run_group(group, parts)
    return [engine.result() for engine in engines]


__all__ = ["Lane", "replay_batch", "run_kernels"]
