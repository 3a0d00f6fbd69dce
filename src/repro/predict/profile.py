"""Reuse profiles for analytical prediction (the predictor's input).

The predictor needs more than the paper's four-bucket RDD: for every
read reuse it records the pair

* ``sd`` — the LRU *stack position* of the line at re-reference time
  (the number of distinct lines touched in the set since the previous
  touch).  Under pure LRU the reuse hits iff ``sd < assoc``, for *any*
  associativity — one profiling pass answers every cache size (Mattson's
  classic stack algorithm).
* ``rd`` — the paper's access-counter reuse distance *including writes*
  (a store runs the set query too), which is exactly the clock that
  decays a line's Protected Life.  A line granted ``PL = p`` at its last
  touch is guaranteed resident iff ``rd <= p``, regardless of its stack
  position — which is how protection rescues reuses LRU would lose.

Counts are kept per **epoch** (a fixed slice of the merged access
stream, at most :data:`NUM_EPOCHS` per profile) because the protection
schemes *learn*: whether a sampling window raises the Protection
Distance depends on the VTA traffic of that window, and reuse behaviour
is strongly phased in real streams.  A temporally flat profile makes
the Figure 9 emulation learn from reuses that are long gone.

Reuses are attributed to the hashed instruction ID of the *previous*
toucher (:func:`repro.utils.hashing.hash_pc`) — the same convention the
DLP hardware uses for its TDA/VTA hit counters, PDPT collisions
included.  Stores are modelled as the cache models them (write-through,
write-evict): a written block's next read can never hit, and the write
removes the block from the stack.

Profiling runs one columnar pass per SM.  A recorded trace is decoded
one SM section at a time, and an in-memory stream is bucketed per SM,
into the numpy columns :mod:`repro.batchsim.decode` builds for the
replay kernels; their ``insns`` column already holds each record's
hashed instruction ID.  Set indices are computed vectorized, and the
state machine then walks plain lists: per-set MRU-first block stacks
and counters plus one last-touch dict per SM.  Per-SM state is private
(L1Ds are private), so SMs are folded into the profile one after
another; profiling a trace file holds one SM's columns at a time.

A :class:`PredictProfile` is a plain JSON document, so profiles cache
per trace key and travel through the serve worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.analysis.reuse import RddHistogram, bucket_of
from repro.cache.tagarray import CacheGeometry
from repro.gpu.config import GPUConfig
from repro.gpu.isa import ComputeOp

if TYPE_CHECKING:
    from repro.batchsim.decode import SmColumns
    from repro.trace.format import TraceReader, TraceRecord
    from repro.workloads import Workload

#: Stack positions are exact up to this depth; anything deeper lands in
#: the tail.  Deep enough for the largest modelled geometry (64 KB =
#: 16 ways) plus a full VTA window behind it.
SD_CAP = 48
#: Counter distances are exact up to this value; protection can rescue a
#: reuse only while ``rd <= pl_max`` (15 at the paper's 4 PD bits, 31 at
#: the widest ablation), so the tail is never protectable.
RD_CAP = 32
#: Sentinel for "beyond the cap" (kept JSON-round-trippable).
TAIL = -1
#: Temporal resolution of a profile (upper bound on epochs kept).
NUM_EPOCHS = 64


@dataclass
class EpochCounts:
    """One stream slice: reuse pairs plus the window-rate denominators."""

    accesses: int = 0
    reads: int = 0
    writes: int = 0
    compulsory: int = 0
    #: write-evicted reuses (a store invalidated the line in between —
    #: misses at any associativity).
    write_evicted: int = 0
    #: ``joint[insn][(sd, rd)]`` -> count of live read reuses.
    joint: Dict[int, Dict[Tuple[int, int], int]] = field(default_factory=dict)

    def add_reuse(self, insn: int, sd: int, rd: int) -> None:
        pairs = self.joint.setdefault(insn, {})
        key = (sd, rd)
        pairs[key] = pairs.get(key, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "accesses": self.accesses,
            "reads": self.reads,
            "writes": self.writes,
            "compulsory": self.compulsory,
            "write_evicted": self.write_evicted,
            "joint": {
                str(insn): [[sd, rd, n] for (sd, rd), n in sorted(pairs.items())]
                for insn, pairs in sorted(self.joint.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EpochCounts":
        epoch = cls(
            accesses=int(data["accesses"]), reads=int(data["reads"]),
            writes=int(data["writes"]), compulsory=int(data["compulsory"]),
            write_evicted=int(data["write_evicted"]),
        )
        for insn, triples in data["joint"].items():
            pairs = epoch.joint.setdefault(int(insn), {})
            for sd, rd, n in triples:
                pairs[(int(sd), int(rd))] = int(n)
        return epoch

    def merge(self, other: "EpochCounts") -> None:
        self.accesses += other.accesses
        self.reads += other.reads
        self.writes += other.writes
        self.compulsory += other.compulsory
        self.write_evicted += other.write_evicted
        for insn, pairs in other.joint.items():
            mine = self.joint.setdefault(insn, {})
            for key, n in pairs.items():
                mine[key] = mine.get(key, 0) + n


@dataclass
class PredictProfile:
    """Everything the analytical model needs, and nothing else."""

    num_sets: int = 32
    line_size: int = 128
    index_fn: str = "hash"
    num_sms: int = 0
    epochs: List[EpochCounts] = field(default_factory=list)
    #: The paper's Fig. 3 RDD over read-only counter distances (the
    #: reporting convention of :mod:`repro.analysis.reuse`).
    rdd: RddHistogram = field(default_factory=RddHistogram)
    #: Fig. 7-style per-instruction RDDs (same read-only distances,
    #: keyed by the hashed previous-toucher instruction ID).
    insn_rdd: Dict[int, RddHistogram] = field(default_factory=dict)
    #: Per-instruction write-evicted reuse counts (whole stream).
    write_evicted: Dict[int, int] = field(default_factory=dict)
    #: Static thread-instruction count (workload sources only; traces
    #: carry no instruction stream, so this stays ``None`` for them).
    insns: Optional[int] = None
    meta: Dict[str, object] = field(default_factory=dict)

    # -- totals --------------------------------------------------------

    @property
    def accesses(self) -> int:
        return sum(e.accesses for e in self.epochs)

    @property
    def reads(self) -> int:
        return sum(e.reads for e in self.epochs)

    @property
    def writes(self) -> int:
        return sum(e.writes for e in self.epochs)

    @property
    def compulsory(self) -> int:
        return sum(e.compulsory for e in self.epochs)

    @property
    def reuses(self) -> int:
        return sum(
            sum(pairs.values())
            for e in self.epochs for pairs in e.joint.values()
        ) + sum(e.write_evicted for e in self.epochs)

    def merged(self) -> EpochCounts:
        """All epochs collapsed into one (temporally flat view)."""
        total = EpochCounts()
        for epoch in self.epochs:
            total.merge(epoch)
        return total

    def geometry_key(self) -> Tuple[int, int, str]:
        return (self.num_sets, self.line_size, self.index_fn)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_sets": self.num_sets,
            "line_size": self.line_size,
            "index_fn": self.index_fn,
            "num_sms": self.num_sms,
            "epochs": [e.to_dict() for e in self.epochs],
            "rdd": list(self.rdd.counts),
            "insn_rdd": {
                str(insn): list(hist.counts)
                for insn, hist in sorted(self.insn_rdd.items())
            },
            "write_evicted": {
                str(insn): n for insn, n in sorted(self.write_evicted.items())
            },
            "insns": self.insns,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PredictProfile":
        profile = cls(
            num_sets=int(data["num_sets"]),
            line_size=int(data["line_size"]),
            index_fn=str(data["index_fn"]),
            num_sms=int(data["num_sms"]),
            epochs=[EpochCounts.from_dict(e) for e in data["epochs"]],
            insns=None if data.get("insns") is None else int(data["insns"]),
            meta=dict(data.get("meta", {})),
        )
        profile.rdd = RddHistogram([int(c) for c in data["rdd"]])
        for insn, counts in data.get("insn_rdd", {}).items():
            profile.insn_rdd[int(insn)] = \
                RddHistogram([int(c) for c in counts])
        for insn, n in data["write_evicted"].items():
            profile.write_evicted[int(insn)] = int(n)
        return profile


def _empty_profile(config: GPUConfig) -> PredictProfile:
    l1 = config.l1d
    return PredictProfile(
        num_sets=l1.num_sets, line_size=l1.line_size,
        index_fn=l1.index_fn, num_sms=config.num_sms,
    )


def _profile_sm(profile: PredictProfile, columns: SmColumns,
                geometry: CacheGeometry) -> None:
    """Fold one SM stream into ``profile``.

    Record ``i`` of an ``n``-record stream falls in epoch
    ``i * NUM_EPOCHS // n``: its fractional position in its own SM's
    stream, so SM streams line up phase by phase whether the source
    interleaves them (live capture) or concatenates them (trace file).
    """
    from repro.batchsim.decode import set_indices

    n = columns.n
    if not n:
        return
    num_sets = geometry.num_sets
    sets = set_indices(columns.blocks, num_sets, geometry.index_fn).tolist()
    blocks = columns.blocks.tolist()
    insns = columns.insns.tolist()
    writes = columns.writes.tolist()
    stacks: List[List[int]] = [[] for _ in range(num_sets)]  # MRU first
    counters = [0] * num_sets    # set queries, stores included
    read_ctrs = [0] * num_sets   # reads only (the reporting RDD clock)
    # block -> (insn, counter, read counter, written) as of its last
    # read; a block maps to one set, so one dict serves every set
    last: Dict[int, Tuple[int, int, int, bool]] = {}
    read_rds: Dict[Tuple[int, int], int] = {}  # (insn, read-only rd)
    evicted: Dict[int, int] = {}
    epochs = profile.epochs
    for index in range(NUM_EPOCHS):
        # records lo..hi-1 are exactly those with i * NUM_EPOCHS // n == index
        lo = -(-index * n // NUM_EPOCHS)
        hi = -(-(index + 1) * n // NUM_EPOCHS)
        if lo == hi:
            continue
        slice_writes = writes[lo:hi]
        compulsory = write_evicted = 0
        joint: Dict[Tuple[int, int, int], int] = {}
        for block, s, insn, is_write in zip(
            blocks[lo:hi], sets[lo:hi], insns[lo:hi], slice_writes
        ):
            counters[s] += 1
            if is_write:
                # A store evicts the line (write-evict): its next read
                # is a write-evicted reuse, and it leaves the stack.
                prev = last.get(block)
                if prev is not None and not prev[3]:
                    last[block] = (prev[0], prev[1], prev[2], True)
                    stacks[s].remove(block)
                continue
            read_counter = read_ctrs[s] + 1
            read_ctrs[s] = read_counter
            counter = counters[s]
            prev = last.get(block)
            last[block] = (insn, counter, read_counter, False)
            stack = stacks[s]
            if prev is None:
                compulsory += 1
                stack.insert(0, block)
                continue
            prev_insn, prev_counter, prev_read_counter, written = prev
            key = (prev_insn, read_counter - prev_read_counter)
            read_rds[key] = read_rds.get(key, 0) + 1
            if written:
                write_evicted += 1
                evicted[prev_insn] = evicted.get(prev_insn, 0) + 1
                stack.insert(0, block)
                continue
            pos = stack.index(block)
            if pos:
                del stack[pos]
                stack.insert(0, block)
            rd = counter - prev_counter
            pair = (prev_insn, pos if pos <= SD_CAP else TAIL,
                    rd if rd <= RD_CAP else TAIL)
            joint[pair] = joint.get(pair, 0) + 1
        while len(epochs) <= index:
            epochs.append(EpochCounts())
        epoch = epochs[index]
        reads = slice_writes.count(0)
        epoch.accesses += hi - lo
        epoch.reads += reads
        epoch.writes += hi - lo - reads
        epoch.compulsory += compulsory
        epoch.write_evicted += write_evicted
        for (insn, sd, rd), count in joint.items():
            pairs = epoch.joint.setdefault(insn, {})
            pairs[(sd, rd)] = pairs.get((sd, rd), 0) + count
    rdd = profile.rdd.counts
    for (insn, read_rd), count in read_rds.items():
        bucket = bucket_of(read_rd)
        rdd[bucket] += count
        hist = profile.insn_rdd.get(insn)
        if hist is None:
            hist = profile.insn_rdd[insn] = RddHistogram()
        hist.counts[bucket] += count
    for insn, count in evicted.items():
        profile.write_evicted[insn] = (
            profile.write_evicted.get(insn, 0) + count
        )


def profile_records(records: Iterable[TraceRecord],
                    config: GPUConfig) -> PredictProfile:
    """Profile an in-memory record stream (``TraceRecord`` tuples).

    The stream is bucketed per SM, its SM count being the largest SM id
    plus one, and each SM stream is split into epochs by position.  Any
    iterable works: a generator is consumed once and epoch-resolved
    exactly like a list.  A negative SM id raises ``ValueError``.
    """
    from repro.batchsim.decode import decode_records

    stream = list(records)
    num_sms = max((record[0] for record in stream), default=-1) + 1
    profile = _empty_profile(config)
    geometry = config.l1d.geometry()
    for columns in decode_records(stream, num_sms):
        _profile_sm(profile, columns, geometry)
    return profile


def profile_trace(reader: TraceReader,
                  config: Optional[GPUConfig] = None) -> PredictProfile:
    """Profile a recorded ``.rptr`` trace, one SM section at a time.

    The trace header fixes the stream's own geometry (SM count, line
    size); ``config`` only overrides the *modelled* L1D geometry and
    must agree on the line size.
    """
    from repro.batchsim.decode import decode_sm
    from repro.trace.format import TraceFormatError

    if config is None:
        config = GPUConfig().scaled(reader.num_sms)
    if reader.line_size != config.l1d.line_size:
        raise TraceFormatError(
            f"trace line size {reader.line_size} != config line size "
            f"{config.l1d.line_size}"
        )
    profile = _empty_profile(config)
    geometry = config.l1d.geometry()
    for sm_id in range(reader.num_sms):
        _profile_sm(profile, decode_sm(reader, sm_id), geometry)
    profile.num_sms = reader.num_sms
    profile.meta.update(reader.meta)
    return profile


def profile_workload(abbr: str, config: GPUConfig, scale: float = 1.0,
                     seed: int = 0) -> PredictProfile:
    """Capture + profile a registered workload (no trace file needed)."""
    from repro.trace.record import capture_records
    from repro.workloads import make_workload

    workload = make_workload(abbr, scale, seed=seed)
    records = capture_records(workload, config)
    profile = profile_records(records, config)
    profile.insns = workload_insns(workload)
    profile.meta.update({
        "source": "registry", "abbr": abbr.upper(),
        "scale": scale, "seed": seed,
    })
    return profile


def workload_insns(workload: Workload) -> int:
    """Static thread-instruction count of a workload — the numerator of
    IPC — summed over every warp trace without stepping the simulator."""
    total = 0
    for kernel in workload.kernels():
        for warp_ops in kernel.all_traces():
            for op in warp_ops:
                if isinstance(op, ComputeOp):
                    total += op.count * 32
                else:
                    total += op.active_lanes
    return total
