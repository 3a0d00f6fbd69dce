"""Shared trace preprocessing for kernel replay.

Every lane of a batch replay consumes the *same* record stream, so the
expensive per-record work — varint decoding, PC -> instruction-ID
hashing, set indexing and the set-major reordering the kernels want —
is done once here and shared across all lanes.  The predict profiler
(:mod:`repro.predict.profile`) reads the same columns.

Decoding is vectorized: an SM section decompresses to one byte buffer,
varint boundaries fall out of the continuation bit, and
``np.add.reduceat`` folds each group's 7-bit payloads in a handful of
array ops.  Anything the vector path cannot represent exactly (varints
longer than 9 bytes, running sums that leave the int64 range) falls
back to the scalar :meth:`~repro.trace.format.TraceReader.sm_stream`
decoder, which also owns the canonical corrupt-trace error messages.
"""

from __future__ import annotations

import gzip
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.format import TraceFormatError, TraceReader, TraceRecord
from repro.utils.hashing import hash_pc

#: Longest varint group the vector path folds exactly: byte 8 shifts by
#: 56 and carries 7 payload bits, so 9 bytes stay within uint64.
_MAX_VARINT_BYTES = 9


def _unzigzag_array(values: "np.ndarray") -> "np.ndarray":
    """Vectorized zigzag decode (uint64 -> int64)."""
    half = (values >> np.uint64(1)).astype(np.int64)
    sign = (values & np.uint64(1)).astype(np.int64)
    return half ^ -sign


def _decode_payload(
    payload: bytes, expected: int
) -> Optional[Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]]:
    """Decode one SM section's compressed payload into (blocks, pcs,
    writes, warps) arrays, or ``None`` when the scalar decoder must run
    instead (over-long varints, count mismatch, possible overflow)."""
    raw = gzip.decompress(payload)
    data = np.frombuffer(raw, dtype=np.uint8)
    if data.size == 0:
        if expected:
            return None
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    term = (data & 0x80) == 0
    if int(term.sum()) != 3 * expected or not bool(term[-1]):
        return None
    ends = np.flatnonzero(term)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    if int((ends - starts).max()) >= _MAX_VARINT_BYTES:
        return None
    group = np.cumsum(term) - term
    pos = np.arange(data.size, dtype=np.int64) - starts[group]
    contrib = (data & 0x7F).astype(np.uint64) << (7 * pos).astype(np.uint64)
    values = np.add.reduceat(contrib, starts)
    cols = values.reshape(-1, 3)
    blocks = np.cumsum(_unzigzag_array(cols[:, 0]), dtype=np.int64)
    pcs = np.cumsum(_unzigzag_array(cols[:, 1]), dtype=np.int64)
    if int(blocks.min()) < 0 or int(pcs.min()) < 0:
        # Recorded addresses are non-negative; a negative running sum
        # means an int64 cumsum overflow.  The scalar path is exact.
        return None
    packed = cols[:, 2]
    writes = (packed & np.uint64(1)).astype(np.int64)
    warps = (packed >> np.uint64(1)).astype(np.int64)
    return blocks, pcs, writes, warps


class SmColumns:
    """One SM stream as parallel numpy columns plus the insn-ID table.

    ``insns`` holds :func:`~repro.utils.hashing.hash_pc` of each
    record's PC — exactly the ``insn_id`` both replay engines feed their
    caches — computed once per distinct PC.
    """

    __slots__ = ("sm_id", "n", "blocks", "pcs", "insns", "writes", "warps",
                 "_records")

    def __init__(self, sm_id: int, blocks: "np.ndarray", pcs: "np.ndarray",
                 writes: "np.ndarray", warps: "np.ndarray") -> None:
        self.sm_id = sm_id
        self.n = int(blocks.size)
        self.blocks = blocks
        self.pcs = pcs
        self.writes = writes
        self.warps = warps
        if self.n:
            unique, inverse = np.unique(pcs, return_inverse=True)
            table = np.fromiter(
                (hash_pc(int(pc)) for pc in unique),
                dtype=np.int64, count=unique.size,
            )
            self.insns = table[inverse]
        else:
            self.insns = np.zeros(0, dtype=np.int64)
        self._records: Optional[List[TraceRecord]] = None

    def records(self) -> List[TraceRecord]:
        """The stream as :class:`TraceRecord` objects (for lanes driven
        record by record, e.g. non-blocking mode); built lazily."""
        if self._records is None:
            sm = self.sm_id
            self._records = [
                TraceRecord(sm, block, pc, bool(write), warp)
                for block, pc, write, warp in zip(
                    self.blocks.tolist(), self.pcs.tolist(),
                    self.writes.tolist(), self.warps.tolist(),
                )
            ]
        return self._records


def _columns_from_lists(
    sm_id: int,
    blocks: Sequence[int],
    pcs: Sequence[int],
    writes: Sequence[int],
    warps: Sequence[int],
) -> SmColumns:
    n = len(blocks)
    return SmColumns(
        sm_id,
        np.fromiter(blocks, dtype=np.int64, count=n),
        np.fromiter(pcs, dtype=np.int64, count=n),
        np.fromiter(writes, dtype=np.int64, count=n),
        np.fromiter(warps, dtype=np.int64, count=n),
    )


def decode_sm(reader: TraceReader, sm_id: int) -> SmColumns:
    """Decode one SM section of a trace file into columns."""
    expected = reader.records_per_sm[sm_id]
    decoded = None
    try:
        decoded = _decode_payload(reader.sm_payload(sm_id), expected)
    except (OSError, EOFError, zlib.error):
        decoded = None  # scalar path raises the canonical error
    if decoded is not None:
        return SmColumns(sm_id, *decoded)
    records = list(reader.sm_stream(sm_id))
    if len(records) != expected:
        raise TraceFormatError(
            f"{reader.path}: SM{sm_id} decoded {len(records)} "
            f"records but the header declares {expected}"
        )
    return _columns_from_lists(
        sm_id,
        [r.block_addr for r in records],
        [r.pc for r in records],
        [int(r.is_write) for r in records],
        [r.warp_id for r in records],
    )


def decode_reader(reader: TraceReader) -> List[SmColumns]:
    """Decode every SM section of a trace file into columns."""
    return [decode_sm(reader, sm_id) for sm_id in range(reader.num_sms)]


def decode_records(
    records: Sequence[TraceRecord], num_sms: int
) -> List[SmColumns]:
    """Bucket an in-memory record stream per SM and build columns.

    A record outside the SM range, or with a negative block, PC or warp
    (which :class:`~repro.trace.format.TraceWriter` would refuse, and
    whose set-index fold would never terminate), raises ``ValueError``.
    """
    blocks: List[List[int]] = [[] for _ in range(num_sms)]
    pcs: List[List[int]] = [[] for _ in range(num_sms)]
    writes: List[List[int]] = [[] for _ in range(num_sms)]
    warps: List[List[int]] = [[] for _ in range(num_sms)]
    for record in records:
        sm_id = record[0]
        if not 0 <= sm_id < num_sms:
            raise ValueError(
                f"sm_id {sm_id} out of range for {num_sms} SMs"
            )
        block, pc = record[1], record[2]
        warp = record[4] if len(record) > 4 else 0
        if block < 0 or pc < 0 or warp < 0:
            raise ValueError(
                f"record {record!r} has a negative field: block, pc "
                f"and warp must be non-negative"
            )
        blocks[sm_id].append(block)
        pcs[sm_id].append(pc)
        writes[sm_id].append(int(record[3]))
        warps[sm_id].append(warp)
    return [
        _columns_from_lists(sm, blocks[sm], pcs[sm], writes[sm], warps[sm])
        for sm in range(num_sms)
    ]


# ----------------------------------------------------------------------
# set-major partitions
# ----------------------------------------------------------------------

def set_indices(blocks: "np.ndarray", num_sets: int,
                index_fn: str) -> "np.ndarray":
    """Set index of every block, vectorized: the modulo mask for the
    ``linear`` index function, else the XOR fold of
    :func:`~repro.utils.hashing.xor_set_index`, which raises
    ``ValueError`` for a negative block as that function does."""
    mask = num_sets - 1
    bits = mask.bit_length()
    sets: "np.ndarray"
    if index_fn == "linear" or bits == 0:
        sets = blocks & mask
    else:
        if blocks.size and blocks.min() < 0:
            raise ValueError(f"negative block address {blocks.min()}")
        sets = np.zeros_like(blocks)
        rest = blocks.copy()
        while rest.any():
            sets ^= rest & mask
            rest >>= bits
    return sets


#: A run of one set's records inside one sampling window:
#: ``(set_index, [(block, insn, is_write), ...])``.
SetRun = Tuple[int, List[Tuple[int, int, int]]]


class SmPartition:
    """One SM stream reordered set-major for one cache geometry.

    Within a sampling window the per-set record order fully determines
    the packed engine's trajectory (accesses to different sets commute:
    PDPT/VTA credits are saturating sums and all LRU/PL comparisons are
    intra-set), so kernels iterate set runs instead of the raw
    interleaving.  Windows are record-count slices of the *original*
    order, exactly the ``sample_limit`` accounting of the engine.
    """

    def __init__(self, columns: SmColumns, num_sets: int,
                 index_fn: str) -> None:
        self.n = columns.n
        self.num_sets = num_sets
        blocks = columns.blocks
        sets = set_indices(blocks, num_sets, index_fn)
        self._sets = sets
        order = np.argsort(sets, kind="stable")
        self._tuples: List[Tuple[int, int, int]] = list(zip(
            blocks[order].tolist(),
            columns.insns[order].tolist(),
            columns.writes[order].tolist(),
        ))
        counts = np.bincount(sets, minlength=num_sets) if self.n else \
            np.zeros(num_sets, dtype=np.int64)
        starts = np.zeros(num_sets + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        self._starts = starts
        self._windows: Dict[int, Tuple[List[List[SetRun]], int]] = {}

    def whole_stream(self) -> Tuple[List[List[SetRun]], int]:
        """The unwindowed layout (policies with no sampling): one
        pseudo-window holding every non-empty set run."""
        cached = self._windows.get(0)
        if cached is None:
            starts = self._starts.tolist()
            runs = [
                (si, self._tuples[starts[si]:starts[si + 1]])
                for si in range(self.num_sets)
                if starts[si + 1] > starts[si]
            ]
            cached = ([runs] if runs else [], 0)
            self._windows[0] = cached
        return cached

    def windows(self, acc_limit: int) -> Tuple[List[List[SetRun]], int]:
        """Set runs sliced per sampling window of ``acc_limit`` records,
        plus the number of windows that actually close (the trailing
        partial window stays open)."""
        cached = self._windows.get(acc_limit)
        if cached is not None:
            return cached
        n = self.n
        if n == 0:
            cached = ([], 0)
            self._windows[acc_limit] = cached
            return cached
        num_windows = -(-n // acc_limit)
        window_of = np.arange(n, dtype=np.int64) // acc_limit
        counts = np.bincount(
            self._sets * num_windows + window_of,
            minlength=self.num_sets * num_windows,
        ).reshape(self.num_sets, num_windows)
        bounds = np.concatenate(
            [self._starts[:-1, None],
             self._starts[:-1, None] + np.cumsum(counts, axis=1)],
            axis=1,
        ).tolist()
        tuples = self._tuples
        layout: List[List[SetRun]] = []
        for w in range(num_windows):
            active = np.flatnonzero(counts[:, w])
            layout.append([
                (int(si), tuples[bounds[si][w]:bounds[si][w + 1]])
                for si in active.tolist()
            ])
        cached = (layout, n // acc_limit)
        self._windows[acc_limit] = cached
        return cached


class TracePartitions:
    """Per-(SM, geometry) partition cache shared by every lane."""

    def __init__(self, columns: Sequence[SmColumns]) -> None:
        self.columns = list(columns)
        self._cache: Dict[Tuple[int, int, str], SmPartition] = {}

    def get(self, sm_id: int, num_sets: int, index_fn: str) -> SmPartition:
        key = (sm_id, num_sets, index_fn)
        part = self._cache.get(key)
        if part is None:
            part = SmPartition(self.columns[sm_id], num_sets, index_fn)
            self._cache[key] = part
        return part
