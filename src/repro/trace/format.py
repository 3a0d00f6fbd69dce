"""Binary on-disk format for L1D access traces.

One trace file holds the coalesced L1D access stream of one workload
run, split into per-SM streams (L1Ds are private per SM, so per-SM order
is the whole cache-visible ordering).  The layout is built for two
access patterns:

* **O(1) metadata inspection** — magic, version and a JSON header sit at
  the front; ``repro trace info`` never touches the record body.
* **Streaming iteration** — each SM stream is an independently
  gzip-framed section of varint-packed records, decoded incrementally,
  so replay never materialises a trace in memory.

Layout::

    magic   4 bytes   b"RPTR"
    version u16 LE    FORMAT_VERSION (readers reject anything newer)
    hdrlen  u32 LE
    header  JSON      {"meta": ..., "stream": ..., "records_per_sm": [...],
                       "total_records": N}
    section x num_sms:
        complen u64 LE
        blob    gzip(varint-packed records of that SM)

Record packing (columnar-in-row order, per record): zigzag varint of the
block-address delta, zigzag varint of the PC delta, plain varint of
``warp_id << 1 | is_write``.  Deltas reset at each SM-stream start, so
sections decode independently.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional

MAGIC = b"RPTR"
FORMAT_VERSION = 1

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Decoder read granularity; small enough to stream, large enough to
#: amortise the gzip call overhead.
_CHUNK = 1 << 16


class TraceFormatError(RuntimeError):
    """The file is not a trace, is truncated, or is too new to read."""


class TraceRecord(NamedTuple):
    """One coalesced L1D access, as captured at the LD/ST boundary."""

    sm_id: int
    block_addr: int
    pc: int
    is_write: bool
    warp_id: int = 0


# ----------------------------------------------------------------------
# varint primitives
# ----------------------------------------------------------------------

def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _append_uvarint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


class _VarintStream:
    """Incremental uvarint decoder over a chunked byte source."""

    def __init__(self, fileobj) -> None:
        self._file = fileobj
        self._buf = b""
        self._pos = 0

    def _refill(self) -> bool:
        chunk = self._file.read(_CHUNK)
        if not chunk:
            return False
        self._buf = self._buf[self._pos:] + chunk
        self._pos = 0
        return True

    def read_uvarint(self) -> int:
        result = 0
        shift = 0
        while True:
            if self._pos >= len(self._buf) and not self._refill():
                raise TraceFormatError(
                    "truncated trace: record stream ended mid-varint"
                )
            byte = self._buf[self._pos]
            self._pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise TraceFormatError("corrupt trace: varint too long")

    def at_eof(self) -> bool:
        """True when the source has no further bytes (consumes nothing)."""
        return self._pos >= len(self._buf) and not self._refill()


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------

class TraceWriter:
    """Accumulate records and emit one trace file atomically on close.

    Per-SM streams are packed as records arrive (constant memory per
    record, not per trace replayed later); the file is written with a
    tmp-and-replace so readers never observe a torn trace.
    """

    def __init__(
        self,
        path,
        num_sms: int,
        line_size: int = 128,
        meta: Optional[Dict[str, Any]] = None,
        stream: Optional[Dict[str, Any]] = None,
    ) -> None:
        if num_sms < 1:
            raise ValueError("trace needs at least one SM stream")
        self.path = Path(path)
        self.num_sms = num_sms
        self.line_size = line_size
        self.meta = dict(meta or {})
        self.stream = dict(stream or {})
        self._bufs: List[bytearray] = [bytearray() for _ in range(num_sms)]
        self._prev_block: List[int] = [0] * num_sms
        self._prev_pc: List[int] = [0] * num_sms
        self.records_per_sm: List[int] = [0] * num_sms
        self._closed = False

    def append(
        self,
        sm_id: int,
        block_addr: int,
        pc: int,
        is_write: bool,
        warp_id: int = 0,
    ) -> None:
        if not 0 <= sm_id < self.num_sms:
            raise ValueError(
                f"sm_id {sm_id} out of range for a {self.num_sms}-SM trace"
            )
        if block_addr < 0 or pc < 0 or warp_id < 0:
            raise ValueError("trace fields must be non-negative")
        buf = self._bufs[sm_id]
        _append_uvarint(buf, _zigzag(block_addr - self._prev_block[sm_id]))
        _append_uvarint(buf, _zigzag(pc - self._prev_pc[sm_id]))
        _append_uvarint(buf, (warp_id << 1) | int(bool(is_write)))
        self._prev_block[sm_id] = block_addr
        self._prev_pc[sm_id] = pc
        self.records_per_sm[sm_id] += 1

    def extend(self, records: Iterable[TraceRecord]) -> None:
        for rec in records:
            self.append(rec[0], rec[1], rec[2], rec[3], rec[4] if len(rec) > 4 else 0)

    @property
    def total_records(self) -> int:
        return sum(self.records_per_sm)

    def header(self) -> Dict[str, Any]:
        stream = {"line_size": self.line_size, "num_sms": self.num_sms}
        stream.update(self.stream)
        return {
            "meta": self.meta,
            "stream": stream,
            "records_per_sm": list(self.records_per_sm),
            "total_records": self.total_records,
        }

    def close(self) -> Path:
        if self._closed:
            return self.path
        header = json.dumps(
            self.header(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + f".tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as f:
                f.write(MAGIC)
                f.write(_U16.pack(FORMAT_VERSION))
                f.write(_U32.pack(len(header)))
                f.write(header)
                for buf in self._bufs:
                    blob = gzip.compress(bytes(buf), compresslevel=6, mtime=0)
                    f.write(_U64.pack(len(blob)))
                    f.write(blob)
            os.replace(tmp, self.path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._closed = True
        return self.path

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        # on error: leave no file behind (the tmp never reached `path`)


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------

class TraceReader:
    """Open a trace file; header parsing only — records stream on demand."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as f:
            magic = f.read(4)
            if magic != MAGIC:
                raise TraceFormatError(
                    f"{self.path}: not a repro trace (bad magic {magic!r})"
                )
            version_raw = f.read(2)
            if len(version_raw) < 2:
                raise TraceFormatError(f"{self.path}: truncated header")
            self.version = _U16.unpack(version_raw)[0]
            if self.version > FORMAT_VERSION:
                raise TraceFormatError(
                    f"{self.path}: format version {self.version} is newer "
                    f"than this reader (supports <= {FORMAT_VERSION})"
                )
            hdrlen_raw = f.read(4)
            if len(hdrlen_raw) < 4:
                raise TraceFormatError(f"{self.path}: truncated header")
            hdrlen = _U32.unpack(hdrlen_raw)[0]
            header_raw = f.read(hdrlen)
            if len(header_raw) < hdrlen:
                raise TraceFormatError(f"{self.path}: truncated header")
            try:
                self.header: Dict[str, Any] = json.loads(header_raw)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"{self.path}: corrupt header JSON ({exc})"
                ) from None
            self._body_offset = f.tell()
        stream = self.header.get("stream", {})
        self.num_sms: int = int(stream.get("num_sms", 0))
        self.line_size: int = int(stream.get("line_size", 128))
        self.meta: Dict[str, Any] = dict(self.header.get("meta", {}))
        self.records_per_sm: List[int] = [
            int(n) for n in self.header.get("records_per_sm", [])
        ]
        self.total_records: int = int(self.header.get("total_records", 0))
        if len(self.records_per_sm) != self.num_sms:
            raise TraceFormatError(
                f"{self.path}: header lists {len(self.records_per_sm)} SM "
                f"streams but declares num_sms={self.num_sms}"
            )
        self._section_offsets: Optional[List[int]] = None

    # -- metadata ------------------------------------------------------

    def info(self) -> Dict[str, Any]:
        """Everything ``repro trace info`` prints; O(1) in trace length."""
        return {
            "path": str(self.path),
            "format_version": self.version,
            "file_bytes": self.path.stat().st_size,
            "num_sms": self.num_sms,
            "line_size": self.line_size,
            "total_records": self.total_records,
            "records_per_sm": list(self.records_per_sm),
            "meta": dict(self.meta),
            "stream": dict(self.header.get("stream", {})),
        }

    # -- record access -------------------------------------------------

    def _sections(self) -> List[int]:
        """Byte offset of each SM section's length prefix (lazy scan)."""
        if self._section_offsets is None:
            offsets = []
            with open(self.path, "rb") as f:
                f.seek(0, io.SEEK_END)
                end = f.tell()
                pos = self._body_offset
                for sm in range(self.num_sms):
                    if pos + 8 > end:
                        raise TraceFormatError(
                            f"{self.path}: truncated trace — section for "
                            f"SM{sm} is missing"
                        )
                    offsets.append(pos)
                    f.seek(pos)
                    (complen,) = _U64.unpack(f.read(8))
                    pos += 8 + complen
                if pos > end:
                    raise TraceFormatError(
                        f"{self.path}: truncated trace — last section runs "
                        f"past end of file"
                    )
            self._section_offsets = offsets
        return self._section_offsets

    def sm_payload(self, sm_id: int) -> bytes:
        """One SM section's raw (still gzip-compressed) payload.

        Bulk consumers — the kernel replay's vectorized varint decoder —
        decompress and decode the whole section at once instead of
        streaming record by record through :meth:`sm_stream`."""
        if not 0 <= sm_id < self.num_sms:
            raise IndexError(f"sm_id {sm_id} out of range")
        offset = self._sections()[sm_id]
        with open(self.path, "rb") as f:
            f.seek(offset)
            (complen,) = _U64.unpack(f.read(8))
            section = f.read(complen)
            if len(section) < complen:
                raise TraceFormatError(
                    f"{self.path}: truncated trace — SM{sm_id} section "
                    f"short by {complen - len(section)} bytes"
                )
        return section

    def sm_stream(self, sm_id: int) -> Iterator[TraceRecord]:
        """Stream one SM's records in recorded order."""
        section = self.sm_payload(sm_id)
        expected = self.records_per_sm[sm_id]
        try:
            gz = gzip.GzipFile(fileobj=io.BytesIO(section), mode="rb")
            stream = _VarintStream(gz)
            prev_block = 0
            prev_pc = 0
            for _ in range(expected):
                block = prev_block + _unzigzag(stream.read_uvarint())
                pc = prev_pc + _unzigzag(stream.read_uvarint())
                packed = stream.read_uvarint()
                prev_block, prev_pc = block, pc
                yield TraceRecord(sm_id, block, pc, bool(packed & 1), packed >> 1)
            if not stream.at_eof():
                raise TraceFormatError(
                    f"{self.path}: SM{sm_id} section holds more than the "
                    f"{expected} records the header declares — "
                    f"records_per_sm does not match the stream"
                )
        except (EOFError, OSError, zlib.error) as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt SM{sm_id} section ({exc})"
            ) from None

    def __iter__(self) -> Iterator[TraceRecord]:
        """All records, SM streams concatenated in SM order.

        Per-SM order is the only cache-visible ordering (L1Ds are
        private), so this is the canonical replay order.
        """
        for sm in range(self.num_sms):
            yield from self.sm_stream(sm)

    def __len__(self) -> int:
        return self.total_records


# ----------------------------------------------------------------------
# convenience
# ----------------------------------------------------------------------

def write_trace(
    path,
    records: Iterable[TraceRecord],
    num_sms: int,
    line_size: int = 128,
    meta: Optional[Dict[str, Any]] = None,
    stream: Optional[Dict[str, Any]] = None,
) -> Path:
    with TraceWriter(path, num_sms, line_size, meta=meta, stream=stream) as w:
        w.extend(records)
    return Path(path)


def read_trace(path) -> TraceReader:
    return TraceReader(path)
