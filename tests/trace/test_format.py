"""Binary trace format: round-trips, ordering, and corruption handling."""

from __future__ import annotations

import gzip
import json
import struct

import pytest

from repro.trace.format import (
    FORMAT_VERSION,
    MAGIC,
    TraceFormatError,
    TraceReader,
    TraceRecord,
    TraceWriter,
    _append_uvarint,
    _zigzag,
    write_trace,
)


def roundtrip(tmp_path, records, num_sms, **kw):
    path = tmp_path / "t.rptr"
    write_trace(path, records, num_sms=num_sms, **kw)
    return TraceReader(path)


class TestRoundTrip:
    def test_empty_trace(self, tmp_path):
        reader = roundtrip(tmp_path, [], num_sms=3)
        assert len(reader) == 0
        assert reader.records_per_sm == [0, 0, 0]
        assert list(reader) == []
        assert list(reader.sm_stream(2)) == []

    def test_single_record_preserves_all_fields(self, tmp_path):
        rec = TraceRecord(0, block_addr=0x7FFF_FFFF_0, pc=0x400123,
                          is_write=True, warp_id=37)
        reader = roundtrip(tmp_path, [rec], num_sms=1)
        assert list(reader) == [rec]
        assert reader.total_records == 1

    def test_multi_sm_interleave_keeps_per_sm_order(self, tmp_path):
        # Written globally interleaved; read back grouped by SM with each
        # SM's own order intact — the only ordering the private L1Ds see.
        interleaved = [
            TraceRecord(0, 10, 0x400, False, 0),
            TraceRecord(1, 90, 0x400, False, 1),
            TraceRecord(0, 11, 0x404, True, 0),
            TraceRecord(1, 91, 0x404, False, 1),
            TraceRecord(0, 10, 0x408, False, 2),
            TraceRecord(1, 80, 0x408, True, 1),
        ]
        reader = roundtrip(tmp_path, interleaved, num_sms=2)
        assert list(reader.sm_stream(0)) == [
            r for r in interleaved if r.sm_id == 0
        ]
        assert list(reader.sm_stream(1)) == [
            r for r in interleaved if r.sm_id == 1
        ]
        # __iter__ concatenates in SM order
        assert list(reader) == (
            [r for r in interleaved if r.sm_id == 0]
            + [r for r in interleaved if r.sm_id == 1]
        )

    def test_non_monotonic_addresses_survive_delta_coding(self, tmp_path):
        records = [
            TraceRecord(0, addr, pc, bool(i % 2), i % 5)
            for i, (addr, pc) in enumerate(
                [(1000, 0x400), (3, 0x500), (2**40, 0x404), (0, 0x400)]
            )
        ]
        reader = roundtrip(tmp_path, records, num_sms=1)
        assert list(reader) == records

    def test_header_metadata_round_trips(self, tmp_path):
        reader = roundtrip(
            tmp_path, [TraceRecord(0, 1, 2, False, 0)], num_sms=1,
            meta={"abbr": "BFS", "scale": 0.5},
            stream={"seed": 7},
        )
        assert reader.meta["abbr"] == "BFS"
        assert reader.header["stream"]["seed"] == 7
        assert reader.line_size == 128


class TestWriterValidation:
    def test_rejects_out_of_range_sm(self, tmp_path):
        w = TraceWriter(tmp_path / "t.rptr", num_sms=2)
        with pytest.raises(ValueError, match="out of range"):
            w.append(2, 0, 0, False)

    def test_rejects_negative_fields(self, tmp_path):
        w = TraceWriter(tmp_path / "t.rptr", num_sms=1)
        with pytest.raises(ValueError, match="non-negative"):
            w.append(0, -1, 0, False)

    def test_rejects_zero_sms(self, tmp_path):
        with pytest.raises(ValueError, match="at least one SM"):
            TraceWriter(tmp_path / "t.rptr", num_sms=0)

    def test_error_inside_with_block_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.rptr"
        with pytest.raises(RuntimeError, match="boom"):
            with TraceWriter(path, num_sms=1) as w:
                w.append(0, 1, 2, False)
                raise RuntimeError("boom")
        assert not path.exists()


class TestCorruption:
    def test_not_a_trace(self, tmp_path):
        path = tmp_path / "t.rptr"
        path.write_bytes(b"PNG\x89 definitely not a trace")
        with pytest.raises(TraceFormatError, match="bad magic"):
            TraceReader(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "t.rptr"
        header = json.dumps({"meta": {}, "stream": {"num_sms": 1},
                             "records_per_sm": [0],
                             "total_records": 0}).encode()
        path.write_bytes(
            MAGIC + struct.pack("<H", 99) + struct.pack("<I", len(header))
            + header
        )
        with pytest.raises(TraceFormatError, match="version 99 is newer"):
            TraceReader(path)

    def test_current_version_accepted(self, tmp_path):
        reader = roundtrip(tmp_path, [], num_sms=1)
        assert reader.version == FORMAT_VERSION

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.rptr"
        path.write_bytes(MAGIC + struct.pack("<H", FORMAT_VERSION) + b"\x01")
        with pytest.raises(TraceFormatError, match="truncated header"):
            TraceReader(path)

    def test_truncated_section_detected(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace(
            path,
            [TraceRecord(0, i, 0x400, False, 0) for i in range(500)],
            num_sms=2,
        )
        full = path.read_bytes()
        path.write_bytes(full[:-10])  # chop the tail of the last section
        reader = TraceReader(path)    # header still parses...
        with pytest.raises(TraceFormatError, match="truncated trace"):
            list(reader)              # ...but record access fails loudly

    def test_negative_decoded_address_rejected(self, tmp_path, deadline):
        # a hand-made section whose one record has block -3, which the
        # writer refuses to emit; the bulk decoders fall back to the
        # record stream, and a negative block used to hang them
        from repro.batchsim import replay_batch
        from repro.predict.profile import profile_trace

        path = tmp_path / "t.rptr"
        write_trace(path, [TraceRecord(0, 3, 0x100, False)], num_sms=1)
        payload = bytearray()
        for value in (_zigzag(-3), _zigzag(0x100), 0):
            _append_uvarint(payload, value)
        section = gzip.compress(bytes(payload))
        body = TraceReader(path)._body_offset
        path.write_bytes(
            path.read_bytes()[:body] + struct.pack("<Q", len(section))
            + section
        )
        with pytest.raises(TraceFormatError, match="negative address"):
            list(TraceReader(path))
        with pytest.raises(TraceFormatError, match="negative address"):
            profile_trace(TraceReader(path))
        with pytest.raises(TraceFormatError, match="negative address"):
            replay_batch(TraceReader(path), [("dlp", {})])

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "t.rptr"
        header = b"{not json"
        path.write_bytes(
            MAGIC + struct.pack("<H", FORMAT_VERSION)
            + struct.pack("<I", len(header)) + header
        )
        with pytest.raises(TraceFormatError, match="corrupt header"):
            TraceReader(path)


class TestMetadataInspection:
    def test_info_never_touches_record_sections(self, tmp_path):
        """O(1) inspection: info() must work even when every record
        section has been destroyed (only the header is intact)."""
        path = tmp_path / "t.rptr"
        write_trace(
            path,
            [TraceRecord(0, i, 0x400, False, 0) for i in range(100)],
            num_sms=1,
            meta={"abbr": "MM"},
        )
        reader = TraceReader(path)
        body_offset = reader._body_offset
        data = path.read_bytes()
        path.write_bytes(data[:body_offset])  # drop all sections

        info = TraceReader(path).info()
        assert info["total_records"] == 100
        assert info["meta"]["abbr"] == "MM"
        assert info["records_per_sm"] == [100]


def doctor_header(path, mutate):
    """Rewrite the JSON header in place (space-padded to keep hdrlen)."""
    raw = path.read_bytes()
    hdrlen = struct.unpack("<I", raw[6:10])[0]
    header = json.loads(raw[10:10 + hdrlen])
    mutate(header)
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    assert len(new) <= hdrlen, "doctored header grew past the original"
    path.write_bytes(raw[:10] + new.ljust(hdrlen) + raw[10 + hdrlen:])


class TestHeaderConsistency:
    """The per-SM record counts in the header must match the streams."""

    def _trace(self, tmp_path):
        path = tmp_path / "t.rptr"
        records = [
            TraceRecord(0, 0x100 + i, 0x40, False, i % 4) for i in range(8)
        ] + [TraceRecord(1, 0x900 + i, 0x44, bool(i % 2), 0) for i in range(5)]
        write_trace(path, records, num_sms=2)
        return path

    def test_undercounting_header_detected(self, tmp_path):
        path = self._trace(tmp_path)

        def cut(header):
            header["records_per_sm"][0] -= 2
            header["total_records"] -= 2

        doctor_header(path, cut)
        with pytest.raises(TraceFormatError, match="more than the 6 records"):
            list(TraceReader(path).sm_stream(0))

    def test_overcounting_header_detected(self, tmp_path):
        path = self._trace(tmp_path)

        def pad(header):
            header["records_per_sm"][1] += 3
            header["total_records"] += 3

        doctor_header(path, pad)
        with pytest.raises(TraceFormatError, match="mid-varint"):
            list(TraceReader(path).sm_stream(1))

    def test_honest_header_streams_clean(self, tmp_path):
        path = self._trace(tmp_path)
        reader = TraceReader(path)
        assert [len(list(reader.sm_stream(sm))) for sm in range(2)] == [8, 5]
