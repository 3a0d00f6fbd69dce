"""Reuse profiles: stack/counter distances, writes, epochs, JSON.

:class:`ReferenceProfiler` is the per-record profiler the columnar
profiler in :mod:`repro.predict.profile` replaced.  The distance and
epoch tests pin its semantics on hand-built streams, and every stream
they use, plus live captures and recorded traces of real apps, must
profile identically through :func:`profile_records` and
:func:`profile_trace`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest

from repro.cache.tagarray import CacheGeometry
from repro.experiments.runner import harness_config
from repro.gpu.config import GPUConfig
from repro.predict import (
    NUM_EPOCHS,
    PredictProfile,
    profile_records,
    profile_trace,
    profile_workload,
)
from repro.predict.profile import RD_CAP, SD_CAP, TAIL, EpochCounts
from repro.trace.format import TraceRecord
from repro.utils.hashing import hash_pc
from repro.workloads import ALL_APPS

#: Per-SM profiler state: (stacks[set] = blocks MRU->LRU, counters[set],
#: last[set][block] = (insn, ctr, written)).
SmState = Tuple[
    List[List[int]],
    List[int],
    List[Dict[int, Tuple[int, int, bool]]],
]


def _cap(value: int, cap: int) -> int:
    return value if value <= cap else TAIL


class ReferenceProfiler:
    """One pass over an access stream, per-SM state, merged output.

    ``expected_per_sm`` maps SM id to that stream's record count and
    sizes the epochs: a record's epoch is its *fractional position in
    its own SM's stream*, so SM streams line up phase-by-phase whether
    the source interleaves them (live capture) or concatenates them
    (``TraceReader``).  Without the hint the whole stream lands in one
    epoch (temporally flat — fine for short synthetic streams, lossy
    for phased applications).
    """

    def __init__(self, config: GPUConfig,
                 expected_per_sm: Optional[Dict[int, int]] = None) -> None:
        l1 = config.l1d
        self.geometry = CacheGeometry(
            num_sets=l1.num_sets, assoc=l1.assoc,
            line_size=l1.line_size, index_fn=l1.index_fn,
        )
        self.profile = PredictProfile(
            num_sets=l1.num_sets, line_size=l1.line_size,
            index_fn=l1.index_fn, num_sms=config.num_sms,
        )
        self._expected_per_sm = expected_per_sm
        self._insn_ids: Dict[int, int] = {}
        # per SM: stacks[set] = blocks MRU->LRU; counters[set] = set
        # queries so far; last[set][block] = (insn, counter, written);
        # seen = records consumed from this SM's stream (epoch clock)
        self._sms: Dict[int, SmState] = {}
        self._seen: Dict[int, int] = {}

    # -- internals -----------------------------------------------------

    def _epoch(self, sm_id: int) -> EpochCounts:
        if not self._expected_per_sm:
            index = 0
        else:
            expected = self._expected_per_sm.get(sm_id, 0)
            if expected <= 0:
                index = 0
            else:
                index = min(NUM_EPOCHS - 1,
                            self._seen[sm_id] * NUM_EPOCHS // expected)
        epochs = self.profile.epochs
        while len(epochs) <= index:
            epochs.append(EpochCounts())
        return epochs[index]

    def _sm_state(self, sm_id: int) -> SmState:
        state = self._sms.get(sm_id)
        if state is None:
            nsets = self.geometry.num_sets
            state = self._sms[sm_id] = (
                [[] for _ in range(nsets)],        # stacks
                [0] * nsets,                        # set-query counters
                [dict() for _ in range(nsets)],     # last-touch info
            )
            self._seen[sm_id] = 0
        return state

    def _insn(self, pc: int) -> int:
        cached = self._insn_ids.get(pc)
        if cached is None:
            cached = self._insn_ids[pc] = hash_pc(pc)
        return cached

    # -- observation ---------------------------------------------------

    def observe(self, sm_id: int, block_addr: int, pc: int,
                is_write: bool) -> None:
        profile = self.profile
        stacks, counters, lasts = self._sm_state(sm_id)
        epoch = self._epoch(sm_id)
        self._seen[sm_id] += 1
        set_idx = self.geometry.set_index(block_addr)
        stack = stacks[set_idx]
        last = lasts[set_idx]
        counters[set_idx] += 1
        epoch.accesses += 1

        if is_write:
            epoch.writes += 1
            prev = last.get(block_addr)
            if prev is not None:
                last[block_addr] = (prev[0], prev[1], True)
            try:
                stack.remove(block_addr)
            except ValueError:
                pass
            return

        epoch.reads += 1
        counter = counters[set_idx]
        insn = self._insn(pc)
        prev = last.get(block_addr)
        last[block_addr] = (insn, counter, False)

        if prev is None:
            epoch.compulsory += 1
            stack.insert(0, block_addr)
            return

        prev_insn, prev_counter, written = prev
        if written:
            epoch.write_evicted += 1
            profile.write_evicted[prev_insn] = (
                profile.write_evicted.get(prev_insn, 0) + 1
            )
            stack.insert(0, block_addr)
            return

        rd = counter - prev_counter
        try:
            pos = stack.index(block_addr)
            del stack[pos]
        except ValueError:  # pragma: no cover - unwritten blocks stay
            pos = SD_CAP + 1
        stack.insert(0, block_addr)
        epoch.add_reuse(prev_insn, _cap(pos, SD_CAP), _cap(rd, RD_CAP))


def reference_profile(records, config: GPUConfig,
                      num_sms: Optional[int] = None,
                      meta: Optional[Dict[str, object]] = None
                      ) -> PredictProfile:
    """The reference profile of a record stream, epochs hinted by each
    SM's record count."""
    records = list(records)
    expected: Dict[int, int] = {}
    for record in records:
        expected[record[0]] = expected.get(record[0], 0) + 1
    profiler = ReferenceProfiler(config, expected_per_sm=expected)
    for record in records:
        profiler.observe(record[0], record[1], record[2], bool(record[3]))
    profile = profiler.profile
    if num_sms is not None:
        profile.num_sms = num_sms
    profile.meta.update(meta or {})
    return profile


def colliding_blocks(geometry, n, start=0):
    """``n`` distinct block addresses that map to set_index(start)."""
    target = geometry.set_index(start)
    out = [start]
    block = start
    while len(out) < n:
        block += 1
        if geometry.set_index(block) == target:
            out.append(block)
    return out


def streams(geometry) -> Dict[str, List[Tuple[int, int, int, bool]]]:
    """Every hand-built (sm, block, pc, is_write) stream the distance and
    epoch tests observe, by name."""
    a, b = colliding_blocks(geometry, 2)
    deep = colliding_blocks(geometry, SD_CAP + 2)
    return {
        "first_touch": [(0, 0, 0x10, False)],
        "reuse": [(0, a, 0x10, False), (0, b, 0x20, False),
                  (0, a, 0x30, False)],
        "write_other": [(0, a, 0x10, False), (0, b, 0x20, True),
                        (0, a, 0x30, False)],
        "write_same": [(0, 0, 0x10, False), (0, 0, 0x20, True),
                       (0, 0, 0x30, False)],
        "deep": [(0, block, 0x10, False) for block in deep]
        + [(0, deep[0], 0x10, False)],
        "two_sms": [(0, 0, 0x10, False), (1, 0, 0x10, False)],
        "spread": [(0, i * 7919, 0x10, False) for i in range(NUM_EPOCHS)],
        "flat": [(0, i, 0x10, False) for i in range(10)],
    }


STREAM_NAMES = sorted(streams(harness_config(1).l1d.geometry()))


@pytest.fixture
def profiler():
    return ReferenceProfiler(harness_config(1))


@pytest.fixture
def stream(profiler):
    return streams(profiler.geometry)


def observe_all(profiler, records) -> None:
    for record in records:
        profiler.observe(*record)


class TestDistances:
    def test_first_touch_is_compulsory(self, profiler, stream):
        observe_all(profiler, stream["first_touch"])
        epoch = profiler.profile.epochs[0]
        assert epoch.compulsory == 1
        assert epoch.reads == 1 and epoch.accesses == 1
        assert not epoch.joint

    def test_reuse_records_stack_and_counter_distance(self, profiler, stream):
        observe_all(profiler, stream["reuse"])
        epoch = profiler.profile.epochs[0]
        # one reuse, attributed to the *previous* toucher of block a,
        # at stack position 1 (b is above it) and counter distance 2
        [(insn, pairs)] = epoch.joint.items()
        assert pairs == {(1, 2): 1}
        assert epoch.compulsory == 2

    def test_intervening_write_to_other_block_still_counts_rd(
            self, profiler, stream):
        # the store to b runs the set query
        observe_all(profiler, stream["write_other"])
        epoch = profiler.profile.epochs[0]
        [(_, pairs)] = epoch.joint.items()
        # write removed b from the stack, so a is still MRU (sd=0),
        # but the counter distance includes the write (rd=2)
        assert pairs == {(0, 2): 1}

    def test_write_to_same_block_makes_reuse_write_evicted(
            self, profiler, stream):
        observe_all(profiler, stream["write_same"])
        epoch = profiler.profile.epochs[0]
        assert epoch.write_evicted == 1
        assert not epoch.joint            # never a protectable reuse
        assert profiler.profile.write_evicted  # attributed per insn

    def test_distances_cap_to_tail(self, profiler, stream):
        observe_all(profiler, stream["deep"])
        epoch = profiler.profile.epochs[0]
        [(_, pairs)] = epoch.joint.items()
        [(sd, rd)] = pairs.keys()
        assert sd == TAIL and rd == TAIL
        assert RD_CAP < SD_CAP + 1  # rd exceeded its (smaller) cap too

    def test_per_sm_state_is_independent(self, profiler, stream):
        observe_all(profiler, stream["two_sms"])
        epoch = profiler.profile.epochs[0]
        assert epoch.compulsory == 2     # each SM's L1D sees a cold miss


class TestEpochs:
    def test_expected_hint_spreads_stream_over_epochs(self):
        config = harness_config(1)
        profiler = ReferenceProfiler(config,
                                     expected_per_sm={0: NUM_EPOCHS})
        observe_all(profiler, streams(profiler.geometry)["spread"])
        assert len(profiler.profile.epochs) == NUM_EPOCHS
        assert all(e.accesses == 1 for e in profiler.profile.epochs)

    def test_without_hint_everything_lands_in_one_epoch(self, profiler,
                                                        stream):
        observe_all(profiler, stream["flat"])
        assert len(profiler.profile.epochs) == 1


class TestColumnarProfiler:
    """The columnar profiler equals the hinted reference, by ``to_dict``."""

    @pytest.mark.parametrize("name", STREAM_NAMES)
    def test_hand_built_streams(self, name):
        config = harness_config(1)
        records = streams(config.l1d.geometry())[name]
        assert profile_records(records, config).to_dict() == \
            reference_profile(records, config).to_dict()

    def test_generator_is_epoch_resolved(self):
        config = harness_config(1)
        records = streams(config.l1d.geometry())["spread"]
        profile = profile_records(iter(records), config)
        assert len(profile.epochs) == NUM_EPOCHS
        assert profile.to_dict() == \
            reference_profile(records, config).to_dict()

    def test_empty_stream(self):
        config = harness_config(2)
        assert profile_records([], config).to_dict() == \
            reference_profile([], config).to_dict()

    @pytest.mark.parametrize("abbr", ALL_APPS)
    def test_live_capture(self, abbr):
        from repro.trace.record import capture_records
        from repro.workloads import make_workload

        config = harness_config(2)
        records = capture_records(make_workload(abbr, 0.1, seed=0), config)
        assert profile_records(records, config).to_dict() == \
            reference_profile(records, config).to_dict()

    @pytest.mark.parametrize("num_sms", [1, 2])
    @pytest.mark.parametrize("abbr", ["BFS", "KM", "MM"])
    def test_recorded_trace(self, abbr, num_sms, tmp_path):
        from repro.trace.format import TraceReader
        from repro.trace.record import record_workload
        from repro.workloads import make_workload

        config = harness_config(num_sms)
        path = tmp_path / f"{abbr}.rptr"
        record_workload(make_workload(abbr, 0.1, seed=0), config, path)
        reader = TraceReader(path)
        expected = reference_profile(
            reader, config, num_sms=reader.num_sms, meta=reader.meta)
        assert profile_trace(TraceReader(path), config).to_dict() == \
            expected.to_dict()

    def test_negative_sm_id_rejected(self):
        config = harness_config(2)
        records = [TraceRecord(0, 1, 0x10, False),
                   TraceRecord(-1, 2, 0x10, False)]
        with pytest.raises(ValueError, match="sm_id -1 out of range"):
            profile_records(records, config)

    @pytest.mark.parametrize("field", ["block_addr", "pc", "warp_id"])
    def test_negative_field_rejected(self, deadline, field):
        # a negative block used to spin forever in the set-index fold
        record = TraceRecord(0, 0x40, 0x100, False, 1)._replace(**{field: -3})
        with pytest.raises(ValueError, match="negative field"):
            profile_records([record], GPUConfig().scaled(1))


class TestSerialization:
    def test_profile_round_trips_through_json_dict(self):
        profile = profile_workload("MM", harness_config(2), scale=0.25)
        clone = PredictProfile.from_dict(profile.to_dict())
        assert clone.to_dict() == profile.to_dict()
        assert clone.accesses == profile.accesses
        assert clone.reads == profile.reads
        assert clone.compulsory == profile.compulsory
        assert clone.insns == profile.insns

    def test_merged_preserves_totals(self):
        profile = profile_workload("BFS", harness_config(2), scale=0.25)
        flat = profile.merged()
        assert flat.accesses == profile.accesses
        assert flat.reads == profile.reads
        assert flat.writes == profile.writes
        assert flat.compulsory == profile.compulsory
        assert sum(sum(p.values()) for p in flat.joint.values()) == sum(
            sum(p.values())
            for e in profile.epochs for p in e.joint.values()
        )


class TestSources:
    def test_trace_profile_matches_live_capture(self, tmp_path):
        from repro.trace.format import TraceReader
        from repro.trace.record import capture_records, record_workload
        from repro.workloads import make_workload

        config = harness_config(2)
        workload = make_workload("MM", 0.25, seed=0)
        live = profile_records(capture_records(workload, config), config)

        path = tmp_path / "mm.rptr"
        record_workload(make_workload("MM", 0.25, seed=0), config, path)
        traced = profile_trace(TraceReader(path), config)

        # the same stream must profile identically either way
        assert traced.epochs == live.epochs or \
            [e.to_dict() for e in traced.epochs] == \
            [e.to_dict() for e in live.epochs]

    def test_trace_line_size_mismatch_rejected(self, tmp_path):
        from repro.trace.format import TraceFormatError, TraceReader
        from repro.trace.record import record_workload
        from repro.workloads import make_workload

        config = harness_config(1)
        path = tmp_path / "mm.rptr"
        record_workload(make_workload("MM", 0.25, seed=0), config, path)
        bad = config.with_l1d(line_size=64)
        with pytest.raises(TraceFormatError):
            profile_trace(TraceReader(path), bad)

    @pytest.mark.parametrize("damage", ["truncated", "short_section",
                                        "bit_flip"])
    def test_damaged_trace_raises_the_reader_error(self, damage, tmp_path):
        """A damaged trace fails with the scalar reader's own error text,
        which is what iterating the reader raises."""
        from repro.trace.format import TraceFormatError, TraceReader
        from repro.trace.record import record_workload
        from repro.workloads import make_workload

        config = harness_config(2)
        path = tmp_path / "mm.rptr"
        record_workload(make_workload("MM", 0.1, seed=0), config, path)
        data = bytearray(path.read_bytes())
        body = TraceReader(path)._body_offset
        if damage == "truncated":
            data = data[:len(data) - 7]
        elif damage == "short_section":
            data = data[:body + (len(data) - body) // 3]
        else:
            data[body + 40] ^= 0xFF
        path.write_bytes(bytes(data))

        with pytest.raises(TraceFormatError) as scalar:
            list(TraceReader(path))
        with pytest.raises(TraceFormatError) as columnar:
            profile_trace(TraceReader(path), config)
        assert str(columnar.value) == str(scalar.value)
