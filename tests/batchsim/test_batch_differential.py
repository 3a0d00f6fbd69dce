"""The kernel replay path is bit-identical to the reference, lane for lane.

Every test replays the same stream through ``engine="reference"`` and
through the packed kernels — the single-lane fast engine (also spelled
``--engine batch``) or the multi-lane
:func:`~repro.batchsim.engine.replay_batch` front door — and requires
identical results via the canonical-JSON oracle.  The grid is the full
17-cell ablation matrix the fastsim differential suite uses, plus
adversarial synthetic streams (thrash, write storms, fuzzed mixes)
so the equivalence is not an artifact of the captured workloads.
"""

from __future__ import annotations

import pytest

from repro.batchsim.engine import replay_batch
from repro.gpu.config import GPUConfig
from repro.trace.format import TraceRecord
from repro.trace.record import capture_records, record_workload
from repro.trace.replay import replay_records, replay_trace
from repro.utils.rng import DeterministicRng
from repro.workloads import make_workload

from tests.oracle import assert_results_identical

#: The full ablation grid of the fastsim differential suite: all four
#: policies plus every knob the paper sweeps.
ABLATIONS = [
    ("baseline", {}),
    ("stall_bypass", {}),
    ("global_protection", {}),
    ("global_protection", {"nasc": 0}),
    ("global_protection", {"bypass_enabled": False}),
    ("global_protection", {"vta_assoc": 2}),
    ("global_protection", {"pd_bits": 2}),
    ("dlp", {}),
    ("dlp", {"pd_bits": 2}),
    ("dlp", {"pd_bits": 6}),
    ("dlp", {"vta_assoc": 2}),
    ("dlp", {"vta_assoc": 8}),
    ("dlp", {"nasc": 0}),
    ("dlp", {"nasc": 3}),
    ("dlp", {"bypass_enabled": False}),
    ("dlp", {"sample_limit": 50}),
    ("dlp", {"insn_sample_limit": 500}),
]


def _label(params) -> str:
    scheme, kwargs = params
    knobs = ",".join(f"{k}={v}" for k, v in kwargs.items()) or "default"
    return f"{scheme}[{knobs}]"


@pytest.fixture(scope="module")
def captured():
    """One recorded MM stream shared by every batch test."""
    config = GPUConfig().scaled(2)
    records = capture_records(make_workload("MM", 0.4), config)
    return config, records


# ----------------------------------------------------------------------
# adversarial synthetic streams
# ----------------------------------------------------------------------

def thrash_records(num_sms: int = 2, length: int = 900,
                   working_set: int = 200) -> list:
    """Cyclic reuse over a working set larger than the cache: every
    line dies before its reuse, so the VTA path and (without bypass)
    the stall-retry path dominate."""
    return [
        TraceRecord(sm_id=i % num_sms, block_addr=0x6000 + (i % working_set),
                    pc=0x700 + 8 * (i % 5), is_write=False)
        for i in range(length)
    ]


def write_storm_records(num_sms: int = 2, length: int = 600) -> list:
    """Write-heavy traffic over a small pool: exercises the
    write-through invalidate path and protected-line eviction credit."""
    rng = DeterministicRng("batchsim-write-storm")
    out = []
    for i in range(length):
        block = 0x3000 + int(rng.integers(0, 48))
        is_write = float(rng.random()) < 0.55
        out.append(TraceRecord(sm_id=i % num_sms, block_addr=block,
                               pc=0x500 + 16 * int(rng.integers(0, 4)),
                               is_write=is_write))
    return out


def fuzz_records(seed: int, num_sms: int = 2, length: int = 1200) -> list:
    """Random mixed-locality stream, deterministic per seed."""
    rng = DeterministicRng(f"batchsim-fuzz-{seed}")
    hot = [0x4000 + i for i in range(12)]
    out = []
    for _ in range(length):
        roll = float(rng.random())
        if roll < 0.35:
            block = hot[int(rng.integers(0, len(hot)))]
        else:
            block = 0x9000 + int(rng.integers(0, 4096))
        out.append(TraceRecord(
            sm_id=int(rng.integers(0, num_sms)),
            block_addr=block,
            pc=0x500 + 0x10 * int(rng.integers(0, 6)),
            is_write=bool(float(rng.random()) < 0.12),
        ))
    return out


ADVERSARIAL = {
    "thrash": thrash_records(),
    "write-storm": write_storm_records(),
    "fuzz-0": fuzz_records(0),
    "fuzz-1": fuzz_records(1),
    "fuzz-2": fuzz_records(2),
}


# ----------------------------------------------------------------------
# single-lane fast engine
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "scheme,kwargs", ABLATIONS, ids=map(_label, ABLATIONS))
def test_single_lane_identical(captured, scheme, kwargs):
    config, records = captured
    reference = replay_records(iter(records), config, scheme,
                               engine="reference", **kwargs)
    fast = replay_records(iter(records), config, scheme,
                          engine="fast", **kwargs)
    assert_results_identical(reference, fast, label=f"{scheme}/{kwargs}")


def test_trace_file_replay_identical(captured, tmp_path):
    """``repro trace replay --engine batch`` path: through a recorded
    trace file, under the fast engine's other spelling."""
    config, _ = captured
    path = tmp_path / "mm.rptr"
    record_workload(make_workload("MM", 0.4), config, path)
    for scheme, kwargs in (("dlp", {}), ("global_protection", {"nasc": 0})):
        reference = replay_trace(path, scheme, config, engine="reference",
                                 **kwargs)
        batch = replay_trace(path, scheme, config, engine="batch", **kwargs)
        assert_results_identical(reference, batch, label=f"trace/{scheme}")


def test_unknown_engine_still_rejected(captured):
    config, records = captured
    with pytest.raises(ValueError, match="unknown engine"):
        replay_records(iter(records), config, "baseline", engine="turbo")


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_warmed_reruns_match_reference(name):
    """Kernels run only on a fresh engine; each later run() continues
    per record from the state they left, VTA included.  Three
    consecutive runs on one engine must each equal the reference's."""
    from repro.trace.replay import ReplayEngine, _resolve

    config = GPUConfig().scaled(2)
    records = ADVERSARIAL[name]
    for scheme, kwargs in ABLATIONS:
        lane_config, factory = _resolve(scheme, config, **kwargs)
        reference = ReplayEngine(lane_config, factory)
        fast = ReplayEngine(lane_config, factory, "fast")
        for run in range(3):
            assert_results_identical(
                reference.run(iter(records)), fast.run(iter(records)),
                label=f"{name}/{_label((scheme, kwargs))}/run{run}")


# ----------------------------------------------------------------------
# multi-lane replay_batch
# ----------------------------------------------------------------------

def test_multi_lane_grid_identical(captured):
    """All 17 ablation cells through ONE replay_batch pass, each lane
    field-for-field identical to its reference replay — including the
    deduplicated lanes (baseline vs stall_bypass, insn_sample_limit)
    that are served by a state copy rather than a kernel run."""
    config, records = captured
    batched = replay_batch(records, ABLATIONS, config)
    assert len(batched) == len(ABLATIONS)
    for (scheme, kwargs), result in zip(ABLATIONS, batched):
        solo = replay_records(iter(records), config, scheme,
                              engine="reference", **kwargs)
        assert_results_identical(solo, result, label=_label((scheme, kwargs)))


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_streams_identical(name):
    config = GPUConfig().scaled(2)
    records = ADVERSARIAL[name]
    lanes = [
        ("baseline", {}),
        ("global_protection", {}),
        ("dlp", {}),
        ("dlp", {"bypass_enabled": False}),   # stall-retry path
        ("dlp", {"sample_limit": 50}),        # tight sampling windows
    ]
    batched = replay_batch(records, lanes, config)
    for (scheme, kwargs), result in zip(lanes, batched):
        solo = replay_records(iter(records), config, scheme,
                              engine="reference", **kwargs)
        assert_results_identical(
            solo, result, label=f"{name}/{_label((scheme, kwargs))}")


def test_lane_order_is_preserved(captured):
    config, records = captured
    lanes = [("dlp", {}), ("baseline", {}), ("dlp", {"nasc": 0})]
    batched = replay_batch(records, lanes, config)
    for (scheme, kwargs), result in zip(lanes, batched):
        solo = replay_records(iter(records), config, scheme,
                              engine="reference", **kwargs)
        assert_results_identical(solo, result, label=f"order/{scheme}")


def test_resized_lanes_share_the_pass(captured):
    """32kb/64kb lanes change the geometry, which partitions the same
    decoded columns differently — still bit-identical per lane."""
    config, records = captured
    lanes = [("baseline", {}), ("32kb", {}), ("64kb", {}), ("dlp", {})]
    batched = replay_batch(records, lanes, config)
    for (scheme, kwargs), result in zip(lanes, batched):
        solo = replay_records(iter(records), config, scheme,
                              engine="reference", **kwargs)
        assert_results_identical(solo, result, label=f"resize/{scheme}")


# ----------------------------------------------------------------------
# frontier lanes: one kernel pass until their PD states diverge
# ----------------------------------------------------------------------

#: The benchmark's Fig. 9 frontier: 15 (Nasc, PD width) points.
FRONTIER = [{"nasc": nasc, "pd_bits": bits}
            for nasc in range(5) for bits in (2, 4, 6)]
#: Its corners, again with the stall-retry path (bypass off) and with
#: tight sampling windows: both must carry across a fork too.
CORNERS = [{"nasc": nasc, "pd_bits": bits}
           for nasc in (0, 1, 4) for bits in (2, 6)]
FRONTIER_LANES = [
    (scheme, {**point, **extra})
    for scheme in ("dlp", "global_protection")
    for extra, points in (({}, FRONTIER),
                          ({"bypass_enabled": False}, CORNERS),
                          ({"sample_limit": 50}, CORNERS))
    for point in points
]


def hot_records(num_sms: int = 2, length: int = 1000) -> list:
    """Each SM re-reads a working set its cache holds: no line dies
    before its reuse, so no VTA hit ever raises a PD above 0."""
    return [
        TraceRecord(sm_id=i % num_sms,
                    block_addr=0x8000 + (i // num_sms) % 24,
                    pc=0x400 + 8 * (i % 3), is_write=False)
        for i in range(length)
    ]


def mixed_reuse_records(num_sms: int = 2, length: int = 1600) -> list:
    """A thrashing sweep (VTA hits only) beside a hot PC whose lines the
    sweep sometimes evicts, so that PC scores TDA and VTA hits in one
    window and Fig. 9 takes a middle rung of the step ladder for it."""
    out = []
    for i in range(length):
        j = i // num_sms
        if j % 3 == 0:
            block, pc = 0x2000 + (j // 3) % 16, 0x900
        else:
            block, pc = 0x6000 + j % 200, 0x700 + 8 * (j % 3)
        out.append(TraceRecord(sm_id=i % num_sms, block_addr=block, pc=pc,
                               is_write=False))
    return out


@pytest.fixture(scope="module")
def km_records():
    """KM at 2 SMs: its frontier lanes fork at the first barriers."""
    return capture_records(make_workload("KM", 0.05), GPUConfig().scaled(2))


@pytest.fixture(scope="module")
def frontier_streams(km_records):
    bfs = capture_records(make_workload("BFS", 0.2), GPUConfig().scaled(2))
    return {
        # Nasc > 0 lanes fork after window 2 of each SM.
        "km-early-fork": km_records[:2000],
        # SM 1 first raises a PD at window 6, SM 0 never.
        "bfs-late-fork": bfs[:3000],
        "hot-no-fork": hot_records(),
    }


@pytest.mark.parametrize(
    "name", ["km-early-fork", "bfs-late-fork", "hot-no-fork"])
def test_frontier_lanes_identical(frontier_streams, name):
    """DLP and Global-Protection frontiers through ONE replay_batch:
    lanes share a kernel pass until their PD states diverge, then fork
    with a copy of its carried state.  Each lane must still equal its
    solo reference replay."""
    config = GPUConfig().scaled(2)
    records = frontier_streams[name]
    batched = replay_batch(records, FRONTIER_LANES, config)
    for (scheme, kwargs), result in zip(FRONTIER_LANES, batched):
        solo = replay_records(iter(records), config, scheme,
                              engine="reference", **kwargs)
        assert_results_identical(
            solo, result, label=f"{name}/{_label((scheme, kwargs))}")


def _window_passes(monkeypatch) -> list:
    """Count window-passes (one kernel over one SM's sampling window):
    each kernel call appends the number of windows it runs."""
    import repro.batchsim.engine as engine_mod

    passes: list = []
    get_kernel = engine_mod.get_kernel

    def counting(key):
        kernel = get_kernel(key)

        def run(cache, carry, windows, *rest):
            passes.append(len(windows) - carry.w)
            kernel(cache, carry, windows, *rest)
        return run

    monkeypatch.setattr(engine_mod, "get_kernel", counting)
    return passes


def test_undiverged_lanes_share_one_pass(km_records, monkeypatch):
    """Where no PD leaves 0, the 30-lane frontier costs one pass per SM
    and policy.  KM takes Fig. 9's increase branch, so its lanes fork,
    and the Nasc-1 widths end apart: sharing hides no divergence."""
    config = GPUConfig().scaled(2)
    lanes = [(scheme, point)
             for scheme in ("dlp", "global_protection") for point in FRONTIER]
    passes = _window_passes(monkeypatch)

    replay_batch(hot_records(), lanes, config)
    # 2 policies x 2 SMs, each over all 3 windows of its 500 records
    assert passes == [3, 3, 3, 3]

    passes.clear()
    batched = replay_batch(km_records, lanes, config)
    windows = sum(-(-sum(1 for r in km_records if r.sm_id == sm) // 200)
                  for sm in range(2))
    assert 2 * windows < sum(passes) < len(lanes) * windows
    by_lane = dict(zip(((s, k["nasc"], k["pd_bits"]) for s, k in lanes),
                       batched))
    for scheme in ("dlp", "global_protection"):
        assert by_lane[(scheme, 1, 2)].l1d.hits != \
            by_lane[(scheme, 1, 4)].l1d.hits


def test_members_update_from_the_shared_window():
    """Each member of a shared pass applies its own Fig. 9 update to the
    pass's window counters, per-PC TDA hits included: on this stream a
    member that saw no TDA hits would take the top rung instead of a
    middle one.  Every lane equals its unshared one-lane replay."""
    config = GPUConfig().scaled(2)
    records = mixed_reuse_records()
    lanes = [(scheme, point)
             for scheme in ("dlp", "global_protection") for point in FRONTIER]
    batched = replay_batch(records, lanes, config)
    for (scheme, kwargs), result in zip(lanes, batched):
        solo = replay_records(iter(records), config, scheme, engine="fast",
                              **kwargs)
        assert_results_identical(
            solo, result, label=f"mixed/{_label((scheme, kwargs))}")


def test_more_sms_than_trace(captured, tmp_path):
    """config.num_sms may exceed the trace's SM count; extra columns
    pad empty, mirroring replay_trace."""
    config, _ = captured
    path = tmp_path / "mm2.rptr"
    record_workload(make_workload("MM", 0.4), config, path)
    from repro.trace.format import TraceReader

    wide = GPUConfig().scaled(4)
    reader = TraceReader(path)
    batched = replay_batch(reader, [("dlp", {})], wide)
    solo = replay_trace(TraceReader(path), "dlp", wide, engine="reference")
    assert_results_identical(solo, batched[0], label="padded-sms")


def test_default_config_is_the_trace_machine(captured, tmp_path):
    """Without a config a reader replays on the trace header's machine,
    exactly as a solo replay_trace does: per_sm_l1d has one entry per
    recorded SM, not one per SM of the full Table 1 core."""
    config, _ = captured
    path = tmp_path / "mm-default.rptr"
    record_workload(make_workload("MM", 0.4), config, path)
    from repro.trace.format import TraceReader

    reader = TraceReader(path)
    batched = replay_batch(reader, [("dlp", {})])[0]
    solo = replay_trace(reader, "dlp", engine="fast")
    assert len(batched.per_sm_l1d) == config.num_sms
    assert batched.to_dict() == solo.to_dict()


def test_sm_count_guard(captured, tmp_path):
    config, _ = captured
    path = tmp_path / "mm3.rptr"
    record_workload(make_workload("MM", 0.4), config, path)
    from repro.trace.format import TraceReader

    narrow = GPUConfig().scaled(1)
    with pytest.raises(ValueError, match="SM streams"):
        replay_batch(TraceReader(path), [("dlp", {})], narrow)


# ----------------------------------------------------------------------
# non-blocking lanes (NB_FILL_WINDOW ordering / lane isolation)
# ----------------------------------------------------------------------

class TestNonBlockingLanes:
    """NB lanes have no batch specialization; each one must run on a
    private engine whose fill windows never observe another lane's
    state (the NB fill-ordering audit)."""

    def test_nb_lanes_match_solo_runs(self, captured):
        config, records = captured
        nb_config = config.with_l1d(non_blocking=True)
        lanes = [("baseline", {}), ("global_protection", {}), ("dlp", {}),
                 ("dlp", {"nasc": 0})]
        batched = replay_batch(records, lanes, nb_config)
        for (scheme, kwargs), result in zip(lanes, batched):
            solo = replay_records(iter(records), nb_config, scheme,
                                  engine="reference", **kwargs)
            assert_results_identical(solo, result, label=f"nb/{scheme}")

    def test_nb_lane_isolation_under_duplicates(self, captured):
        """Two identical NB lanes in one batch: each must equal the
        solo run — any cross-lane fill-window leakage would desync the
        second lane from the first."""
        config, records = captured
        nb_config = config.with_l1d(non_blocking=True)
        lanes = [("dlp", {}), ("dlp", {})]
        first, second = replay_batch(records, lanes, nb_config)
        solo = replay_records(iter(records), nb_config, "dlp",
                              engine="reference")
        assert_results_identical(solo, first, label="nb-dup/first")
        assert_results_identical(solo, second, label="nb-dup/second")

    def test_mixed_blocking_and_nb_would_not_cross(self, captured):
        """Blocking lanes in the same replay_batch call as NB lanes
        (mixed per-lane configs cannot arise from one config today, but
        the NB fallback must not disturb blocking kernels sharing the
        decode)."""
        config, records = captured
        lanes = [("baseline", {}), ("dlp", {})]
        batched = replay_batch(records, lanes, config)
        for (scheme, kwargs), result in zip(lanes, batched):
            solo = replay_records(iter(records), config, scheme,
                                  engine="reference", **kwargs)
            assert_results_identical(solo, result, label=f"mixed/{scheme}")
