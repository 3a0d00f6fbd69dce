"""Fast engine equivalence through every wired entry point.

The engine selector threads through the timing simulator, the sweep
executor, trace replay, the replay sweep and the serve worker; each
path must produce bit-identical results under either engine, and the
result-store keys must never depend on the engine (the whole point of
excluding an execution detail from a result's identity).
"""

from __future__ import annotations

import pytest

from repro.experiments.executor import Cell, SweepExecutor
from repro.gpu.config import GPUConfig
from repro.trace.record import capture_records
from repro.trace.replay import ReplayEngine, _resolve, replay_records
from repro.trace.sweep import ReplaySweepExecutor
from repro.workloads import make_workload

from tests.oracle import assert_results_identical

SCHEMES = ("baseline", "stall_bypass", "global_protection", "dlp")

#: replay-path ablation grid (scheme, policy kwargs).
REPLAY_ABLATIONS = [
    ("baseline", {}),
    ("stall_bypass", {}),
    ("global_protection", {}),
    ("dlp", {}),
    ("dlp", {"pd_bits": 2}),
    ("dlp", {"vta_assoc": 2}),
    ("dlp", {"nasc": 0}),
    ("dlp", {"bypass_enabled": False}),
    ("dlp", {"sample_limit": 50}),
]


@pytest.fixture(scope="module")
def captured():
    """One recorded MM stream shared by every replay test."""
    config = GPUConfig().scaled(2)
    records = capture_records(make_workload("MM", 0.4), config)
    return config, records


@pytest.mark.parametrize(
    "scheme,kwargs", REPLAY_ABLATIONS,
    ids=[f"{s}-{'-'.join(map(str, k.values())) or 'default'}"
         for s, k in REPLAY_ABLATIONS],
)
def test_replay_records_identical(captured, scheme, kwargs):
    config, records = captured
    reference = replay_records(iter(records), config, scheme,
                               engine="reference", **kwargs)
    fast = replay_records(iter(records), config, scheme,
                          engine="fast", **kwargs)
    assert_results_identical(reference, fast, label=f"{scheme}/{kwargs}")


def test_fast_replay_engine_counts_match(captured):
    """The engine-level bookkeeping (per-SM record counts, send totals)
    agrees, not just the aggregated result."""
    config, records = captured
    scheme_config, factory = _resolve("dlp", config)
    reference = ReplayEngine(scheme_config, factory)
    reference_result = reference.run(iter(records))
    fast = ReplayEngine(scheme_config, factory, "fast")
    fast_result = fast.run(iter(records))
    assert fast.replayed_per_sm == reference.replayed_per_sm
    assert fast.replayed_records == reference.replayed_records
    assert fast_result.interconnect == reference_result.interconnect


def test_replay_rejects_unknown_engine(captured):
    config, records = captured
    with pytest.raises(ValueError, match="unknown engine"):
        replay_records(iter(records), config, "baseline", engine="turbo")


def test_timing_sweep_identical():
    """Full timing path (GPU front end + LD/ST + memory system) through
    the sweep executor, both engines, all four schemes."""
    grids = {}
    for engine in ("reference", "fast"):
        executor = SweepExecutor()
        grids[engine] = executor.run_sweep(
            ["MM", "BT"], SCHEMES, num_sms=1, scale=0.1, engine=engine
        )
    for app, per_scheme in grids["reference"].items():
        for scheme, reference in per_scheme.items():
            assert_results_identical(
                reference, grids["fast"][app][scheme],
                label=f"{app}/{scheme}",
            )


def test_cell_key_excludes_engine():
    """Store identity is engine-independent: either engine's results
    warm the other's cells."""
    a = Cell.make("MM", "dlp", num_sms=1, scale=0.1, engine="reference")
    b = Cell.make("MM", "dlp", num_sms=1, scale=0.1, engine="fast")
    assert a.key() == b.key()
    assert a.fingerprint() == b.fingerprint()
    assert a.meta() == b.meta()


def test_fast_results_warm_reference_store():
    """A store populated by the fast engine short-circuits a reference
    run of the same cell (and vice versa)."""
    executor = SweepExecutor()
    fast_cell = Cell.make("MM", "dlp", num_sms=1, scale=0.1, engine="fast")
    ref_cell = Cell.make("MM", "dlp", num_sms=1, scale=0.1)
    first = executor.run_cell(fast_cell)
    second = executor.run_cell(ref_cell)
    assert executor.stats.simulated == 1
    assert executor.stats.store_hits == 1
    assert_results_identical(first, second, label="store warm-through")


def test_replay_sweep_executor_identical():
    reference = ReplaySweepExecutor().run_sweep(
        ["MM"], SCHEMES, num_sms=2, scale=0.4
    )
    fast = ReplaySweepExecutor(engine="fast").run_sweep(
        ["MM"], SCHEMES, num_sms=2, scale=0.4
    )
    for scheme in SCHEMES:
        assert_results_identical(
            reference["MM"][scheme], fast["MM"][scheme],
            label=f"replay-sweep/{scheme}",
        )


def test_serve_replay_unit_identical(tmp_path):
    """The serve worker entry point honours the engine field in its
    payload and stays bit-identical (shared trace dir exercised too)."""
    from repro.serve.jobs import replay_unit

    spec = {"abbr": "MM", "scheme": "dlp", "num_sms": 2, "scale": 0.4,
            "seed": 0, "policy_kwargs": {}}
    reference = replay_unit(dict(spec), str(tmp_path / "traces"))
    fast = replay_unit(dict(spec, engine="fast"), str(tmp_path / "traces"))
    assert fast == reference


def test_serve_scheduler_stamps_engine():
    """The scheduler injects its deployment-wide engine into replay
    worker payloads and timing cells."""
    from repro.serve.protocol import MODE_REPLAY, MODE_SIM, UnitSpec
    from repro.serve.scheduler import Scheduler

    scheduler = Scheduler(engine="fast")
    sim_spec = UnitSpec(mode=MODE_SIM, abbr="MM", scheme="dlp")
    assert sim_spec.cell(scheduler.engine).engine == "fast"
    # the key the scheduler coalesces on ignores the engine
    assert sim_spec.cell("fast").key() == sim_spec.cell("reference").key()
    replay_spec = UnitSpec(mode=MODE_REPLAY, abbr="MM", scheme="dlp")
    payload = dict(replay_spec.worker_payload())
    payload["engine"] = scheduler.engine
    assert payload["engine"] == "fast"


def test_phase_profile_runs_and_compares():
    from repro.fastsim.profile import PHASES, profile_cell

    profile = profile_cell("MM", "dlp", num_sms=1, scale=0.2)
    assert profile.records > 0
    assert set(profile.phases) == set(PHASES)
    assert profile.reference_seconds > 0
    assert profile.fast_seconds > 0
    doc = profile.as_dict()
    assert doc["speedup"] == profile.speedup
    rendered = profile.render()
    for phase in PHASES:
        assert phase in rendered
