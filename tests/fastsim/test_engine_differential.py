"""The fast engine is bit-identical to the reference, access by access.

Every test drives the same deterministic stream through
:class:`repro.cache.l1d.L1DCache` and
:class:`repro.fastsim.engine.FastL1DCache` and requires identical
snapshots: all thirteen raw L1D counters, every policy stat, and the
final protection distances.  The grid covers all four policies and the
ablation knobs the paper sweeps (PL width, VTA associativity, NASC,
bypass gating, sampling period), plus fuzzed random streams so the
equivalence is not an artifact of one access pattern.
"""

from __future__ import annotations

import pytest

from repro.fastsim import ENGINES, make_l1d, validate_engine
from repro.fastsim.engine import PolicySpec

from tests.fastsim.harness import (
    SMALL_GEOMETRY,
    drive_stream,
    fuzz_stream,
    golden_stream,
    thrash_stream,
)

POLICIES = ("baseline", "stall_bypass", "global_protection", "dlp")

#: (policy, ablation kwargs) — the differential grid.
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
    policy, kwargs = params
    knobs = ",".join(f"{k}={v}" for k, v in kwargs.items()) or "default"
    return f"{policy}[{knobs}]"


@pytest.mark.parametrize("policy,kwargs", ABLATIONS, ids=map(_label, ABLATIONS))
def test_golden_stream_identical(policy, kwargs):
    reference = drive_stream(policy, "reference", **kwargs)
    fast = drive_stream(policy, "fast", **kwargs)
    assert fast == reference


@pytest.mark.parametrize("policy,kwargs", ABLATIONS, ids=map(_label, ABLATIONS))
def test_golden_stream_identical_non_blocking(policy, kwargs):
    """The full 17-cell ablation grid again, under the non-blocking
    windowed-fill discipline: RESERVED lines persist across accesses,
    secondary misses merge in the MSHR, and resource stalls materialise.
    Both engines must still agree bit for bit."""
    reference = drive_stream(policy, "reference", non_blocking=True,
                             **kwargs)
    fast = drive_stream(policy, "fast", non_blocking=True, **kwargs)
    assert fast == reference
    # the discipline is real: reserved-line reuse happened, and the
    # snapshot differs from the blocking run of the same cell
    assert reference["l1d"]["hit_reserved"] > 0
    assert reference != drive_stream(policy, "reference", **kwargs)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzzed_stream_identical_non_blocking(policy, seed):
    stream = fuzz_stream(seed)
    reference = drive_stream(policy, "reference", stream=stream,
                             non_blocking=True)
    fast = drive_stream(policy, "fast", stream=stream, non_blocking=True)
    assert fast == reference


@pytest.mark.parametrize("policy", ("global_protection", "dlp"))
@pytest.mark.parametrize("bypass", (True, False), ids=["bypass", "stall"])
def test_thrash_stream_identical(policy, bypass):
    """Over-capacity cyclic reuse grows protection distances, forcing
    the protected-bypass (or, gated, the NO_RESERVABLE_LINE stall-retry)
    path that the golden stream never reaches."""
    stream = thrash_stream()
    reference = drive_stream(policy, "reference", stream=stream,
                             bypass_enabled=bypass)
    fast = drive_stream(policy, "fast", stream=stream,
                        bypass_enabled=bypass)
    assert fast == reference
    # prove the stream exercised what it claims to
    assert reference["policy"]["pd_increase"] > 0
    if bypass:
        assert reference["policy"]["protected_bypasses"] > 0
    else:
        assert reference["l1d"]["stalls"]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzzed_stream_identical(policy, seed):
    stream = fuzz_stream(seed)
    reference = drive_stream(policy, "reference", stream=stream)
    fast = drive_stream(policy, "fast", stream=stream)
    assert fast == reference


def test_engine_registry():
    assert ENGINES == ("reference", "fast")
    for engine in ENGINES:
        assert validate_engine(engine) == engine
    assert validate_engine("batch") == "fast"
    with pytest.raises(ValueError, match="unknown engine"):
        validate_engine("warp")
    with pytest.raises(ValueError, match="unknown engine"):
        make_l1d("warp", SMALL_GEOMETRY, None)


def test_policy_spec_round_trip():
    """PolicySpec captures every knob the fast engine inlines."""
    from repro.core import make_policy

    policy = make_policy("dlp", sample_limit=50, insn_sample_limit=500,
                         vta_assoc=2, pd_bits=3, nasc=0,
                         bypass_enabled=False)
    spec = PolicySpec.from_policy(policy)
    assert spec.sample_limit == 50
    assert spec.insn_sample_limit == 500
    assert spec.vta_assoc == 2
    assert spec.pd_bits == 3
    assert spec.nasc == 0
    assert spec.bypass_enabled is False


def test_fast_engine_rejects_unknown_policy():
    class Alien:
        name = "alien"

    with pytest.raises(ValueError, match="alien"):
        PolicySpec.from_policy(Alien())


def test_streams_are_deterministic():
    """The harness itself must be reproducible for the diffs to mean
    anything."""
    assert golden_stream() == golden_stream()
    assert fuzz_stream(7) == fuzz_stream(7)
    assert fuzz_stream(7) != fuzz_stream(8)
