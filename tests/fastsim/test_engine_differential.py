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

from repro.cache.l1d import L1DCache
from repro.core import ProtectedPolicy, ProtectionKnobs, make_policy
from repro.fastsim import ENGINES, make_l1d, validate_engine
from repro.fastsim.engine import FastL1DCache, PolicySpec
from repro.gpu.config import GPUConfig
from repro.trace.replay import ReplayEngine

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
    """PolicySpec carries the policy's own knob declaration."""
    from repro.core import make_policy

    policy = make_policy("dlp", sample_limit=50, insn_sample_limit=500,
                         vta_assoc=2, pd_bits=3, nasc=0,
                         bypass_enabled=False)
    spec = PolicySpec.from_policy(policy)
    assert spec.knobs is policy.knobs
    assert spec.knobs == ProtectionKnobs(
        sample_limit=50, insn_sample_limit=500, vta_assoc=2, pd_bits=3,
        nasc=0, bypass_enabled=False)


@pytest.mark.parametrize("policy,kwargs", ABLATIONS, ids=map(_label, ABLATIONS))
def test_engines_resolve_the_same_knobs(policy, kwargs):
    """Both engines read one declaration, so every grid cell resolves to
    the same window, VTA associativity, Nasc, PL maximum and bypass
    flag; an unprotected kind keeps none of them."""
    reference = make_policy(policy, **kwargs)
    L1DCache(SMALL_GEOMETRY, reference)
    fast = FastL1DCache(SMALL_GEOMETRY, make_policy(policy, **kwargs))
    if not isinstance(reference, ProtectedPolicy):
        assert not fast._protected
        assert (fast._pl_max, fast._bypass_enabled, fast._vta_valid) == \
            (0, False, [])
        return
    assert reference.vta is not None
    assert (fast._acc_limit, fast._ins_limit, fast._vta_assoc, fast._nasc,
            fast._pl_max, fast._bypass_enabled) == (
        reference.sampler.access_limit, reference.sampler.insn_limit,
        reference.vta.assoc, reference.nasc, reference.pl_max,
        reference.knobs.bypass_enabled)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", ("global_protection", "dlp"))
def test_negative_nasc_is_refused_when_the_policy_is_built(engine, policy):
    with pytest.raises(ValueError, match="Nasc must be non-negative"):
        ReplayEngine(GPUConfig().scaled(1),
                     lambda: make_policy(policy, nasc=-1), engine)


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
