"""Inert lanes: a Protected Life that cannot outlive LRU age is LRU.

On an ``assoc``-way L1D, a DLP or Global-Protection lane whose
``pl_max`` is at most ``assoc`` is *inert*: in blocking replay it makes
exactly LRU's decisions, whatever its PDs.  The proof is in
:class:`repro.batchsim.engine._SharedBarrier`.  So the batch driver
keys such a lane's window-barrier split on the all-zero PD state, and
the lane stays in the kernel pass of the Nasc-0 lanes.  These tests pin
the proof on the reference engine, the window-passes it saves, each
lane's result and PD state against its solo replay, and streams on
which the nearby wrong rules break.
"""

from __future__ import annotations

import random

import pytest

import repro.batchsim.engine as engine_mod
from repro.batchsim.engine import replay_batch
from repro.cache.hashing import get_index_fn
from repro.gpu.config import GPUConfig
from repro.trace.format import TraceRecord
from repro.trace.record import capture_records
from repro.trace.replay import ReplayEngine, _resolve, replay_records
from repro.utils.rng import DeterministicRng
from repro.workloads import make_workload

from tests.batchsim.test_batch_differential import (
    ADVERSARIAL, _label, _window_passes, mixed_reuse_records,
)
from tests.oracle import assert_results_identical

CONFIG = GPUConfig().scaled(2)
#: The same machine with 8-way L1Ds, where 3-bit PL is inert too.
CONFIG_8WAY = CONFIG.with_l1d(assoc=8)


@pytest.fixture(scope="module")
def km_records():
    """KM at 2 SMs: its Nasc > 0 lanes raise PDs from window 2 on."""
    return capture_records(make_workload("KM", 0.05), CONFIG)


# ----------------------------------------------------------------------
# the proof, on the reference engine
# ----------------------------------------------------------------------

#: Inert (scheme, config, knobs): 1- and 2-bit PL on 4 ways, 3-bit PL on
#: 8 ways, each with bypass on and off (the stall-retry path).
INERT = [
    (scheme, config, {"pd_bits": bits, "bypass_enabled": bypass})
    for scheme in ("dlp", "global_protection")
    for config, widths in ((CONFIG, (1, 2)), (CONFIG_8WAY, (3,)))
    for bits in widths
    for bypass in (True, False)
]


@pytest.mark.parametrize("name", sorted(ADVERSARIAL) + ["km"])
def test_reference_inert_lanes_make_lru_decisions(name, km_records):
    """Each inert lane's reference blocking replay has baseline's hits,
    misses and evictions on the same geometry, and never bypasses or
    stalls: its LRU way has always outlived its PL."""
    records = km_records[:2000] if name == "km" else ADVERSARIAL[name]
    baseline = {
        config.l1d.assoc: replay_records(iter(records), config, "baseline",
                                         engine="reference").l1d
        for config in (CONFIG, CONFIG_8WAY)
    }
    for scheme, config, knobs in INERT:
        result = replay_records(iter(records), config, scheme,
                                engine="reference", **knobs)
        lru = baseline[config.l1d.assoc]
        label = f"{name}/{scheme}/{config.l1d.assoc}-way/{knobs}"
        assert (result.l1d.hits, result.l1d.misses, result.l1d.evictions) \
            == (lru.hits, lru.misses, lru.evictions), label
        assert result.l1d.bypasses == 0, label
        assert not any(result.l1d.stalls.values()), label


def test_a_pl_past_assoc_is_not_lru(km_records):
    """The bound is tight enough to matter: 3-bit PL (up to 7) on 4 ways
    departs from LRU on some stream."""
    streams = [km_records[:2000], *ADVERSARIAL.values()]
    departs = []
    for records in streams:
        lru = replay_records(iter(records), CONFIG, "baseline",
                             engine="reference").l1d
        for scheme in ("dlp", "global_protection"):
            got = replay_records(iter(records), CONFIG, scheme,
                                 engine="reference", pd_bits=3).l1d
            departs.append((got.hits, got.misses, got.bypasses)
                           != (lru.hits, lru.misses, lru.bypasses))
    assert any(departs)


# ----------------------------------------------------------------------
# the shared pass
# ----------------------------------------------------------------------

#: The frontier of inert widths on 4 ways: 1- and 2-bit PL at every Nasc.
INERT_FRONTIER = [{"nasc": nasc, "pd_bits": bits}
                  for nasc in range(5) for bits in (1, 2)]


def _windows(records, num_sms: int = 2, sample_limit: int = 200) -> list:
    """Sampling windows per SM, the last one partial."""
    return [-(-sum(1 for r in records if r.sm_id == sm) // sample_limit)
            for sm in range(num_sms)]


def test_inert_lanes_share_the_nasc0_pass(km_records, monkeypatch):
    """The DLP and Global-Protection frontier of 1- and 2-bit PL runs
    one window-pass per window, per SM and policy, though its Nasc > 0
    lanes raise their PDs; each lane equals its solo reference replay.
    3-bit lanes (PL up to 7 on 4 ways) make the pass fork."""
    records = km_records[:3000]
    lanes = [(scheme, point) for scheme in ("dlp", "global_protection")
             for point in INERT_FRONTIER]
    passes = _window_passes(monkeypatch)
    batched = replay_batch(records, lanes, CONFIG)
    windows = _windows(records)
    assert passes == windows + windows
    for (scheme, kwargs), result in zip(lanes, batched):
        solo = replay_records(iter(records), CONFIG, scheme,
                              engine="reference", **kwargs)
        assert_results_identical(
            solo, result, label=f"inert/{_label((scheme, kwargs))}")
        if kwargs["nasc"]:
            # the split key, not the PD state, keeps these lanes together
            assert result.policy["pd_increase"] > 0, _label((scheme, kwargs))

    passes.clear()
    wider = lanes + [(scheme, {"nasc": 4, "pd_bits": 3})
                     for scheme in ("dlp", "global_protection")]
    replay_batch(records, wider, CONFIG)
    assert sum(passes) > 2 * sum(windows)


def test_an_inert_leader_hands_its_pass_on(monkeypatch):
    """An inert high-Nasc lane leads the pass; the Nasc-1 lanes with
    4-bit PL fork off it when their PDs rise, and the Nasc-0 lanes stay
    with it to the end.  Every lane equals its solo reference replay."""
    records = mixed_reuse_records()
    lanes = [(scheme, point)
             for scheme in ("dlp", "global_protection")
             for point in ({"nasc": 4, "pd_bits": 2},
                           {"nasc": 1, "pd_bits": 4},
                           {"nasc": 1, "pd_bits": 5},
                           {"nasc": 0, "pd_bits": 4},
                           {"nasc": 0, "pd_bits": 2})]
    passes = _window_passes(monkeypatch)
    batched = replay_batch(records, lanes, CONFIG)
    assert sum(passes) > 2 * sum(_windows(records))
    for (scheme, kwargs), result in zip(lanes, batched):
        solo = replay_records(iter(records), CONFIG, scheme,
                              engine="reference", **kwargs)
        assert_results_identical(
            solo, result, label=f"leader/{_label((scheme, kwargs))}")


def early_pc_records(num_sms: int = 2) -> list:
    """A PC that hits only in the first window, then the mixed-reuse
    stream, whose lanes fork later: only the PDPT markers a fork copies
    remember that PC."""
    early = [TraceRecord(sm_id=i % num_sms,
                         block_addr=0x1000 + (i // num_sms) % 4,
                         pc=0xA00, is_write=False)
             for i in range(40 * num_sms)]
    return early + mixed_reuse_records(num_sms)


@pytest.mark.parametrize("name", ["km", "early-pc"])
def test_each_lane_keeps_its_own_pd_state(km_records, monkeypatch, name):
    """After replay_batch every lane's PDPT snapshot (PDs, window
    counters, activity markers) and global PD equal its solo fast
    replay's, SM by SM: the end copy leaves each member its own PDs,
    and a fork takes the pass's PDPT markers."""
    records = km_records[:3000] if name == "km" else early_pc_records()
    engines: list = []

    def recording(*args, **kwargs):
        engine = ReplayEngine(*args, **kwargs)
        engines.append(engine)
        return engine

    monkeypatch.setattr(engine_mod, "ReplayEngine", recording)
    lanes = [(scheme, {"nasc": nasc, "pd_bits": bits})
             for scheme in ("dlp", "global_protection")
             for nasc in (4, 0, 1, 2) for bits in (2, 4, 1)]
    replay_batch(records, lanes, CONFIG)
    assert len(engines) == len(lanes)
    for (scheme, kwargs), engine in zip(lanes, engines):
        solo = ReplayEngine(*_resolve(scheme, CONFIG, **kwargs), "fast")
        solo.run(iter(records))
        for sm_id, (got, want) in enumerate(zip(engine.caches, solo.caches)):
            label = f"{name}/{_label((scheme, kwargs))}/SM{sm_id}"
            assert got.pd_snapshot() == want.pd_snapshot(), label
            assert got._gpd == want._gpd, label


# ----------------------------------------------------------------------
# the rule is static: PDs that fell to assoc are not inert
# ----------------------------------------------------------------------

_SET_OF = get_index_fn("hash", CONFIG.l1d.num_sets)


def phase_records(seed: int, length: int) -> list:
    """One SM's accesses to one to three sets, alternating between a
    thrash phase (5-8 blocks per set: lines die before their reuse, so
    VTA hits raise PDs) and a hot phase (1-4 blocks per set: TDA hits
    lower them), deterministic per seed."""
    rng = DeterministicRng(f"batchsim-inert-fuzz-{seed}")
    pool: dict = {}
    for block in range(0x6000, 0x6000 + 4000):
        pool.setdefault(_SET_OF(block), []).append(block)
    sets = [int(rng.integers(0, len(pool)))
            for _ in range(1 + int(rng.integers(0, 3)))]
    thrash = [b for s in sets for b in pool[s][:5 + int(rng.integers(0, 4))]]
    hot = [b for s in sets for b in pool[s][-1 - int(rng.integers(0, 4)):]]
    pcs = 1 + int(rng.integers(0, 3))
    out = []
    phase = left = 0
    for i in range(length):
        if not left:
            phase ^= 1
            left = 5 + int(rng.integers(0, 60))
        left -= 1
        blocks = thrash if phase else hot
        if float(rng.random()) < 0.5:
            block = blocks[int(rng.integers(0, len(blocks)))]
        else:
            block = blocks[i % len(blocks)]
        out.append(TraceRecord(sm_id=0, block_addr=block,
                               pc=0x500 + 8 * int(rng.integers(0, pcs)),
                               is_write=bool(float(rng.random()) < 0.05)))
    return out


#: 20-access windows: PDs rise and fall while lines still hold the PL
#: they got before the fall.
FALLING_LANES = [(scheme, {"nasc": nasc, "pd_bits": bits,
                           "sample_limit": 20})
                 for scheme in ("dlp", "global_protection")
                 for nasc in range(5) for bits in (1, 2, 3, 4)]


@pytest.mark.parametrize("seed, length", [(74, 84), (149, 195)])
def test_pds_that_fell_to_assoc_are_not_inert(seed, length):
    """The smallest fuzzed streams found (seeds 0-299) on which keying a
    member as inert whenever its *current* PDs are at most ``assoc``
    breaks replay_batch: on seed 74 for Global-Protection, on seed 149
    for DLP too.  Two 3-bit lanes, Nasc 4 and 3, reach PD 7 together
    and fall to 3 and 4, while lines protected for 7 remain.  Every
    lane, in a shuffled order, equals its solo reference replay."""
    records = phase_records(seed, length)
    lanes = list(FALLING_LANES)
    random.Random(seed).shuffle(lanes)
    config = GPUConfig().scaled(1)
    batched = replay_batch(records, lanes, config)
    for (scheme, kwargs), result in zip(lanes, batched):
        solo = replay_records(iter(records), config, scheme,
                              engine="reference", **kwargs)
        assert_results_identical(
            solo, result,
            label=f"falling-{seed}/{_label((scheme, kwargs))}")
