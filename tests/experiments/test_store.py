"""Result store: keys, round-trips, counters, versioning."""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from repro.experiments.executor import Cell, SweepExecutor
from repro.experiments.runner import harness_config, run_workload
from repro.experiments.store import (
    SIM_VERSION,
    MemoryStore,
    ResultStore,
    canonical_json,
    cell_fingerprint,
    cell_key,
    open_store,
    replay_cell_key,
    trace_key,
)
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import SimResult


def _without(result: dict, field: str) -> dict:
    return {k: v for k, v in result.items() if k != field}


#: Entries that parse as JSON but are not ``{"meta": ..., "result": ...}``
#: with a whole result, each built from a good result's dict.
MALFORMED = {
    "empty-object": lambda result: {},
    "array": lambda result: [],
    "string": lambda result: "result",
    "null-result": lambda result: {"result": None},
    "empty-result": lambda result: {"result": {}},
    "dropped-cycles": lambda result: {"result": _without(result, "cycles")},
    "dropped-l1d": lambda result: {"result": _without(result, "l1d")},
    "l1d-not-a-dict": lambda result: {"result": {**result, "l1d": []}},
    "meta-not-a-dict": lambda result: {"meta": 7, "result": result},
}


@pytest.fixture(scope="module")
def small_result() -> SimResult:
    return run_workload("MM", "dlp", harness_config(1), scale=0.1)


class TestCellKey:
    def test_key_is_stable(self):
        cfg = harness_config(1)
        assert cell_key("MM", "dlp", cfg) == cell_key("MM", "dlp", cfg)

    def test_key_normalises_nothing_but_hashes_everything(self):
        cfg = harness_config(1)
        base = cell_key("MM", "dlp", cfg)
        assert cell_key("MM", "baseline", cfg) != base
        assert cell_key("HS", "dlp", cfg) != base
        assert cell_key("MM", "dlp", harness_config(2)) != base
        assert cell_key("MM", "dlp", cfg, scale=0.5) != base
        assert cell_key("MM", "dlp", cfg, seed=1) != base
        assert cell_key("MM", "dlp", cfg, max_cycles=10) != base
        assert cell_key("MM", "dlp", cfg, policy_kwargs={"sample_limit": 9}) != base

    def test_abbr_case_insensitive(self):
        cfg = harness_config(1)
        assert cell_key("mm", "dlp", cfg) == cell_key("MM", "dlp", cfg)

    def test_version_stamp_isolates_semantic_changes(self):
        cfg = harness_config(1)
        assert cell_key("MM", "dlp", cfg) != cell_key(
            "MM", "dlp", cfg, sim_version=SIM_VERSION + "-next"
        )

    def test_fingerprint_covers_config_fields(self):
        fp = cell_fingerprint("MM", "dlp", harness_config(1))
        assert fp["config"]["num_sms"] == 1
        assert fp["config"]["l1d"]["assoc"] == 4
        assert fp["sim_version"] == SIM_VERSION

    def test_fingerprint_config_matches_asdict_reference(self):
        """The field-by-field config dict serializes exactly as the
        ``dataclasses.asdict`` it replaced, so every key is unchanged."""
        grid = itertools.product((1, 2, 4, 16), (16, 32, 64), (False, True),
                                 ("gto", "lrr"), ("hash", "linear"))
        for sms, kb, non_blocking, scheduler, index_fn in grid:
            config = dataclasses.replace(
                GPUConfig().scaled(sms).with_l1d_size_kb(kb).with_l1d(
                    non_blocking=non_blocking, index_fn=index_fn),
                scheduler=scheduler)
            reference = dataclasses.asdict(config)
            if not non_blocking:
                del reference["l1d"]["non_blocking"]
            fp = cell_fingerprint("MM", "dlp", config)
            assert canonical_json(fp["config"]) == canonical_json(reference)

    def test_fingerprint_dicts_are_fresh_per_call(self):
        cfg = harness_config(1)
        edited = cell_fingerprint("MM", "dlp", cfg)
        edited["config"]["num_sms"] = edited["config"]["l1d"]["assoc"] = -1
        fresh = cell_fingerprint("MM", "dlp", cfg)
        assert fresh["config"]["num_sms"] == 1
        assert fresh["config"]["l1d"]["assoc"] == 4

    def test_policy_kwarg_order_is_irrelevant(self):
        cfg = harness_config(1)
        assert cell_key(
            "MM", "dlp", cfg, policy_kwargs={"a": 1, "b": 2}
        ) == cell_key("MM", "dlp", cfg, policy_kwargs={"b": 2, "a": 1})


class TestNonBlockingKeys:
    """``non_blocking`` is cache *semantics* (unlike ``--engine``): it
    must enter cell identities when on, and vanish without a trace when
    off so every pre-existing blocking-mode key survives."""

    #: Blocking-mode keys for (MM, dlp, harness_config(1)), pinned at
    #: the commit that introduced the non-blocking flag.  If these move,
    #: every result store in the wild silently cold-starts.
    PINNED_CELL_KEY = (
        "5a5a596fddf045eacdce9c6c1d006aa75933b86319335a4d0adda8d9c4080775"
    )
    PINNED_REPLAY_KEY = (
        "f87993b9b596e24aa53d7e46d1c3978da6980caa7c9fc9d81e19bbf80c717143"
    )
    PINNED_TRACE_KEY = (
        "a3d5bb0ff8603cee2d2b135fe438da8465957d5fc43ab9ce5d9d16dcbc4a0393"
    )

    def test_blocking_keys_are_pinned(self):
        cfg = harness_config(1)
        assert cell_key("MM", "dlp", cfg) == self.PINNED_CELL_KEY
        assert replay_cell_key("MM", "dlp", cfg) == self.PINNED_REPLAY_KEY
        assert trace_key("MM", cfg) == self.PINNED_TRACE_KEY

    def test_non_blocking_changes_cell_and_replay_keys(self):
        cfg = harness_config(1)
        nb = cfg.with_l1d(non_blocking=True)
        assert cell_key("MM", "dlp", nb) != self.PINNED_CELL_KEY
        assert replay_cell_key("MM", "dlp", nb) != self.PINNED_REPLAY_KEY

    def test_trace_key_is_mode_independent(self):
        """Traces are captured upstream of the L1D, so the same recorded
        stream serves both modes under one key."""
        cfg = harness_config(1)
        assert trace_key("MM", cfg.with_l1d(non_blocking=True)) \
            == self.PINNED_TRACE_KEY

    def test_blocking_fingerprint_has_no_non_blocking_field(self):
        fp = cell_fingerprint("MM", "dlp", harness_config(1))
        assert "non_blocking" not in fp["config"]["l1d"]
        nb_fp = cell_fingerprint(
            "MM", "dlp", harness_config(1).with_l1d(non_blocking=True)
        )
        assert nb_fp["config"]["l1d"]["non_blocking"] is True


class TestSerialization:
    def test_simresult_roundtrip_is_lossless(self, small_result):
        reloaded = SimResult.from_dict(
            json.loads(json.dumps(small_result.to_dict()))
        )
        assert reloaded == small_result
        assert canonical_json(reloaded.to_dict()) == canonical_json(
            small_result.to_dict()
        )

    def test_l1d_raw_dict_excludes_derived_metrics(self, small_result):
        raw = small_result.l1d.to_raw_dict()
        assert "hit_rate" not in raw
        assert "loads" in raw and "stalls" in raw


@pytest.mark.parametrize("make_store", [
    lambda tmp: MemoryStore(),
    lambda tmp: ResultStore(tmp),
], ids=["memory", "disk"])
class TestStoreInterface:
    def test_get_put_roundtrip(self, make_store, tmp_path, small_result):
        store = make_store(tmp_path)
        key = "k" * 64
        assert store.get(key) is None
        store.put(key, small_result, meta={"abbr": "MM"})
        assert store.get(key) == small_result
        assert key in store
        assert len(store) == 1

    def test_counters(self, make_store, tmp_path, small_result):
        store = make_store(tmp_path)
        store.get("absent")
        store.put("k1", small_result)
        store.get("k1")
        assert store.stats.as_dict() == {"hits": 1, "misses": 1, "puts": 1}

    def test_ls_and_clear(self, make_store, tmp_path, small_result):
        store = make_store(tmp_path)
        store.put("b" * 64, small_result, meta={"abbr": "MM", "scheme": "dlp"})
        store.put("a" * 64, small_result, meta={"abbr": "HS", "scheme": "dlp"})
        entries = store.ls()
        assert [e["key"] for e in entries] == ["a" * 64, "b" * 64]
        assert entries[0]["abbr"] == "HS"
        assert store.clear() == 2
        assert len(store) == 0


class TestDiskStore:
    def test_persists_across_instances(self, tmp_path, small_result):
        ResultStore(tmp_path).put("k" * 64, small_result)
        assert ResultStore(tmp_path).get("k" * 64) == small_result

    def test_torn_payload_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / ("k" * 64 + ".json")).write_text("{not json")
        assert store.get("k" * 64) is None
        assert store.ls() == []

    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_malformed_entry_is_a_counted_miss(self, tmp_path, small_result,
                                               shape):
        """Valid JSON that is not a whole entry reads like a torn file:
        a miss (never a hit, never an exception), skipped by ``ls``, and
        overwritten by the next ``put``."""
        store = ResultStore(tmp_path)
        key = "k" * 64
        (tmp_path / f"{key}.json").write_text(
            json.dumps(MALFORMED[shape](small_result.to_dict())))
        assert store.get(key) is None
        assert store.stats.as_dict() == {"hits": 0, "misses": 1, "puts": 0}
        assert store.ls() == []
        store.put(key, small_result, meta={"abbr": "MM"})
        assert store.get(key) == small_result
        assert [e["key"] for e in store.ls()] == [key]

    def test_sweep_resimulates_a_malformed_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        cell = Cell.make("MM", "dlp", num_sms=1, scale=0.1)
        first = SweepExecutor(store=store).run_cell(cell)
        path = tmp_path / f"{cell.key()}.json"
        path.write_text(json.dumps({"result": {}}))
        executor = SweepExecutor(store=store)
        assert executor.run_cell(cell) == first
        assert executor.stats.simulated == 1
        assert store.get(cell.key()) == first

    def test_open_store(self, tmp_path):
        assert isinstance(open_store(None), MemoryStore)
        disk = open_store(str(tmp_path / "sub"))
        assert isinstance(disk, ResultStore)
        assert disk.root.is_dir()
