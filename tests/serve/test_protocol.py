"""Job request parsing, validation, and content-address agreement."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.experiments.executor import Cell
from repro.experiments.store import replay_cell_key
from repro.gpu.config import GPUConfig
from repro.serve.protocol import (
    MODE_REPLAY,
    MODE_SIM,
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    ProtocolError,
    cell_request,
    parse_job_request,
    replay_request,
    sweep_request,
)


class TestParsing:
    def test_cell_request_roundtrip(self):
        req = parse_job_request(
            cell_request("bfs", "dlp", sms=2, scale=0.5, seed=3)
        )
        assert req.kind == "cell"
        assert req.priority == PRIORITY_INTERACTIVE
        (unit,) = req.units
        assert unit.mode == MODE_SIM
        assert unit.abbr == "BFS" and unit.scheme == "dlp"
        assert unit.num_sms == 2 and unit.scale == 0.5 and unit.seed == 3

    def test_sweep_builds_full_grid_bulk_priority(self):
        req = parse_job_request(
            sweep_request(["MM", "HS"], ["baseline", "dlp"], sms=1)
        )
        assert req.kind == "sweep"
        assert req.priority == PRIORITY_BULK
        assert len(req.units) == 4
        assert {(u.abbr, u.scheme) for u in req.units} == {
            ("MM", "baseline"), ("MM", "dlp"),
            ("HS", "baseline"), ("HS", "dlp"),
        }

    def test_replay_units_use_replay_mode(self):
        req = parse_job_request(replay_request(["MM"], ["dlp"]))
        (unit,) = req.units
        assert unit.mode == MODE_REPLAY

    def test_priority_override(self):
        req = parse_job_request(
            sweep_request(["MM"], ["baseline", "dlp"],
                          priority="interactive")
        )
        assert req.priority == PRIORITY_INTERACTIVE

    def test_single_unit_sweep_defaults_interactive(self):
        req = parse_job_request(sweep_request(["MM"], ["dlp"]))
        assert req.priority == PRIORITY_INTERACTIVE


class TestKeys:
    """The scheduler coalesces on exactly the store's content addresses."""

    def test_sim_unit_key_matches_executor_cell_key(self):
        req = parse_job_request(cell_request("MM", "dlp", sms=2, seed=1))
        (unit,) = req.units
        expected = Cell.make("MM", "dlp", num_sms=2, seed=1).key()
        assert unit.key() == expected

    def test_replay_unit_key_matches_replay_cell_key(self):
        req = parse_job_request(replay_request(["MM"], ["dlp"], sms=2))
        (unit,) = req.units
        expected = replay_cell_key(
            "MM", "dlp", GPUConfig().scaled(2), scale=1.0, seed=0,
        )
        assert unit.key() == expected

    @pytest.mark.parametrize("body, key_fn", [
        (cell_request("MM", "dlp", sms=2, seed=1),
         "repro.experiments.executor.cell_key"),
        (replay_request(["MM"], ["dlp"], sms=2),
         "repro.experiments.executor.replay_cell_key"),
    ], ids=["sim", "replay"])
    def test_key_is_computed_once_per_unit(self, monkeypatch, body, key_fn):
        (unit,) = parse_job_request(body).units
        (twin,) = parse_job_request(body).units
        unmemoized = dataclasses.replace(unit).key()
        module, _, name = key_fn.rpartition(".")
        compute = getattr(importlib.import_module(module), name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(name)
            return compute(*args, **kwargs)

        monkeypatch.setattr(key_fn, counting)
        assert unit.key() == unit.describe()["key"] == unit.key()
        assert unit.key() == unmemoized
        assert calls == [name]
        # the stored key is no part of the unit's identity
        assert unit == twin and hash(unit) == hash(twin)
        assert repr(unit) == repr(twin)

    def test_replay_and_sim_never_collide(self):
        sim = parse_job_request(cell_request("MM", "dlp")).units[0]
        rep = parse_job_request(replay_request(["MM"], ["dlp"])).units[0]
        assert sim.key() != rep.key()

    def test_fingerprint_identifies_the_cell(self):
        (unit,) = parse_job_request(
            cell_request("MM", "dlp", sms=2, seed=5)
        ).units
        fp = unit.fingerprint()
        assert fp["abbr"] == "MM" and fp["scheme"] == "dlp"
        assert fp["seed"] == 5 and fp["config"]["num_sms"] == 2

    def test_replay_fingerprint_is_mode_tagged(self):
        (unit,) = parse_job_request(replay_request(["MM"], ["dlp"])).units
        assert unit.fingerprint()["mode"] == "replay"


class TestValidation:
    @pytest.mark.parametrize("payload", [
        None,
        [],
        {},
        {"kind": "nope", "app": "MM", "scheme": "dlp"},
        {"kind": "cell", "scheme": "dlp"},                   # missing app
        {"kind": "cell", "app": "MM"},                       # missing scheme
        {"kind": "cell", "app": "NOPE", "scheme": "dlp"},
        {"kind": "cell", "app": "MM", "scheme": "nope"},
        {"kind": "cell", "app": "MM", "scheme": "dlp", "sms": 0},
        {"kind": "cell", "app": "MM", "scheme": "dlp", "sms": "four"},
        {"kind": "cell", "app": "MM", "scheme": "dlp", "scale": -1},
        {"kind": "cell", "app": "MM", "scheme": "dlp", "seed": -1},
        {"kind": "cell", "app": "MM", "scheme": "dlp", "max_cycles": 0},
        # a bool is an int to isinstance, but not a cycle cap
        {"kind": "cell", "app": "MM", "scheme": "dlp", "max_cycles": True},
        {"kind": "cell", "app": "MM", "scheme": "dlp", "priority": "urgent"},
        {"kind": "cell", "app": "MM", "scheme": "dlp", "policy_kwargs": 7},
        {"kind": "cell", "apps": ["MM", "HS"], "scheme": "dlp"},  # grid cell
        {"kind": "sweep", "apps": [], "schemes": ["dlp"]},
        {"kind": "sweep", "apps": ["MM"], "schemes": ["dlp"],
         "max_cycles": 10},
    ])
    def test_rejects_bad_requests(self, payload):
        with pytest.raises(ProtocolError):
            parse_job_request(payload)

    def test_app_names_case_insensitive(self):
        req = parse_job_request(cell_request("mm", "dlp"))
        assert req.units[0].abbr == "MM"


class TestPolicyKnobs:
    """Knobs are checked against the knob declaration at admission, so a
    bad one answers 400 instead of failing in a worker."""

    @pytest.mark.parametrize("scheme, knobs", [
        ("baseline", {"nasc": 1}),
        ("32kb", {"pd_bits": 2}),
        ("dlp", {"bogus": 1}),
        ("dlp", {"pl": 2}),
        ("dlp", {"nasc": -1}),
        ("global_protection", {"vta_assoc": 0}),
        ("dlp", {"sample_limit": 0}),
        ("dlp", {"nasc": "four"}),
        ("dlp", {"pd_bits": "4"}),
        ("global_protection", {"pd_bits": 0}),
    ])
    def test_rejects_knobs_the_scheme_does_not_take(self, scheme, knobs):
        replay = replay_request(["MM"], [scheme])
        replay["policy_kwargs"] = knobs
        for body in (cell_request("MM", scheme, policy_kwargs=knobs), replay):
            with pytest.raises(ProtocolError, match="policy_kwargs"):
                parse_job_request(body)

    def test_one_bad_scheme_in_a_sweep_rejects_the_job(self):
        body = sweep_request(["MM"], ["dlp", "baseline"])
        body["policy_kwargs"] = {"nasc": 2}
        with pytest.raises(ProtocolError, match="'baseline'"):
            parse_job_request(body)

    def test_predict_refuses_the_instruction_cap(self):
        body = cell_request("MM", "dlp", predict=True,
                            policy_kwargs={"insn_sample_limit": 500})
        with pytest.raises(ProtocolError, match="insn_sample_limit"):
            parse_job_request(body)
        # the exact tiers take it
        body = cell_request("MM", "dlp",
                            policy_kwargs={"insn_sample_limit": 500})
        assert parse_job_request(body).units

    def test_valid_knobs_keep_their_keys(self):
        def key(knobs):
            (unit,) = parse_job_request(
                cell_request("MM", "dlp", policy_kwargs=knobs)).units
            return unit.key()

        assert key({"nasc": 4}) == \
            Cell.make("MM", "dlp", num_sms=4, nasc=4).key()
        # the declaration never enters a key: the default value spelled
        # out is a different request from no knobs at all
        assert key({"nasc": 4}) != key({}) == Cell.make("MM", "dlp").key()
