"""Tier-0 analytical serving: instant answers, background refinement.

Same stub-driven style as ``test_scheduler.py`` — ``predict_fn`` and
``sim_fn`` are injected, so every counter is exact.  The analytical
answer must come back immediately with ``tier: "analytical"``, the
refinement must run the normal exact path under the *unchanged* store
key, and the stored exact result must supersede on the next request.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List

import pytest

from repro.cache.l1d import L1DStats
from repro.experiments.store import MemoryStore
from repro.gpu.simulator import SimResult
from repro.serve.protocol import (
    ProtocolError,
    cell_request,
    parse_job_request,
)
from repro.serve.scheduler import Scheduler


def payload_for(cell) -> dict:
    return SimResult(
        cycles=2000 + len(cell.abbr), thread_insns=10, warp_insns=5,
        l1d=L1DStats(), interconnect={}, l2={}, dram={},
        policy={"scheme": float(len(cell.scheme))},
    ).to_dict()


class StubSim:
    def __init__(self, gate: threading.Event = None):
        self.calls: List[str] = []
        self._lock = threading.Lock()
        self.gate = gate

    def __call__(self, cell):
        if self.gate is not None:
            assert self.gate.wait(timeout=30), "stub gate never released"
        with self._lock:
            self.calls.append(f"{cell.abbr}/{cell.scheme}")
        return payload_for(cell)


class StubPredict:
    """Mimics jobs.predict_unit: (cell, trace_dir) -> dict."""

    def __init__(self, fail: bool = False):
        self.calls: List[str] = []
        self.trace_dirs: List[object] = []
        self._lock = threading.Lock()
        self.fail = fail

    def __call__(self, cell, trace_dir=None) -> dict:
        with self._lock:
            self.calls.append(f"{cell.abbr}/{cell.scheme}")
            self.trace_dirs.append(trace_dir)
        if self.fail:
            raise RuntimeError("injected prediction failure")
        return {
            "tier": "analytical",
            "app": cell.abbr, "scheme": cell.scheme,
            "miss_rate": 0.25, "hit_rate": 0.75,
            "error": {"mean_abs": 0.01, "max_abs": 0.05},
        }


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def make_scheduler(workers=1, sim_fn=None, predict_fn=None,
                         store=None, pool_size=None, **kwargs):
    scheduler = Scheduler(
        store=store if store is not None else MemoryStore(),
        workers=workers,
        pool=ThreadPoolExecutor(max_workers=pool_size or workers),
        sim_fn=sim_fn if sim_fn is not None else StubSim(),
        predict_fn=predict_fn if predict_fn is not None else StubPredict(),
        **kwargs,
    )
    await scheduler.start()
    return scheduler


async def settle(job):
    while not job.done:
        await asyncio.sleep(0.005)
    return job


PREDICT_CELL = cell_request("MM", "baseline", sms=1, scale=0.1, predict=True)
PLAIN_CELL = cell_request("MM", "baseline", sms=1, scale=0.1)


async def wait_for_store(scheduler, key, timeout=30.0):
    waited = 0.0
    while scheduler.store.get(key) is None:
        await asyncio.sleep(0.01)
        waited += 0.01
        assert waited < timeout, "refinement never stored an exact result"


class TestProtocol:
    def test_predict_flag_survives_the_wire(self):
        request = parse_job_request(PREDICT_CELL)
        assert request.predict is True
        assert request.describe()["predict"] is True
        assert parse_job_request(PLAIN_CELL).predict is False

    def test_store_key_is_invariant_under_predict(self):
        predicted = parse_job_request(PREDICT_CELL).units[0]
        plain = parse_job_request(PLAIN_CELL).units[0]
        assert predicted.key() == plain.key()

    def test_predict_rejects_non_blocking_mode(self):
        body = cell_request("MM", "baseline", sms=1, scale=0.1, predict=True,
                            non_blocking=True)
        with pytest.raises(ProtocolError, match="predict"):
            parse_job_request(body)


class TestTier0:
    def test_cold_cell_answers_analytically_then_refines_to_exact(self):
        async def body():
            sim, predictor = StubSim(), StubPredict()
            scheduler = await make_scheduler(sim_fn=sim,
                                             predict_fn=predictor)
            try:
                key = parse_job_request(PREDICT_CELL).units[0].key()
                job = await settle(scheduler.submit(
                    parse_job_request(PREDICT_CELL)))
                assert job.state == "done"
                answer = job.results[0]["result"]
                assert answer["tier"] == "analytical"
                assert answer["error"]["mean_abs"] == 0.01
                assert predictor.calls == ["MM/baseline"]
                assert scheduler.metrics.predict_answers == 1
                assert scheduler.metrics.refinements == 1

                # the background refinement runs the exact path and
                # stores under the byte-identical key — never the
                # analytical payload
                await wait_for_store(scheduler, key)
                assert sim.calls == ["MM/baseline"]
                stored = scheduler.store.get(key).to_dict()
                assert "tier" not in stored
                assert stored["cycles"] == 2002

                # a later predict request is served exact from the store
                again = await settle(scheduler.submit(
                    parse_job_request(PREDICT_CELL)))
                exact = again.results[0]["result"]
                assert exact["tier"] == "exact"
                assert exact["cycles"] == 2002
                assert predictor.calls == ["MM/baseline"]    # still once
                assert scheduler.metrics.cells_store_hits == 1
                assert scheduler.metrics.supersede_latency.count == 1
            finally:
                await scheduler.shutdown()
        run(body())

    def test_plain_payloads_never_grow_a_tier_key(self):
        async def body():
            scheduler = await make_scheduler()
            try:
                job = await settle(scheduler.submit(
                    parse_job_request(PLAIN_CELL)))
                assert "tier" not in job.results[0]["result"]
            finally:
                await scheduler.shutdown()
        run(body())

    def test_concurrent_predicts_share_one_refinement(self):
        async def body():
            sim, predictor = StubSim(), StubPredict()
            scheduler = await make_scheduler(workers=2, sim_fn=sim,
                                             predict_fn=predictor)
            try:
                key = parse_job_request(PREDICT_CELL).units[0].key()
                jobs = [scheduler.submit(parse_job_request(PREDICT_CELL))
                        for _ in range(2)]
                for job in jobs:
                    await settle(job)
                # analytical answers are cheap and not coalesced, but
                # the expensive refinement is deduplicated
                assert scheduler.metrics.predict_answers == 2
                assert scheduler.metrics.refinements == 1
                await wait_for_store(scheduler, key)
                assert sim.calls == ["MM/baseline"]
            finally:
                await scheduler.shutdown()
        run(body())

    def test_plain_request_coalesces_onto_inflight_refinement(self):
        async def body():
            gate = threading.Event()
            sim, predictor = StubSim(gate=gate), StubPredict()
            scheduler = await make_scheduler(sim_fn=sim,
                                             predict_fn=predictor)
            try:
                predicted = await settle(scheduler.submit(
                    parse_job_request(PREDICT_CELL)))
                assert predicted.results[0]["result"]["tier"] == "analytical"
                while scheduler.running_count() != 1:  # refinement running
                    await asyncio.sleep(0.005)
                plain = scheduler.submit(parse_job_request(PLAIN_CELL))
                await asyncio.sleep(0.02)
                gate.set()
                await settle(plain)
                assert plain.state == "done"
                assert plain.results[0]["result"]["cycles"] == 2002
                assert sim.calls == ["MM/baseline"]          # exactly once
                assert scheduler.metrics.cells_coalesced == 1
            finally:
                await scheduler.shutdown()
        run(body())

    def test_refinement_yields_to_interactive_work(self):
        async def body():
            gate = threading.Event()
            sim, predictor = StubSim(gate=gate), StubPredict()
            # one queue worker, but a second pool thread so the
            # analytical answer isn't stuck behind the gated sim
            scheduler = await make_scheduler(sim_fn=sim,
                                             predict_fn=predictor,
                                             pool_size=2)
            try:
                # occupy the single worker with cell A
                a = scheduler.submit(parse_job_request(
                    cell_request("HS", "dlp", sms=1, scale=0.1)))
                while scheduler.running_count() != 1:
                    await asyncio.sleep(0.005)
                # queue a refinement (B) then an interactive cell (C)
                b = await settle(scheduler.submit(
                    parse_job_request(PREDICT_CELL)))
                assert b.results[0]["result"]["tier"] == "analytical"
                c = scheduler.submit(parse_job_request(
                    cell_request("KM", "baseline", sms=1, scale=0.1)))
                await asyncio.sleep(0.02)
                gate.set()
                await settle(a)
                await settle(c)
                key = parse_job_request(PREDICT_CELL).units[0].key()
                await wait_for_store(scheduler, key)
                # interactive C overtook the queued refinement for B
                assert sim.calls == ["HS/dlp", "KM/baseline", "MM/baseline"]
            finally:
                await scheduler.shutdown()
        run(body())

    def test_trace_dir_is_threaded_to_the_predictor(self, tmp_path):
        async def body():
            predictor = StubPredict()
            scheduler = await make_scheduler(predict_fn=predictor,
                                             trace_dir=tmp_path)
            try:
                await settle(scheduler.submit(
                    parse_job_request(PREDICT_CELL)))
                assert predictor.trace_dirs == [str(tmp_path)]
            finally:
                await scheduler.shutdown()
        run(body())


class TestFailure:
    def test_failed_prediction_fails_the_job_with_fingerprint(self):
        async def body():
            scheduler = await make_scheduler(
                predict_fn=StubPredict(fail=True))
            try:
                job = await settle(scheduler.submit(
                    parse_job_request(PREDICT_CELL)))
                assert job.state == "failed"
                assert "injected prediction failure" in job.error["error"]
                assert job.error["fingerprint"]["abbr"] == "MM"
                assert scheduler.metrics.cells_failed == 1
                assert scheduler.metrics.predict_answers == 0
            finally:
                await scheduler.shutdown()
        run(body())

    def test_warm_store_skips_the_predictor_entirely(self):
        async def body():
            sim, predictor = StubSim(), StubPredict()
            scheduler = await make_scheduler(sim_fn=sim,
                                             predict_fn=predictor)
            try:
                key = parse_job_request(PLAIN_CELL).units[0].key()
                await settle(scheduler.submit(parse_job_request(PLAIN_CELL)))
                await wait_for_store(scheduler, key)
                job = await settle(scheduler.submit(
                    parse_job_request(PREDICT_CELL)))
                assert job.results[0]["result"]["tier"] == "exact"
                assert predictor.calls == []
                assert scheduler.metrics.predict_answers == 0
                assert scheduler.metrics.refinements == 0
            finally:
                await scheduler.shutdown()
        run(body())
