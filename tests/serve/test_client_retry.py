"""ServeClient retry/backoff semantics, without a server.

``_roundtrip`` is scripted and ``time.sleep`` intercepted, so every
test observes the exact retry schedule: which attempts happened, how
long each backoff was, and whose hint (computed jitter vs. the
server's ``Retry-After``) won.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.serve.client import JobFailedError, ServeClient, ServeError
from repro.utils.rng import DeterministicRng


class ScriptedClient(ServeClient):
    """Replays a scripted list of round-trip outcomes."""

    def __init__(self, script, **kwargs):
        kwargs.setdefault("rng", DeterministicRng("test-backoff"))
        super().__init__(**kwargs)
        self.script = list(script)
        self.attempts = 0

    def _roundtrip(self, method, path, body):
        self.attempts += 1
        outcome = self.script.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture()
def sleeps(monkeypatch) -> List[float]:
    record: List[float] = []
    monkeypatch.setattr("repro.serve.client.time.sleep", record.append)
    return record


class TestThrottleRetry:
    def test_429_retried_until_success(self, sleeps):
        client = ScriptedClient(
            [(429, {"error": "full"}, 0.2),
             (429, {"error": "full"}, 0.1),
             (200, {"id": "job-1"}, None)],
            retries=5,
        )
        status, doc = client.request("POST", "/jobs", {})
        assert status == 200 and doc == {"id": "job-1"}
        assert client.attempts == 3
        assert client.retried_throttles == 2

    def test_retry_after_wins_over_computed_backoff(self, sleeps):
        client = ScriptedClient(
            [(429, {}, 0.2), (200, {}, None)], retries=3)
        client.request("GET", "/x")
        assert sleeps == [0.2]

    def test_retry_after_clamped_to_cap(self, sleeps):
        client = ScriptedClient(
            [(429, {}, 99.0), (200, {}, None)],
            retries=3, backoff_cap=0.5,
        )
        client.request("GET", "/x")
        assert sleeps == [0.5]

    def test_exhausted_retries_surface_the_final_429(self, sleeps):
        client = ScriptedClient([(429, {"error": "full"}, 0.1)] * 3,
                                retries=2)
        status, doc = client.request("POST", "/jobs", {})
        assert status == 429
        assert client.attempts == 3          # 1 try + 2 retries

    def test_retries_off_by_default(self, sleeps):
        client = ScriptedClient([(429, {"error": "full"}, 0.1)])
        status, _doc = client.request("POST", "/jobs", {})
        assert status == 429
        assert client.attempts == 1 and sleeps == []


class TestTransportRetry:
    def test_transport_error_retried(self, sleeps):
        client = ScriptedClient(
            [ServeError("connection refused"), (200, {"ok": True}, None)],
            retries=2,
        )
        status, doc = client.request("GET", "/healthz")
        assert status == 200
        assert client.retried_errors == 1

    def test_exhausted_transport_retries_raise(self, sleeps):
        client = ScriptedClient(
            [ServeError("refused")] * 3, retries=2)
        with pytest.raises(ServeError, match="refused"):
            client.request("GET", "/healthz")
        assert client.attempts == 3

    def test_no_retry_when_disabled(self, sleeps):
        client = ScriptedClient([ServeError("refused")])
        with pytest.raises(ServeError):
            client.request("GET", "/healthz")
        assert client.attempts == 1


class TestBackoffShape:
    def test_full_jitter_within_doubling_ceiling(self):
        client = ServeClient(retries=5, backoff_base=0.25, backoff_cap=5.0,
                             rng=DeterministicRng("jitter"))
        for attempt in range(6):
            ceiling = min(5.0, 0.25 * (2 ** attempt))
            for _ in range(16):
                delay = client._backoff(attempt, None)
                assert 0.0 <= delay <= ceiling

    def test_deterministic_given_rng(self):
        a = ServeClient(retries=1, rng=DeterministicRng("same"))
        b = ServeClient(retries=1, rng=DeterministicRng("same"))
        assert [a._backoff(i, None) for i in range(4)] \
            == [b._backoff(i, None) for i in range(4)]


def polls(states, job_id="job-000001"):
    """Scripted ``GET /jobs/<id>`` answers, one per state."""
    return [(200, {"id": job_id, "state": state}, None) for state in states]


class TestWaitBackoff:
    @pytest.mark.parametrize("states, poll, expected", [
        (["queued"] + ["running"] * 6 + ["done"], 0.05,
         [0.005, 0.01, 0.02, 0.04, 0.05, 0.05, 0.05]),
        (["running"] * 3 + ["done"], 0.002, [0.002] * 3),
        (["done"], 0.05, []),
    ], ids=["doubling-to-poll", "poll-below-5ms", "settled-at-once"])
    def test_first_sleep_is_5ms_then_doubles_up_to_poll(self, sleeps, states,
                                                        poll, expected):
        client = ScriptedClient(polls(states))
        doc = client.wait("job-000001", poll=poll)
        assert doc["state"] == "done" and client.attempts == len(states)
        assert sleeps == pytest.approx(expected)

    def test_deadline_and_failure_behave_as_before(self, sleeps):
        client = ScriptedClient(polls(["running"]))
        with pytest.raises(ServeError, match="still 'running' after 0s"):
            client.wait("job-000001", timeout=0)
        assert sleeps == []
        client = ScriptedClient(polls(["running", "failed"]))
        with pytest.raises(JobFailedError):
            client.wait("job-000001")
        client = ScriptedClient(polls(["failed"]))
        doc = client.wait("job-000001", raise_on_failure=False)
        assert doc["state"] == "failed"


class TestResubmitOnGone:
    """``run`` submits its body again when a poll finds the job evicted
    (410), within ``retries``."""

    GONE = (410, {"error": "job 'job-000001' settled and was evicted"}, None)

    def test_evicted_job_is_resubmitted(self, sleeps):
        client = ScriptedClient(
            [(200, {"id": "job-000001", "state": "queued"}, None),
             self.GONE,
             (200, {"id": "job-000002", "state": "done"}, None),
             (200, {"id": "job-000002", "state": "done"}, None)],
            retries=1)
        submitted = []
        doc = client.run({"kind": "cell"}, on_submit=submitted.append)
        assert doc == {"id": "job-000002", "state": "done"}
        assert [job["id"] for job in submitted] == \
            ["job-000001", "job-000002"]
        assert client.attempts == 4

    def test_gone_past_the_retries_surfaces(self, sleeps):
        submit = (200, {"id": "job-000001", "state": "done"}, None)
        client = ScriptedClient([submit, self.GONE] * 3, retries=2)
        with pytest.raises(ServeError) as caught:
            client.run({"kind": "cell"})
        assert caught.value.status == 410
        assert client.attempts == 6          # 1 try + 2 resubmits

    def test_other_errors_are_not_resubmitted(self, sleeps):
        client = ScriptedClient(
            [(200, {"id": "job-000001", "state": "queued"}, None),
             (404, {"error": "unknown job"}, None)], retries=3)
        with pytest.raises(ServeError) as caught:
            client.run({"kind": "cell"})
        assert caught.value.status == 404 and client.attempts == 2
