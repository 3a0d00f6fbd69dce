"""Serve replay units in non-blocking mode, on both L1D engines.

A replay unit resolves its cell through the replay sweep executor.  One
recording must serve both MSHR modes (trace keys ignore
``non_blocking``), and the trace writer's own atomic publish must leave
no staging file behind.
"""

from __future__ import annotations

import pytest

from repro.experiments.store import trace_key
from repro.gpu.config import GPUConfig
from repro.serve.jobs import replay_unit
from repro.serve.protocol import parse_job_request, replay_request
from repro.trace import RECORDER_STATS
from repro.trace.record import capture_records
from repro.trace.replay import replay_records, replay_trace
from repro.workloads import make_workload

SCALE = 0.1


def unit(scheme: str, non_blocking: bool, engine: str):
    """The replay cell the service parses, on the scheduler's engine."""
    body = replay_request(["MM"], [scheme], sms=2, scale=SCALE,
                          non_blocking=non_blocking)
    return parse_job_request(body).units[0].cell(engine)


@pytest.mark.parametrize("with_trace_dir", [True, False],
                         ids=["trace-dir", "in-memory"])
@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_non_blocking_unit_matches_direct_replay(tmp_path, engine,
                                                 with_trace_dir):
    trace_dir = tmp_path / "traces"
    blocking = GPUConfig().scaled(2)
    nb_config = blocking.with_l1d(non_blocking=True)

    got = replay_unit(unit("dlp", True, engine),
                      str(trace_dir) if with_trace_dir else None)

    if with_trace_dir:
        # the one recording sits under the blocking machine's stream key
        path = trace_dir / f"{trace_key('MM', blocking, scale=SCALE)}.rptr"
        assert [p.name for p in trace_dir.iterdir()] == [path.name]
        want = replay_trace(path, "dlp", nb_config, engine=engine)
    else:
        records = capture_records(make_workload("MM", SCALE), blocking)
        want = replay_records(iter(records), nb_config, "dlp", engine=engine)
    assert got == want.to_dict()

    if with_trace_dir:
        # another scheme, in the other MSHR mode, reuses the recording
        captures = RECORDER_STATS.captures
        replay_unit(unit("baseline", False, engine), str(trace_dir))
        assert RECORDER_STATS.captures == captures
        assert not list(trace_dir.glob("*.tmp.*"))
