"""One store entry per cell, whoever writes it.

``repro sweep`` (through :class:`~repro.experiments.executor.SweepExecutor`
or, with ``--replay``, :class:`~repro.trace.sweep.ReplaySweepExecutor`)
and the service's scheduler describe a cell with the same
:class:`~repro.experiments.executor.Cell`, so for one cell they write
one key, one meta and one result: the entry files are byte-identical.
The scheduler runs on a thread pool whose work functions return the
payload the CLI stored, so only what each writer puts around the
payload is compared.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.experiments.store import ResultStore
from repro.serve.protocol import cell_request, parse_job_request, replay_request
from repro.serve.scheduler import Scheduler
from tests.serve.test_scheduler import run, settle

SHAPE = ["--apps", "MM", "--schemes", "dlp", "--sms", "1", "--scale", "0.1"]
META = {"abbr": "MM", "scheme": "dlp", "num_sms": 1, "scale": 0.1, "seed": 0}


@pytest.mark.parametrize("flag, body, meta", [
    ("--non-blocking",
     cell_request("MM", "dlp", sms=1, scale=0.1, non_blocking=True),
     dict(META, non_blocking=True)),
    ("--replay",
     replay_request(["MM"], ["dlp"], sms=1, scale=0.1),
     dict(META, mode="replay")),
], ids=["timing-non-blocking", "replay-blocking"])
def test_cli_and_service_write_the_same_entry(tmp_path, capsys, flag, body,
                                              meta):
    cli_root, serve_root = tmp_path / "cli-store", tmp_path / "serve-store"
    assert main(["sweep", *SHAPE, flag, "--store", str(cli_root)]) == 0
    capsys.readouterr()
    cli = ResultStore(cli_root)

    def stored_by_cli(cell, trace_dir=None):
        result = cli.get(cell.key())
        assert result is not None, "the service keyed the cell differently"
        return result.to_dict()

    async def serve():
        scheduler = Scheduler(store=ResultStore(serve_root), workers=1,
                              pool=ThreadPoolExecutor(max_workers=1),
                              sim_fn=stored_by_cli, replay_fn=stored_by_cli)
        await scheduler.start()
        try:
            job = await settle(scheduler.submit(parse_job_request(body)))
            assert job.state == "done", job.error
        finally:
            await scheduler.shutdown()

    run(serve())
    (entry,) = sorted(cli_root.glob("*.json"))
    assert [p.name for p in serve_root.glob("*.json")] == [entry.name]
    assert (serve_root / entry.name).read_bytes() == entry.read_bytes()
    assert json.loads(entry.read_text())["meta"] == meta
